//! # bench — regenerates every table and figure of the paper
//!
//! Binaries:
//! * `gen_table2` — prints Table II (per-app loop counts and code sizes
//!   under the three inlining configurations) plus the column totals the
//!   paper quotes in §IV-A. `--describe` prints Table I.
//! * `gen_fig20` — prints Figure 20 (simulated speedups per app ×
//!   configuration × machine, after §IV-B empirical tuning).
//! * `gen_all` — both, plus the verification summary.
//! * `gen_autogen` — the auto-annot coverage table as GFM, for the CI
//!   job summary.
//! * `gen_tournament` — the best-of-portfolio column: per-app
//!   configuration-tournament winners with their "why" records.
//!   `--write` refreshes the committed `artifacts/tournament.json`;
//!   `--check` exits nonzero unless a fresh run reproduces it byte for
//!   byte (the CI winner-stability gate).
//! * `check_artifacts` — the CI gates over `interp_engines.json` and
//!   `corpus_throughput.json` ([`gates`]): `--engines PATH`,
//!   `--throughput PATH`, and `--ledger COMMITTED FRESH` for a fresh
//!   run's allocation count against the committed one.
//!
//! Benches (`cargo bench`, on the local [`harness`] shim — the build
//! container has no crates.io access, so criterion is replaced by a
//! API-compatible wall-clock harness):
//! * `table2` / `fig20` — wall-clock of the pipeline per configuration and
//!   of the measurement harness.
//! * `driver_scaling` — the concurrent cached driver over the suite at
//!   several worker counts; emits a JSON artifact.
//! * `ablation_threshold` — the ≤150-statement inlining budget swept.
//! * `ablation_peel` — last-iteration peeling on/off (legality accounting).
//! * `ablation_reverse` — reverse-inlining pattern matcher tolerance cost.
//! * `analysis_micro` — dependence-test microbenchmarks.

#![warn(missing_docs)]

pub mod gates;
pub mod harness;

use fruntime::Machine;
use ipp_core::{
    render_fig20, render_table2, totals_for, AppReport, Fig20Point, SuiteMetrics, Table2Row,
};
use perfect::{driver_options, evaluate_suite, evaluate_suite_with_metrics};

/// The two machines of the paper's evaluation.
pub fn machines() -> Vec<Machine> {
    vec![Machine::intel8(), Machine::amd4()]
}

/// Evaluate the full suite on both machines.
pub fn full_evaluation() -> Vec<AppReport> {
    evaluate_suite(&machines())
}

/// Evaluate the full suite and keep the driver's observability report.
pub fn full_evaluation_with_metrics() -> (Vec<AppReport>, SuiteMetrics) {
    let ms = machines();
    evaluate_suite_with_metrics(&ms, &driver_options(&ms))
}

/// Render the driver's observability report: per-phase wall-clock and the
/// interpreter-run accounting behind the baseline memo / verify cache.
pub fn metrics_report(m: &SuiteMetrics) -> String {
    let mut out = String::from("DRIVER METRICS — phase timings and interpreter-run accounting\n\n");
    out.push_str(&m.render_phases());
    out.push_str(&format!(
        "\nworkers={} wall={:.3} ms interp-runs={} baseline-memo-hits={} verify-cache-hits={}\n",
        m.workers,
        m.wall_nanos as f64 / 1e6,
        m.interp_runs,
        m.baseline_memo_hits,
        m.verify_cache_hits
    ));
    out
}

/// Flatten Table II rows from an evaluation.
pub fn all_rows(evals: &[AppReport]) -> Vec<Table2Row> {
    evals.iter().flat_map(|e| e.rows.clone()).collect()
}

/// Flatten Figure 20 points from an evaluation.
pub fn all_points(evals: &[AppReport]) -> Vec<Fig20Point> {
    evals.iter().flat_map(|e| e.fig20.clone()).collect()
}

/// Render the complete Table II report, including the §IV-A totals.
pub fn table2_report(evals: &[AppReport]) -> String {
    let rows = all_rows(evals);
    let mut out =
        String::from("TABLE II — automatically parallelized loops per inlining configuration\n\n");
    out.push_str(&render_table2(&rows));
    out.push('\n');
    for config in ["no-inline", "conventional", "annotation"] {
        let t = totals_for(&rows, config);
        out.push_str(&format!(
            "TOTAL {:<14} par-loops={:<4} par-loss={:<4} par-extra={:<4} loc={}\n",
            config, t.par_loops, t.par_loss, t.par_extra, t.loc
        ));
    }
    out.push_str("\npaper totals for comparison: conventional lost 90 / gained 12; annotation lost 0 / gained 37; conventional ≈ +10% code size\n");
    out
}

/// Render the complete Figure 20 report.
pub fn fig20_report(evals: &[AppReport]) -> String {
    let pts = all_points(evals);
    let mut out = String::from(
        "FIGURE 20 — simulated runtime speedups (machine cost model, after empirical tuning)\n\n",
    );
    out.push_str(&render_fig20(&pts));
    out.push_str("\npaper observation for comparison: at most ~10% improvement on most benchmarks; annotation-based inlining best overall\n");
    out
}

/// Verification summary (the paper's runtime-tester methodology).
pub fn verify_report(evals: &[AppReport]) -> String {
    let mut out =
        String::from("RUNTIME TESTERS — original ≡ optimized ≡ threaded, per configuration\n\n");
    for e in evals {
        for (mode, v) in &e.verify {
            out.push_str(&format!(
                "{:<8} {:<14} orig-match={:<5} par-match={:<5} advisory-races={}\n",
                e.name,
                mode.label(),
                v.matches_original,
                v.parallel_consistent,
                v.races
            ));
        }
    }
    out
}

/// Table I — the application descriptions.
pub fn table1_report() -> String {
    let mut out =
        String::from("TABLE I — summary of the PERFECT benchmarks (synthetic stand-ins)\n\n");
    for a in perfect::all() {
        out.push_str(&format!("{:<8} {}\n", a.name, a.description));
    }
    out
}
