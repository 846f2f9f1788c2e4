//! Per-application evaluation: everything Table II and Figure 20 need,
//! computed from one [`App`].
//!
//! Evaluation goes through the `ipp-core` [driver](ipp_core::driver): a
//! worker pool over the application × configuration matrix with a per-app
//! baseline-run memo, a verify-dedup cache, and per-phase observability.
//! For each configuration the driver compiles the application, verifies it
//! with the runtime testers (original ≡ optimized, sequential ≡ threaded),
//! measures the op counts, applies the §IV-B empirical-tuning step per
//! machine, and emits the table rows / figure points.
//!
//! [`evaluate_app_serial`] preserves the pre-driver serial path — one
//! full three-run `verify` plus a separate cost-model run per
//! configuration — as the baseline the `driver_scaling` benchmark
//! measures the driver against.

use crate::suite::App;
use fruntime::{run, simulate, tune, ExecOptions, Machine};
use ipp_core::driver::{run_suite, AppReport, DriverOptions, SuiteJob, SuiteOutcome};
use ipp_core::{
    compile, table2_rows, verify_with_baseline_using, Fig20Point, InlineMode, PipelineOptions,
    PipelineResult, SuiteMetrics, Table2Row, VerifyResult,
};

/// Everything measured for one application.
#[derive(Debug, Clone)]
pub struct AppEvaluation {
    /// Application name.
    pub name: &'static str,
    /// The three Table II rows (no-inline / conventional / annotation).
    pub rows: Vec<Table2Row>,
    /// Figure 20 points (configurations × machines).
    pub fig20: Vec<Fig20Point>,
    /// Verification results per configuration.
    pub verify: Vec<(InlineMode, VerifyResult)>,
    /// One pipeline result per configuration (including `auto-annot`),
    /// for deeper inspection.
    pub results: Vec<(InlineMode, PipelineResult)>,
    /// Structured failures for configurations that did not complete
    /// (empty on the healthy path).
    pub failures: Vec<ipp_core::PipelineError>,
}

impl AppEvaluation {
    /// True when every configuration completed and passed both
    /// runtime-tester gates.
    pub fn all_verified(&self) -> bool {
        self.failures.is_empty() && self.verify.iter().all(|(_, v)| v.ok())
    }
}

/// Threads used for the correctness-checking parallel runs.
pub const VERIFY_THREADS: usize = 4;

/// Driver configuration used for suite evaluation. Result retention is
/// on: the suite is twelve apps, and every consumer of an
/// [`AppEvaluation`] reads the per-configuration payloads.
pub fn driver_options(machines: &[Machine]) -> DriverOptions {
    DriverOptions {
        verify_threads: VERIFY_THREADS,
        machines: machines.to_vec(),
        retain_results: true,
        ..Default::default()
    }
}

/// Package one [`App`] as a driver job.
pub fn suite_job(app: &App) -> SuiteJob {
    SuiteJob {
        name: app.name.to_string(),
        program: app.program(),
        registry: app.registry(),
    }
}

/// Package the whole suite as driver jobs.
pub fn suite_jobs() -> Vec<SuiteJob> {
    crate::suite::all().iter().map(suite_job).collect()
}

fn from_report(app: &App, report: AppReport) -> AppEvaluation {
    AppEvaluation {
        name: app.name,
        rows: report.rows,
        fig20: report.fig20,
        verify: report.verify,
        results: report.results,
        failures: report.failures,
    }
}

/// Evaluate one application on the given machines (via the driver).
pub fn evaluate_app(app: &App, machines: &[Machine]) -> AppEvaluation {
    let (report, _) = ipp_core::driver::run_app(&suite_job(app), &driver_options(machines));
    from_report(app, report)
}

/// Evaluate the whole suite through the concurrent driver.
pub fn evaluate_suite(machines: &[Machine]) -> Vec<AppEvaluation> {
    evaluate_suite_with_metrics(machines, &driver_options(machines)).0
}

/// Evaluate the whole suite and keep the driver's observability report.
pub fn evaluate_suite_with_metrics(
    machines: &[Machine],
    opts: &DriverOptions,
) -> (Vec<AppEvaluation>, SuiteMetrics) {
    let mut opts = opts.clone();
    if opts.machines.is_empty() {
        opts.machines = machines.to_vec();
    }
    let SuiteOutcome { apps, metrics } = run_suite(&suite_jobs(), &opts);
    let evals = crate::suite::all()
        .iter()
        .zip(apps)
        .map(|(app, report)| from_report(app, report))
        .collect();
    (evals, metrics)
}

/// The pre-driver serial path: per configuration, one three-run `verify`
/// against the original plus a separate sequential run for the cost model
/// — 16 interpreter runs per application (4 configurations), no
/// memoization. Kept as the
/// measured baseline for the `driver_scaling` benchmark and the
/// driver-equivalence tests.
pub fn evaluate_app_serial(app: &App, machines: &[Machine]) -> AppEvaluation {
    let program = app.program();
    let registry = app.registry();

    let mut results = Vec::new();
    let mut verifies = Vec::new();
    let mut fig20 = Vec::new();

    let par_opts = ExecOptions {
        threads: VERIFY_THREADS,
        ..Default::default()
    };

    for mode in InlineMode::all() {
        let r = compile(&program, &registry, &PipelineOptions::for_mode(mode));
        let base = ipp_core::baseline_run(&program).unwrap_or_else(|e| {
            panic!(
                "{} [{}]: runtime tester failed: {e}",
                app.name,
                mode.label()
            )
        });
        let v = verify_with_baseline_using(&base, &r.program, &par_opts).unwrap_or_else(|e| {
            panic!(
                "{} [{}]: runtime tester failed: {e}",
                app.name,
                mode.label()
            )
        });

        // Figure 20: simulate each machine with empirical tuning.
        let seq = run(&r.program, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{} [{}]: {e}", app.name, mode.label()));
        for m in machines {
            let disabled = tune(&seq.par_events, m);
            let sim = simulate(seq.total_ops, &seq.par_events, m, &disabled);
            fig20.push(Fig20Point {
                app: app.name.to_string(),
                config: mode.label().to_string(),
                machine: m.name.to_string(),
                speedup: sim.speedup(),
                tuned_off: disabled.len(),
            });
        }

        verifies.push((mode, v));
        results.push((mode, r));
    }

    let rows = table2_rows(app.name, &results[0].1, &results[1].1, &results[2].1);
    AppEvaluation {
        name: app.name,
        rows,
        fig20,
        verify: verifies,
        results,
        failures: Vec::new(),
    }
}

/// Evaluate the whole suite on the legacy serial path (bench baseline).
pub fn evaluate_suite_serial(machines: &[Machine]) -> Vec<AppEvaluation> {
    crate::suite::all()
        .iter()
        .map(|a| evaluate_app_serial(a, machines))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::by_name;

    #[test]
    fn dyfesm_evaluation_shape() {
        let ev = evaluate_app(&by_name("DYFESM").unwrap(), &[Machine::intel8()]);
        assert!(ev.all_verified());
        assert_eq!(ev.rows.len(), 3);
        let annot = &ev.rows[2];
        assert_eq!(annot.config, "annotation");
        assert_eq!(annot.par_loss, 0);
        assert!(annot.par_extra >= 1, "{annot:?}");
        assert_eq!(ev.fig20.len(), 4); // 4 configs × 1 machine
    }

    #[test]
    fn bdna_conventional_loses_annotation_does_not() {
        let ev = evaluate_app(&by_name("BDNA").unwrap(), &[]);
        let conv = &ev.rows[1];
        let annot = &ev.rows[2];
        assert!(conv.par_loss > 0, "{conv:?}");
        assert_eq!(annot.par_loss, 0, "{annot:?}");
        assert!(ev.all_verified());
    }

    #[test]
    fn speedups_are_modest_like_fig20() {
        // The paper: "at most 10% performance improvement" on these small
        // inputs. The simulated speedups should stay in a sane band.
        let ev = evaluate_app(
            &by_name("MDG").unwrap(),
            &[Machine::intel8(), Machine::amd4()],
        );
        for p in &ev.fig20 {
            assert!(p.speedup >= 0.95 && p.speedup < 4.0, "{p:?}");
        }
    }

    #[test]
    fn driver_matches_serial_path_on_one_app() {
        let app = by_name("TRFD").unwrap();
        let machines = [Machine::intel8(), Machine::amd4()];
        let fast = evaluate_app(&app, &machines);
        let slow = evaluate_app_serial(&app, &machines);
        assert_eq!(fast.rows, slow.rows);
        assert_eq!(fast.fig20, slow.fig20);
        for ((_, a), (_, b)) in fast.results.iter().zip(&slow.results) {
            assert_eq!(a.source, b.source);
        }
    }
}
