//! `perfect-tournament`: the twelve PERFECT stand-ins through the
//! seven-arm portfolio via `ipp_core::run_tournament`, configured as
//! `gen_tournament` configures it. One unit is one cell (app × arm).
//!
//! The PERFECT suite is a fixed input, and so is the warm-up pass (corpus
//! programs of a fixed seed): `--seed` does not change this workload.

use crate::measure::{
    cpu_seconds, median, nproc, peak_heap_mb, repeated_setup, reset_peak_heap, secs, Report, Steal,
};
use crate::trace::{emit, replay, replay_layers, verify_coverage, Layers, ReplayJob, Tracer};
use crate::Args;
use fruntime::Machine;
use ipp_core::{portfolio, run_tournament, DriverOptions, Phase, SuiteJob, TournamentOutcome};
use std::time::Instant;

/// The committed report `gen_tournament --check` compares against.
const ARTIFACT: &str = include_str!("../../crates/bench/artifacts/tournament.json");
const SETUP_REPS: usize = 5;
/// Corpus programs in the warm-up pass: about half a second of work, far
/// above timer noise.
const WARMUP_PROGRAMS: u64 = 128;

fn options() -> DriverOptions {
    DriverOptions {
        machines: vec![Machine::intel8(), Machine::amd4()],
        workers: nproc(),
        ..Default::default()
    }
}

/// Parse the suite, then run one untimed tournament over seeded corpus
/// programs so code, allocator and thread start-up are warm.
fn setup(opts: &DriverOptions) -> Vec<SuiteJob> {
    let jobs = perfect::suite_jobs();
    let warm: Vec<SuiteJob> = corpus::jobs(crate::WARMUP_SEED, WARMUP_PROGRAMS).collect();
    std::hint::black_box(run_tournament(&warm, opts).apps.len());
    jobs
}

/// The interpreter-run total the committed report records.
fn artifact_interp_runs() -> Option<u64> {
    let tail = ARTIFACT.split("\"interp_runs\":").nth(1)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Check one pass's outcome; returns (cells, failed cells).
fn check_pass(report: &mut Report, out: &TournamentOutcome) -> (u64, u64) {
    let arms = out.apps.iter().flat_map(|a| &a.arms);
    let total = arms.clone().count() as u64;
    let failed = arms.filter(|a| !a.ok).count() as u64;
    report.check(
        "report is byte-equal to crates/bench/artifacts/tournament.json",
        format!("{}\n", out.to_json()) == ARTIFACT,
    );
    report.check(
        "every cell passes both verify gates",
        failed == 0 && out.metrics.failed_cells == 0,
    );
    (total, failed)
}

pub fn run(args: &Args) -> Report {
    let opts = options();
    let mut report = Report::default();
    if args.trace {
        traced(args, &opts, &mut report);
        return report;
    }
    let (jobs, setup_s) = repeated_setup(SETUP_REPS, || setup(&opts));

    reset_peak_heap();
    let steal = Steal::start();
    let t0 = Instant::now();
    let mut pass_s = Vec::new();
    let mut cells = 0;
    while pass_s.is_empty() || secs(t0) < args.seconds {
        let t = Instant::now();
        let out = run_tournament(&jobs, &opts);
        pass_s.push(secs(t));
        let (total, failed) = check_pass(&mut report, &out);
        cells = total;
        report.attempted += total;
        report.failed += failed;
    }
    let heap_mb = peak_heap_mb();
    steal.finish(&mut report);

    let passes = pass_s.len();
    let ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", setup_s, "s", SETUP_REPS);
    let cells_per_s: Vec<f64> = pass_s.iter().map(|s| cells as f64 / s).collect();
    report.metric("throughput_per_s", median(&cells_per_s), "1/s", passes);
    report.metric("peak_heap_mb", heap_mb, "MB", 1);
    report.metric("p50_ms", median(&ms), "ms", passes);
    report
}

/// One untraced pass for the entry point's own counters and wall, then
/// the traced replay of the same inputs through the layers.
fn traced(args: &Args, opts: &DriverOptions, report: &mut Report) {
    let jobs = setup(opts);
    let (u0, s0) = cpu_seconds();
    let t = Instant::now();
    let out = run_tournament(&jobs, opts);
    let untraced_s = secs(t);
    let (u1, s1) = cpu_seconds();
    let (total, failed) = check_pass(report, &out);
    report.attempted = total;
    report.failed = failed;

    let tracer = Tracer::new();
    let apps = perfect::all();
    let replay_jobs: Vec<ReplayJob> = apps
        .iter()
        .map(|a| ReplayJob {
            source: a.source.to_string(),
            annotations: a.annotations.to_string(),
        })
        .collect();
    let t = Instant::now();
    let c = replay(
        &tracer,
        &replay_jobs,
        0,
        &portfolio(),
        &opts.machines,
        2,
        opts,
    );
    let traced_s = secs(t);

    let m = &out.metrics;
    report.check(
        "driver interp runs equal the committed report's receipts",
        Some(m.interp_runs) == artifact_interp_runs(),
    );
    report.check(
        "replay makes the driver's dedup decisions",
        c.interp_runs == m.interp_runs && c.verify_cache_hits == m.verify_cache_hits,
    );
    report.check(
        "both gates saw the same directive-loop executions",
        c.seq_loop_execs == c.par_loop_execs,
    );
    report.check(
        "replay retires the driver's VM instructions",
        c.vm.insns_retired == m.vm.insns_retired,
    );
    report.check("every replayed cell verifies", c.cells_ok == total);

    let mut layers = Layers::new();
    replay_layers(&mut layers, &tracer, &c);
    let cells = total as f64;
    layers.insert("driver.interp_runs", (m.interp_runs as f64, 1));
    layers.insert(
        "driver.baseline_memo_hits",
        (m.baseline_memo_hits as f64, 1),
    );
    layers.insert("driver.verify_cache_hits", (m.verify_cache_hits as f64, 1));
    layers.insert(
        "driver.dedup_ratio",
        (1.0 - m.interp_runs as f64 / (3.0 * cells), 1),
    );
    layers.insert(
        "driver.verify_ms",
        (
            m.phases.nanos_of(Phase::Verify) as f64 / 1e6,
            m.phases.count_of(Phase::Verify) as usize,
        ),
    );
    layers.insert("process.user_cpu_s", (u1 - u0, 1));
    layers.insert("process.sys_cpu_s", (s1 - s0, 1));
    layers.insert("trace.traced_wall_s", (traced_s, 1));
    layers.insert("trace.untraced_wall_s", (untraced_s, 1));
    emit(report, &layers);

    let (verify_ms, runtime_ms) = verify_coverage(&tracer);
    println!(
        "replay verify spans {verify_ms:.1} ms, of which fruntime calls {runtime_ms:.1} ms ({:.1}%)",
        100.0 * runtime_ms / verify_ms.max(1e-9)
    );
    if let Err(e) = tracer.write_json(&crate::trace_path(args), args.workload, args.seed) {
        report
            .warnings
            .push(format!("could not write the span file: {e}"));
    }
}
