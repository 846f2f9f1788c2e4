//! `corpus-stream`: seeded `corpus` programs through `ipp_core::run_stream`
//! with the auto window, on one worker per CPU. One unit is one program
//! (four cells, one per inlining mode).
//!
//! Programs are generated during set-up; parsing happens inside the timed
//! region, as the stream pulls each window. The timed region streams the
//! pool in passes of `PASS_PROGRAMS`; the pool holds enough programs for
//! twice the seed code's rate, so no program is evaluated twice in a run.

use crate::measure::{
    cpu_seconds, median, nproc, peak_heap_mb, repeated_setup, reset_peak_heap, secs, Report, Steal,
};
use crate::trace::{emit, replay, replay_layers, Layers, ReplayJob, Tracer};
use crate::Args;
use corpus::{GeneratedProgram, Rng};
use fruntime::{Engine, ExecOptions, RunResult};
use ipp_core::{
    compile, default_configs, run_stream, DriverOptions, InlineMode, Phase, PipelineOptions,
    StreamOutcome,
};
use std::time::Instant;

const SETUP_REPS: usize = 5;
/// Pool size per measured second (at least one pass): about twice the
/// seed code's rate on a 2-vCPU host.
const POOL_PER_SECOND: f64 = 1000.0;
/// Programs per timed pass: over two seconds of streaming on the seed
/// code, long enough that a short burst of host contention moves one pass
/// by little.
const PASS_PROGRAMS: usize = 1024;
/// Programs in the untimed warm-up stream. Their seed is fixed, so every
/// run's set-up does the same work, and disjoint from the pool's.
const WARMUP_PROGRAMS: u64 = 192;
/// Programs checked against the tree-walker after the timed region.
const DIFFERENTIAL_SAMPLE: usize = 6;
/// Programs the traced run streams and then replays.
const TRACED_PROGRAMS: usize = 400;

fn options() -> DriverOptions {
    DriverOptions {
        workers: nproc(),
        ..Default::default()
    }
}

fn setup(args: &Args, opts: &DriverOptions) -> Vec<GeneratedProgram> {
    let pool = ((args.seconds * POOL_PER_SECOND).ceil() as usize).max(PASS_PROGRAMS) as u64;
    let programs: Vec<GeneratedProgram> = corpus::stream(args.seed, pool).collect();
    let warm = run_stream(corpus::jobs(crate::WARMUP_SEED, WARMUP_PROGRAMS), opts);
    std::hint::black_box(warm.summary.cells);
    programs
}

fn job(g: &GeneratedProgram) -> ipp_core::SuiteJob {
    g.job()
        .expect("corpus programs parse by the generator's contract")
}

/// Bitwise equality of everything a run makes observable.
fn identical(a: &RunResult, b: &RunResult) -> bool {
    a.io == b.io
        && a.stopped == b.stopped
        && a.total_ops == b.total_ops
        && a.par_events == b.par_events
        && a.races == b.races
        && a.memory.commons == b.memory.commons
        && a.memory.slots.len() == b.memory.slots.len()
        && a.memory.slots.iter().zip(&b.memory.slots).all(|(x, y)| {
            x.ty == y.ty
                && x.data.len() == y.data.len()
                && x.data
                    .iter()
                    .zip(&y.data)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The VM and the independent tree-walker agree on the original program
/// and on its compilation under every mode.
fn engines_agree(g: &GeneratedProgram) -> bool {
    let j = job(g);
    let mut programs = vec![j.program.clone()];
    for mode in InlineMode::all() {
        programs.push(compile(&j.program, &j.registry, &PipelineOptions::for_mode(mode)).program);
    }
    programs.iter().all(|p| {
        let on = |engine| {
            fruntime::run(
                p,
                &ExecOptions {
                    engine,
                    ..Default::default()
                },
            )
        };
        match (on(Engine::TreeWalk), on(Engine::Bytecode)) {
            (Ok(t), Ok(v)) => identical(&t, &v),
            (Err(t), Err(v)) => t.message == v.message,
            _ => false,
        }
    })
}

fn check_stream(report: &mut Report, out: &StreamOutcome, handed: u64) {
    let s = &out.summary;
    report.check("zero panicked cells", s.panicked_cells == 0);
    report.check(
        "every program handed to the stream was evaluated",
        s.programs == handed,
    );
    report.attempted += s.cells;
    report.failed += s.failed_cells;
}

pub fn run(args: &Args) -> Report {
    let opts = options();
    let mut report = Report::default();
    if args.trace {
        traced(args, &opts, &mut report);
        return report;
    }
    let (programs, setup_s) = repeated_setup(SETUP_REPS, || setup(args, &opts));

    reset_peak_heap();
    let steal = Steal::start();
    let mut pass_s = Vec::new();
    let t0 = Instant::now();
    for pass in programs.chunks_exact(PASS_PROGRAMS) {
        if !pass_s.is_empty() && secs(t0) >= args.seconds {
            break;
        }
        let t = Instant::now();
        let out = run_stream(pass.iter().map(job), &opts);
        pass_s.push(secs(t));
        check_stream(&mut report, &out, PASS_PROGRAMS as u64);
    }
    let heap_mb = peak_heap_mb();
    steal.finish(&mut report);
    let passes = pass_s.len();
    let evaluated = passes * PASS_PROGRAMS;
    if secs(t0) < args.seconds {
        report
            .warnings
            .push("the program pool ran out before the measured seconds".to_string());
    }

    let mut rng = Rng::new(args.seed);
    let agree = (0..DIFFERENTIAL_SAMPLE).all(|_| engines_agree(&programs[rng.index(evaluated)]));
    report.check(
        "VM observables equal the tree-walker's on a seeded sample",
        agree,
    );

    let ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", setup_s, "s", SETUP_REPS);
    let programs_per_s: Vec<f64> = pass_s.iter().map(|s| PASS_PROGRAMS as f64 / s).collect();
    report.metric("throughput_per_s", median(&programs_per_s), "1/s", passes);
    report.metric("peak_heap_mb", heap_mb, "MB", 1);
    report.metric("p50_ms", median(&ms), "ms", passes);
    report
}

/// Stream a fixed prefix of the pool untraced, then replay the same
/// programs through the layers, window by window as the stream runs them.
fn traced(args: &Args, opts: &DriverOptions, report: &mut Report) {
    let programs = setup(args, opts);
    let programs = &programs[..TRACED_PROGRAMS.min(programs.len())];
    let (u0, s0) = cpu_seconds();
    let t = Instant::now();
    let out = run_stream(programs.iter().map(job), opts);
    let untraced_s = secs(t);
    let (u1, s1) = cpu_seconds();
    check_stream(report, &out, programs.len() as u64);

    let tracer = Tracer::new();
    let window = opts.effective_stream_window();
    let t = Instant::now();
    let mut c = crate::trace::LayerCounts::default();
    for (w, chunk) in programs.chunks(window).enumerate() {
        let jobs: Vec<ReplayJob> = chunk
            .iter()
            .map(|g| ReplayJob {
                source: g.source.clone(),
                annotations: g.annotations.clone(),
            })
            .collect();
        c.absorb(&replay(
            &tracer,
            &jobs,
            (w * window) as u64,
            &default_configs(),
            &[],
            0,
            opts,
        ));
    }
    let traced_s = secs(t);

    let s = &out.summary;
    report.check(
        "replay makes the stream's dedup decisions",
        c.interp_runs == s.interp_runs && c.verify_cache_hits == s.verify_cache_hits,
    );
    report.check(
        "replay finds the stream's loops",
        c.loops_total == s.loops_total && c.loops_parallel == s.loops_parallel,
    );
    report.check(
        "both gates saw the same directive-loop executions",
        c.seq_loop_execs == c.par_loop_execs,
    );
    report.check(
        "replay retires the stream's VM instructions",
        c.vm.insns_retired == out.vm.insns_retired,
    );

    let mut layers = Layers::new();
    replay_layers(&mut layers, &tracer, &c);
    layers.insert("driver.interp_runs", (s.interp_runs as f64, 1));
    layers.insert(
        "driver.baseline_memo_hits",
        (c.baseline_memo_hits as f64, 1),
    );
    layers.insert("driver.verify_cache_hits", (s.verify_cache_hits as f64, 1));
    layers.insert(
        "driver.dedup_ratio",
        (1.0 - s.interp_runs as f64 / (3.0 * s.cells as f64), 1),
    );
    layers.insert(
        "driver.verify_ms",
        (
            out.phases.nanos_of(Phase::Verify) as f64 / 1e6,
            out.phases.count_of(Phase::Verify) as usize,
        ),
    );
    layers.insert("process.user_cpu_s", (u1 - u0, 1));
    layers.insert("process.sys_cpu_s", (s1 - s0, 1));
    layers.insert("trace.traced_wall_s", (traced_s, 1));
    layers.insert("trace.untraced_wall_s", (untraced_s, 1));
    emit(report, &layers);
    if let Err(e) = tracer.write_json(&crate::trace_path(args), args.workload, args.seed) {
        report
            .warnings
            .push(format!("could not write the span file: {e}"));
    }
}
