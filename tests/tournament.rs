//! Portfolio tournaments on the real 12-application suite: determinism,
//! cache-sharing economics, and the best-of-portfolio guarantee.
//!
//! The tournament report is the committed `tournament.json` artifact and
//! the CI winner-stability gate, so its contract is strict: byte-identical
//! JSON at any worker count, portfolio cost far below arms × the uncached
//! per-configuration cost, and a winner that beats or ties every fixed
//! configuration on every app (argmax over a superset, so this can only
//! fail if scoring itself regresses). The daemon's per-request
//! tournament and evaluate paths must reach the same verdicts, and its
//! tournament responses the recorded wire bytes. The one-worker run's
//! peak live heap, counted exactly on its one thread, is gated too.

use bench::harness::alloc_counter::{self, CountingAlloc};
use fruntime::Machine;
use ipp_core::driver::DriverOptions;
use ipp_core::tournament::run_tournament;
use ipp_core::{evaluate_request, evaluate_tournament, InlineMode, TournamentOutcome};
use perfect::suite_jobs;
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn run_at(workers: usize) -> TournamentOutcome {
    let opts = DriverOptions {
        workers,
        machines: vec![Machine::intel8(), Machine::amd4()],
        ..Default::default()
    };
    run_tournament(&suite_jobs(), &opts)
}

/// One two-worker batch tournament, shared by the tests that only read it.
fn batch() -> &'static TournamentOutcome {
    static BATCH: OnceLock<TournamentOutcome> = OnceLock::new();
    BATCH.get_or_init(|| run_at(2))
}

#[test]
fn tournament_report_is_byte_identical_across_worker_counts() {
    let base = run_at(1);
    let json = base.to_json();
    // One worker runs one app's row at a time, and so does each of many.
    assert_eq!(base.metrics.peak_rows, 1);
    for workers in [2, 8] {
        let out = run_at(workers);
        assert_eq!(
            json,
            out.to_json(),
            "tournament report diverged at {workers} workers"
        );
        let m = &out.metrics;
        assert!(m.peak_rows >= 1 && m.peak_rows <= m.workers, "{m:?}");
    }
}

#[test]
fn one_app_tournament_with_helping_workers_equals_one_worker() {
    // A one-app tournament is one row: every worker beyond the first helps
    // with that row's seven cells through the same memo.
    let accounting = |m: &ipp_core::SuiteMetrics| {
        [
            m.interp_runs,
            m.baseline_memo_hits,
            m.verify_cache_hits,
            m.compile_memo_hits,
        ]
    };
    for job in suite_jobs() {
        let run = |workers| {
            let opts = DriverOptions {
                workers,
                machines: vec![Machine::intel8(), Machine::amd4()],
                ..Default::default()
            };
            run_tournament(std::slice::from_ref(&job), &opts)
        };
        let base = run(1);
        let out = run(8);
        assert_eq!(base.to_json(), out.to_json(), "{}", job.name);
        assert_eq!(
            accounting(&base.metrics),
            accounting(&out.metrics),
            "{}: run accounting differs at 8 workers",
            job.name
        );
        assert_eq!(out.metrics.peak_rows, 1, "{}", job.name);
    }
}

#[test]
fn portfolio_shares_caches_across_arms() {
    let out = batch();
    let arms = out.arm_labels.len() as u64;
    let apps = out.apps.len() as u64;
    assert_eq!(apps, 12);
    assert_eq!(out.metrics.configs, arms);

    // Uncached, every arm would pay 3 interpreter runs (baseline +
    // sequential + parallel verification). The shared baseline memo and
    // the verify-dedup cache must hold the whole portfolio to at most
    // half of that; per app, strictly under the uncached bill.
    let total: u64 = out.apps.iter().map(|a| a.interp_runs).sum();
    let uncached = 3 * arms * apps;
    assert!(
        total <= uncached / 2,
        "portfolio cost not shared: {total} interpreter runs vs {uncached} uncached"
    );
    for app in &out.apps {
        assert!(
            app.interp_runs < 3 * arms,
            "{}: {} interpreter runs, cache sharing inert",
            app.app,
            app.interp_runs
        );
        assert!(
            app.arms_cached > 0,
            "{}: no arm was served from the verify-dedup cache",
            app.app
        );
    }
    // The driver-level counters agree with the per-app receipts.
    assert_eq!(out.metrics.interp_runs, total);
}

#[test]
fn winner_beats_every_fixed_configuration_everywhere() {
    let out = batch();
    for app in &out.apps {
        let winner = app
            .winner
            .as_deref()
            .unwrap_or_else(|| panic!("{}: no arm survived verification", app.app));
        for arm in &app.arms {
            if let Some(score) = arm.score_micros {
                assert!(
                    app.winner_score_micros >= score,
                    "{}: winner {winner} ({}) loses to arm {} ({score})",
                    app.app,
                    app.winner_score_micros,
                    arm.arm
                );
            }
        }
        // The four classic modes are all in the portfolio, so the winner
        // dominating every scored arm implies best-of-portfolio >= every
        // fixed configuration. Make the premise explicit:
        for mode in InlineMode::all() {
            assert!(
                app.arms.iter().any(|a| a.arm == mode.label()),
                "{}: portfolio lost fixed arm {}",
                app.app,
                mode.label()
            );
        }
    }
}

#[test]
fn daemon_agrees_with_the_batch_tournament_on_every_app() {
    // The daemon scores on the paper's two hosts, as the batch run does.
    let opts = DriverOptions::default();
    let apps = perfect::all();
    assert_eq!(apps.len(), batch().apps.len());
    for (app, want) in apps.iter().zip(&batch().apps) {
        assert_eq!(app.name, want.app);
        let got = evaluate_tournament(app.name, app.source, app.annotations, &opts, None)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        assert_eq!(got.winner, want.winner, "{}", app.name);
        assert_eq!(
            got.winner_score_micros, want.winner_score_micros,
            "{}",
            app.name
        );
        assert_eq!(got.gained, want.gained, "{}", app.name);
        assert_eq!(got.lost, want.lost, "{}", app.name);
        assert_eq!(got.arms.len(), want.arms.len(), "{}", app.name);
        for (g, w) in got.arms.iter().zip(&want.arms) {
            let cell = format!("{} [{}]", app.name, w.arm);
            assert_eq!(g.arm, w.arm, "{cell}");
            assert_eq!(g.score_micros, w.score_micros, "{cell}");
            assert_eq!(g.loc, w.loc, "{cell}");
            assert_eq!(g.loops_parallel, w.loops_parallel, "{cell}");
        }
        // Each default-mode arm is also a plain evaluate request.
        for mode in InlineMode::all() {
            let cell = format!("{} [{}]", app.name, mode.label());
            let w = want.arms.iter().find(|a| a.arm == mode.label()).unwrap();
            let r = evaluate_request(app.name, app.source, app.annotations, mode, &opts)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(r.loc, w.loc, "{cell}");
            assert_eq!(r.loops_parallel, w.loops_parallel, "{cell}");
            assert_eq!(r.verified(), w.ok, "{cell}");
            let speedups = |ms: &[ipp_core::tournament::MachineScore]| {
                ms.iter()
                    .map(|m| (m.machine.clone(), m.speedup_micros))
                    .collect::<Vec<_>>()
            };
            assert_eq!(speedups(&r.speedups), speedups(&w.machines), "{cell}");
        }
    }
}

/// Eleven loops, each made parallel only by inlining its call: the
/// winner gains `MAIN#2` and `MAIN#10`, which a string sort would put in
/// the wrong order.
fn eleven_call_loops() -> String {
    let mut src = String::from("      PROGRAM MAIN\n      COMMON /D/ X(2000)\n");
    for _ in 0..11 {
        src.push_str("      DO I = 1, 2000\n        CALL S(I)\n      ENDDO\n");
    }
    src.push_str("      WRITE(6,*) X(1), X(2000)\n      END\n");
    src.push_str("      SUBROUTINE S(K)\n      COMMON /D/ X(2000)\n");
    src.push_str("      X(K) = X(K)*0.5 + K*1.5\n      END\n");
    src
}

#[test]
fn daemon_and_batch_order_gained_loops_by_numeric_index() {
    let source = eleven_call_loops();
    let annotations = "subroutine S(K) { dimension X[2000]; X[K] = unknown(X[K], K); }";
    let opts = DriverOptions {
        workers: 1,
        ..Default::default()
    };
    let job = ipp_core::SuiteJob {
        name: "CALLS".into(),
        program: fir::parse(&source).unwrap(),
        registry: finline::annot::AnnotRegistry::parse(annotations).unwrap(),
    };
    let batch = run_tournament(std::slice::from_ref(&job), &opts);
    let want = &batch.apps[0];
    let pos = |id: &str| want.gained.iter().position(|g| g == id);
    let (two, ten) = (pos("MAIN#2"), pos("MAIN#10"));
    assert!(two.is_some() && ten.is_some(), "{:?}", want.gained);
    assert!(two < ten, "{:?}", want.gained);
    let got = evaluate_tournament("CALLS", &source, annotations, &opts, None).unwrap();
    assert_eq!(got.winner, want.winner);
    assert_eq!(got.gained, want.gained);
    assert_eq!(got.lost, want.lost);
}

/// The daemon's tournament response for every PERFECT app, as wire
/// bytes, recorded while each verification still kept its whole trace
/// until scoring: scoring once and dropping the trace changes no byte.
const DAEMON_TOURNAMENT_RESPONSES: &str =
    include_str!("fixtures/daemon_tournament_responses.jsonl");

#[test]
fn daemon_tournament_responses_are_byte_identical_to_the_recorded_ones() {
    let opts = DriverOptions::default();
    let apps = perfect::all();
    let want: Vec<&str> = DAEMON_TOURNAMENT_RESPONSES.lines().collect();
    assert_eq!(want.len(), apps.len());
    for (app, want) in apps.iter().zip(want) {
        let got = evaluate_tournament(app.name, app.source, app.annotations, &opts, None)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        assert_eq!(
            server::proto::tournament_response(app.name, &got),
            want,
            "{}",
            app.name
        );
    }
}

/// The one-worker tournament's peak live heap above its inputs, in
/// bytes, plus 5%. The driver evaluates row by row and ranks each app's
/// row the moment its last arm completes, so only the running app's memo
/// (its baseline run with final memory, its shared compiles and verify
/// slots) and its cells are alive besides the finished apps' ranked
/// records. Each verification keeps its per-machine scores, and its
/// loop-execution trace is freed before the chunked gate runs; the chunk
/// journal costs 16 bytes per logged store. The peak was 1,162,080 bytes
/// while a statement stored its `DO` loop inline (336 B, now 128 B),
/// 2,086,279 bytes while finished rows kept their payloads to the end of
/// the run, 3,763,286 bytes with every app's memo kept as well, and
/// 5,660,750 bytes with every trace kept too.
const PEAK_LIVE_CEILING: u64 = 1_150_848 * 105 / 100;

#[test]
fn one_worker_tournament_peak_heap_holds_scores_not_traces() {
    // One worker runs every cell on the calling thread, so the thread's
    // live-byte count sees all of the tournament's heap, exactly.
    let jobs = suite_jobs();
    let opts = DriverOptions {
        workers: 1,
        machines: vec![Machine::intel8(), Machine::amd4()],
        ..Default::default()
    };
    let before = alloc_counter::thread_live_bytes();
    let (out, peak) = alloc_counter::peak_live(|| run_tournament(&jobs, &opts));
    assert_eq!(out.apps.len(), 12);
    assert!(
        peak <= PEAK_LIVE_CEILING,
        "peak live heap {peak} B above the {PEAK_LIVE_CEILING} B ceiling"
    );
    drop(out);
    assert_eq!(
        alloc_counter::thread_live_bytes(),
        before,
        "the tournament left heap behind on its thread"
    );
}

#[test]
fn a_tournament_holds_only_the_rows_in_flight() {
    // At one worker a tournament holds one app's row at a time, and each
    // finished app only its ranked record. So the whole suite may peak
    // above its largest one-app tournament by no more than the outcome it
    // returns (twice that, for slack): every payload of a finished row is
    // freed when the row is ranked.
    let opts = DriverOptions {
        workers: 1,
        machines: vec![Machine::intel8(), Machine::amd4()],
        ..Default::default()
    };
    // Peak live heap of a tournament over `jobs`, and the live bytes of
    // the outcome it returned.
    let measure = |jobs: &[ipp_core::SuiteJob]| {
        let before = alloc_counter::thread_live_bytes();
        let (out, peak) = alloc_counter::peak_live(|| run_tournament(jobs, &opts));
        let held = (alloc_counter::thread_live_bytes() - before) as u64;
        drop(out);
        (peak, held)
    };
    let jobs = suite_jobs();
    let largest_app = jobs
        .iter()
        .map(|job| measure(std::slice::from_ref(job)).0)
        .max()
        .unwrap();
    let (peak, held) = measure(&jobs);
    assert!(
        peak <= largest_app + 2 * held,
        "the 12-app peak {peak} B exceeds the largest one-app peak {largest_app} B \
         by more than twice the {held} B outcome"
    );
}
