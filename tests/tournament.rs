//! Portfolio tournaments on the real 12-application suite: determinism,
//! cache-sharing economics, and the best-of-portfolio guarantee.
//!
//! The tournament report is the committed `tournament.json` artifact and
//! the CI winner-stability gate, so its contract is strict: byte-identical
//! JSON at any worker count, portfolio cost far below arms × the uncached
//! per-configuration cost, and a winner that beats or ties every fixed
//! configuration on every app (argmax over a superset, so this can only
//! fail if scoring itself regresses). The daemon's per-request
//! tournament and evaluate paths must reach the same verdicts.

use fruntime::Machine;
use ipp_core::driver::DriverOptions;
use ipp_core::tournament::run_tournament;
use ipp_core::{evaluate_request, evaluate_tournament, InlineMode, TournamentOutcome};
use perfect::suite_jobs;
use std::sync::OnceLock;

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
    for workers in [2, 8] {
        assert_eq!(
            json,
            run_at(workers).to_json(),
            "tournament report diverged at {workers} workers"
        );
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
