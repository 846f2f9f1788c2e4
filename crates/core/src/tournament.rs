//! Per-app configuration tournaments: run a portfolio of pipeline
//! configurations through the matrix driver, score every arm with the
//! machine cost model, and keep the best.
//!
//! The paper's Table II exists because no single inlining configuration
//! wins everywhere — Conventional, Annot, and AutoAnnot trade wins per
//! application. ComPar-style portfolio execution turns that observation
//! into a driver: fan a set of labelled arms ([`portfolio`]) per app
//! through [`crate::driver`]'s worker pool, score each completed arm by
//! the geometric mean of its tuned cost-model speedups across machines,
//! and emit the winning directive set plus a structured per-app "why"
//! record ([`AppTournament`]: arm scores, blocker counts, which loops
//! flipped against the no-inline arm, cache accounting).
//!
//! **Cost discipline.** The arms share the per-app baseline memo and the
//! verify-dedup cache exactly like the classic matrix columns do — arms
//! that emit byte-identical optimized source share one verification, and
//! every arm of an app shares the single baseline run. A seven-arm
//! portfolio therefore costs far less than 7× a single configuration;
//! the shared-cache counters threaded into [`SuiteMetrics`] (and
//! summarized per app here) prove it.
//!
//! **Determinism.** [`TournamentOutcome::to_json`] is a pure function of
//! the inputs: scores come from the deterministic interpreter and cost
//! model, winners break ties by portfolio order, and the per-app cache
//! accounting reports *totals* (which are schedule-invariant) rather
//! than per-arm attribution (which depends on which worker paid for a
//! shared slot first). The `tournament` integration tests assert
//! byte-identical reports across worker counts.

use crate::driver::{run_matrix, CellConfig, CellOutcome, DriverOptions, SuiteJob};
use crate::json::ToJson;
use crate::json_object;
use crate::phase::{CellMetrics, SuiteMetrics};
use crate::pipeline::{InlineMode, PipelineOptions};
use finline::Heuristics;
use fir::ast::LoopId;
use fruntime::{simulate, tune, Machine, ParLoopEvent};
use std::collections::{BTreeMap, BTreeSet};

/// The default tournament portfolio: the four [`InlineMode`] columns with
/// default knobs, widened with ablation-knob variants that the bench
/// suite showed can flip individual loops — a tighter and a fully
/// aggressive conventional-inlining budget, and annotation mode without
/// loop peeling.
pub fn portfolio() -> Vec<CellConfig> {
    let mut arms = vec![
        CellConfig::for_mode(InlineMode::None),
        CellConfig::for_mode(InlineMode::Conventional),
    ];
    arms.push(CellConfig {
        label: "conventional-tight".to_string(),
        opts: PipelineOptions {
            heuristics: Heuristics {
                max_stmts: 25,
                ..Heuristics::polaris()
            },
            ..PipelineOptions::for_mode(InlineMode::Conventional)
        },
    });
    arms.push(CellConfig {
        label: "conventional-aggressive".to_string(),
        opts: PipelineOptions {
            heuristics: Heuristics::aggressive(),
            ..PipelineOptions::for_mode(InlineMode::Conventional)
        },
    });
    arms.push(CellConfig::for_mode(InlineMode::Annotation));
    arms.push(CellConfig {
        label: "annotation-no-peel".to_string(),
        opts: PipelineOptions {
            par: fpar::ParOptions { enable_peel: false },
            ..PipelineOptions::for_mode(InlineMode::Annotation)
        },
    });
    arms.push(CellConfig::for_mode(InlineMode::AutoAnnot));
    arms
}

/// The machines a tournament scores against when
/// [`DriverOptions::machines`] is empty: the paper's two evaluation
/// hosts.
pub fn default_machines() -> Vec<Machine> {
    vec![Machine::intel8(), Machine::amd4()]
}

/// Cost-model score of one arm on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineScore {
    /// Machine name (`intel8` / `amd4`).
    pub machine: String,
    /// Simulated tuned speedup in micro-units (×1e-6), so scores are
    /// integer-comparable and serialize exactly.
    pub speedup_micros: u64,
    /// Loops the empirical tuner disabled on this machine.
    pub tuned_off: usize,
}

/// The §IV-B cost model's verdict for one verification on one machine:
/// the tuned speedup, exact as Figure 20 reports it, and the number of
/// loops the empirical tuner disabled. The driver computes it once per
/// distinct verification and keeps it in place of the event trace.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TunedScore {
    /// Machine name (`intel8` / `amd4`).
    pub(crate) machine: &'static str,
    /// Simulated speedup after empirical tuning.
    pub(crate) speedup: f64,
    /// Loops tuned off on this machine.
    pub(crate) tuned_off: usize,
}

/// The §IV-B cost model on one machine: empirical tuning (loops that run
/// slower in parallel are disabled) and then the simulation, from a
/// verification's sequential run — its op count and its trace.
pub(crate) fn tuned_speedup(total_ops: u64, events: &[ParLoopEvent], m: &Machine) -> TunedScore {
    let disabled = tune(events, m);
    let sim = simulate(total_ops, events, m, &disabled);
    TunedScore {
        machine: m.name,
        speedup: sim.speedup(),
        tuned_off: disabled.len(),
    }
}

impl MachineScore {
    /// Per-machine scores from a verification's [`TunedScore`]s, in
    /// order (the speedup rounded to micro-units).
    pub(crate) fn all(tuned: &[TunedScore]) -> Vec<MachineScore> {
        tuned
            .iter()
            .map(|t| MachineScore {
                machine: t.machine.to_string(),
                speedup_micros: (t.speedup * 1e6).round() as u64,
                tuned_off: t.tuned_off,
            })
            .collect()
    }

    /// An arm's tournament score: the geometric mean of its per-machine
    /// speedups ([`geomean_micros`]).
    pub(crate) fn geomean(scores: &[MachineScore]) -> u64 {
        let speedups: Vec<f64> = scores
            .iter()
            .map(|s| s.speedup_micros as f64 / 1e6)
            .collect();
        geomean_micros(&speedups)
    }
}

impl ToJson for MachineScore {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "machine": self.machine, "speedup_micros": self.speedup_micros,
            "tuned_off": self.tuned_off,
        });
    }
}

/// The winner rule of every tournament: the highest score wins, ties go
/// to the earliest arm in portfolio order (so widening the portfolio never
/// flips a tie away from the classic configuration that held it). `None`
/// when no arm scored.
fn winner_index(scores: impl IntoIterator<Item = Option<u64>>) -> Option<usize> {
    scores
        .into_iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|sc| (i, sc)))
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
}

/// A completed arm as [`rank`] reads it.
pub(crate) struct ArmRun {
    /// Both verification gates green.
    pub(crate) verified: bool,
    /// The verification's per-machine scores (read only when `verified`).
    pub(crate) machines: Vec<MachineScore>,
    /// Original (non-annotation) loops judged parallel.
    pub(crate) parallel: BTreeSet<LoopId>,
}

/// A ranked portfolio: what [`run_tournament`] and the daemon's
/// tournament requests ([`crate::service::evaluate_tournament`]) report.
pub(crate) struct Ranking {
    /// Per arm, portfolio order: a verified arm's score (the geometric
    /// mean of its machine scores), or the stable failure code of an arm
    /// that failed (`"gate"` when a verification gate was red).
    pub(crate) scores: Vec<Result<u64, &'static str>>,
    /// The winning arm ([`winner_index`]); `None` when no arm scored.
    pub(crate) winner: Option<usize>,
    /// Loops parallel under the winner but not under the first completed
    /// no-inline arm (`UNIT#idx` labels in [`LoopId`] order).
    pub(crate) gained: Vec<String>,
    /// Loops parallel under that no-inline arm but not under the winner.
    pub(crate) lost: Vec<String>,
}

/// Rank a portfolio's arms: `runs[i]` is arm `arms[i]` completed, or the
/// failure code it stopped with.
pub(crate) fn rank(arms: &[CellConfig], runs: &[Result<ArmRun, &'static str>]) -> Ranking {
    let scores: Vec<Result<u64, &'static str>> = runs
        .iter()
        .map(|run| match run {
            Ok(r) if r.verified => Ok(MachineScore::geomean(&r.machines)),
            Ok(_) => Err("gate"),
            Err(code) => Err(*code),
        })
        .collect();
    let winner = winner_index(scores.iter().map(|s| s.as_ref().ok().copied()));
    let none = arms.iter().zip(runs).find_map(|(cfg, run)| match run {
        Ok(r) if cfg.mode() == InlineMode::None => Some(&r.parallel),
        _ => None,
    });
    let (gained, lost) = match (winner, none) {
        (Some(w), Some(base)) => {
            let win = &runs[w].as_ref().expect("a scored arm completed").parallel;
            let minus = |a: &BTreeSet<LoopId>, b| a.difference(b).map(LoopId::to_string).collect();
            (minus(win, base), minus(base, win))
        }
        _ => (Vec::new(), Vec::new()),
    };
    Ranking {
        scores,
        winner,
        gained,
        lost,
    }
}

/// One arm's row in a per-app tournament: score, shape, and failure
/// diagnostics. Per-arm cache attribution is deliberately absent — see
/// the module docs on determinism; totals live on [`AppTournament`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmScore {
    /// Arm label ([`CellConfig::label`]).
    pub arm: String,
    /// Inlining mode label underlying the arm.
    pub mode: &'static str,
    /// Completed with both verification gates green.
    pub ok: bool,
    /// Geometric mean of the per-machine tuned speedups, micro-units.
    /// `None` when the arm failed (pipeline error or a red verify gate) —
    /// a failed arm can never win.
    pub score_micros: Option<u64>,
    /// Per-machine scores (empty on failed arms).
    pub machines: Vec<MachineScore>,
    /// Loop decisions inspected by the planner.
    pub loops_total: usize,
    /// Distinct original loops judged parallel.
    pub loops_parallel: usize,
    /// Emitted code size (non-comment lines).
    pub loc: usize,
    /// Blocker kind → occurrence count across the arm's loops.
    pub blockers: BTreeMap<&'static str, usize>,
    /// Stable failure code when the arm failed before scoring
    /// ([`crate::error::FailCause::code`]), `"gate"` when it completed
    /// but a verification gate was red.
    pub error: Option<String>,
}

/// The per-app "why" record: every arm's score plus the winner and how
/// its parallel-loop set differs from the no-inline arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppTournament {
    /// Application name.
    pub app: String,
    /// Winning arm label; `None` when no arm completed verification.
    pub winner: Option<String>,
    /// The winner's score (0 when no winner).
    pub winner_score_micros: u64,
    /// Loops parallel under the winner but not under no-inline
    /// (`UNIT#idx` labels in loop order: unit, then numeric index).
    pub gained: Vec<String>,
    /// Loops parallel under no-inline but lost under the winner.
    pub lost: Vec<String>,
    /// The winning directive set: every `!$OMP` line in the winner's
    /// emitted source, in source order.
    pub directives: Vec<String>,
    /// Interpreter runs this app's arms paid for in total — the
    /// schedule-invariant cache-sharing receipt (1 shared baseline +
    /// 2 × distinct emitted sources, versus 3 × arms uncached).
    pub interp_runs: u64,
    /// Completed arms served from the verify-dedup cache.
    pub arms_cached: u64,
    /// One row per portfolio arm, portfolio order.
    pub arms: Vec<ArmScore>,
}

/// Tournament output: per-app records in suite order plus the underlying
/// driver metrics (with the shared-cache counters).
#[derive(Debug, Clone)]
pub struct TournamentOutcome {
    /// Machine names the arms were scored against.
    pub machines: Vec<String>,
    /// Arm labels, portfolio order.
    pub arm_labels: Vec<String>,
    /// One record per job, input order.
    pub apps: Vec<AppTournament>,
    /// Aggregated driver metrics (cache counters, phase timings,
    /// failures). Not part of [`TournamentOutcome::to_json`]: timings are
    /// not deterministic; serialize via [`SuiteMetrics::to_json`] when
    /// wanted.
    pub metrics: SuiteMetrics,
}

/// Geometric mean of positive speedups, in micro-units. Non-finite or
/// non-positive inputs (an empty event trace degenerates to 1.0 upstream,
/// so this is belt-and-braces) count as 1.0.
pub fn geomean_micros(speedups: &[f64]) -> u64 {
    if speedups.is_empty() {
        return 1_000_000;
    }
    let ln_sum: f64 = speedups
        .iter()
        .map(|s| {
            if s.is_finite() && *s > 0.0 {
                s.ln()
            } else {
                0.0
            }
        })
        .sum();
    ((ln_sum / speedups.len() as f64).exp() * 1e6).round() as u64
}

/// Run the configuration tournament: every job × every portfolio arm
/// through the shared-cache matrix, scored on `opts.machines` (the
/// paper's two hosts when empty). The arms are the fixed [`portfolio`].
/// Each app's row is ranked as soon as its last arm completes, so a
/// finished app holds its [`AppTournament`], not its arms' payloads.
pub fn run_tournament(jobs: &[SuiteJob], opts: &DriverOptions) -> TournamentOutcome {
    let arms = portfolio();
    let machines = opts.effective_machines();
    let (apps, metrics) = run_matrix(jobs, &arms, &machines, false, opts, |job, row, cells| {
        app_tournament(&job.name, &arms, &row, cells)
    });
    TournamentOutcome {
        machines: machines.iter().map(|m| m.name.to_string()).collect(),
        arm_labels: arms.iter().map(|c| c.label.clone()).collect(),
        apps,
        metrics,
    }
}

/// Rank one app's finished row: `row` holds its arms' outcomes in
/// portfolio order, `cell_metrics` its completed arms' metrics in the
/// same order.
fn app_tournament(
    app: &str,
    arms: &[CellConfig],
    row: &[CellOutcome],
    cell_metrics: &[CellMetrics],
) -> AppTournament {
    let runs: Vec<Result<ArmRun, &'static str>> = row
        .iter()
        .map(|outcome| match outcome {
            Ok(done) => {
                let verified = done.verify.result.ok();
                Ok(ArmRun {
                    verified,
                    machines: if verified {
                        MachineScore::all(&done.verify.scores)
                    } else {
                        Vec::new()
                    },
                    parallel: done.emitted.parallel_loops(),
                })
            }
            Err(e) => Err(e.code()),
        })
        .collect();
    let ranking = rank(arms, &runs);

    let mut cell_metrics = cell_metrics.iter();
    let mut scores: Vec<ArmScore> = Vec::with_capacity(arms.len());
    let mut directives = Vec::new();
    let mut interp_runs = 0u64;
    let mut arms_cached = 0u64;
    let arm_rows = arms.iter().zip(row).zip(runs).zip(ranking.scores);
    for (i, (((cfg, outcome), run), score)) in arm_rows.enumerate() {
        let machines = match (run, score) {
            (Ok(r), Ok(_)) => r.machines,
            _ => Vec::new(),
        };
        let (score_micros, error) = match score {
            Ok(s) => (Some(s), None),
            Err(code) => (None, Some(code.to_string())),
        };
        let (metrics, loc) = match outcome {
            Ok(done) => {
                let metrics = cell_metrics
                    .next()
                    .expect("a completed cell has its metrics");
                interp_runs += metrics.interp_runs;
                if metrics.verify_cached {
                    arms_cached += 1;
                }
                if ranking.winner == Some(i) {
                    directives = done
                        .emitted
                        .source
                        .lines()
                        .filter(|l| l.trim_start().starts_with("!$OMP"))
                        .map(|l| l.trim().to_string())
                        .collect();
                }
                (Some(metrics), done.emitted.loc)
            }
            Err(_) => (None, 0),
        };
        scores.push(ArmScore {
            arm: cfg.label.clone(),
            mode: cfg.mode().label(),
            ok: score_micros.is_some(),
            score_micros,
            machines,
            loops_total: metrics.map_or(0, |m| m.loops_total),
            loops_parallel: metrics.map_or(0, |m| m.loops_parallel),
            loc,
            blockers: metrics.map(|m| m.blockers.clone()).unwrap_or_default(),
            error,
        });
    }
    let winner = ranking.winner.map(|w| &scores[w]);
    AppTournament {
        app: app.to_string(),
        winner: winner.map(|w| w.arm.clone()),
        winner_score_micros: winner.and_then(|w| w.score_micros).unwrap_or(0),
        gained: ranking.gained,
        lost: ranking.lost,
        directives,
        interp_runs,
        arms_cached,
        arms: scores,
    }
}

impl ToJson for ArmScore {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "arm": self.arm, "mode": self.mode, "ok": self.ok, "score_micros": self.score_micros,
            "machines": self.machines, "loops_total": self.loops_total,
            "loops_parallel": self.loops_parallel, "loc": self.loc, "blockers": self.blockers,
            "error": self.error,
        });
    }
}

impl ToJson for AppTournament {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "app": self.app, "winner": self.winner,
            "winner_score_micros": self.winner_score_micros, "gained": self.gained,
            "lost": self.lost, "directives": self.directives, "interp_runs": self.interp_runs,
            "arms_cached": self.arms_cached, "arms": self.arms,
        });
    }
}

impl AppTournament {
    /// The winner's score as a display float.
    pub fn winner_score(&self) -> f64 {
        self.winner_score_micros as f64 / 1e6
    }
}

impl TournamentOutcome {
    /// Serialize the tournament report as JSON. Deterministic: the same
    /// jobs, arms, and machines produce byte-identical output at any
    /// worker count (the committed `tournament.json` artifact and the CI
    /// winner-stability gate rely on this). Driver timings are excluded;
    /// serialize [`TournamentOutcome::metrics`] separately when wanted.
    pub fn to_json(&self) -> String {
        let interp_runs: u64 = self.apps.iter().map(|a| a.interp_runs).sum();
        json_object!({
            "machines": self.machines, "arms": self.arm_labels, "interp_runs": interp_runs,
            "apps": self.apps,
        })
    }

    /// GitHub-flavored markdown "best-of-portfolio" table — the paper
    /// would call this the Table II column a portfolio run earns.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| app | winner | geomean speedup | par loops | gained | lost | interp runs | cached arms |\n\
             |-----|--------|----------------:|----------:|-------:|-----:|------------:|------------:|\n",
        );
        let mut total_runs = 0u64;
        for a in &self.apps {
            let (par, score) = match &a.winner {
                Some(w) => {
                    let arm = a.arms.iter().find(|s| &s.arm == w);
                    (
                        arm.map(|s| s.loops_parallel).unwrap_or(0),
                        format!("{:.3}×", a.winner_score()),
                    )
                }
                None => (0, "—".to_string()),
            };
            total_runs += a.interp_runs;
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                a.app,
                a.winner.as_deref().unwrap_or("—"),
                score,
                par,
                a.gained.len(),
                a.lost.len(),
                a.interp_runs,
                a.arms_cached,
            ));
        }
        out.push_str(&format!(
            "\n{} arms × {} apps, {} interpreter runs total (uncached would be {}).\n",
            self.arm_labels.len(),
            self.apps.len(),
            total_runs,
            3 * self.arm_labels.len() * self.apps.len(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finline::annot::AnnotRegistry;
    use fir::parser::parse;

    const SRC: &str = "      PROGRAM MAIN
      COMMON /OUT/ A(64), TOT
      DIMENSION B(64)
      DO I = 1, 64
        B(I) = I*0.5
      ENDDO
      DO I = 1, 64
        A(I) = B(I)*2.0 + 1.0
      ENDDO
      TOT = 0.0
      DO I = 1, 64
        TOT = TOT + A(I)
      ENDDO
      WRITE(6,*) TOT
      END
";

    fn jobs() -> Vec<SuiteJob> {
        vec![SuiteJob {
            name: "T".into(),
            program: parse(SRC).unwrap(),
            registry: AnnotRegistry::default(),
        }]
    }

    #[test]
    fn portfolio_contains_all_default_modes() {
        let arms = portfolio();
        for mode in InlineMode::all() {
            assert!(
                arms.iter()
                    .any(|c| c.mode() == mode && c.label == mode.label()),
                "portfolio lost default arm {:?}",
                mode
            );
        }
        // Labels are unique — they are the arm identity everywhere.
        let mut labels: Vec<&str> = arms.iter().map(|c| c.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), arms.len());
    }

    #[test]
    fn tournament_picks_a_winner_and_accounts_caches() {
        let out = run_tournament(&jobs(), &DriverOptions::default());
        assert_eq!(out.apps.len(), 1);
        let app = &out.apps[0];
        assert!(app.winner.is_some(), "{app:?}");
        assert!(app.winner_score_micros >= 1_000_000, "{app:?}");
        // Winner beats or ties every arm (argmax, ties to earliest).
        for arm in &app.arms {
            if let Some(s) = arm.score_micros {
                assert!(app.winner_score_micros >= s, "{app:?}");
            }
        }
        // Cache sharing: one baseline + 2 per *distinct* source, far
        // under 3 runs × 7 arms.
        assert!(app.interp_runs < 3 * app.arms.len() as u64, "{app:?}");
        assert_eq!(out.metrics.configs, app.arms.len() as u64);
        // The winner emitted at least one directive for this program.
        assert!(!app.directives.is_empty(), "{app:?}");
        assert!(app.directives.iter().all(|d| d.starts_with("!$OMP")));
    }

    #[test]
    fn report_json_is_deterministic_across_workers() {
        let a = run_tournament(
            &jobs(),
            &DriverOptions {
                workers: 1,
                ..Default::default()
            },
        );
        let b = run_tournament(
            &jobs(),
            &DriverOptions {
                workers: 4,
                ..Default::default()
            },
        );
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn geomean_is_stable() {
        assert_eq!(geomean_micros(&[]), 1_000_000);
        assert_eq!(geomean_micros(&[2.0, 2.0]), 2_000_000);
        assert_eq!(geomean_micros(&[f64::NAN, 4.0]), 2_000_000);
        assert_eq!(geomean_micros(&[1.0, 4.0]), 2_000_000);
    }
}
