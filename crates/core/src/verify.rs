//! Correctness verification harness — the paper's "runtime testers"
//! (§III-D: "we use runtime testers to check and verify the correctness of
//! our optimized code").
//!
//! Two gates decide the verdict, both driven by `fruntime`:
//!
//! 1. the optimized program's *sequential* run must match the original
//!    program's run bit-for-bit on I/O and COMMON memory;
//! 2. the optimized program's *chunked* run (`threads > 1`: every
//!    directive loop split into contiguous chunks that start from the
//!    pre-loop memory) must match its own sequential run (floating
//!    reductions compared with a tolerance).
//!
//! The runtime race checker also runs on the sequential run, but its
//! count of cross-iteration conflicts ([`VerifyResult::races`]) is
//! advisory: [`VerifyResult::ok`] does not read it until the checker
//! stops reporting callee-frame slots (ROADMAP item 1).
//!
//! `guarded` is the isolation boundary every evaluator (the batch
//! driver, the daemon) runs these interpreter calls behind.

use crate::error::{panic_message, FailCause};
use fir::ast::Program;
use fruntime::{run, run_compiled, Engine, ExecOptions, RtError, RunResult};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Result of verifying one optimized program against its original.
#[derive(Debug, Clone)]
pub struct VerifyResult {
    /// Gate 1: optimized (sequential) ≡ original.
    pub matches_original: bool,
    /// Gate 2: chunked ≡ sequential.
    pub parallel_consistent: bool,
    /// Advisory: race-checker hits in the sequential run; [`Self::ok`]
    /// does not read them, so a verdict fails only on the two gates
    /// above. The known hits on the PERFECT suite (annotation and
    /// auto-annot cells of BDNA, MDG and SPEC77, none on a COMMON member)
    /// are believed to be callee-frame false positives: every CALL in a
    /// loop body builds its frame in the same recycled slots, and the
    /// checker keys its entries by slot index. Only some of them have
    /// been traced to such slots so far.
    pub races: usize,
    /// Speedup-model inputs from the sequential run of the optimized code.
    pub total_ops: u64,
    /// Parallel-loop events (for the cost model): one per dynamic
    /// execution of a directive loop in the sequential run. A plain
    /// [`verify`], [`crate::driver::run_suite`] and
    /// [`crate::driver::run_app`] hand out the whole trace. Tournaments,
    /// the daemon and [`crate::stream::run_stream`] score the trace on
    /// their machines as soon as the sequential run completes and free it
    /// before the chunked run starts, so those cells never hold one and
    /// their gate-2 run never holds it alive.
    pub par_events: Vec<fruntime::ParLoopEvent>,
    /// VM execution counters aggregated over both verification runs
    /// (all zero when the tree-walker engine verified this cell).
    pub vm: fruntime::VmCounters,
}

impl VerifyResult {
    /// Both correctness gates green (the race count is advisory).
    pub fn ok(&self) -> bool {
        self.matches_original && self.parallel_consistent
    }
}

/// Run the *original* program once — the baseline every optimized
/// configuration is compared against. The original is mode-independent,
/// so the driver memoizes this per application and shares it across the
/// inlining configurations ([`verify_with_baseline_using`]).
pub fn baseline_run(original: &Program) -> Result<RunResult, RtError> {
    run(original, &ExecOptions::default())
}

/// [`baseline_run`] with explicit executor options — the driver passes a
/// reduced `max_ops` so a runaway original program hits the per-cell
/// deadline instead of hanging a worker.
pub fn baseline_run_with(original: &Program, opts: &ExecOptions) -> Result<RunResult, RtError> {
    run(original, opts)
}

/// Verify `optimized` against an already-computed baseline run of the
/// original program, with explicit executor options for the chunked
/// (`threads > 1`) run. Two interpreter runs: the optimized program
/// sequentially with race checking, then chunked.
pub fn verify_with_baseline_using(
    base: &RunResult,
    optimized: &Program,
    par_opts: &ExecOptions,
) -> Result<VerifyResult, RtError> {
    Verification::sequential(base, optimized, par_opts)?.chunked(par_opts)
}

/// A verification between its two runs: the optimized program lowered
/// once, its sequential race-checked run done and compared with the
/// baseline (gate 1). The sequential run's `par_events` is the trace the
/// cost model scores; the driver scores it here and, unless it keeps
/// whole traces, frees it before [`Verification::chunked`] runs gate 2.
pub(crate) struct Verification<'p> {
    optimized: &'p Program,
    /// The lowered program both runs share (`None` on the tree-walker).
    lowered: Option<fruntime::CompiledProgram<'p>>,
    /// The sequential run of the optimized program.
    pub(crate) seq: RunResult,
    matches_original: bool,
}

impl<'p> Verification<'p> {
    /// Lower `optimized` (on the bytecode engine) and run it sequentially
    /// with race checking, under `par_opts`' engine and op budget — the
    /// caller's op budget is the cell's deadline, so it bounds this run
    /// too — then compare the run with `base`.
    pub(crate) fn sequential(
        base: &RunResult,
        optimized: &'p Program,
        par_opts: &ExecOptions,
    ) -> Result<Verification<'p>, RtError> {
        let seq_opts = ExecOptions {
            check_races: true,
            engine: par_opts.engine,
            max_ops: par_opts.max_ops,
            ..Default::default()
        };
        let lowered = match par_opts.engine {
            Engine::Bytecode => Some(fruntime::compile(optimized)),
            Engine::TreeWalk => None,
        };
        let seq = match &lowered {
            Some(lowered) => run_compiled(lowered, &seq_opts)?,
            None => run(optimized, &seq_opts)?,
        };
        Ok(Verification {
            optimized,
            lowered,
            matches_original: base.same_observable(&seq, 1e-12),
            seq,
        })
    }

    /// Run the chunked gate (`par_opts`) on the same lowered program and
    /// compare it with the sequential run.
    pub(crate) fn chunked(self, par_opts: &ExecOptions) -> Result<VerifyResult, RtError> {
        let par = match &self.lowered {
            Some(lowered) => run_compiled(lowered, par_opts)?,
            None => run(self.optimized, par_opts)?,
        };
        let seq = self.seq;
        let mut vm = seq.vm;
        vm.absorb(&par.vm);
        Ok(VerifyResult {
            matches_original: self.matches_original,
            parallel_consistent: seq.same_observable(&par, 1e-9),
            races: seq.races.len(),
            total_ops: seq.total_ops,
            par_events: seq.par_events,
            vm,
        })
    }
}

/// Verify `optimized` against `original`, running the chunked executor
/// with `threads` chunks per directive loop (three interpreter runs; see
/// [`verify_with_baseline_using`] for the baseline-sharing variant).
pub fn verify(
    original: &Program,
    optimized: &Program,
    threads: usize,
) -> Result<VerifyResult, RtError> {
    let par_opts = ExecOptions {
        threads,
        ..Default::default()
    };
    verify_with_baseline_using(&baseline_run(original)?, optimized, &par_opts)
}

/// Run one interpreter call behind the isolation boundary and classify
/// its failure: op-budget exhaustion becomes [`FailCause::Timeout`] with
/// `wall_ms: 0` (against `max_ops`), a caught panic [`FailCause::Panic`],
/// any other runtime error [`FailCause::Runtime`].
pub(crate) fn guarded<T>(
    max_ops: u64,
    run: impl FnOnce() -> Result<T, RtError>,
) -> Result<T, FailCause> {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) if e.is_budget() => Err(FailCause::Timeout {
            max_ops,
            wall_ms: 0,
        }),
        Ok(Err(e)) => Err(FailCause::Runtime(e)),
        Err(payload) => Err(FailCause::Panic(panic_message(&*payload))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, InlineMode, PipelineOptions};
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

    #[test]
    fn parallelized_program_verifies() {
        let p = parse(SRC).unwrap();
        let reg = AnnotRegistry::default();
        let r = compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::None));
        let v = verify(&p, &r.program, 4).unwrap();
        assert!(v.ok(), "{v:?}");
        assert!(!v.par_events.is_empty());
    }

    #[test]
    fn corrupted_program_fails_gate_one() {
        let p = parse(SRC).unwrap();
        let mut bad = p.clone();
        // Flip a constant in the optimized copy.
        fir::visit::rewrite_exprs(&mut bad.units[0].body, &mut |e| {
            if matches!(e, fir::ast::Expr::Real(x) if x.0 == 2.0) {
                *e = fir::ast::Expr::real(3.0);
            }
        });
        let v = verify(&p, &bad, 2).unwrap();
        assert!(!v.matches_original);
    }

    #[test]
    fn illegal_directive_fails_gates() {
        let p = parse(
            "      PROGRAM MAIN
      COMMON /B/ A(64)
      A(1) = 1.0
      DO I = 2, 64
        A(I) = A(I - 1) + 1.0
      ENDDO
      WRITE(6,*) A(64)
      END
",
        )
        .unwrap();
        let mut bad = p.clone();
        fir::visit::walk_loops_mut(&mut bad.units[0].body, &mut |d| {
            d.directive = Some(fir::ast::OmpDirective::default());
        });
        let v = verify(&p, &bad, 4).unwrap();
        assert!(!v.parallel_consistent || v.races > 0, "{v:?}");
    }

    #[test]
    fn guard_classifies_budget_panic_and_runtime_errors() {
        let rt = |kind| RtError {
            message: "boom".into(),
            kind,
            ops: None,
        };
        assert_eq!(guarded(7, || Ok::<_, RtError>(3)), Ok(3));
        assert_eq!(
            guarded(500, || Err::<(), _>(rt(fruntime::RtErrorKind::Budget))),
            Err(FailCause::Timeout {
                max_ops: 500,
                wall_ms: 0
            })
        );
        assert_eq!(
            guarded(500, || Err::<(), _>(rt(fruntime::RtErrorKind::General))),
            Err(FailCause::Runtime(rt(fruntime::RtErrorKind::General)))
        );
        let caught = guarded(500, || -> Result<(), RtError> { panic!("interpreter bug") });
        assert_eq!(caught, Err(FailCause::Panic("interpreter bug".into())));
        // Panics and wall-clock expiries stay out of the daemon's cache.
        assert_eq!(caught.unwrap_err().code(), "panic");
    }
}
