//! Correctness verification harness — the paper's "runtime testers"
//! (§III-D: "we use runtime testers to check and verify the correctness of
//! our optimized code").
//!
//! Three gates, all driven by `fruntime`:
//!
//! 1. the optimized program's *sequential* run must match the original
//!    program's run bit-for-bit on I/O and COMMON memory;
//! 2. the optimized program's *chunked* run (`threads > 1`: every
//!    directive loop split into contiguous chunks that start from the
//!    pre-loop memory) must match its own sequential run (floating
//!    reductions compared with a tolerance);
//! 3. the runtime race checker must find no cross-iteration conflicts in
//!    any parallelized loop.
//!
//! `guarded` is the isolation boundary every evaluator (the batch
//! driver, the daemon) runs these interpreter calls behind.

use crate::error::{panic_message, FailCause};
use fir::ast::Program;
use fruntime::{run, run_compiled, Engine, ExecOptions, RtError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Result of verifying one optimized program against its original.
#[derive(Debug, Clone)]
pub struct VerifyResult {
    /// Gate 1: optimized (sequential) ≡ original.
    pub matches_original: bool,
    /// Gate 2: chunked ≡ sequential.
    pub parallel_consistent: bool,
    /// Advisory: conservative race-checker hits. Annotation-parallelized
    /// loops legitimately trip this on global temporaries that the
    /// developer asserted privatizable (the write-log executor still
    /// produces sequential-equivalent results); a *correctness* failure
    /// shows up in the two gates above, as in the paper ("we use runtime
    /// testers to check and verify the correctness of our optimized code").
    pub races: usize,
    /// Speedup-model inputs from the sequential run of the optimized code.
    pub total_ops: u64,
    /// Parallel-loop events (for the cost model).
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
pub fn baseline_run(original: &Program) -> Result<fruntime::RunResult, RtError> {
    run(original, &ExecOptions::default())
}

/// [`baseline_run`] with explicit executor options — the driver passes a
/// reduced `max_ops` so a runaway original program hits the per-cell
/// deadline instead of hanging a worker.
pub fn baseline_run_with(
    original: &Program,
    opts: &ExecOptions,
) -> Result<fruntime::RunResult, RtError> {
    run(original, opts)
}

/// Verify `optimized` against an already-computed baseline run of the
/// original program, with explicit executor options for the chunked
/// (`threads > 1`) run. Two interpreter runs: the optimized program
/// sequentially with race checking, then chunked.
pub fn verify_with_baseline_using(
    base: &fruntime::RunResult,
    optimized: &Program,
    par_opts: &ExecOptions,
) -> Result<VerifyResult, RtError> {
    let seq_opts = ExecOptions {
        check_races: true,
        engine: par_opts.engine,
        // The caller's op budget is the cell's deadline; it must bound the
        // sequential gate run too, not just the threaded one.
        max_ops: par_opts.max_ops,
        ..Default::default()
    };
    let (seq, par) = match par_opts.engine {
        // Compile once, run twice: both verification runs share one
        // lowered program.
        Engine::Bytecode => {
            let compiled = fruntime::compile(optimized);
            (
                run_compiled(&compiled, &seq_opts)?,
                run_compiled(&compiled, par_opts)?,
            )
        }
        Engine::TreeWalk => (run(optimized, &seq_opts)?, run(optimized, par_opts)?),
    };

    let mut vm = seq.vm;
    vm.absorb(&par.vm);
    Ok(VerifyResult {
        matches_original: base.same_observable(&seq, 1e-12),
        parallel_consistent: seq.same_observable(&par, 1e-9),
        races: seq.races.len(),
        total_ops: seq.total_ops,
        par_events: seq.par_events,
        vm,
    })
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
