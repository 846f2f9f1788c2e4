//! Allocation discipline of the register-frame VM, proved two ways:
//!
//! 1. **Counter-level** — on a call-heavy program the frame pool reaches a
//!    100% hit rate after warmup: every steady-state CALL reuses recycled
//!    register capacity instead of growing the file; and the chunked gate
//!    touches only the elements its undo log restores.
//! 2. **Allocator-level** — with a counting global allocator installed,
//!    straight-line VM execution performs the same number of allocation
//!    events regardless of iteration count: all allocation is setup, none
//!    is per-iteration. The same holds for the chunked (`threads > 1`)
//!    gate across directive-loop executions: its chunk state is retained.
//!
//! The counter is per thread, so the tests in this binary may run in
//! parallel without leaking into each other's counts.

use bench::harness::alloc_counter::{self, CountingAlloc};
use fir::ast::OmpDirective;
use fruntime::{compile, run, run_compiled, Engine, ExecOptions};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn vm_opts() -> ExecOptions {
    ExecOptions {
        engine: Engine::Bytecode,
        ..Default::default()
    }
}

#[test]
fn frame_pool_reaches_full_hit_rate_after_warmup() {
    // Two-deep call chain driven 2000 times: 4000 CALL frames, all but
    // the warmup pushes landing in recycled register capacity.
    let src = "      PROGRAM MAIN
      COMMON /ACC/ T
      T = 0.0
      DO I = 1, 2000
        CALL STEP
      ENDDO
      WRITE(6,*) T
      END
      SUBROUTINE STEP
      COMMON /ACC/ T
      DIMENSION W(8)
      DO J = 1, 8
        W(J) = J*1.0
      ENDDO
      CALL LEAF(W, 8)
      RETURN
      END
      SUBROUTINE LEAF(W, N)
      DIMENSION W(N)
      COMMON /ACC/ T
      DO J = 1, N
        T = T + W(J)
      ENDDO
      RETURN
      END
";
    let p = fir::parse(src).unwrap();
    let r = run(&p, &vm_opts()).unwrap();
    assert_eq!(r.vm.calls, 4000);
    assert_eq!(r.vm.peak_call_depth, 2);
    // Every frame push (4000 calls + MAIN) is either a pool hit or a
    // miss; after the register file grows to steady-state shape, every
    // push is a hit — warmup is at most one miss per chain depth plus
    // MAIN itself.
    assert_eq!(r.vm.pool_hits + r.vm.pool_misses, r.vm.calls + 1);
    assert!(
        r.vm.pool_misses <= 3,
        "frame pool failed to recycle: {:?}",
        r.vm
    );
    assert!(
        r.vm.warm_allocs <= 2,
        "steady-state frame pushes allocated: {:?}",
        r.vm
    );
    assert!(r.vm.insns_retired > 0);
    // The workload is REAL arithmetic over loads/stores — the typed
    // bodies must be in play (fused retirements only exist there), and
    // the pool discipline above must hold *with* typed frames active.
    assert!(
        r.vm.fused_insns > 0,
        "typed bodies not executing: {:?}",
        r.vm
    );
}

#[test]
fn typed_register_frames_keep_pool_invariants_while_fusing() {
    // Call-heavy stencil: every frame push binds typed register banks,
    // and the inner loops retire fused Load/Bin/Store superwords. The
    // frame-pool accounting must be indistinguishable from the
    // stack-body era: one push per CALL plus MAIN, all steady-state
    // pushes recycled.
    let src = "      PROGRAM MAIN
      COMMON /ACC/ T
      DIMENSION A(64)
      DO J = 1, 64
        A(J) = J*0.25
      ENDDO
      T = 0.0
      DO I = 1, 500
        CALL SWEEP(A, 64)
      ENDDO
      WRITE(6,*) T
      END
      SUBROUTINE SWEEP(A, N)
      DIMENSION A(N)
      COMMON /ACC/ T
      DO J = 2, N - 1
        A(J) = A(J-1)*0.5 + A(J+1)*0.5
        T = T + A(J)
      ENDDO
      RETURN
      END
";
    let p = fir::parse(src).unwrap();
    let r = run(&p, &vm_opts()).unwrap();
    assert_eq!(r.vm.calls, 500);
    assert_eq!(r.vm.pool_hits + r.vm.pool_misses, r.vm.calls + 1);
    assert!(
        r.vm.pool_misses <= 2,
        "typed frames defeated pooling: {:?}",
        r.vm
    );
    assert!(
        r.vm.warm_allocs <= 2,
        "typed frame pushes allocated: {:?}",
        r.vm
    );
    assert!(
        r.vm.fused_insns > 0,
        "stencil produced no fused retirements"
    );
    // The retire histogram partitions every *typed* retirement; the only
    // unclassed instructions are the stack-engine frame-build snippets
    // (`DIMENSION A(N)` extent evaluation, a couple per frame) — if the
    // gap grows past that, typed bodies are silently falling back.
    let classed: u64 = r.vm.class_retired.iter().sum();
    assert!(classed <= r.vm.insns_retired, "histogram overcounts");
    assert!(
        r.vm.insns_retired - classed <= 4 * (r.vm.calls + 1),
        "untyped execution beyond frame-build extents: {:?}",
        r.vm
    );
}

#[test]
fn chunk_undo_log_counts_every_logged_store() {
    // The chunked gate isolates chunks by undoing their writes on the
    // live arena, never by copying it: `chunk_undo_writes` is all the
    // memory a chunk costs. Ten iterations in four chunks (3+3+2+2), two
    // logged stores per iteration plus each chunk's loop-variable journal
    // entry; then a body under a nested loop whose entry journals its
    // variable once per outer iteration.
    let run_chunked = |src: &str| {
        let mut p = fir::parse(src).unwrap();
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            if d.var == "I" {
                d.directive = Some(OmpDirective::default());
            }
        });
        let at = |threads| {
            run(
                &p,
                &ExecOptions {
                    threads,
                    ..vm_opts()
                },
            )
            .unwrap()
        };
        let (seq, par) = (at(1), at(4));
        assert_eq!(seq.io, par.io);
        assert_eq!((seq.vm.chunks_run, seq.vm.chunk_undo_writes), (0, 0));
        par.vm
    };
    let flat = run_chunked(
        "      PROGRAM P
      COMMON /B/ A(10), C(10)
      DO I = 1, 10
        A(I) = I*1.0
        C(I) = A(I) + 1.0
      ENDDO
      WRITE(6,*) A(10), C(10)
      END
",
    );
    assert_eq!(flat.chunks_run, 4);
    assert_eq!(flat.chunk_undo_writes, 20 + 4);
    let nested = run_chunked(
        "      PROGRAM P
      COMMON /B/ A(10)
      DO I = 1, 10
        A(I) = 0.0
        DO J = 1, 3
          A(I) = A(I) + J*1.0
        ENDDO
      ENDDO
      WRITE(6,*) A(10)
      END
",
    );
    assert_eq!(nested.chunks_run, 4);
    assert_eq!(nested.chunk_undo_writes, 10 * 4 + 10 + 4);
}

#[test]
fn straight_line_execution_allocates_nothing_per_iteration() {
    // Same program shape at two iteration counts: if the hot loop
    // allocated anything per iteration, the 10x-longer run would perform
    // more allocation events. Equal counts prove the steady state is
    // allocation-free (I/O volume is identical: one WRITE outside the
    // loop in both).
    let program_with = |iters: u64| {
        let src = format!(
            "      PROGRAM MAIN
      COMMON /OUT/ S
      DIMENSION A(32)
      DO J = 1, 32
        A(J) = J*0.5
      ENDDO
      S = 0.0
      DO I = 1, {iters}
        K = MOD(I, 32) + 1
        A(K) = A(K)*1.0001 + 0.5
        S = S + A(K)
      ENDDO
      WRITE(6,*) S
      END
"
        );
        fir::parse(&src).unwrap()
    };

    let opts = vm_opts();
    let run_counted = |iters: u64| -> u64 {
        let program = program_with(iters);
        let compiled = compile(&program);
        // Warm the process (lazy runtime init, etc.) outside the count.
        run_compiled(&compiled, &opts).unwrap();
        let (res, allocs) = alloc_counter::count(|| run_compiled(&compiled, &opts).unwrap());
        assert!(res.vm.insns_retired > iters);
        // Typed registers are live (the loop body's REAL arithmetic
        // fuses) and the zero-allocation claim below covers them.
        assert!(res.vm.fused_insns > 0, "typed body not executing");
        allocs
    };

    let small = run_counted(2_000);
    let large = run_counted(20_000);
    assert_eq!(
        small, large,
        "VM execution allocates per iteration: {small} allocs at 2k iters vs {large} at 20k"
    );
}

#[test]
fn punned_calls_allocate_nothing_after_their_first_specialization() {
    // BUMP's implicitly INTEGER formal M is bound to a REAL array, so every
    // call runs a typed body specialized on that binding. The first call
    // lowers it and caches it on the compiled program; counting a run of a
    // fresh compilation at two iteration counts includes that one
    // lowering, and equal counts prove every later call allocates nothing.
    let program_with = |iters: u64| {
        let src = format!(
            "      PROGRAM MAIN
      COMMON /OUT/ S
      DIMENSION A(32)
      DO J = 1, 32
        A(J) = J*0.5
      ENDDO
      S = 0.0
      DO I = 1, {iters}
        K = MOD(I, 32) + 1
        CALL BUMP(A, K)
      ENDDO
      WRITE(6,*) S
      END
      SUBROUTINE BUMP(M, K)
      DIMENSION M(*)
      COMMON /OUT/ S
      M(K) = M(K)*1.0001 + 0.5
      S = S + M(K)
      END
"
        );
        fir::parse(&src).unwrap()
    };

    let opts = vm_opts();
    let run_counted = |iters: u64| -> u64 {
        let program = program_with(iters);
        // Warm the process (lazy runtime init, etc.) outside the count, on
        // a compilation of its own.
        run_compiled(&compile(&program), &opts).unwrap();
        let compiled = compile(&program);
        let (res, allocs) = alloc_counter::count(|| run_compiled(&compiled, &opts).unwrap());
        assert_eq!(res.vm.calls, iters);
        assert_eq!(
            res.vm.typed_specializations, 1,
            "the punned frame must be specialized once, in the counted run"
        );
        allocs
    };

    let small = run_counted(2_000);
    let large = run_counted(20_000);
    assert_eq!(
        small, large,
        "punned calls allocate per call: {small} allocs at 2k iters vs {large} at 20k"
    );
}

#[test]
fn allocation_count_excludes_other_threads() {
    // A helper thread allocates nonstop while the main thread counts a
    // region with exactly ten allocations, held open until the helper
    // has allocated at least a hundred times inside it.
    let stop = AtomicBool::new(false);
    let spun = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                black_box(Vec::<u8>::with_capacity(64));
                spun.fetch_add(1, Ordering::Relaxed);
            }
        });
        let process_before = alloc_counter::allocations();
        let ((), own) = alloc_counter::count(|| {
            let start = spun.load(Ordering::Relaxed);
            for k in 0..10u64 {
                black_box(Box::new(k));
            }
            while spun.load(Ordering::Relaxed) < start + 100 {
                std::hint::spin_loop();
            }
        });
        let process = alloc_counter::allocations() - process_before;
        stop.store(true, Ordering::Relaxed);
        assert_eq!(own, 10, "another thread's allocations leaked into count");
        assert!(
            process >= 110,
            "helper did not allocate in the window: {process}"
        );
    });
}

#[test]
fn chunked_directive_loops_allocate_nothing_per_execution() {
    // A directive loop executed `execs` times by a sequential outer loop,
    // at four chunks per execution. Every execution also records one
    // `ParLoopEvent` (whose `LoopId` owns a string) — as the sequential
    // gate does — so the claim is measured against the same program at
    // `threads: 1`: the chunked gate's extra allocations must not grow
    // with the number of executions.
    let program_with = |execs: u64| {
        let src = format!(
            "      PROGRAM MAIN
      COMMON /OUT/ S
      DIMENSION A(32), B(32)
      DO J = 1, 32
        A(J) = J*0.5
      ENDDO
      S = 0.0
      DO K = 1, {execs}
        DO I = 1, 32
          B(I) = A(I)*1.0001 + K
        ENDDO
        S = S + B(MOD(K, 32) + 1)
      ENDDO
      WRITE(6,*) S
      END
"
        );
        let mut p = fir::parse(&src).unwrap();
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            if d.var == "I" {
                d.directive = Some(OmpDirective::default());
            }
        });
        p
    };
    let run_counted = |execs: u64, threads: usize| -> u64 {
        let program = program_with(execs);
        let compiled = compile(&program);
        let opts = ExecOptions {
            threads,
            ..vm_opts()
        };
        run_compiled(&compiled, &opts).unwrap();
        let (res, allocs) = alloc_counter::count(|| run_compiled(&compiled, &opts).unwrap());
        assert_eq!(res.par_events.len() as u64, execs);
        if threads > 1 {
            assert_eq!(res.vm.chunks_run, 4 * execs);
        }
        allocs
    };
    let chunk_cost = |execs: u64| run_counted(execs, 4) - run_counted(execs, 1);
    let small = chunk_cost(2_000);
    let large = chunk_cost(20_000);
    assert_eq!(
        small, large,
        "chunked gate allocates per execution: +{small} allocs at 2k executions vs +{large} at 20k"
    );
}
