//! Differential fuzzing of the typed register VM against the reference
//! tree-walker over the generated corpus: a fixed-seed campaign of 200
//! programs spanning every corpus idiom, each executed under both engines
//! and compared bit-for-bit on io, STOP status, total op count,
//! parallel-loop events, reported races, and final memory.
//!
//! `tests/engine_differential.rs` pins the engines together on the twelve
//! PERFECT apps; this suite pins them on machine-generated programs whose
//! shapes nobody hand-checked — reshaped COMMON views, indirect
//! subscripts, deep call chains, guarded calls. The seed is fixed so a
//! divergence is a reproducible counterexample, never a flake.
//!
//! The corpus does not reach the VM's type-pun path: its reshaped-COMMON
//! idiom views the block through differently named members (`RM`, `RV`),
//! which get separate slots, so no frame is ever bound to storage of
//! another type class. Hand-written punned fixtures
//! (`tests/fixtures/punned.rs`) cover that path instead.
//!
//! The same campaign also runs at `threads: 4`, the verification gate's
//! chunk count: the tree-walker isolates chunks by copying memory, the VM
//! by undoing the chunk's writes on the live arena, so agreement there
//! checks the undo log against independent copy semantics. Targeted
//! fixtures cover the chunk shapes a corpus may miss.

use corpus::{generate, Idiom};
use fir::ast::{OmpDirective, Program, RedOp};
use fruntime::{run, Engine, ExecOptions, RunResult};
use ipp_core::{baseline_run, compile, verify_with_baseline_using, InlineMode, PipelineOptions};
use std::collections::BTreeSet;

#[path = "fixtures/punned.rs"]
mod punned;

const SEED: u64 = 0x1CC7_2011;
const PROGRAMS: u64 = 200;

/// Bitwise memory equality: same slot layout, same types, same raw f64
/// payloads (`to_bits` so even NaN patterns must agree), same COMMON map.
fn same_memory(a: &fruntime::Memory, b: &fruntime::Memory) -> bool {
    a.slots.len() == b.slots.len()
        && a.commons == b.commons
        && a.slots.iter().zip(&b.slots).all(|(x, y)| {
            x.ty == y.ty
                && x.data.len() == y.data.len()
                && x.data
                    .iter()
                    .zip(&y.data)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn assert_identical(label: &str, t: &RunResult, v: &RunResult) {
    assert_eq!(t.io, v.io, "{label}: io diverged");
    assert_eq!(t.stopped, v.stopped, "{label}: stop status diverged");
    assert_eq!(t.total_ops, v.total_ops, "{label}: op counts diverged");
    assert_eq!(t.par_events, v.par_events, "{label}: par_events diverged");
    assert_eq!(t.races, v.races, "{label}: races diverged");
    assert!(
        same_memory(&t.memory, &v.memory),
        "{label}: memory diverged"
    );
}

/// Run `p` under both engines and demand byte-identical observable state
/// (or byte-identical failure). Returns the VM's run, when it succeeded.
fn differential(label: &str, p: &Program, opts: &ExecOptions) -> Option<RunResult> {
    let tree = run(
        p,
        &ExecOptions {
            engine: Engine::TreeWalk,
            ..opts.clone()
        },
    );
    let vm = run(
        p,
        &ExecOptions {
            engine: Engine::Bytecode,
            ..opts.clone()
        },
    );
    match (tree, vm) {
        (Ok(t), Ok(v)) => {
            assert_identical(label, &t, &v);
            Some(v)
        }
        (Err(te), Err(ve)) => {
            assert_eq!(
                te.message, ve.message,
                "{label}: engines failed differently"
            );
            None
        }
        (t, v) => panic!(
            "{label}: one engine failed: tree={:?} vm={:?}",
            t.map(|r| r.io),
            v.map(|r| r.io)
        ),
    }
}

#[test]
fn engines_agree_on_generated_corpus() {
    // The race-checked sequential configuration — exactly what
    // `ipp_core::verify` runs, and the mode where record-event order
    // (which fusion is allowed to reshape) is observable.
    let opts = ExecOptions {
        check_races: true,
        ..Default::default()
    };
    campaign(&opts, 5);
}

#[test]
fn engines_agree_on_generated_corpus_in_chunks() {
    // The threaded gate's configuration: directive loops split into four
    // chunks that each start from the pre-loop memory.
    let opts = ExecOptions {
        threads: 4,
        ..Default::default()
    };
    // Raw corpus programs carry no directives, so every program also
    // goes through the pipeline here.
    let chunks = campaign(&opts, 1);
    assert!(chunks > 2000, "campaign barely chunked: {chunks} chunks");
}

/// The fixed-seed campaign under `opts`: every program raw, every
/// `every`-th also through the pipeline in both inlining modes. Returns
/// the chunks the VM ran.
fn campaign(opts: &ExecOptions, every: u64) -> u64 {
    let mut chunks = 0;
    let mut seen = BTreeSet::new();
    for index in 0..PROGRAMS {
        let g = generate(SEED, index);
        seen.extend(g.idioms.iter().map(|i| i.label()));
        let job = g.job().expect("corpus contract: every program parses");
        let mut check = |label: String, p: &Program| {
            if let Some(v) = differential(&label, p, opts) {
                chunks += v.vm.chunks_run;
            }
        };
        check(format!("{} raw", g.name), &job.program);

        // Every `every`-th program additionally goes through the full
        // pipeline in both inlining modes: inlined bodies produce the
        // largest units (deepest register pressure, reshaped-COMMON
        // formals) the typed lowering ever sees.
        if index % every == 0 {
            for mode in [InlineMode::Conventional, InlineMode::Annotation] {
                let r = compile(
                    &job.program,
                    &job.registry,
                    &PipelineOptions::for_mode(mode),
                );
                check(format!("{} [{}]", g.name, mode.label()), &r.program);
            }
        }
    }
    // The campaign must exercise the whole idiom catalog, or the
    // differential is weaker than it claims.
    let all: BTreeSet<&str> = Idiom::ALL.iter().map(|i| i.label()).collect();
    assert_eq!(seen, all, "fixed-seed campaign missed idioms");
    chunks
}

/// Mark every loop over `I` in the main unit as a directive loop.
fn with_directive(src: &str, dir: OmpDirective) -> Program {
    let mut p = fir::parse(src).expect("fixture parses");
    fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
        if d.var == "I" {
            d.directive = Some(dir.clone());
        }
    });
    p
}

#[test]
fn chunk_isolation_fixtures_agree_and_gate_illegal_loops() {
    // (label, program, gate 2 verdict): whether the chunked run matches
    // the sequential one, under either engine.
    let mut fixtures: Vec<(&str, Program, bool)> = vec![
        (
            "cross-chunk flow dependence",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(64)
      A(1) = 1.0
      DO I = 2, 64
        A(I) = A(I - 1) + 1.0
      ENDDO
      WRITE(6,*) A(64)
      END
",
                OmpDirective::default(),
            ),
            false,
        ),
        (
            // The third chunk stops after writing A(11); the fourth still
            // runs and its writes merge, so the memory diverges.
            "STOP inside a chunk",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(16)
      DO I = 1, 16
        A(I) = I*2.0
        IF (I .EQ. 11) THEN
          WRITE(6,*) 'HALT AT', I
          STOP 'HALTED'
        ENDIF
      ENDDO
      WRITE(6,*) A(16)
      END
",
                OmpDirective::default(),
            ),
            false,
        ),
        (
            // Callee frames (locals, PARAMETER slots, a by-value argument)
            // are allocated inside every chunk and dropped after it.
            "CALL allocating frames inside a chunk",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(12)
      DO I = 1, 12
        CALL FILL(A, I, I*0.5)
      ENDDO
      WRITE(6,*) A(1), A(12)
      END
      SUBROUTINE FILL(A, K, X)
      PARAMETER (M = 4)
      DIMENSION A(12), W(M)
      DO J = 1, M
        W(J) = X + J
      ENDDO
      A(K) = W(1) + W(M)
      END
",
                OmpDirective::default(),
            ),
            true,
        ),
        (
            // A COMMON member whose extent is a formal: created before
            // the loop, grown inside chunks. Growth is chunk-local, as a
            // write to storage the pre-loop memory lacks.
            "COMMON grown inside a chunk",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(8)
      CALL GROW(2)
      DO I = 1, 8
        CALL GROW(I + 2)
        A(I) = I*1.0
      ENDDO
      WRITE(6,*) A(8)
      END
      SUBROUTINE GROW(N)
      COMMON /DYN/ Q(N)
      Q(N) = N*1.0
      END
",
                OmpDirective::default(),
            ),
            true,
        ),
        (
            // A lazily sized COMMON member first created inside the
            // chunks: each chunk's copy is dropped with the chunk, so the
            // chunked run ends without it.
            "COMMON created inside a chunk",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(6)
      DO I = 1, 6
        CALL MAKE(I + 1)
        A(I) = I*1.0
      ENDDO
      WRITE(6,*) A(6)
      END
      SUBROUTINE MAKE(N)
      COMMON /LAZY/ R(N)
      R(N) = N*1.0
      END
",
                OmpDirective::default(),
            ),
            false,
        ),
        (
            // J is a shared local of the enclosing frame: its DO entry
            // write must not survive a chunk (copy semantics discard it).
            "nested loop over a shared variable",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(9)
      J = 7
      DO I = 1, 9
        A(I) = 0.0
        DO J = 1, 3
          A(I) = A(I) + J*I
        ENDDO
      ENDDO
      WRITE(6,*) A(9)
      END
",
                OmpDirective::default(),
            ),
            true,
        ),
        (
            "reduction plus a private variable",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(20), S
      DO J = 1, 20
        A(J) = J*0.25
      ENDDO
      S = 1.0
      DO I = 1, 20
        T = A(I)*2.0
        S = S + T
      ENDDO
      WRITE(6,*) S
      END
",
                OmpDirective {
                    private: vec!["T".into()],
                    reductions: vec![(RedOp::Add, "S".into())],
                    ..Default::default()
                },
            ),
            true,
        ),
        (
            // 10 iterations in chunks of 3, 3, 2 and 2.
            "n not divisible by the chunk count",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(10)
      DO I = 1, 10
        A(I) = I*3.0
      ENDDO
      WRITE(6,*) A(1), A(10)
      END
",
                OmpDirective::default(),
            ),
            true,
        ),
        (
            // 3 iterations: three one-iteration chunks, the fourth absent.
            "n below the chunk count",
            with_directive(
                "      PROGRAM MAIN
      COMMON /B/ A(3)
      DO I = 1, 3
        A(I) = I*3.0
      ENDDO
      WRITE(6,*) A(1), A(3)
      END
",
                OmpDirective::default(),
            ),
            true,
        ),
    ];
    // Punned callees inside the chunked loop: each chunk enters the
    // specialized bodies.
    fixtures.extend(
        punned::FIXTURES
            .iter()
            .chain([&punned::EXTENT_FIXTURE])
            .map(|(label, src)| (*label, with_directive(src, OmpDirective::default()), true)),
    );
    for (label, p, legal) in &fixtures {
        let chunked = ExecOptions {
            threads: 4,
            ..Default::default()
        };
        let v = differential(label, p, &chunked).expect("fixture runs");
        assert!(v.vm.chunks_run > 0, "{label}: no chunk ran");
        for engine in [Engine::TreeWalk, Engine::Bytecode] {
            let base = baseline_run(p).expect("fixture runs sequentially");
            let gates = verify_with_baseline_using(
                &base,
                p,
                &ExecOptions {
                    engine,
                    ..chunked.clone()
                },
            )
            .expect("fixture verifies");
            assert!(gates.matches_original, "{label} [{engine:?}]: gate 1");
            assert_eq!(
                gates.parallel_consistent, *legal,
                "{label} [{engine:?}]: gate 2 verdict"
            );
        }
    }
}

#[test]
fn punned_frames_run_specialized_typed_bodies() {
    for (label, src) in punned::FIXTURES.iter().chain([&punned::EXTENT_FIXTURE]) {
        let p = fir::parse(src).expect("fixture parses");
        let v = differential(label, &p, &ExecOptions::default()).expect("fixture runs");
        assert!(
            v.vm.typed_specializations > 0,
            "{label}: no frame ran a specialized body"
        );
        assert_eq!(v.vm.reference_runs, 0, "{label}: routed to the oracle");
    }
}
