//! Differential proof that the bytecode VM and the reference tree-walker
//! are observably identical: every PERFECT app, all four inlining modes,
//! worker counts 1/2/8, compared bit-for-bit on io, STOP status, total op
//! count, parallel-loop events, reported races, and final memory.
//!
//! This is the contract that lets `ipp_core::verify` and the driver run
//! the VM by default while the tree-walker stays the executable spec.

use fir::ast::Program;
use fruntime::{run, Engine, ExecOptions, RunResult};
use ipp_core::{compile, InlineMode, PipelineOptions};

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

/// Run `p` under both engines with otherwise-identical options and demand
/// byte-identical observable state.
fn differential(label: &str, p: &Program, opts: &ExecOptions) {
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
        (Ok(t), Ok(v)) => assert_identical(label, &t, &v),
        (Err(te), Err(ve)) => assert_eq!(
            te.message, ve.message,
            "{label}: engines failed differently"
        ),
        (t, v) => panic!(
            "{label}: one engine failed: tree={:?} vm={:?}",
            t.map(|r| r.io),
            v.map(|r| r.io)
        ),
    }
}

#[test]
fn engines_agree_on_perfect_suite_all_modes_all_worker_counts() {
    for app in perfect::all() {
        let p = app.program();
        let reg = app.registry();
        for mode in InlineMode::all() {
            let r = compile(&p, &reg, &PipelineOptions::for_mode(mode));
            for threads in [1usize, 2, 8] {
                let label = format!("{} [{}] threads={threads}", app.name, mode.label());
                differential(
                    &label,
                    &r.program,
                    &ExecOptions {
                        threads,
                        // The sequential configuration is the race-checked
                        // verification run; chunked runs don't check.
                        check_races: threads == 1,
                        ..Default::default()
                    },
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_originals() {
    // The baseline runs of the unoptimized originals (gate 1's reference).
    for app in perfect::all() {
        differential(
            &format!("{} original", app.name),
            &app.program(),
            &ExecOptions::default(),
        );
    }
}

#[test]
fn engines_agree_on_runtime_errors() {
    // Error paths must produce the same message through both engines.
    let cases = [
        (
            "undefined subroutine",
            "      PROGRAM P
      CALL NOSUCH(1)
      END
",
        ),
        (
            "budget exhaustion",
            "      PROGRAM P
      X = 0.0
      DO I = 1, 1000000
        X = X + 1.0
      ENDDO
      WRITE(6,*) X
      END
",
        ),
    ];
    let limits = encoding_limit_cases();
    let limits = limits.iter().map(|(label, src)| (*label, src.as_str()));
    for (label, src) in cases.into_iter().chain(limits) {
        let p = fir::parse(src).unwrap();
        differential(
            label,
            &p,
            &ExecOptions {
                max_ops: 5_000,
                ..Default::default()
            },
        );
    }
}

/// Programs past the typed VM's packed operand encoding: one count does
/// not fit its `u8` (arguments, subscripts) or `u16` (locals) field.
fn encoding_limit_cases() -> Vec<(&'static str, String)> {
    let list =
        |n: usize, item: &dyn Fn(usize) -> String| (1..=n).map(item).collect::<Vec<_>>().join(", ");
    let args = format!(
        "      PROGRAM P
      COMMON /R/ T
      CALL S({}, 2.5)
      WRITE(6,*) T
      END
      SUBROUTINE S({})
      COMMON /R/ T
      T = A1 + A256
      END
",
        list(255, &|_| "1.0".into()),
        list(256, &|k| format!("A{k}"))
    );
    let ones = list(256, &|_| "1".into());
    let subs = format!(
        "      PROGRAM P
      DIMENSION B({ones})
      B({ones}) = 2.5
      X = B({ones})
      WRITE(6,*) X
      END
"
    );
    let decls: String = (0..70)
        .map(|line| {
            format!(
                "      REAL {}\n",
                list(1000, &|k| format!("V{}", line * 1000 + k))
            )
        })
        .collect();
    let locals = format!(
        "      PROGRAM P
{decls}      V69999 = 1.5
      V9999 = V69999 + 1.0
      WRITE(6,*) V9999, V69999
      END
"
    );
    vec![
        ("256-argument CALL", args),
        ("256-subscript element store and load", subs),
        ("70,000-local unit", locals),
    ]
}

/// `i64::MIN / -1`, `-i64::MIN`, `MOD(i64::MIN, -1)` and `ABS(i64::MIN)`
/// wrap like the engines' add, subtract and multiply, in every build
/// profile: the folder leaves the overflowing constant division to run
/// time, and both engines compute the same wrapped values without a
/// panic, before and after every inlining mode's pipeline.
#[test]
fn integer_overflow_edges_wrap_alike_on_both_engines() {
    let src = "      PROGRAM P
      K = (-9223372036854775807 - 1) / (-1)
      I = -9223372036854775807 - 1
      J = -1
      L = I / J
      M = -I
      N = MOD(I, J)
      NA = ABS(I)
      WRITE(6,*) K, L, M, N, NA
      END
";
    let p = fir::parse(src).unwrap();
    let reg = finline::annot::AnnotRegistry::default();
    let want = run(&p, &ExecOptions::default()).unwrap().io;
    let min = i64::MIN.to_string();
    let got: Vec<&str> = want.iter().flat_map(|l| l.split_whitespace()).collect();
    assert_eq!(got, [&*min, &min, &min, "0", &min], "{want:?}");
    differential("overflow edges [original]", &p, &ExecOptions::default());
    for mode in InlineMode::all() {
        let r = compile(&p, &reg, &PipelineOptions::for_mode(mode));
        let label = format!("overflow edges [{}]", mode.label());
        differential(&label, &r.program, &ExecOptions::default());
        assert_eq!(
            run(&r.program, &ExecOptions::default()).unwrap().io,
            want,
            "{label}"
        );
    }
}

/// Chunk-journal shapes the bytecode VM's 16-byte `(slot, offset, raw)`
/// entries must replay exactly as the tree-walker's write log: many
/// stores to one element, a store to a non-private DO variable inside its
/// own loop (the merge keeps the last *logged* store, not the value the
/// back-edge wrote after it), a reduction and a private. Each directive
/// goes on the `I` loop of the main unit; the fixtures run at 3 and 4
/// chunks, so chunk boundaries fall inside every shape.
#[test]
fn chunk_journal_fixtures_agree_bit_for_bit_at_3_and_4_chunks() {
    use fir::ast::{OmpDirective, RedOp};
    // The fourth field is the last value the chunked run prints, where
    // the fixture pins one.
    let fixtures: [(&str, &str, OmpDirective, Option<&str>); 4] = [
        (
            "many stores to one element",
            "      PROGRAM P
      COMMON /B/ A(11), S(2)
      DO I = 1, 11
        A(I) = I*1.5
        S(1) = A(I)
        S(1) = S(1) + 2.0
        S(1) = S(1)*0.5
        S(2) = S(2) + S(1)
      ENDDO
      WRITE(6,*) A(11), S(1), S(2)
      END
",
            OmpDirective::default(),
            None,
        ),
        (
            "store to a non-private DO variable in its own loop",
            "      PROGRAM P
      COMMON /B/ A(11), K
      DO I = 1, 11
        DO K = 1, 3
          A(I) = A(I) + K*0.25
          IF (K .EQ. 2) K = K + 10
        ENDDO
      ENDDO
      WRITE(6,*) A(1), A(11), K
      END
",
            OmpDirective::default(),
            // K's last logged store (iteration K = 2), where the sequential
            // run ends at 3 after the back-edge write.
            Some("12"),
        ),
        (
            "reduction",
            "      PROGRAM P
      COMMON /B/ A(11), S
      S = 0.5
      DO I = 1, 11
        A(I) = I*0.1
        S = S + A(I)
      ENDDO
      WRITE(6,*) S
      END
",
            OmpDirective {
                reductions: vec![(RedOp::Add, "S".into())],
                ..Default::default()
            },
            Some("7.100000000E0"),
        ),
        (
            "private",
            "      PROGRAM P
      COMMON /B/ A(11), T
      T = 7.0
      DO I = 1, 11
        T = I*3.0
        A(I) = T + 1.0
      ENDDO
      WRITE(6,*) A(11), T
      END
",
            OmpDirective {
                private: vec!["T".into()],
                ..Default::default()
            },
            // The private's pre-loop value survives the merge.
            Some("7.000000000E0"),
        ),
    ];
    for (label, src, directive, merged) in fixtures {
        let mut p = fir::parse(src).unwrap();
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            if d.var == "I" {
                d.directive = Some(directive.clone());
            }
        });
        for threads in [3usize, 4] {
            let opts = ExecOptions {
                threads,
                ..Default::default()
            };
            differential(&format!("{label} at {threads} chunks"), &p, &opts);
            let r = run(&p, &opts).unwrap();
            assert_eq!(r.vm.chunks_run, threads as u64, "{label}");
            if let Some(last) = merged {
                let got = r.io.last().and_then(|l| l.split_whitespace().last());
                assert_eq!(got, Some(last), "{label} at {threads} chunks");
            }
        }
    }
}

/// An array no host can allocate is a runtime error on both engines, with
/// one text, whether it is a local, a COMMON member created by the
/// preallocation pass, a COMMON member a later unit grows, or a shape
/// whose element count overflows `usize` (it saturates, never wraps into
/// a small slot).
#[test]
fn an_unallocatable_array_is_a_runtime_error_on_both_engines() {
    let local = "      PROGRAM P
      DIMENSION A(100000000000000000)
      A(1) = 1.0
      WRITE(6,*) A(1)
      END
";
    let common = "      PROGRAM P
      COMMON /B/ A(100000000000000000)
      A(1) = 1.0
      END
";
    let grown = "      PROGRAM P
      COMMON /B/ A(4)
      CALL S(100000000000000000)
      END
      SUBROUTINE S(N)
      COMMON /B/ A(N)
      A(1) = 1.0
      END
";
    let overflowing = "      PROGRAM P
      DIMENSION A(4294967296, 4294967296)
      A(1, 1) = 1.0
      A(2, 1) = 2.0
      END
";
    let huge = "100000000000000000".to_string();
    let cases = [
        ("local", local, &huge),
        ("common", common, &huge),
        ("grown common", grown, &huge),
        ("overflowing shape", overflowing, &usize::MAX.to_string()),
    ];
    for (label, src, len) in cases {
        let want = format!("cannot allocate storage of {len} elements");
        let p = fir::parse(src).unwrap();
        for engine in [Engine::TreeWalk, Engine::Bytecode] {
            let opts = ExecOptions {
                engine,
                ..Default::default()
            };
            match run(&p, &opts) {
                Ok(_) => panic!("{label} {engine:?}: ran"),
                Err(e) => {
                    assert_eq!(e.message, want, "{label} {engine:?}");
                    assert_eq!(e.kind, fruntime::RtErrorKind::General, "{label}");
                }
            }
        }
    }
}
