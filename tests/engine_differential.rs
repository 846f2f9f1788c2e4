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
