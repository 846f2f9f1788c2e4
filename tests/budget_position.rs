//! Cross-engine budget-position pinning: with control-fused ticks in the
//! typed-register engine, budget exhaustion must stay *differentially
//! observable* — the same error kind and message as the tree-walker for
//! every budget, and the exact same reported op count wherever the VM's
//! merged-tick charge points align with the tree-walker's per-step
//! charges (`RtError::ops`).
//!
//! The sweep runs every `max_ops` in `0..total_ops`, deliberately
//! straddling every fold boundary (branch-carried costs, `DoNext`
//! back-edge charges, `J*IK` compare-and-branch folds): the tree-walker
//! charges one op per statement/eval step, so its error position is
//! `max_ops + 1` (frame construction charges a few unchecked ops for
//! dimension-extent evals, so the very smallest budgets all fail at the
//! first checked tick past that fixed prefix); the VM charges whole
//! statement runs at control transfers, so its position is the smallest
//! charge boundary past the budget. The invariants pinned here:
//!
//! 1. error-iff: both engines exhaust exactly when `max_ops < total`;
//! 2. kind/message: `RtErrorKind::Budget`, byte-identical message;
//! 3. position: the VM's reported op count is the least charge boundary
//!    above the budget — never below the tree-walker's, equal to it
//!    precisely when the budget ends one short of a boundary (the
//!    "run-boundary − 1" alignment), and that alignment actually occurs
//!    (the set of boundaries is non-trivial, so the equality case is not
//!    vacuous).

//!
//! The sweep also runs at `threads: 4` over directive loops, as the
//! chunked verification gate runs them. Each chunk counts its ops from
//! zero, so a budget that runs out inside a chunk is located at the
//! chunk's count, and a chunked loop's ops land on the enclosing count
//! all at once after it — the tree-walker's positions skip ahead there
//! instead of stepping by one. Invariants 1–3 still hold, stated over
//! each engine's set of charge boundaries: each engine stops at its least
//! boundary past the budget, and the VM stops exactly where the
//! tree-walker does whenever that is one of the VM's boundaries.

use fir::ast::{OmpDirective, Program};
use fruntime::{run, Engine, ExecOptions, RtErrorKind};

#[path = "fixtures/punned.rs"]
mod punned;

/// Loop-heavy programs whose typed lowering exercises every fold site:
/// plain DO back-edges, IF/ELSE branch folds, integer compare-and-branch
/// literal folds, and nested DO odometers.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "plain-do",
        "      PROGRAM P1
      COMMON /C/ A(12), S
      DO I = 1, 12
        A(I) = I*2.0
      ENDDO
      S = 0.0
      DO I = 1, 12
        S = S + A(I)
      ENDDO
      WRITE(6,*) S
      END
",
    ),
    (
        "branchy-if",
        "      PROGRAM P2
      COMMON /C/ A(10), S
      DO I = 1, 10
        A(I) = I*1.5
      ENDDO
      S = 0.0
      DO I = 1, 10
        IF (A(I) .GT. 7.0) THEN
          S = S + A(I)
        ELSE
          S = S - 1.0
        ENDIF
      ENDDO
      WRITE(6,*) S
      END
",
    ),
    (
        "int-index-chain",
        "      PROGRAM P3
      COMMON /C/ A(9), S
      DIMENSION W(9)
      DO I = 1, 9
        A(I) = I*0.5
        W(I) = 0.0
      ENDDO
      K = 2
      DO I = 1, 9
        K = MOD(K*3 + I, 9) + 1
        IF (K .GT. 4) THEN
          W(K) = W(K) + A(I)
        ENDIF
      ENDDO
      S = 0.0
      DO I = 1, 9
        S = S + W(I)
      ENDDO
      WRITE(6,*) S
      END
",
    ),
    (
        "nested-do",
        "      PROGRAM P4
      COMMON /C/ A(6), S
      S = 0.0
      DO I = 1, 6
        DO J = 1, 5
          S = S + I*0.25 + J*0.125
        ENDDO
        A(I) = S
      ENDDO
      WRITE(6,*) S
      END
",
    ),
];

#[test]
fn budget_positions_are_pinned_across_engines() {
    for (label, src) in PROGRAMS {
        let p = fir::parse(src).expect(label);
        pin_positions(label, &p, 1);
    }
}

/// Directive-loop programs (every loop over `I` carries the directive)
/// whose chunks hold many fold sites: nested DO odometers, branch folds
/// and integer compare-and-branch folds inside each iteration.
const CHUNKED_PROGRAMS: &[(&str, &str)] = &[
    (
        "chunked-nested-if",
        "      PROGRAM Q1
      COMMON /C/ A(8), S
      DO I = 1, 8
        A(I) = 0.0
        DO J = 1, 6
          IF (J .GT. 3) THEN
            A(I) = A(I) + J*0.5
          ELSE
            A(I) = A(I) - 1.0
          ENDIF
        ENDDO
      ENDDO
      S = 0.0
      DO K = 1, 8
        S = S + A(K)
      ENDDO
      WRITE(6,*) S
      END
",
    ),
    (
        "chunked-int-chain",
        "      PROGRAM Q2
      COMMON /C/ W(9), S
      DO I = 1, 6
        K = I
        DO J = 1, 5
          K = MOD(K*3 + J, 9) + 1
          IF (K .GT. 4) THEN
            W(I) = W(I) + K*0.25
          ENDIF
        ENDDO
      ENDDO
      S = 0.0
      DO L = 1, 9
        S = S + W(L)
      ENDDO
      WRITE(6,*) S
      END
",
    ),
];

#[test]
fn budget_positions_are_pinned_across_engines_in_chunked_loops() {
    for (label, src) in CHUNKED_PROGRAMS {
        let mut p = fir::parse(src).expect(label);
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            if d.var == "I" {
                d.directive = Some(OmpDirective::default());
            }
        });
        let chunked = run(&p, &opts(Engine::Bytecode, u64::MAX, 4))
            .unwrap_or_else(|e| panic!("{label}: chunked run failed: {e}"));
        assert!(chunked.vm.chunks_run > 0, "{label}: no chunk ran");
        pin_positions(label, &p, 4);
    }
}

#[test]
fn budget_positions_are_pinned_across_engines_in_punned_frames() {
    // Frames bound to storage of another type class run specialized typed
    // bodies; their charge points must pin like the declared bodies', both
    // sequentially and with the punned calls inside chunked loops. The
    // extent fixture stays out of the sweep: the tree-walker charges callee
    // extents unchecked, so its positions differ by design.
    assert!(punned::FIXTURES
        .iter()
        .all(|(label, _)| *label != punned::EXTENT_FIXTURE.0));
    for (label, src) in punned::FIXTURES {
        let mut p = fir::parse(src).expect(label);
        pin_positions(label, &p, 1);
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            if d.var == "I" {
                d.directive = Some(OmpDirective::default());
            }
        });
        pin_positions(label, &p, 4);
    }
}

fn opts(engine: Engine, max_ops: u64, threads: usize) -> ExecOptions {
    ExecOptions {
        engine,
        max_ops,
        threads,
        ..Default::default()
    }
}

/// Sweep every budget below the total at `threads` and pin the three
/// invariants of the module doc.
fn pin_positions(label: &str, p: &Program, threads: usize) {
    let opts = |engine, max_ops| opts(engine, max_ops, threads);
    let total = run(p, &opts(Engine::Bytecode, u64::MAX))
        .unwrap_or_else(|e| panic!("{label}: full run failed: {e}"))
        .total_ops;
    let tree_total = run(p, &opts(Engine::TreeWalk, u64::MAX))
        .unwrap_or_else(|e| panic!("{label}: tree run failed: {e}"))
        .total_ops;
    assert_eq!(total, tree_total, "{label}: engines disagree on totals");
    assert!(total > 40, "{label}: workload too small to straddle folds");

    // First pass: collect both engines' charge boundaries over the whole
    // sweep. `err.ops` is the count at the failing check, so the set of
    // distinct values *is* the set of charge points.
    let mut vm_bounds = std::collections::BTreeSet::new();
    let mut tree_bounds = std::collections::BTreeSet::new();
    let mut errs = Vec::with_capacity(total as usize);
    for max_ops in 0..total {
        let at = |engine| {
            let e = run(p, &opts(engine, max_ops)).expect_err(&format!(
                "{label}: {engine:?} must exhaust at {max_ops} < {total}"
            ));
            assert_eq!(
                e.kind,
                RtErrorKind::Budget,
                "{label} {engine:?} @ {max_ops}"
            );
            let ops = e.ops.unwrap_or_else(|| {
                panic!("{label} {engine:?} @ {max_ops}: budget error carries no position")
            });
            (ops, e.message)
        };
        let (vm_at, vm_msg) = at(Engine::Bytecode);
        let (tree_at, tree_msg) = at(Engine::TreeWalk);
        assert_eq!(tree_msg, vm_msg, "{label} @ {max_ops}: messages diverged");
        vm_bounds.insert(vm_at);
        tree_bounds.insert(tree_at);
        errs.push((max_ops, vm_at, tree_at));
    }

    // The tree-walker's first checked tick: frame construction evaluates
    // dimension extents through an unbounded throwaway interpreter, so a
    // fixed prefix of ops accrues before the first budget check can fire.
    let tree_first = *tree_bounds.first().expect("sweep is non-empty");
    let least_past = |bounds: &std::collections::BTreeSet<u64>, max_ops: u64| {
        *bounds
            .range(max_ops + 1..)
            .next()
            .unwrap_or_else(|| panic!("{label} @ {max_ops}: no boundary past budget"))
    };

    let mut aligned = 0u64;
    for (max_ops, vm_at, tree_at) in errs {
        // Each engine stops at its least charge boundary past the budget.
        assert_eq!(
            tree_at,
            least_past(&tree_bounds, max_ops),
            "{label} @ {max_ops}: tree-walker position is not the least boundary past the budget"
        );
        assert_eq!(
            vm_at,
            least_past(&vm_bounds, max_ops),
            "{label} @ {max_ops}: VM position is not the least boundary past the budget"
        );
        if threads == 1 {
            // Sequentially the tree-walker checks after every step: one
            // past the budget, clamped up to the first checked tick. (In
            // chunks the count a loop adds lands at once, after it.)
            assert_eq!(
                tree_at,
                (max_ops + 1).max(tree_first),
                "{label} @ {max_ops}: tree-walker position"
            );
        }
        // The VM charges merged runs: never earlier than the tree-walker,
        // and exactly where the tree-walker stops on one of its boundaries.
        assert!(
            vm_at >= tree_at,
            "{label} @ {max_ops}: VM charged before the tree-walker"
        );
        if vm_bounds.contains(&tree_at) {
            assert_eq!(
                vm_at, tree_at,
                "{label} @ {max_ops}: aligned budgets must agree"
            );
            aligned += 1;
        }
    }
    // The equality case must actually exercise fold boundaries, not hold
    // vacuously.
    assert!(
        aligned >= 8,
        "{label}: only {aligned} aligned budget points in 0..{total}"
    );
    assert!(
        vm_bounds.len() >= 8,
        "{label}: only {} distinct charge boundaries",
        vm_bounds.len()
    );

    // At and past the total both engines finish cleanly.
    for max_ops in [total, total + 1] {
        let t = run(p, &opts(Engine::TreeWalk, max_ops));
        let v = run(p, &opts(Engine::Bytecode, max_ops));
        match (t, v) {
            (Ok(t), Ok(v)) => assert_eq!(t.io, v.io, "{label}: io diverged at {max_ops}"),
            (t, v) => panic!("{label} @ {max_ops}: unexpected failure: {t:?} {v:?}"),
        }
    }
}
