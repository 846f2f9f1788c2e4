//! Randomized-property tests over the core invariants, driven by the
//! shared deterministic generator in `crates/corpus` (the build container
//! has no access to crates.io, so `proptest` is replaced by an explicit
//! sampling harness — every run explores the same cases, and previously
//! shrunk regressions are pinned as explicit cases):
//!
//! * printer/parser round trip for generated programs;
//! * affine-form algebra is linear;
//! * the dependence tests are *sound* against brute-force enumeration
//!   (`Independent`/`LoopIndependent` verdicts are never contradicted by an
//!   actual collision);
//! * threaded execution equals sequential execution for legal parallel
//!   loops;
//! * annotation inline → reverse inline is the identity on the call.

use corpus::Rng;
use fdep::affine::{extract, SimpleClass};
use fdep::ddtest::{test_pair, DepCtx, DepResult};
use fdep::refs::{ArrayAccess, Sub};
use finline::annot::AnnotRegistry;
use finline::{annot_inline, reverse};
use fir::ast::{BinOp, Expr, OmpDirective, StmtKind};
use fruntime::{run, Engine, ExecOptions};

// ---------------------------------------------------------------------------
// Affine algebra
// ---------------------------------------------------------------------------

/// c0 + c1*I + c2*J with small integer coefficients.
fn small_affine_expr(rng: &mut Rng) -> Expr {
    let (c0, c1, c2) = (rng.range(-6, 6), rng.range(-6, 6), rng.range(-6, 6));
    Expr::add(
        Expr::add(
            Expr::mul(Expr::int(c1), Expr::var("I")),
            Expr::mul(Expr::int(c2), Expr::var("J")),
        ),
        Expr::int(c0),
    )
}

#[test]
fn affine_extraction_is_linear() {
    let mut rng = Rng::new(0xA11F);
    let cls = SimpleClass {
        index_vars: vec!["I".into(), "J".into()],
        variant: vec![],
    };
    for _ in 0..256 {
        let a = small_affine_expr(&mut rng);
        let b = small_affine_expr(&mut rng);
        let fa = extract(&a, &cls).unwrap();
        let fb = extract(&b, &cls).unwrap();
        let fsum = extract(&Expr::add(a.clone(), b.clone()), &cls).unwrap();
        assert_eq!(fa.add(&fb), fsum);
        let fdiff = extract(&Expr::sub(a, b), &cls).unwrap();
        assert_eq!(fa.sub(&fb), fdiff);
    }
}

#[test]
fn affine_rename_roundtrip() {
    let mut rng = Rng::new(0xA11E);
    let cls = SimpleClass {
        index_vars: vec!["I".into(), "J".into()],
        variant: vec![],
    };
    for _ in 0..256 {
        let a = small_affine_expr(&mut rng);
        let f = extract(&a, &cls).unwrap();
        let g = f.rename("I", "I'").rename("I'", "I");
        assert_eq!(f, g);
    }
}

// ---------------------------------------------------------------------------
// Dependence-test soundness against brute force
// ---------------------------------------------------------------------------

fn check_sound(a1: i64, c1: i64, a2: i64, c2: i64, lo: i64, hi: i64) {
    let sub1 = Expr::add(Expr::mul(Expr::int(a1), Expr::var("I")), Expr::int(c1));
    let sub2 = Expr::add(Expr::mul(Expr::int(a2), Expr::var("I")), Expr::int(c2));
    let w = ArrayAccess {
        array: "A".into(),
        subs: vec![Sub::At(sub1)],
        is_write: true,
        pos: 0,
        guard_depth: 0,
        inners: vec![],
    };
    let r = ArrayAccess {
        array: "A".into(),
        subs: vec![Sub::At(sub2)],
        is_write: false,
        pos: 1,
        guard_depth: 0,
        inners: vec![],
    };
    let ctx = DepCtx {
        carried: "I".into(),
        carried_bounds: Some((lo, hi)),
        variant: vec![],
    };
    let verdict = test_pair(&w, &r, &ctx);

    // Brute force: does any (i, i') pair collide? Cross-iteration?
    let mut any = false;
    let mut cross = false;
    for i in lo..=hi {
        for ip in lo..=hi {
            if a1 * i + c1 == a2 * ip + c2 {
                any = true;
                if i != ip {
                    cross = true;
                }
            }
        }
    }
    let case = format!("a1={a1} c1={c1} a2={a2} c2={c2} lo={lo} hi={hi}");
    match verdict {
        DepResult::Independent => assert!(!any, "Independent but collision exists: {case}"),
        DepResult::LoopIndependent => {
            assert!(
                !cross,
                "LoopIndependent but cross-iteration collision exists: {case}"
            )
        }
        DepResult::Carried(_) => {}
    }
}

#[test]
fn dependence_tests_are_sound() {
    let mut rng = Rng::new(0xDD7E57);
    for _ in 0..512 {
        let a1 = rng.range(-4, 4);
        let c1 = rng.range(-20, 20);
        let a2 = rng.range(-4, 4);
        let c2 = rng.range(-20, 20);
        let lo = rng.range(1, 3);
        let span = rng.range(0, 12);
        check_sound(a1, c1, a2, c2, lo, lo + span);
    }
}

// ---------------------------------------------------------------------------
// Threaded execution equivalence
// ---------------------------------------------------------------------------

fn check_threaded_equals_sequential(n: i64, scale: i64, threads: usize) {
    let src = format!(
        "      PROGRAM P
      COMMON /B/ A({n}), S
      DO I = 1, {n}
        A(I) = I*{scale}.0 + 1.0
      ENDDO
      S = 0.0
      DO I = 1, {n}
        S = S + A(I)
      ENDDO
      WRITE(6,*) S
      END
"
    );
    let mut p = fir::parse(&src).unwrap();
    let mut k = 0;
    fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
        k += 1;
        d.directive = Some(if k == 2 {
            OmpDirective {
                reductions: vec![(fir::ast::RedOp::Add, "S".into())],
                ..Default::default()
            }
        } else {
            OmpDirective::default()
        });
    });
    let seq = run(&p, &ExecOptions::default()).unwrap();
    let par = run(
        &p,
        &ExecOptions {
            threads,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        seq.same_observable(&par, 1e-9),
        "{:?} vs {:?}",
        seq.io,
        par.io
    );
}

#[test]
fn threaded_equals_sequential_for_disjoint_writes() {
    let mut rng = Rng::new(0x7EAD);
    for _ in 0..24 {
        let n = rng.range(4, 96);
        let scale = rng.range(1, 9);
        let threads = rng.range(2, 6) as usize;
        check_threaded_equals_sequential(n, scale, threads);
    }
}

// ---------------------------------------------------------------------------
// Engine differential: bytecode VM ≡ reference tree-walker
// ---------------------------------------------------------------------------

#[test]
fn bytecode_engine_matches_tree_walker_on_generated_programs() {
    // The generator lives in `crates/corpus` (shared with the streaming
    // harness); this test owns the differential comparison only.
    let mut rng = Rng::new(0xB17EC0DE);
    for case in 0..64 {
        let p = corpus::differential_program(&mut rng);
        let threads = rng.range(1, 4) as usize;
        let check_races = rng.range(0, 1) == 1;
        let opts = ExecOptions {
            threads,
            check_races,
            ..Default::default()
        };
        let t = run(
            &p,
            &ExecOptions {
                engine: Engine::TreeWalk,
                ..opts.clone()
            },
        )
        .unwrap();
        let v = run(
            &p,
            &ExecOptions {
                engine: Engine::Bytecode,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(t.io, v.io, "case {case}: io");
        assert_eq!(t.stopped, v.stopped, "case {case}: stop");
        assert_eq!(t.total_ops, v.total_ops, "case {case}: ops");
        assert_eq!(t.par_events, v.par_events, "case {case}: events");
        assert_eq!(t.races, v.races, "case {case}: races");
        assert_eq!(t.memory.slots.len(), v.memory.slots.len(), "case {case}");
        for (s, (x, y)) in t.memory.slots.iter().zip(&v.memory.slots).enumerate() {
            assert_eq!(x.ty, y.ty, "case {case} slot {s}: type");
            let xb: Vec<u64> = x.data.iter().map(|f| f.to_bits()).collect();
            let yb: Vec<u64> = y.data.iter().map(|f| f.to_bits()).collect();
            assert_eq!(xb, yb, "case {case} slot {s}: data");
        }
    }
}

// ---------------------------------------------------------------------------
// Printer/parser round trip for generated bodies
// ---------------------------------------------------------------------------

/// An operand for the printer round trip: small literals and variables,
/// plus REALs at the extremes (beyond `Display`'s digit form, subnormal,
/// negative zero).
fn small_value(rng: &mut Rng) -> String {
    match rng.range(0, 8) {
        0 => rng.range(1, 99).to_string(),
        1 => format!("{}.5", rng.range(1, 99)),
        2 => "X".to_string(),
        3 => "1.0E30".to_string(),
        4 => "-1.5E20".to_string(),
        5 => "1.0E-300".to_string(),
        6 => "5.0E-324".to_string(),
        7 => "-0.0".to_string(),
        _ => "Y".to_string(),
    }
}

#[test]
fn printer_roundtrip_on_generated_programs() {
    let mut rng = Rng::new(0x9A1272);
    for _ in 0..48 {
        let nvals = rng.range(1, 7);
        let trip = rng.range(1, 50);
        let mut body = String::new();
        for i in 0..nvals {
            let v = small_value(&mut rng);
            body.push_str(&format!("        B{i} = {v} + {i}\n"));
        }
        let src = format!(
            "      PROGRAM G
      DO I = 1, {trip}
{body}      ENDDO
      END
"
        );
        let p1 = fir::parse(&src).unwrap();
        let printed = fir::print_program(&p1);
        let p2 = fir::parse(&printed).unwrap();
        // Structural equality modulo spans/labels.
        assert_eq!(fir::print_program(&p2), printed);
    }
}

// ---------------------------------------------------------------------------
// Annotation inline/reverse identity
// ---------------------------------------------------------------------------

fn check_inline_then_reverse_restores_call(offset: i64, n: i64) {
    let annot = "subroutine S(X, N) { dimension X[N]; do (I = 1:N) X[I] = unknown(X[I]); }";
    let reg = AnnotRegistry::parse(annot).unwrap();
    let src = format!(
        "      PROGRAM MAIN
      DIMENSION T(100)
      DO K = 1, 3
        CALL S(T({offset}), {n})
      ENDDO
      END
"
    );
    let mut p = fir::parse(&src).unwrap();
    annot_inline::apply(&mut p, &reg);
    let rep = reverse::apply(&mut p, &reg);
    assert!(
        rep.failed.is_empty(),
        "offset={offset} n={n}: {:?}",
        rep.failed
    );
    let out = fir::print_program(&p);
    // `T(1)` and `T` denote the same region (sequence association); the
    // reverse inliner canonicalizes offset-1 actuals to the bare name.
    let exact = format!("CALL S(T({offset}), {n})");
    let canonical = format!("CALL S(T, {n})");
    assert!(
        out.contains(&exact) || (offset == 1 && out.contains(&canonical)),
        "offset={offset} n={n}: call not restored: {out}"
    );
}

#[test]
fn inline_then_reverse_restores_calls() {
    // Pinned regression (proptest shrink from the seed repo: the offset-1
    // single-element view aliasing case).
    check_inline_then_reverse_restores_call(1, 1);
    let mut rng = Rng::new(0x1271E);
    for _ in 0..32 {
        let offset = rng.range(1, 40);
        let n = rng.range(1, 30);
        check_inline_then_reverse_restores_call(offset, n);
    }
}

#[test]
fn reverse_tolerates_commutation() {
    let mut rng = Rng::new(0xC0117);
    for _ in 0..32 {
        let c = rng.range(1, 50);
        let annot = "subroutine AX(A, K, C) { dimension A[64]; A[K] = A[K] + C; }";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let src = format!(
            "      PROGRAM MAIN
      DIMENSION V(64)
      DO K = 1, 10
        CALL AX(V, K, {c}.0)
      ENDDO
      END
"
        );
        let mut p = fir::parse(&src).unwrap();
        annot_inline::apply(&mut p, &reg);
        fir::visit::walk_stmts_mut(&mut p.units[0].body, &mut |s| {
            if let StmtKind::Tagged { body, .. } = &mut s.kind {
                for t in body.iter_mut() {
                    if let StmtKind::Assign {
                        rhs: Expr::Bin(BinOp::Add, l, r),
                        ..
                    } = &mut t.kind
                    {
                        std::mem::swap(l, r);
                    }
                }
            }
        });
        let rep = reverse::apply(&mut p, &reg);
        assert!(rep.failed.is_empty(), "c={c}: {:?}", rep.failed);
    }
}
