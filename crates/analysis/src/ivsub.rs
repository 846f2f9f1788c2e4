//! Induction-variable substitution.
//!
//! Rewrites `K = K + c` accumulators into closed-form expressions of the
//! loop indices, so that subscripts like `X2(K)` in the paper's PCINIT
//! (Fig. 2: `I = I + 1` inside a nested loop, `X2(I) = ...`) become affine
//! and the surrounding loops analyzable.
//!
//! Two shapes are handled, which cover the PERFECT idioms:
//!
//! * the increment is a direct child of the analyzed loop body — uses become
//!   `K + (i - lo)*c` before the increment and `K + (i - lo)*c + c` after
//!   (the name `K` now denotes the value on loop entry, since the increment
//!   statement is deleted);
//! * the increment is a direct child of one inner loop with *constant*
//!   trip count `T` — uses see `K + (i - lo)*T*c` plus the inner-loop
//!   progression `(j - lo_j)*c`.
//!
//! Anything else is left alone (the scalar stays loop-carried and the loop
//! is conservatively not parallelized).

use crate::scalar::{ScalarClass, ScalarInfo};
use fir::ast::{DoLoop, Expr, Ident, Stmt, StmtKind};
use fir::fold::fold_expr;
use fir::visit::stmt_exprs_mut;

/// Substitute all recognized induction variables in `d` (in place).
/// Returns `(name, increment)` for each substituted variable — the caller
/// needs the increments to emit post-loop compensation assignments when the
/// transformed loop is actually emitted.
pub fn substitute_inductions(d: &mut DoLoop, info: &ScalarInfo) -> Vec<(Ident, i64)> {
    // Only unit-step loops have the simple closed form.
    if !matches!(d.step_expr(), Expr::Int(1)) {
        return vec![];
    }
    let mut done = Vec::new();
    let candidates: Vec<(Ident, i64, bool)> = info
        .classes
        .iter()
        .filter_map(|(n, c)| match c {
            ScalarClass::Induction { incr, in_inner } => Some((n.clone(), *incr, *in_inner)),
            _ => None,
        })
        .collect();
    for (name, incr, in_inner) in candidates {
        let ok = if in_inner {
            subst_inner(d, &name, incr)
        } else {
            subst_top(d, &name, incr)
        };
        if ok {
            done.push((name, incr));
        }
    }
    done
}

/// Base progression of the analyzed loop: `(i - lo) * per_iter`.
fn outer_base(d: &DoLoop, per_iter: i64) -> Expr {
    let trip = Expr::sub(Expr::var(d.var.clone()), d.lo.clone());
    let mut e = Expr::mul(trip, Expr::int(per_iter));
    fold_expr(&mut e);
    e
}

/// Replace uses of `name` by `name + offset` in an expression.
fn replace_uses(e: &mut Expr, name: &str, offset: &Expr) {
    e.rewrite(&mut |node| {
        if matches!(node, Expr::Var(v) if v == name) {
            let mut r = Expr::add(Expr::var(name.to_string()), offset.clone());
            fold_expr(&mut r);
            *node = r;
        }
    });
}

fn rewrite_stmt_uses(s: &mut Stmt, name: &str, offset: &Expr) {
    stmt_exprs_mut(s, &mut |e| replace_uses(e, name, offset));
    // Descend into nested bodies with the same offset.
    match &mut s.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            for t in then_blk.iter_mut().chain(else_blk.iter_mut()) {
                rewrite_stmt_uses(t, name, offset);
            }
        }
        StmtKind::Do(inner) => {
            for t in &mut inner.body {
                rewrite_stmt_uses(t, name, offset);
            }
        }
        StmtKind::Tagged { body, .. } => {
            for t in body.iter_mut() {
                rewrite_stmt_uses(t, name, offset);
            }
        }
        _ => {}
    }
}

/// True if `s` is exactly `name = name + c` (after classification we know c
/// matches `incr`).
fn is_increment(s: &Stmt, name: &str) -> bool {
    if let StmtKind::Assign { lhs, rhs } = &s.kind {
        if matches!(lhs, Expr::Var(v) if v == name) {
            return rhs.mentions(name);
        }
    }
    false
}

/// Case 1: increment is a direct child of the body.
fn subst_top(d: &mut DoLoop, name: &str, incr: i64) -> bool {
    let Some(k) = d.body.iter().position(|s| is_increment(s, name)) else {
        return false;
    };
    let base = outer_base(d, incr);
    let mut after = Expr::add(base.clone(), Expr::int(incr));
    fold_expr(&mut after);

    for (i, s) in d.body.iter_mut().enumerate() {
        if i < k {
            rewrite_stmt_uses(s, name, &base);
        } else if i > k {
            rewrite_stmt_uses(s, name, &after);
        }
    }
    d.body.remove(k);
    true
}

/// Case 2: increment is a direct child of one inner loop that is itself a
/// direct child of the body; the inner trip count must be a constant.
fn subst_inner(d: &mut DoLoop, name: &str, incr: i64) -> bool {
    // Locate the inner loop.
    let mut loc: Option<(usize, usize)> = None;
    for (bi, s) in d.body.iter().enumerate() {
        if let StmtKind::Do(inner) = &s.kind {
            if let Some(k) = inner.body.iter().position(|t| is_increment(t, name)) {
                loc = Some((bi, k));
                break;
            }
        }
    }
    let Some((bi, k)) = loc else { return false };

    // Validate the inner loop shape.
    let (inner_var, inner_lo, trip) = {
        let StmtKind::Do(inner) = &d.body[bi].kind else {
            unreachable!()
        };
        if !matches!(inner.step_expr(), Expr::Int(1)) {
            return false;
        }
        let (Some(lo), Some(hi)) = (inner.lo.as_int_const(), inner.hi.as_int_const()) else {
            return false;
        };
        let trip = hi - lo + 1;
        if trip <= 0 {
            return false;
        }
        (inner.var.clone(), inner.lo.clone(), trip)
    };

    let per_outer = outer_base(d, incr * trip); // (i - lo) * T * c
    let inner_prog = {
        // (j - lo_j) * c
        let mut e = Expr::mul(Expr::sub(Expr::var(inner_var), inner_lo), Expr::int(incr));
        fold_expr(&mut e);
        e
    };
    let mut before_in_inner = Expr::add(per_outer.clone(), inner_prog);
    fold_expr(&mut before_in_inner);
    let mut after_in_inner = Expr::add(before_in_inner.clone(), Expr::int(incr));
    fold_expr(&mut after_in_inner);
    let mut after_inner_loop = Expr::add(outer_base(d, incr * trip), Expr::int(incr * trip));
    fold_expr(&mut after_inner_loop);

    for (i, s) in d.body.iter_mut().enumerate() {
        if i < bi {
            rewrite_stmt_uses(s, name, &per_outer);
        } else if i > bi {
            rewrite_stmt_uses(s, name, &after_inner_loop);
        } else {
            let StmtKind::Do(inner) = &mut s.kind else {
                unreachable!()
            };
            for (j, t) in inner.body.iter_mut().enumerate() {
                if j < k {
                    rewrite_stmt_uses(t, name, &before_in_inner);
                } else if j > k {
                    rewrite_stmt_uses(t, name, &after_in_inner);
                }
            }
            inner.body.remove(k);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::classify;
    use fir::parser::parse;
    use fir::printer::print_program;

    fn run(src: &str, arrays: &[&str]) -> (String, Vec<(Ident, i64)>) {
        let mut p = parse(src).unwrap();
        let mut subbed = Vec::new();
        for s in &mut p.units[0].body {
            if let StmtKind::Do(d) = &mut s.kind {
                let info = classify(&d.body, &d.var, &|n| arrays.contains(&n));
                subbed = substitute_inductions(d, &info);
            }
        }
        (print_program(&p), subbed)
    }

    #[test]
    fn top_level_increment() {
        let (out, subbed) = run(
            "      PROGRAM P
      DO J = 1, N
        K = K + 1
        X2(K) = FX(K)
      ENDDO
      END
",
            &["X2", "FX"],
        );
        assert_eq!(subbed, vec![("K".into(), 1)]);
        // After the (deleted) increment, uses see K + (J-1) + 1.
        assert!(out.contains("X2(K + (J - 1 + 1))"), "{out}");
        // The increment statement is gone.
        assert!(!out.contains("K = K + 1"), "{out}");
    }

    #[test]
    fn uses_before_increment_see_base() {
        let (out, _) = run(
            "      PROGRAM P
      DO J = 1, N
        Y(K) = 0.0
        K = K + 1
      ENDDO
      END
",
            &["Y"],
        );
        assert!(
            out.contains("Y(K + (J - 1))") || out.contains("Y(K + (J - 1)*1)"),
            "{out}"
        );
    }

    #[test]
    fn inner_loop_increment_with_const_trip() {
        // The PCINIT shape with constant inner trip count.
        let (out, subbed) = run(
            "      PROGRAM P
      DO N = 1, NT
        DO J = 1, 8
          K = K + 1
          X2(K) = FX(K)
        ENDDO
      ENDDO
      END
",
            &["X2", "FX"],
        );
        assert_eq!(subbed, vec![("K".into(), 1)]);
        assert!(out.contains("(N - 1)*8"), "{out}");
        assert!(out.contains("J - 1"), "{out}");
    }

    #[test]
    fn variable_inner_trip_is_rejected() {
        let (out, subbed) = run(
            "      PROGRAM P
      DO N = 1, NT
        DO J = 1, NSP
          K = K + 1
          X2(K) = FX(K)
        ENDDO
      ENDDO
      END
",
            &["X2", "FX"],
        );
        assert!(subbed.is_empty());
        assert!(out.contains("K = K + 1"), "{out}");
    }

    #[test]
    fn negative_increment() {
        let (out, subbed) = run(
            "      PROGRAM P
      DO J = 1, N
        K = K - 2
        X2(K) = 0.0
      ENDDO
      END
",
            &["X2"],
        );
        assert_eq!(subbed, vec![("K".into(), -2)]);
        assert!(out.contains("-2"), "{out}");
    }

    #[test]
    fn non_unit_step_loop_is_rejected() {
        let (_, subbed) = run(
            "      PROGRAM P
      DO J = 1, N, 2
        K = K + 1
        X2(K) = 0.0
      ENDDO
      END
",
            &["X2"],
        );
        assert!(subbed.is_empty());
    }

    #[test]
    fn statements_after_inner_loop_see_full_stride() {
        let (out, _) = run(
            "      PROGRAM P
      DO N = 1, NT
        DO J = 1, 4
          K = K + 1
        ENDDO
        Y(K) = 0.0
      ENDDO
      END
",
            &["Y"],
        );
        assert!(out.contains("Y(K + ((N - 1)*4 + 4))"), "{out}");
    }
}
