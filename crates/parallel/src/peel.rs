//! Last-iteration peeling for privatized global temporaries (paper §III-B4).
//!
//! When a loop privatizes an array whose final value is observable after
//! the loop (a COMMON temporary like the paper's `XY`, `NDX`, `WTDET`),
//! Polaris "peels the last iteration of the loop before parallelizing all
//! the other iterations, so all the global arrays have the same values as
//! their original sequential computation after the entire loop is
//! finished". This module implements that transformation:
//!
//! ```text
//! DO I = lo, hi          →   !$OMP PARALLEL DO ...
//!   body                     DO I = lo, hi - step
//! ENDDO                        body
//!                            ENDDO
//!                            IF (hi - lo >= 0) THEN   ! loop ran at least once
//!                              I = hi
//!                              body                    ! sequential last iteration
//!                            ENDIF
//! ```

use fir::ast::*;
use fir::fold::fold_expr;

/// Peel the last iteration of `d`. Returns the statements that replace the
/// original loop: the shortened (to-be-parallelized) loop followed by the
/// guarded sequential last iteration. The caller attaches the directive to
/// the first returned statement's loop.
pub fn peel_last_iteration(d: &DoLoop) -> Vec<Stmt> {
    let step = d.step_expr();

    // Shortened main loop: hi' = hi - step.
    let mut main = d.clone();
    let mut new_hi = Expr::sub(d.hi.clone(), step.clone());
    fold_expr(&mut new_hi);
    main.hi = new_hi;

    // Guarded last iteration: IF ((hi - lo)*sign(step) >= 0) { var = hi; body }.
    // For the common step=1 case the guard is hi >= lo.
    let guard = if matches!(step, Expr::Int(1)) {
        Expr::bin(BinOp::Ge, d.hi.clone(), d.lo.clone())
    } else {
        Expr::bin(
            BinOp::Ge,
            Expr::mul(Expr::sub(d.hi.clone(), d.lo.clone()), step),
            Expr::Int(0),
        )
    };
    // The peeled iteration runs with the *exact* final index value of the
    // original loop: lo + ((hi - lo) / step) * step. For step 1 that is hi.
    let final_index = if matches!(d.step_expr(), Expr::Int(1)) {
        d.hi.clone()
    } else {
        let s = d.step_expr();
        let mut e = Expr::add(
            d.lo.clone(),
            Expr::mul(
                Expr::bin(BinOp::Div, Expr::sub(d.hi.clone(), d.lo.clone()), s.clone()),
                s,
            ),
        );
        fold_expr(&mut e);
        e
    };

    let mut peeled = vec![Stmt::assign(Expr::Var(d.var.clone()), final_index)];
    peeled.extend(d.body.iter().cloned());

    vec![
        Stmt::synth(StmtKind::Do(Box::new(main))),
        Stmt::synth(StmtKind::If {
            cond: guard,
            then_blk: peeled,
            else_blk: vec![],
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;
    use fir::printer::print_program;

    fn first_loop(src: &str) -> DoLoop {
        let p = parse(src).unwrap();
        for s in &p.units[0].body {
            if let StmtKind::Do(d) = &s.kind {
                return (**d).clone();
            }
        }
        panic!("no loop");
    }

    #[test]
    fn unit_step_peel_shape() {
        let d = first_loop(
            "      PROGRAM P
      DO I = 1, N
        A(I) = 0.0
      ENDDO
      END
",
        );
        let out = peel_last_iteration(&d);
        assert_eq!(out.len(), 2);
        match &out[0].kind {
            StmtKind::Do(m) => assert_eq!(fir::expr_str(&m.hi), "N - 1"),
            _ => panic!(),
        }
        match &out[1].kind {
            StmtKind::If { cond, then_blk, .. } => {
                assert_eq!(fir::expr_str(cond), "N .GE. 1");
                assert!(matches!(&then_blk[0].kind,
                    StmtKind::Assign { lhs: Expr::Var(v), rhs } if v == "I" && fir::expr_str(rhs) == "N"));
                assert_eq!(then_blk.len(), 2); // I = N; body stmt
            }
            _ => panic!(),
        }
    }

    #[test]
    fn const_bounds_fold() {
        let d = first_loop(
            "      PROGRAM P
      DO I = 1, 10
        A(I) = 0.0
      ENDDO
      END
",
        );
        let out = peel_last_iteration(&d);
        match &out[0].kind {
            StmtKind::Do(m) => assert_eq!(m.hi, Expr::Int(9)),
            _ => panic!(),
        }
    }

    #[test]
    fn peeled_semantics_via_print() {
        // Visual sanity: printed form contains both pieces.
        let d = first_loop(
            "      PROGRAM P
      DO I = 1, 10
        XY(1) = FX(I)
        B(I) = XY(1)
      ENDDO
      END
",
        );
        let stmts = peel_last_iteration(&d);
        let mut p = parse("      PROGRAM Q\n      X = 0\n      END\n").unwrap();
        p.units[0].body = stmts;
        let out = print_program(&p);
        assert!(out.contains("DO I = 1, 9"), "{out}");
        assert!(out.contains("IF (10 .GE. 1) THEN"), "{out}");
        assert!(out.contains("I = 10"), "{out}");
    }

    #[test]
    fn non_unit_step_final_index() {
        let d = first_loop(
            "      PROGRAM P
      DO I = 1, 10, 3
        A(I) = 0.0
      ENDDO
      END
",
        );
        let out = peel_last_iteration(&d);
        match &out[1].kind {
            StmtKind::If { then_blk, .. } => match &then_blk[0].kind {
                // 1 + ((10-1)/3)*3 = 10
                StmtKind::Assign { rhs, .. } => assert_eq!(rhs.as_int_const(), Some(10)),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }
}
