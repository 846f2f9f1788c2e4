//! Normalization passes: PARAMETER substitution and constant folding.
//!
//! Polaris normalizes programs before dependence analysis (constant
//! propagation, induction-variable substitution — paper §III-C3 lists these
//! as the transformations the reverse inliner must tolerate). This module
//! provides the expression-level pieces; induction-variable substitution
//! lives in `fpar` because it needs dataflow facts.

use crate::ast::*;
use crate::symbol::SymbolTable;
use crate::visit::rewrite_exprs;

/// Fold integer-constant subtrees in an expression in place.
pub fn fold_expr(e: &mut Expr) {
    e.rewrite(&mut |node| {
        simplify(node);
    });
}

/// One local simplification step applied bottom-up by [`fold_expr`].
fn simplify(node: &mut Expr) {
    // Integer constant folding.
    if let Some(c) = node.as_int_const() {
        if !matches!(node, Expr::Int(_)) {
            *node = Expr::Int(c);
            return;
        }
    }
    // Algebraic identities that keep affine forms tidy:
    //   e + 0 = 0 + e = e ;  e * 1 = 1 * e = e ;  e * 0 = 0 ;  e - 0 = e
    let replacement = match node {
        Expr::Bin(BinOp::Add, l, r) => {
            if matches!(**l, Expr::Int(0)) {
                Some((**r).clone())
            } else if matches!(**r, Expr::Int(0)) {
                Some((**l).clone())
            } else {
                None
            }
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            if matches!(**r, Expr::Int(0)) {
                Some((**l).clone())
            } else if l == r {
                Some(Expr::Int(0))
            } else {
                None
            }
        }
        Expr::Bin(BinOp::Mul, l, r) => {
            if matches!(**l, Expr::Int(1)) {
                Some((**r).clone())
            } else if matches!(**r, Expr::Int(1)) {
                Some((**l).clone())
            } else if matches!(**l, Expr::Int(0)) || matches!(**r, Expr::Int(0)) {
                Some(Expr::Int(0))
            } else {
                None
            }
        }
        Expr::Bin(BinOp::Div, l, r) => {
            if matches!(**r, Expr::Int(1)) {
                Some((**l).clone())
            } else {
                None
            }
        }
        Expr::Un(UnOp::Neg, inner) => match &**inner {
            Expr::Int(v) => v.checked_neg().map(Expr::Int),
            Expr::Un(UnOp::Neg, e) => Some((**e).clone()),
            _ => None,
        },
        // Relational folding on integer constants.
        Expr::Bin(op, l, r) if op.is_rel() => match (l.as_int_const(), r.as_int_const()) {
            (Some(a), Some(b)) => {
                let v = match op {
                    BinOp::Eq => a == b,
                    BinOp::Ne => a != b,
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    _ => unreachable!(),
                };
                Some(Expr::Logical(v))
            }
            _ => None,
        },
        _ => None,
    };
    if let Some(r) = replacement {
        *node = r;
    }
}

/// Substitute PARAMETER constants and fold every expression in a unit body.
pub fn normalize_unit(unit: &mut ProcUnit) {
    // Only PARAMETER names are substituted: a unit that declares none
    // needs no symbol table.
    let has_params = unit.decls.iter().any(|d| matches!(d, Decl::Param { .. }));
    let table = has_params.then(|| SymbolTable::build(unit));
    rewrite_exprs(&mut unit.body, &mut |e| {
        if let (Expr::Var(n), Some(table)) = (&*e, &table) {
            if let Some(v) = table.param_value(n) {
                *e = v.clone();
            }
        }
        simplify(e);
    });
}

/// Normalize every unit of a program.
pub fn normalize_program(p: &mut Program) {
    for u in &mut p.units {
        normalize_unit(u);
    }
}

/// Prune statically-dead branches: `IF (.TRUE.)`/`IF (.FALSE.)` after
/// folding. Used by tests and by the annotation lowerer to clean up.
pub fn prune_dead_branches(block: &mut Block) {
    let mut i = 0;
    while i < block.len() {
        let replace = match &mut block[i].kind {
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                prune_dead_branches(then_blk);
                prune_dead_branches(else_blk);
                match cond {
                    Expr::Logical(true) => Some(std::mem::take(then_blk)),
                    Expr::Logical(false) => Some(std::mem::take(else_blk)),
                    _ => None,
                }
            }
            StmtKind::Do(d) => {
                prune_dead_branches(&mut d.body);
                None
            }
            StmtKind::Tagged { body, .. } => {
                prune_dead_branches(body);
                None
            }
            _ => None,
        };
        match replace {
            Some(stmts) => {
                let n = stmts.len();
                block.splice(i..=i, stmts);
                i += n;
            }
            None => i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn folds_arithmetic() {
        let mut e = Expr::add(Expr::mul(Expr::int(2), Expr::int(3)), Expr::var("X"));
        fold_expr(&mut e);
        assert_eq!(e, Expr::add(Expr::int(6), Expr::var("X")));
    }

    #[test]
    fn identity_simplifications() {
        let mut e = Expr::add(Expr::var("X"), Expr::int(0));
        fold_expr(&mut e);
        assert_eq!(e, Expr::var("X"));

        let mut e = Expr::mul(Expr::int(1), Expr::var("Y"));
        fold_expr(&mut e);
        assert_eq!(e, Expr::var("Y"));

        let mut e = Expr::mul(Expr::var("Y"), Expr::int(0));
        fold_expr(&mut e);
        assert_eq!(e, Expr::Int(0));

        let mut e = Expr::sub(Expr::var("Z"), Expr::var("Z"));
        fold_expr(&mut e);
        assert_eq!(e, Expr::Int(0));
    }

    #[test]
    fn double_negation() {
        let mut e = Expr::Un(
            UnOp::Neg,
            Box::new(Expr::Un(UnOp::Neg, Box::new(Expr::var("A")))),
        );
        fold_expr(&mut e);
        assert_eq!(e, Expr::var("A"));
    }

    #[test]
    fn parameter_substitution_in_unit() {
        let mut p = parse(
            "\
      PROGRAM P
      PARAMETER (N = 8)
      DO I = 1, N
        A(I) = N*2
      ENDDO
      END
",
        )
        .unwrap();
        normalize_program(&mut p);
        let d = match &p.units[0].body[0].kind {
            StmtKind::Do(d) => d,
            _ => panic!(),
        };
        assert_eq!(d.hi, Expr::Int(8));
        assert!(matches!(&d.body[0].kind, StmtKind::Assign { rhs, .. } if *rhs == Expr::Int(16)));
    }

    #[test]
    fn relational_folding_and_pruning() {
        let mut block = parse(
            "\
      PROGRAM P
      IF (1 .GT. 2) THEN
        X = 1
      ELSE
        X = 2
      ENDIF
      END
",
        )
        .unwrap()
        .units
        .remove(0)
        .body;
        for s in &mut block {
            crate::visit::stmt_exprs_mut(s, &mut |e| fold_expr(e));
        }
        prune_dead_branches(&mut block);
        assert_eq!(block.len(), 1);
        assert!(matches!(&block[0].kind, StmtKind::Assign { rhs, .. } if *rhs == Expr::Int(2)));
    }

    #[test]
    fn fold_is_idempotent() {
        let mut e = Expr::add(
            Expr::mul(Expr::int(3), Expr::var("I")),
            Expr::sub(Expr::int(10), Expr::int(4)),
        );
        fold_expr(&mut e);
        let once = e.clone();
        fold_expr(&mut e);
        assert_eq!(e, once);
    }
}
