//! Generic traversal helpers over statement blocks.
//!
//! Downstream crates (analysis, inlining, parallelization) all need to walk
//! or rewrite statement trees; these helpers keep that logic in one place.

use crate::ast::*;

/// Walk every statement in a block, pre-order, including nested bodies.
pub fn walk_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in block {
        f(s);
        match &s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                walk_stmts(then_blk, f);
                walk_stmts(else_blk, f);
            }
            StmtKind::Do(d) => walk_stmts(&d.body, f),
            StmtKind::Tagged { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }
}

/// Walk every statement mutably, pre-order.
pub fn walk_stmts_mut(block: &mut Block, f: &mut impl FnMut(&mut Stmt)) {
    for s in block {
        f(s);
        match &mut s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                walk_stmts_mut(then_blk, f);
                walk_stmts_mut(else_blk, f);
            }
            StmtKind::Do(d) => walk_stmts_mut(&mut d.body, f),
            StmtKind::Tagged { body, .. } => walk_stmts_mut(body, f),
            _ => {}
        }
    }
}

/// Walk every `DO` loop in a block, pre-order.
pub fn walk_loops<'a>(block: &'a Block, f: &mut impl FnMut(&'a DoLoop)) {
    walk_stmts(block, &mut |s| {
        if let StmtKind::Do(d) = &s.kind {
            f(d);
        }
    });
}

/// Walk every `DO` loop mutably.
pub fn walk_loops_mut(block: &mut Block, f: &mut impl FnMut(&mut DoLoop)) {
    for s in block {
        match &mut s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                walk_loops_mut(then_blk, f);
                walk_loops_mut(else_blk, f);
            }
            StmtKind::Do(d) => {
                f(d);
                walk_loops_mut(&mut d.body, f);
            }
            StmtKind::Tagged { body, .. } => walk_loops_mut(body, f),
            _ => {}
        }
    }
}

/// Apply `f` to every expression in a statement (condition, bounds,
/// subscripts, operands), without descending into sub-expressions — callers
/// compose with [`Expr::walk`] for that.
pub fn stmt_exprs<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            f(lhs);
            f(rhs);
        }
        StmtKind::If { cond, .. } => f(cond),
        StmtKind::Do(d) => {
            f(&d.lo);
            f(&d.hi);
            if let Some(st) = &d.step {
                f(st);
            }
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                f(a);
            }
        }
        StmtKind::Write { items, .. } => {
            for i in items {
                f(i);
            }
        }
        _ => {}
    }
}

/// Apply `f` to every top-level expression in a statement, mutably.
pub fn stmt_exprs_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match &mut s.kind {
        StmtKind::Assign { lhs, rhs } => {
            f(lhs);
            f(rhs);
        }
        StmtKind::If { cond, .. } => f(cond),
        StmtKind::Do(d) => {
            f(&mut d.lo);
            f(&mut d.hi);
            if let Some(st) = &mut d.step {
                f(st);
            }
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                f(a);
            }
        }
        StmtKind::Write { items, .. } => {
            for i in items {
                f(i);
            }
        }
        _ => {}
    }
}

/// Rewrite every expression node in a whole block, post-order within each
/// expression (see [`Expr::rewrite`]), visiting nested statement bodies.
pub fn rewrite_exprs(block: &mut Block, f: &mut impl FnMut(&mut Expr)) {
    walk_stmts_mut(block, &mut |s| {
        stmt_exprs_mut(s, &mut |e| e.rewrite(f));
    });
}

/// True if the block (recursively) contains any I/O or program-termination
/// statement — the condition Polaris uses to exclude subroutines from
/// inlining and loops from parallelization.
pub fn contains_io(block: &Block) -> bool {
    let mut found = false;
    walk_stmts(block, &mut |s| {
        if matches!(s.kind, StmtKind::Write { .. } | StmtKind::Stop { .. }) {
            found = true;
        }
    });
    found
}

/// True if the block (recursively) contains a `CALL`.
pub fn contains_call(block: &Block) -> bool {
    let mut found = false;
    walk_stmts(block, &mut |s| {
        if matches!(s.kind, StmtKind::Call { .. }) {
            found = true;
        }
    });
    found
}

/// Collect the names of all subroutines called (recursively) in a block.
pub fn called_names(block: &Block) -> Vec<Ident> {
    let mut out = Vec::new();
    walk_stmts(block, &mut |s| {
        if let StmtKind::Call { name, .. } = &s.kind {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn fixture() -> Program {
        parse(
            "\
      PROGRAM P
      DO I = 1, 10
        IF (A(I) .GT. 0.0) THEN
          CALL WORK(I)
        ELSE
          WRITE(6,*) I
        ENDIF
        DO J = 1, 5
          B(I, J) = 0.0
        ENDDO
      ENDDO
      END
",
        )
        .unwrap()
    }

    #[test]
    fn walk_counts_all_statements() {
        let p = fixture();
        let mut n = 0;
        walk_stmts(&p.units[0].body, &mut |_| n += 1);
        // DO, IF, CALL, WRITE, DO, ASSIGN
        assert_eq!(n, 6);
    }

    #[test]
    fn walk_loops_finds_nested() {
        let p = fixture();
        let mut vars = Vec::new();
        walk_loops(&p.units[0].body, &mut |d| vars.push(d.var.clone()));
        assert_eq!(vars, vec!["I", "J"]);
    }

    #[test]
    fn io_and_call_detection() {
        let p = fixture();
        assert!(contains_io(&p.units[0].body));
        assert!(contains_call(&p.units[0].body));
        assert_eq!(called_names(&p.units[0].body), vec!["WORK"]);
    }

    #[test]
    fn rewrite_exprs_reaches_subscripts() {
        let mut p = fixture();
        rewrite_exprs(&mut p.units[0].body, &mut |e| {
            if matches!(e, Expr::Var(n) if n == "I") {
                *e = Expr::var("II");
            }
        });
        let mut found = false;
        walk_stmts(&p.units[0].body, &mut |s| {
            if let StmtKind::Assign { lhs, .. } = &s.kind {
                if lhs.mentions("II") {
                    found = true;
                }
            }
        });
        assert!(found);
    }

    #[test]
    fn loop_bounds_are_visited() {
        let p = parse("      PROGRAM P\n      DO I = 1, N\n      ENDDO\n      END\n").unwrap();
        let mut names = Vec::new();
        walk_stmts(&p.units[0].body, &mut |s| {
            stmt_exprs(s, &mut |e| {
                e.walk(&mut |n| {
                    if let Expr::Var(v) = n {
                        names.push(v.clone());
                    }
                })
            });
        });
        assert!(names.contains(&"N".into()));
    }
}
