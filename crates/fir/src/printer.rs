//! Fortran source emitter.
//!
//! Prints a [`Program`] back to fixed-form-flavored Fortran 77 text,
//! including `!$OMP` directives inserted by the parallelizer and the
//! `*//@;`-style tags delimiting annotation-inlined regions (paper Fig. 18).
//! The emitted text re-parses to a structurally equal program (round-trip
//! property, tested here and with proptest in the crate tests), except that
//! tagged regions and the `unique`/`unknown` operators — which have no
//! surface syntax — are printed in a readable pseudo-Fortran form.

use crate::ast::*;
use std::fmt::Write as _;

/// Pretty-print a whole program.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for u in &p.units {
        print_unit(u, &mut out);
    }
    out
}

/// Pretty-print one unit.
pub fn print_unit(u: &ProcUnit, out: &mut String) {
    match u.kind {
        UnitKind::Program => {
            let _ = writeln!(out, "      PROGRAM {}", u.name);
        }
        UnitKind::Subroutine => {
            let _ = write!(out, "      SUBROUTINE {}", u.name);
            if !u.params.is_empty() {
                out.push('(');
                write_list(out, &u.params, |p, out| out.push_str(p));
                out.push(')');
            }
            out.push('\n');
        }
    }
    for d in &u.decls {
        print_decl(d, out);
    }
    print_block(&u.body, 1, out);
    out.push_str("      END\n");
}

/// Write `items` separated by `", "`.
fn write_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&T, &mut String)) {
    for (k, x) in items.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        item(x, out);
    }
}

fn print_decl(d: &Decl, out: &mut String) {
    match d {
        Decl::Var(v) => {
            let ty = v.ty.map(|t| t.keyword()).unwrap_or("DIMENSION");
            let _ = write!(out, "      {ty} ");
            write_var_decl(v, out);
        }
        Decl::Common { block, vars } if block.is_empty() => {
            // Anonymous group: a multi-entry type/DIMENSION declaration.
            let ty = vars
                .iter()
                .find_map(|v| v.ty)
                .map(|t| t.keyword())
                .unwrap_or("DIMENSION");
            let _ = write!(out, "      {ty} ");
            write_list(out, vars, write_var_decl);
        }
        Decl::Common { block, vars } => {
            let _ = write!(out, "      COMMON /{block}/ ");
            write_list(out, vars, write_var_decl);
        }
        Decl::Param { name, value } => {
            let _ = write!(out, "      PARAMETER ({name} = ");
            write_expr(value, 0, out);
            out.push(')');
        }
    }
    out.push('\n');
}

fn write_var_decl(v: &VarDecl, out: &mut String) {
    out.push_str(&v.name);
    if !v.dims.is_empty() {
        out.push('(');
        write_list(out, &v.dims, |d, out| match d {
            Dim::Extent(e) => write_expr(e, 0, out),
            Dim::Assumed => out.push('*'),
        });
        out.push(')');
    }
}

/// Column 7 base plus two spaces per nesting level.
fn write_indent(depth: usize, out: &mut String) {
    out.push_str("      ");
    for _ in 1..depth {
        out.push_str("  ");
    }
}

/// Print a statement block at the given nesting depth.
pub fn print_block(b: &Block, depth: usize, out: &mut String) {
    for s in b {
        print_stmt(s, depth, out);
    }
}

fn print_stmt(s: &Stmt, depth: usize, out: &mut String) {
    // A label takes the first columns; the nesting indent follows it.
    let ind = |out: &mut String| match s.label {
        Some(l) => {
            let _ = write!(out, "{l:<5} ");
            for _ in 1..depth {
                out.push_str("  ");
            }
        }
        None => write_indent(depth, out),
    };
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            ind(out);
            write_expr(lhs, 0, out);
            out.push_str(" = ");
            write_expr(rhs, 0, out);
            out.push('\n');
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            ind(out);
            out.push_str("IF (");
            write_expr(cond, 0, out);
            if else_blk.is_empty() && then_blk.len() == 1 && is_simple(&then_blk[0]) {
                // Logical IF: the statement on the same line, without its
                // own indent or trailing blanks.
                out.push_str(") ");
                let at = out.len();
                print_stmt(&then_blk[0], 1, out);
                out.replace_range(at..at + 6, "");
                let end = out.trim_end().len();
                out.truncate(end);
                out.push('\n');
                return;
            }
            out.push_str(") THEN\n");
            print_block(then_blk, depth + 1, out);
            if !else_blk.is_empty() {
                write_indent(depth, out);
                out.push_str("ELSE\n");
                print_block(else_blk, depth + 1, out);
            }
            write_indent(depth, out);
            out.push_str("ENDIF\n");
        }
        StmtKind::Do(d) => {
            if let Some(dir) = &d.directive {
                print_directive(dir, out);
            }
            ind(out);
            let _ = write!(out, "DO {} = ", d.var);
            write_expr(&d.lo, 0, out);
            out.push_str(", ");
            write_expr(&d.hi, 0, out);
            if let Some(st) = &d.step {
                out.push_str(", ");
                write_expr(st, 0, out);
            }
            out.push('\n');
            print_block(&d.body, depth + 1, out);
            write_indent(depth, out);
            out.push_str("ENDDO\n");
            if let Some(dir) = &d.directive {
                if dir.nowait {
                    out.push_str("!$OMP END PARALLEL DO NOWAIT\n");
                } else {
                    out.push_str("!$OMP END PARALLEL DO\n");
                }
            }
        }
        StmtKind::Call { name, args } => {
            ind(out);
            let _ = write!(out, "CALL {name}");
            if !args.is_empty() {
                out.push('(');
                write_list(out, args, |a, out| write_expr(a, 0, out));
                out.push(')');
            }
            out.push('\n');
        }
        StmtKind::Write { unit, items } => {
            ind(out);
            let _ = write!(out, "WRITE({unit},*)");
            if !items.is_empty() {
                out.push(' ');
                write_list(out, items, |a, out| write_expr(a, 0, out));
            }
            out.push('\n');
        }
        StmtKind::Stop { message } => {
            ind(out);
            out.push_str("STOP");
            if let Some(m) = message {
                out.push(' ');
                write_quoted(m, out);
            }
            out.push('\n');
        }
        StmtKind::Return => {
            ind(out);
            out.push_str("RETURN\n");
        }
        StmtKind::Continue => {
            ind(out);
            out.push_str("CONTINUE\n");
        }
        StmtKind::Tagged { tag, body } => {
            let _ = writeln!(
                out,
                "*//@; BEGIN(Code, tag={}, callee={})",
                tag.tag_id, tag.callee
            );
            let _ = writeln!(out, "*//@; @annot inline {}", tag.callee);
            print_block(body, depth, out);
            let _ = writeln!(out, "*//@; END(tag={})", tag.tag_id);
        }
    }
}

/// A character literal: single quotes, embedded quotes doubled.
fn write_quoted(s: &str, out: &mut String) {
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
}

fn is_simple(s: &Stmt) -> bool {
    s.label.is_none()
        && matches!(
            s.kind,
            StmtKind::Assign { .. }
                | StmtKind::Call { .. }
                | StmtKind::Stop { .. }
                | StmtKind::Return
                | StmtKind::Write { .. }
                | StmtKind::Continue
        )
}

fn print_directive(d: &OmpDirective, out: &mut String) {
    out.push_str("!$OMP PARALLEL DO\n!$OMP+DEFAULT(SHARED)\n");
    for (clause, names) in [
        ("PRIVATE", &d.private),
        ("FIRSTPRIVATE", &d.firstprivate),
        ("LASTPRIVATE", &d.lastprivate),
    ] {
        if !names.is_empty() {
            let _ = write!(out, "!$OMP+{clause}(");
            write_list(out, names, |n, out| out.push_str(n));
            out.push_str(")\n");
        }
    }
    for (op, var) in &d.reductions {
        let _ = writeln!(out, "!$OMP+REDUCTION({}:{})", op.omp_name(), var);
    }
}

/// Operator precedence for parenthesization (higher binds tighter).
fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div => 5,
        BinOp::Pow => 7,
    }
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => " + ",
        BinOp::Sub => " - ",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Pow => "**",
        BinOp::Eq => " .EQ. ",
        BinOp::Ne => " .NE. ",
        BinOp::Lt => " .LT. ",
        BinOp::Le => " .LE. ",
        BinOp::Gt => " .GT. ",
        BinOp::Ge => " .GE. ",
        BinOp::And => " .AND. ",
        BinOp::Or => " .OR. ",
    }
}

/// Render an expression to Fortran text.
pub fn expr_str(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(e, 0, &mut out);
    out
}

/// Append `e` to `out`, parenthesized when its precedence is below `outer`.
fn write_expr(e: &Expr, outer: u8, out: &mut String) {
    let args = |out: &mut String, args: &[Expr]| {
        out.push('(');
        write_list(out, args, |a, out| write_expr(a, 0, out));
        out.push(')');
    };
    match e {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Real(R64(x)) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                let _ = write!(out, "{x:.1}");
            } else if x.abs() < 1e15 {
                // Non-integral: `Display` has a decimal point.
                let _ = write!(out, "{x}");
            } else {
                // `Display` would spell 1e30 as 31 digits, an INTEGER
                // literal to the lexer: use an exponent with a decimal point.
                let exp = format!("{x:E}");
                match exp.split_once('E') {
                    Some((m, e)) if !m.contains('.') => {
                        let _ = write!(out, "{m}.0E{e}");
                    }
                    _ => out.push_str(&exp),
                }
            }
        }
        Expr::Str(s) => write_quoted(s, out),
        Expr::Logical(true) => out.push_str(".TRUE."),
        Expr::Logical(false) => out.push_str(".FALSE."),
        Expr::Var(n) => out.push_str(n),
        Expr::Index(n, subs) => {
            out.push_str(n);
            args(out, subs);
        }
        Expr::Section(n, ranges) => {
            out.push_str(n);
            out.push('(');
            write_list(out, ranges, |r, out| match r {
                SecRange::Full => out.push('*'),
                SecRange::At(e) => write_expr(e, 0, out),
                SecRange::Range { lo, hi, step } => {
                    if let Some(l) = lo {
                        write_expr(l, 0, out);
                    }
                    out.push(':');
                    if let Some(h) = hi {
                        write_expr(h, 0, out);
                    }
                    if let Some(st) = step {
                        out.push(':');
                        write_expr(st, 0, out);
                    }
                }
            });
            out.push(')');
        }
        Expr::Intrinsic(i, a) => {
            out.push_str(i.name());
            args(out, a);
        }
        Expr::Bin(op, l, r) => {
            let p = prec(*op);
            // Right operand of left-associative ops needs parens at equal
            // precedence (e.g. a - (b - c)); Pow is right-associative.
            let (lp, rp) = if *op == BinOp::Pow {
                (p + 1, p)
            } else {
                (p, p + 1)
            };
            let paren = p < outer;
            if paren {
                out.push('(');
            }
            write_expr(l, lp, out);
            out.push_str(op_str(*op));
            write_expr(r, rp, out);
            if paren {
                out.push(')');
            }
        }
        Expr::Un(UnOp::Neg, inner) => {
            let paren = outer > 4;
            if paren {
                out.push('(');
            }
            out.push('-');
            write_expr(inner, 6, out);
            if paren {
                out.push(')');
            }
        }
        Expr::Un(UnOp::Not, inner) => {
            out.push_str(".NOT. ");
            write_expr(inner, 3, out);
        }
        Expr::Unique(id, a) => {
            let _ = write!(out, "UNIQ{id}");
            args(out, a);
        }
        Expr::Unknown(id, a) => {
            let _ = write!(out, "UNKN{id}");
            args(out, a);
        }
    }
}

/// Count non-blank, non-comment source lines — the "code size" metric of the
/// paper's Table II ("the number of source code lines with all comments
/// removed").
pub fn count_loc(src: &str) -> usize {
    src.lines()
        .filter(|l| {
            let t = l.trim();
            if t.is_empty() {
                return false;
            }
            // Full-line comments; the `*//@;` tag lines are comments too,
            // but OMP directives (`!$OMP`) count as code.
            if l.starts_with('!') && !l.starts_with("!$OMP") {
                return false;
            }
            if let Some(c) = l.chars().next() {
                if (c == 'C' || c == 'c' || c == '*') && !l.starts_with("!$OMP") {
                    return false;
                }
            }
            true
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(strip_ids(&p1), strip_ids(&p2), "printed:\n{printed}");
    }

    /// Loop ids depend on parse order only, so they survive the round trip;
    /// spans and labels do not. Compare with spans/labels normalized.
    fn strip_ids(p: &Program) -> Program {
        use crate::loc::Span;
        let mut p = p.clone();
        fn fix(b: &mut Block) {
            for s in b {
                s.span = Span::SYNTH;
                s.label = None;
                match &mut s.kind {
                    StmtKind::If {
                        then_blk, else_blk, ..
                    } => {
                        fix(then_blk);
                        fix(else_blk);
                    }
                    StmtKind::Do(d) => fix(&mut d.body),
                    StmtKind::Tagged { body, .. } => fix(body),
                    _ => {}
                }
            }
        }
        for u in &mut p.units {
            u.span = Span::SYNTH;
            fix(&mut u.body);
        }
        p
    }

    #[test]
    fn roundtrip_loops_and_ifs() {
        roundtrip(
            "\
      PROGRAM P
      DO I = 1, 10
        IF (A(I) .GT. 0.0) THEN
          B(I) = A(I)**2
        ELSE
          B(I) = -A(I)
        ENDIF
      ENDDO
      END
",
        );
    }

    #[test]
    fn roundtrip_labeled_do() {
        roundtrip(
            "\
      SUBROUTINE PCINIT(X2)
      DIMENSION X2(*)
      DO 200 N = 1, NTYPES
        DO 200 J = 1, NSP
          X2(J) = FX(J)*TSTEP**2/2.D0/DSUMM(N)
  200 CONTINUE
      END
",
        );
    }

    #[test]
    fn roundtrip_decls() {
        roundtrip(
            "\
      PROGRAM P
      PARAMETER (N = 100)
      INTEGER IDBEGS(N), K1
      DOUBLE PRECISION FE(16, N)
      COMMON /GEOM/ XY(2, N), NNPED
      XY(1, 1) = 0.0
      END
",
        );
    }

    #[test]
    fn directive_printing() {
        let mut p =
            parse("      PROGRAM P\n      DO I = 1, 10\n      A(I) = I\n      ENDDO\n      END\n")
                .unwrap();
        if let StmtKind::Do(d) = &mut p.units[0].body[0].kind {
            d.directive = Some(OmpDirective {
                private: vec!["T".into()],
                reductions: vec![(RedOp::Add, "S".into())],
                ..Default::default()
            });
        }
        let s = print_program(&p);
        assert!(s.contains("!$OMP PARALLEL DO"), "{s}");
        assert!(s.contains("!$OMP+PRIVATE(T)"), "{s}");
        assert!(s.contains("!$OMP+REDUCTION(+:S)"), "{s}");
        assert!(s.contains("!$OMP END PARALLEL DO"), "{s}");
    }

    #[test]
    fn tagged_region_printing() {
        let body = vec![Stmt::assign(Expr::var("X"), Expr::int(1))];
        let tagged = Stmt::synth(StmtKind::Tagged {
            tag: TagInfo {
                tag_id: 3,
                callee: "MATMLT".into(),
            },
            body,
        });
        let mut out = String::new();
        print_stmt(&tagged, 1, &mut out);
        assert!(out.contains("BEGIN(Code, tag=3, callee=MATMLT)"));
        assert!(out.contains("END(tag=3)"));
    }

    #[test]
    fn paren_minimality() {
        assert_eq!(
            expr_str(&Expr::add(
                Expr::var("A"),
                Expr::mul(Expr::var("B"), Expr::var("C"))
            )),
            "A + B*C"
        );
        assert_eq!(
            expr_str(&Expr::mul(
                Expr::add(Expr::var("A"), Expr::var("B")),
                Expr::var("C")
            )),
            "(A + B)*C"
        );
        assert_eq!(
            expr_str(&Expr::sub(
                Expr::var("A"),
                Expr::sub(Expr::var("B"), Expr::var("C"))
            )),
            "A - (B - C)"
        );
    }

    #[test]
    fn unique_unknown_printing() {
        let e = Expr::Unique(2, vec![Expr::var("ID"), Expr::var("IN")]);
        assert_eq!(expr_str(&e), "UNIQ2(ID, IN)");
        let e = Expr::Unknown(7, vec![Expr::var("XY")]);
        assert_eq!(expr_str(&e), "UNKN7(XY)");
    }

    #[test]
    fn loc_counting_strips_comments() {
        let src = "\
C comment line
      X = 1

* another comment
!$OMP PARALLEL DO
      DO I = 1, 2
      ENDDO
*//@; BEGIN(Code, tag=1, callee=F)
";
        assert_eq!(count_loc(src), 4); // X=1, OMP, DO, ENDDO
    }

    #[test]
    fn one_line_if_printing() {
        roundtrip("      PROGRAM P\n      IF (I .EQ. 0) J = 1\n      END\n");
    }

    #[test]
    fn negative_real_and_sections() {
        let e = Expr::Section(
            "FE".into(),
            vec![SecRange::Full, SecRange::At(Expr::var("IDE"))],
        );
        assert_eq!(expr_str(&e), "FE(*, IDE)");
    }

    #[test]
    fn large_reals_print_in_exponent_form() {
        assert_eq!(expr_str(&Expr::real(1e30)), "1.0E30");
        assert_eq!(expr_str(&Expr::real(-1.5e20)), "-1.5E20");
        assert_eq!(expr_str(&Expr::real(1e15)), "1.0E15");
        assert_eq!(expr_str(&Expr::real(123.0)), "123.0");
        assert_eq!(expr_str(&Expr::real(0.25)), "0.25");
        roundtrip("      PROGRAM P\n      IF (X .GT. 1.0E30) X = 2.5D20\n      END\n");
    }
}
