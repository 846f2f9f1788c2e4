//! Reverse inlining (paper §III-C3).
//!
//! After the parallelizer has run, every tagged region produced by
//! annotation-based inlining is pattern-matched against its annotation
//! template to recover the actual arguments, then replaced by an equivalent
//! `CALL` — leaving only the OpenMP directives on *surrounding* loops as
//! the net transformation. Directives that the parallelizer placed on loops
//! *inside* the tagged region vanish with the region, exactly as in the
//! paper's Fig. 17 → Fig. 19 step.
//!
//! The matcher is a unification over the template: formal parameters are
//! match variables, `unique`/`unknown` operators match by id, commutative
//! operators tolerate operand reordering, statements may be reordered
//! within a block, and OpenMP directives on loops are ignored — the
//! tolerances §III-C3 lists. Subscript shifting introduced by instantiation
//! (`off + i - 1`) is undone by structural decomposition.

use crate::annot::{AnnotRegistry, AnnotSub};
use fir::ast::*;
use fir::fold::fold_expr;
use std::collections::BTreeMap;

/// Report of a reverse-inlining pass.
#[derive(Debug, Clone, Default)]
pub struct ReverseReport {
    /// (tag id, callee) successfully restored to calls.
    pub restored: Vec<(u32, Ident)>,
    /// (tag id, callee, reason) for regions that could not be matched
    /// (left tagged in the output).
    pub failed: Vec<(u32, Ident, String)>,
}

/// Reverse-inline every tagged region in the program.
pub fn apply(p: &mut Program, reg: &AnnotRegistry) -> ReverseReport {
    let mut report = ReverseReport::default();
    for unit in &mut p.units {
        let body = std::mem::take(&mut unit.body);
        unit.body = walk(body, reg, &mut report);
    }
    report
}

fn walk(block: Block, reg: &AnnotRegistry, report: &mut ReverseReport) -> Block {
    let mut out = Vec::with_capacity(block.len());
    for mut s in block {
        match s.kind {
            StmtKind::Tagged { ref tag, ref body } => match reg.get(&tag.callee) {
                Some(sub) => match match_region(sub, body) {
                    Ok(args) => {
                        report.restored.push((tag.tag_id, tag.callee.clone()));
                        out.push(Stmt::synth(StmtKind::Call {
                            name: tag.callee.clone(),
                            args,
                        }));
                    }
                    Err(why) => {
                        report.failed.push((tag.tag_id, tag.callee.clone(), why));
                        out.push(s);
                    }
                },
                None => {
                    report.failed.push((
                        tag.tag_id,
                        tag.callee.clone(),
                        "no annotation registered".into(),
                    ));
                    out.push(s);
                }
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let then_blk = walk(then_blk, reg, report);
                let else_blk = walk(else_blk, reg, report);
                s.kind = StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                };
                out.push(s);
            }
            StmtKind::Do(mut d) => {
                d.body = walk(std::mem::take(&mut d.body), reg, report);
                s.kind = StmtKind::Do(d);
                out.push(s);
            }
            _ => out.push(s),
        }
    }
    out
}

/// Match a tagged body against the annotation and extract the actual
/// arguments of the original call.
pub fn match_region(sub: &AnnotSub, body: &Block) -> Result<Vec<Expr>, String> {
    let mut m = Matcher {
        sub,
        bind: BTreeMap::new(),
    };
    // Templates drop trailing RETURNs at instantiation; mirror that here.
    let mut tmpl: Vec<&Stmt> = sub.body.iter().collect();
    while matches!(tmpl.last().map(|s| &s.kind), Some(StmtKind::Return)) {
        tmpl.pop();
    }
    let act: Vec<&Stmt> = body
        .iter()
        .filter(|s| !matches!(s.kind, StmtKind::Continue))
        .collect();
    if !m.match_block(&tmpl, &act) {
        return Err("tagged region does not match annotation template".into());
    }
    // Reconstruct one actual argument per formal parameter.
    let mut args = Vec::with_capacity(sub.params.len());
    for f in &sub.params {
        let a = match m.bind.get(f) {
            Some(Bound::Scalar(e)) => e.clone(),
            Some(Bound::Array {
                base,
                offsets,
                extra,
            }) => {
                if extra.is_empty() && offsets.iter().all(|o| matches!(o, Expr::Int(1))) {
                    Expr::Var(base.clone())
                } else {
                    let mut subs = offsets.clone();
                    subs.extend(extra.iter().cloned());
                    Expr::Index(base.clone(), subs)
                }
            }
            // A formal that never occurs in the annotation body cannot be
            // recovered; pass a neutral constant (the callee ignores it as
            // far as the summary is concerned).
            None => Expr::Int(1),
        };
        args.push(a);
    }
    Ok(args)
}

#[derive(Debug, Clone, PartialEq)]
enum Bound {
    Scalar(Expr),
    Array {
        base: Ident,
        offsets: Vec<Expr>,
        extra: Vec<Expr>,
    },
}

struct Matcher<'a> {
    sub: &'a AnnotSub,
    bind: BTreeMap<Ident, Bound>,
}

impl<'a> Matcher<'a> {
    /// Order-tolerant block matching with backtracking.
    fn match_block(&mut self, tmpl: &[&Stmt], act: &[&Stmt]) -> bool {
        if tmpl.len() != act.len() {
            return false;
        }
        self.match_perm(tmpl, act, &mut vec![false; act.len()])
    }

    fn match_perm(&mut self, tmpl: &[&Stmt], act: &[&Stmt], used: &mut Vec<bool>) -> bool {
        let Some((first, rest)) = tmpl.split_first() else {
            return true;
        };
        // Try the "natural" position first (the unreordered common case),
        // then every other unused statement.
        let natural = used.iter().position(|u| !u).unwrap_or(0);
        let mut order: Vec<usize> = vec![natural];
        order.extend((0..act.len()).filter(|&j| j != natural));
        for j in order {
            if used[j] {
                continue;
            }
            let snapshot = self.bind.clone();
            if self.match_stmt(first, act[j]) {
                used[j] = true;
                if self.match_perm(rest, act, used) {
                    return true;
                }
                used[j] = false;
            }
            self.bind = snapshot;
        }
        false
    }

    fn match_stmt(&mut self, t: &Stmt, a: &Stmt) -> bool {
        match (&t.kind, &a.kind) {
            (StmtKind::Assign { lhs: tl, rhs: tr }, StmtKind::Assign { lhs: al, rhs: ar }) => {
                self.match_expr(tl, al) && self.match_expr(tr, ar)
            }
            (
                StmtKind::If {
                    cond: tc,
                    then_blk: tt,
                    else_blk: te,
                },
                StmtKind::If {
                    cond: ac,
                    then_blk: at,
                    else_blk: ae,
                },
            ) => {
                self.match_expr(tc, ac)
                    && self.match_block(
                        &tt.iter().collect::<Vec<_>>(),
                        &at.iter().collect::<Vec<_>>(),
                    )
                    && self.match_block(
                        &te.iter().collect::<Vec<_>>(),
                        &ae.iter().collect::<Vec<_>>(),
                    )
            }
            (StmtKind::Do(td), StmtKind::Do(ad)) => {
                // Loop variables are template-chosen names and survive
                // instantiation; directives inserted by the parallelizer are
                // ignored.
                td.var == ad.var
                    && self.match_expr(&td.lo, &ad.lo)
                    && self.match_expr(&td.hi, &ad.hi)
                    && match (&td.step, &ad.step) {
                        (None, None) => true,
                        (Some(x), Some(y)) => self.match_expr(x, y),
                        _ => false,
                    }
                    && self.match_block(
                        &td.body.iter().collect::<Vec<_>>(),
                        &ad.body.iter().collect::<Vec<_>>(),
                    )
            }
            (StmtKind::Return, StmtKind::Return) => true,
            (StmtKind::Stop { message: m1 }, StmtKind::Stop { message: m2 }) => m1 == m2,
            _ => false,
        }
    }

    /// Match two section ranges of a non-parameter (global) array.
    fn match_sec(&mut self, t: &SecRange, a: &SecRange) -> bool {
        match (t, a) {
            (SecRange::Full, SecRange::Full) => true,
            (SecRange::At(x), SecRange::At(y)) => self.match_expr(x, y),
            (
                SecRange::Range {
                    lo: tl,
                    hi: th,
                    step: ts,
                },
                SecRange::Range {
                    lo: al,
                    hi: ah,
                    step: aas,
                },
            ) => {
                let ob = |t: &Option<Box<Expr>>, a: &Option<Box<Expr>>, m: &mut Self| match (t, a) {
                    (None, None) => true,
                    (Some(x), Some(y)) => m.match_expr(x, y),
                    _ => false,
                };
                ob(tl, al, self) && ob(th, ah, self) && ob(ts, aas, self)
            }
            _ => false,
        }
    }

    fn is_array_param(&self, name: &str) -> bool {
        self.sub.is_param(name) && self.sub.dims.contains_key(name)
    }

    fn match_expr(&mut self, t: &Expr, a: &Expr) -> bool {
        match t {
            // Formal scalar parameter: a match variable.
            Expr::Var(f) if self.sub.is_param(f) && !self.is_array_param(f) => {
                match self.bind.get(f) {
                    Some(Bound::Scalar(e)) => exprs_identical(e, a),
                    Some(_) => false,
                    None => {
                        self.bind.insert(f.clone(), Bound::Scalar(a.clone()));
                        true
                    }
                }
            }
            // Whole-array reference to a formal array.
            Expr::Var(f) if self.is_array_param(f) => {
                let dims = self.sub.dims[f].clone();
                let rank = dims.len();
                match a {
                    Expr::Var(base) => {
                        self.bind_array(f, base.clone(), vec![Expr::Int(1); rank], vec![])
                    }
                    Expr::Section(base, secs) => {
                        // Instantiation renders whole-array refs as
                        // Section(base, Full|Range(off : off+extent-1) ...
                        // At(extra)); undo the offset per dimension.
                        let base = base.clone();
                        let secs = secs.clone();
                        let mut offsets = Vec::new();
                        let mut extra = Vec::new();
                        for (j, sec) in secs.iter().enumerate() {
                            match sec {
                                SecRange::Full if j < rank => offsets.push(Expr::Int(1)),
                                SecRange::Range {
                                    lo: Some(l),
                                    hi,
                                    step: None,
                                } if j < rank => {
                                    // hi must be consistent with the formal's
                                    // declared extent at this offset.
                                    match (&dims[j], hi) {
                                        (Dim::Assumed, None) => {}
                                        (Dim::Extent(ext), Some(h)) => {
                                            let ext = ext.clone();
                                            match self.undo_shift(&ext, h) {
                                                Some(off) if exprs_identical(&off, l) => {}
                                                _ => return false,
                                            }
                                        }
                                        _ => return false,
                                    }
                                    offsets.push((**l).clone());
                                }
                                SecRange::At(e) if j >= rank => extra.push(e.clone()),
                                _ => return false,
                            }
                        }
                        if offsets.len() != rank {
                            return false;
                        }
                        self.bind_array(f, base, offsets, extra)
                    }
                    _ => false,
                }
            }
            Expr::Var(g) => matches!(a, Expr::Var(n) if n == g),
            Expr::Index(f, tsubs) if self.is_array_param(f) => {
                let Expr::Index(base, asubs) = a else {
                    return false;
                };
                self.match_array_ref(f, tsubs, base, asubs)
            }
            Expr::Index(g, tsubs) => {
                let Expr::Index(base, asubs) = a else {
                    return false;
                };
                base == g
                    && tsubs.len() == asubs.len()
                    && tsubs.iter().zip(asubs).all(|(x, y)| self.match_expr(x, y))
            }
            Expr::Section(f, tsecs) if self.is_array_param(f) => {
                let Expr::Section(base, asecs) = a else {
                    return false;
                };
                self.match_array_section(f, tsecs, base, asecs)
            }
            Expr::Section(g, tsecs) => {
                let Expr::Section(base, asecs) = a else {
                    return false;
                };
                base == g
                    && tsecs.len() == asecs.len()
                    && tsecs.iter().zip(asecs).all(|(x, y)| self.match_sec(x, y))
            }
            Expr::Unknown(id, targs) => {
                let Expr::Unknown(aid, aargs) = a else {
                    return false;
                };
                id == aid
                    && targs.len() == aargs.len()
                    && targs.iter().zip(aargs).all(|(x, y)| self.match_expr(x, y))
            }
            Expr::Unique(id, targs) => {
                let Expr::Unique(aid, aargs) = a else {
                    return false;
                };
                id == aid
                    && targs.len() == aargs.len()
                    && targs.iter().zip(aargs).all(|(x, y)| self.match_expr(x, y))
            }
            Expr::Intrinsic(i, targs) => {
                let Expr::Intrinsic(ai, aargs) = a else {
                    return false;
                };
                i == ai
                    && targs.len() == aargs.len()
                    && targs.iter().zip(aargs).all(|(x, y)| self.match_expr(x, y))
            }
            Expr::Bin(op, tl, tr) => {
                let Expr::Bin(aop, al, ar) = a else {
                    // Tolerate constant folding of a template operation whose
                    // operands are all parameters/constants.
                    return self.match_folded(t, a);
                };
                if op != aop {
                    return false;
                }
                let snapshot = self.bind.clone();
                if self.match_expr(tl, al) && self.match_expr(tr, ar) {
                    return true;
                }
                self.bind = snapshot;
                if op.is_commutative() {
                    let snapshot = self.bind.clone();
                    if self.match_expr(tl, ar) && self.match_expr(tr, al) {
                        return true;
                    }
                    self.bind = snapshot;
                }
                false
            }
            Expr::Un(op, ti) => match a {
                Expr::Un(aop, ai) if op == aop => self.match_expr(ti, ai),
                _ => self.match_folded(t, a),
            },
            Expr::Int(_) | Expr::Real(_) | Expr::Str(_) | Expr::Logical(_) => exprs_identical(t, a),
        }
    }

    /// Constant-propagation tolerance: if all parameters inside the template
    /// expression are already bound to constants, fold it and compare.
    fn match_folded(&mut self, t: &Expr, a: &Expr) -> bool {
        let mut inst = t.clone();
        let mut complete = true;
        inst.rewrite(&mut |node| {
            if let Expr::Var(v) = node {
                if self.sub.is_param(v) {
                    match self.bind.get(v) {
                        Some(Bound::Scalar(e)) => *node = e.clone(),
                        _ => complete = false,
                    }
                }
            }
        });
        if !complete {
            return false;
        }
        fold_expr(&mut inst);
        exprs_identical(&inst, a)
    }

    fn bind_array(&mut self, f: &str, base: Ident, offsets: Vec<Expr>, extra: Vec<Expr>) -> bool {
        match self.bind.get(f) {
            Some(Bound::Array {
                base: b2,
                offsets: o2,
                extra: e2,
            }) => {
                *b2 == base
                    && o2.len() == offsets.len()
                    && o2.iter().zip(&offsets).all(|(x, y)| exprs_identical(x, y))
                    && e2.len() == extra.len()
                    && e2.iter().zip(&extra).all(|(x, y)| exprs_identical(x, y))
            }
            Some(_) => false,
            None => {
                self.bind.insert(
                    f.into(),
                    Bound::Array {
                        base,
                        offsets,
                        extra,
                    },
                );
                true
            }
        }
    }

    /// Match `F[t1..tm]` against `base(a1..ak)`: undo the instantiation
    /// shift per dimension and bind/check the array binding.
    fn match_array_ref(&mut self, f: &str, tsubs: &[Expr], base: &str, asubs: &[Expr]) -> bool {
        let m = tsubs.len();
        if asubs.len() < m {
            return false;
        }
        let extra: Vec<Expr> = asubs[m..].to_vec();
        let mut offsets = Vec::with_capacity(m);
        let snapshot = self.bind.clone();
        for (tsub, asub) in tsubs.iter().zip(&asubs[..m]) {
            match self.undo_shift(tsub, asub) {
                Some(off) => offsets.push(off),
                None => {
                    self.bind = snapshot;
                    return false;
                }
            }
        }
        if self.bind_array(f, base.into(), offsets, extra) {
            true
        } else {
            self.bind = snapshot;
            false
        }
    }

    fn match_array_section(
        &mut self,
        f: &str,
        tsecs: &[SecRange],
        base: &str,
        asecs: &[SecRange],
    ) -> bool {
        let m = tsecs.len();
        if asecs.len() < m {
            return false;
        }
        let mut extra = Vec::new();
        for sec in &asecs[m..] {
            match sec {
                SecRange::At(e) => extra.push(e.clone()),
                _ => return false,
            }
        }
        let snapshot = self.bind.clone();
        let mut offsets = Vec::with_capacity(m);
        for (tsec, asec) in tsecs.iter().zip(&asecs[..m]) {
            let off = match (tsec, asec) {
                (SecRange::Full, SecRange::Full) => Some(Expr::Int(1)),
                (SecRange::At(t), SecRange::At(a)) => self.undo_shift(t, a),
                (
                    SecRange::Range { lo: tl, hi: th, .. },
                    SecRange::Range { lo: al, hi: ah, .. },
                ) => {
                    // Match both bounds with a consistent offset.
                    match (tl, th, al, ah) {
                        (Some(tl), Some(th), Some(al), Some(ah)) => {
                            let o1 = self.undo_shift(tl, al);
                            let o2 = self.undo_shift(th, ah);
                            match (o1, o2) {
                                (Some(x), Some(y)) if exprs_identical(&x, &y) => Some(x),
                                _ => None,
                            }
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            match off {
                Some(o) => offsets.push(o),
                None => {
                    self.bind = snapshot;
                    return false;
                }
            }
        }
        if self.bind_array(f, base.into(), offsets, extra) {
            true
        } else {
            self.bind = snapshot;
            false
        }
    }

    /// Given a template subscript `t` and the instantiated actual `a`,
    /// recover the offset: `a == (X + t) - 1` ⇒ X; `a == t` ⇒ offset 1;
    /// constants fold (`t = c`, `a = o + c - 1` ⇒ `o`). Decomposition is
    /// tried *first*: a template formal would otherwise greedily bind to
    /// the whole shifted expression and break offset consistency.
    fn undo_shift(&mut self, t: &Expr, a: &Expr) -> Option<Expr> {
        // Structural: a = Sub(Add(X, t'), 1).
        if let Expr::Bin(BinOp::Sub, l, r) = a {
            if matches!(**r, Expr::Int(1)) {
                if let Expr::Bin(BinOp::Add, x, tp) = &**l {
                    let snapshot = self.bind.clone();
                    if self.match_expr(t, tp) {
                        return Some((**x).clone());
                    }
                    self.bind = snapshot;
                }
            }
        }
        let snapshot = self.bind.clone();
        if self.match_expr(t, a) {
            return Some(Expr::Int(1));
        }
        self.bind = snapshot;
        // Constant case: t folds to c, a folds to d ⇒ offset d - c + 1.
        if let (Some(c), Some(d)) = (t.as_int_const(), a.as_int_const()) {
            return Some(Expr::Int(d - c + 1));
        }
        None
    }
}

/// Structural equality modulo constant folding.
fn exprs_identical(x: &Expr, y: &Expr) -> bool {
    if x == y {
        return true;
    }
    let (mut a, mut b) = (x.clone(), y.clone());
    fold_expr(&mut a);
    fold_expr(&mut b);
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot_inline;
    use fir::parser::parse;
    use fir::printer::print_program;

    const MATMLT_ANNOT: &str = "
subroutine MATMLT(M1, M2, M3, L, M, N) {
  dimension M1[L,M], M2[M,N], M3[L,N];
  do (JN = 1:N)
    do (JL = 1:L)
      M3[JL,JN] = 0.0;
  do (JN = 1:N)
    do (JM = 1:M)
      do (JL = 1:L)
        M3[JL,JN] = M3[JL,JN] + M1[JL,JM] * M2[JM,JN];
}
";

    const CALLER: &str = "      PROGRAM MAIN
      DIMENSION PP(4, 4, 15), PHIT(4, 4), TM1(4, 4)
      DO KS = 1, 15
        IF (KS .GT. 1) THEN
          CALL MATMLT(PP(1, 1, KS - 1), PHIT(1, 1), TM1(1, 1), 4, 4, 4)
        ENDIF
      ENDDO
      END
";

    fn roundtrip(annot: &str, src: &str) -> (Program, ReverseReport) {
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse(src).unwrap();
        let original = p.clone();
        annot_inline::apply(&mut p, &reg);
        let rep = apply(&mut p, &reg);
        (original, rep_check(p, rep))
    }

    fn rep_check(p: Program, rep: ReverseReport) -> ReverseReport {
        // stash program for the caller via thread-local? simpler: return rep
        // and re-derive program in each test. Kept minimal here.
        let _ = p;
        rep
    }

    #[test]
    fn matmlt_roundtrip_restores_call() {
        let reg = AnnotRegistry::parse(MATMLT_ANNOT).unwrap();
        let mut p = parse(CALLER).unwrap();
        annot_inline::apply(&mut p, &reg);
        let rep = apply(&mut p, &reg);
        assert_eq!(rep.failed, vec![], "reverse inlining failed");
        assert_eq!(rep.restored.len(), 1);
        let out = print_program(&p);
        assert!(
            out.contains("CALL MATMLT(PP(1, 1, KS - 1), PHIT, TM1, 4, 4, 4)")
                || out.contains("CALL MATMLT(PP(1, 1, KS - 1), PHIT(1, 1), TM1(1, 1), 4, 4, 4)"),
            "{out}"
        );
        assert!(!out.contains("BEGIN(Code"), "{out}");
    }

    #[test]
    fn directives_on_outer_loop_survive_inner_ones_vanish() {
        let reg = AnnotRegistry::parse(MATMLT_ANNOT).unwrap();
        let mut p = parse(CALLER).unwrap();
        annot_inline::apply(&mut p, &reg);
        // Simulate the parallelizer: directive on the outer KS loop and on a
        // loop inside the tagged region.
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            d.directive = Some(OmpDirective::default());
        });
        let rep = apply(&mut p, &reg);
        assert!(rep.failed.is_empty(), "{:?}", rep.failed);
        let out = print_program(&p);
        // Exactly one PARALLEL DO remains (the KS loop).
        let count = out.matches("!$OMP PARALLEL DO").count();
        assert_eq!(count, 1, "{out}");
    }

    #[test]
    fn tolerates_statement_reordering() {
        let annot = "
subroutine TWOSET(A, B, K) {
  dimension A[100], B[100];
  A[K] = 1.0;
  B[K] = 2.0;
}
";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DIMENSION X(100), Y(100)
      DO K = 1, 10
        CALL TWOSET(X, Y, K)
      ENDDO
      END
",
        )
        .unwrap();
        annot_inline::apply(&mut p, &reg);
        // Reorder the two assignments inside the tagged region, as a
        // normalization pass might.
        fir::visit::walk_stmts_mut(&mut p.units[0].body, &mut |s| {
            if let StmtKind::Tagged { body, .. } = &mut s.kind {
                body.reverse();
            }
        });
        let rep = apply(&mut p, &reg);
        assert!(rep.failed.is_empty(), "{:?}", rep.failed);
        let out = print_program(&p);
        assert!(out.contains("CALL TWOSET(X, Y, K)"), "{out}");
    }

    #[test]
    fn tolerates_commutative_reordering() {
        let annot = "
subroutine AX(A, K, C) {
  dimension A[100];
  A[K] = A[K] + C;
}
";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DIMENSION V(100)
      DO K = 1, 10
        CALL AX(V, K, 3.0)
      ENDDO
      END
",
        )
        .unwrap();
        annot_inline::apply(&mut p, &reg);
        // Swap the operands of the addition.
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
        let rep = apply(&mut p, &reg);
        assert!(rep.failed.is_empty(), "{:?}", rep.failed);
    }

    #[test]
    fn interior_offset_is_recovered() {
        let annot = "subroutine S(X, N) { dimension X[N]; do (I = 1:N) X[I] = 0.0; }";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DIMENSION T(100)
      DO K = 1, 2
        CALL S(T(41), 10)
      ENDDO
      END
",
        )
        .unwrap();
        annot_inline::apply(&mut p, &reg);
        let rep = apply(&mut p, &reg);
        assert!(rep.failed.is_empty(), "{:?}", rep.failed);
        let out = print_program(&p);
        assert!(out.contains("CALL S(T(41), 10)"), "{out}");
    }

    #[test]
    fn unknown_ids_must_match() {
        let annot = "subroutine G(X) { Y = unknown(X); }";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      CALL G(7)
      END
",
        )
        .unwrap();
        annot_inline::apply(&mut p, &reg);
        // Corrupt the unknown id inside the tagged region.
        fir::visit::walk_stmts_mut(&mut p.units[0].body, &mut |s| {
            if let StmtKind::Tagged { body, .. } = &mut s.kind {
                for t in body.iter_mut() {
                    if let StmtKind::Assign {
                        rhs: Expr::Unknown(id, _),
                        ..
                    } = &mut t.kind
                    {
                        *id += 99;
                    }
                }
            }
        });
        let rep = apply(&mut p, &reg);
        assert_eq!(rep.restored.len(), 0);
        assert_eq!(rep.failed.len(), 1);
    }

    #[test]
    fn mismatched_region_reports_failure() {
        let annot = "subroutine H(X) { A[X] = 1.0; }";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse("      PROGRAM MAIN\n      CALL H(3)\n      END\n").unwrap();
        annot_inline::apply(&mut p, &reg);
        // Mangle the region body beyond recognition.
        fir::visit::walk_stmts_mut(&mut p.units[0].body, &mut |s| {
            if let StmtKind::Tagged { body, .. } = &mut s.kind {
                body.push(Stmt::assign(Expr::var("ZZZ"), Expr::int(0)));
            }
        });
        let rep = apply(&mut p, &reg);
        assert_eq!(rep.failed.len(), 1);
    }

    #[test]
    fn scalar_bindings_must_be_consistent() {
        // The same formal used twice must bind to the same actual.
        let annot = "subroutine C2(A, K) { dimension A[100]; A[K] = A[K] + 1.0; }";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DIMENSION W(100)
      DO K = 1, 5
        CALL C2(W, K + 2)
      ENDDO
      END
",
        )
        .unwrap();
        annot_inline::apply(&mut p, &reg);
        let rep = apply(&mut p, &reg);
        assert!(rep.failed.is_empty(), "{:?}", rep.failed);
        let p2 = p.clone();
        let out = print_program(&p2);
        assert!(out.contains("CALL C2(W, K + 2)"), "{out}");
    }

    #[test]
    fn fsmp_style_annotation_roundtrips() {
        let annot = "
subroutine FSMP(ID, IDE) {
  dimension FE[16, 100], IDEDON[100];
  XY = unknown(NSYMM, ID);
  ISTRES = 0;
  if (IDEDON[IDE] == 0) {
    IDEDON[IDE] = 1;
    FE[*, IDE] = unknown(XY, NNPED);
  }
}
";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DO K = 1, 8
        ID = K + 4
        IDE = K
        CALL FSMP(ID, IDE)
      ENDDO
      END
",
        )
        .unwrap();
        annot_inline::apply(&mut p, &reg);
        let rep = apply(&mut p, &reg);
        assert!(rep.failed.is_empty(), "{:?}", rep.failed);
        let out = print_program(&p);
        assert!(out.contains("CALL FSMP(ID, IDE)"), "{out}");
    }

    #[test]
    fn roundtrip_restores_structural_equality() {
        // Inline + reverse with no optimization in between must reproduce
        // the original program exactly (modulo declaration additions).
        let (original, _) = roundtrip(MATMLT_ANNOT, CALLER);
        let reg = AnnotRegistry::parse(MATMLT_ANNOT).unwrap();
        let mut p = parse(CALLER).unwrap();
        annot_inline::apply(&mut p, &reg);
        apply(&mut p, &reg);
        assert_eq!(
            fir::print_program(&original).replace("PHIT(1, 1), TM1(1, 1)", "PHIT, TM1"),
            fir::print_program(&p).replace("PHIT(1, 1), TM1(1, 1)", "PHIT, TM1"),
        );
    }
}
