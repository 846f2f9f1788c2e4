//! Annotation-based inlining (paper §III-C1).
//!
//! Substitutes a `CALL` with the callee's *annotation* body, instantiated
//! with the actual arguments, and wraps the result in a
//! [`StmtKind::Tagged`] region so the reverse inliner can find it later.
//! Unlike conventional inlining this is applied wherever an annotation
//! exists — external-library and opaque compositional subroutines included —
//! and never linearizes caller arrays: the annotation's `dimension`
//! declarations give the formal arrays their true multi-dimensional shape
//! (the Fig. 16 MATMLT annotation declares `M1[L,M]` even though the
//! implementation declares `M1(*)`), so the §II-A2 pathology never arises.

use crate::annot::{AnnotRegistry, AnnotSub};
use fir::ast::*;
use fir::fold::fold_expr;
use std::collections::BTreeMap;

/// Report of one annotation-inlining pass.
#[derive(Debug, Clone, Default)]
pub struct AnnotInlineReport {
    /// (tag id, caller, callee) per inlined site.
    pub tags: Vec<(u32, Ident, Ident)>,
    /// Calls whose callee had no annotation (left untouched).
    pub unannotated: Vec<Ident>,
}

/// Inline every call site whose callee has an annotation. Returns the tag
/// report; tag ids are unique across the program.
pub fn apply(p: &mut Program, reg: &AnnotRegistry) -> AnnotInlineReport {
    let mut report = AnnotInlineReport::default();
    let mut next_tag = 0u32;
    for unit in &mut p.units {
        let caller = unit.name.clone();
        let mut new_decls: Vec<Decl> = Vec::new();
        let body = std::mem::take(&mut unit.body);
        unit.body = walk(
            body,
            reg,
            &caller,
            &mut next_tag,
            &mut report,
            &mut new_decls,
        );
        // Add declarations for annotation-declared globals the caller does
        // not declare yet.
        let have: Vec<Ident> = decl_names(&unit.decls);
        for d in new_decls {
            let names = decl_names(std::slice::from_ref(&d));
            if names.iter().all(|n| !have.contains(n)) {
                unit.decls.push(d);
            }
        }
    }
    report
}

/// The report [`apply`] would return when it inlines nothing — no call
/// site outside a tagged region has an annotation — or `None` when some
/// site would be inlined. Reads `p` without copying it: a caller holding
/// a shared program copies it only for the passes that change it.
pub fn report_if_unchanged(p: &Program, reg: &AnnotRegistry) -> Option<AnnotInlineReport> {
    let mut report = AnnotInlineReport::default();
    p.units
        .iter()
        .all(|u| unannotated_calls(&u.body, reg, &mut report.unannotated))
        .then_some(report)
}

/// [`walk`]'s visit order without the rewrite: records every call in
/// `block` as unannotated, or returns false at the first call that has
/// an annotation.
fn unannotated_calls(block: &Block, reg: &AnnotRegistry, out: &mut Vec<Ident>) -> bool {
    block.iter().all(|s| match &s.kind {
        StmtKind::Call { name, .. } => {
            out.push(name.clone());
            reg.get(name).is_none()
        }
        StmtKind::If {
            then_blk, else_blk, ..
        } => unannotated_calls(then_blk, reg, out) && unannotated_calls(else_blk, reg, out),
        StmtKind::Do(d) => unannotated_calls(&d.body, reg, out),
        _ => true,
    })
}

fn decl_names(decls: &[Decl]) -> Vec<Ident> {
    let mut out = Vec::new();
    for d in decls {
        match d {
            Decl::Var(v) => out.push(v.name.clone()),
            Decl::Common { vars, .. } => out.extend(vars.iter().map(|v| v.name.clone())),
            Decl::Param { name, .. } => out.push(name.clone()),
        }
    }
    out
}

fn walk(
    block: Block,
    reg: &AnnotRegistry,
    caller: &Ident,
    next_tag: &mut u32,
    report: &mut AnnotInlineReport,
    new_decls: &mut Vec<Decl>,
) -> Block {
    let mut out = Vec::with_capacity(block.len());
    for mut s in block {
        match s.kind {
            StmtKind::Call { ref name, ref args } => match reg.get(name) {
                Some(sub) => {
                    let body = instantiate(sub, args);
                    *next_tag += 1;
                    report.tags.push((*next_tag, caller.clone(), name.clone()));
                    // Globals declared in the annotation (shapes for arrays
                    // the caller may not know about).
                    for (gname, gdims) in &sub.dims {
                        if !sub.is_param(gname) {
                            new_decls.push(Decl::Var(VarDecl {
                                name: gname.clone(),
                                ty: sub.types.get(gname).copied(),
                                dims: gdims.clone(),
                            }));
                        }
                    }
                    out.push(Stmt::synth(StmtKind::Tagged {
                        tag: TagInfo {
                            tag_id: *next_tag,
                            callee: name.clone(),
                        },
                        body,
                    }));
                }
                None => {
                    report.unannotated.push(name.clone());
                    out.push(s);
                }
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let then_blk = walk(then_blk, reg, caller, next_tag, report, new_decls);
                let else_blk = walk(else_blk, reg, caller, next_tag, report, new_decls);
                s.kind = StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                };
                out.push(s);
            }
            StmtKind::Do(mut d) => {
                d.body = walk(
                    std::mem::take(&mut d.body),
                    reg,
                    caller,
                    next_tag,
                    report,
                    new_decls,
                );
                s.kind = StmtKind::Do(d);
                out.push(s);
            }
            _ => out.push(s),
        }
    }
    out
}

/// How one formal parameter maps to caller expressions.
enum Binding {
    /// Scalar: replace `Var(F)` with the actual expression.
    Scalar(Expr),
    /// Array actual `base` or `base(e1..ek)`: formal dimension `j` maps to
    /// caller dimension `j` shifted by `offsets[j]`; trailing caller
    /// dimensions are fixed at `extra`. `extents[j]` is the formal's
    /// declared extent with scalar actuals substituted (None = assumed
    /// size) — needed to render whole-array references at interior offsets
    /// as exact ranges.
    Array {
        base: Ident,
        offsets: Vec<Expr>,
        extra: Vec<Expr>,
        extents: Vec<Option<Expr>>,
    },
}

/// Instantiate an annotation body with actual arguments (paper Fig. 18).
pub fn instantiate(sub: &AnnotSub, args: &[Expr]) -> Block {
    // Scalar bindings first: dimension extents may reference them.
    let mut scalar_map: BTreeMap<Ident, Expr> = BTreeMap::new();
    for (f, a) in sub.params.iter().zip(args) {
        if !sub.dims.contains_key(f) {
            scalar_map.insert(f.clone(), a.clone());
        }
    }
    let subst_scalars = |e: &Expr| -> Expr {
        let mut e = e.clone();
        e.rewrite(&mut |node| {
            if let Expr::Var(v) = node {
                if let Some(a) = scalar_map.get(v) {
                    *node = a.clone();
                }
            }
        });
        e
    };

    let mut bind: BTreeMap<Ident, Binding> = BTreeMap::new();
    for (f, a) in sub.params.iter().zip(args) {
        if let Some(dims) = sub.dims.get(f) {
            let extents: Vec<Option<Expr>> = dims
                .iter()
                .map(|d| match d {
                    Dim::Extent(e) => Some(subst_scalars(e)),
                    Dim::Assumed => None,
                })
                .collect();
            match a {
                Expr::Var(base) => {
                    bind.insert(
                        f.clone(),
                        Binding::Array {
                            base: base.clone(),
                            offsets: vec![Expr::int(1); dims.len()],
                            extra: vec![],
                            extents,
                        },
                    );
                }
                Expr::Index(base, subs) => {
                    let m = dims.len().min(subs.len());
                    let offsets = subs[..m].to_vec();
                    let extra = subs[m..].to_vec();
                    bind.insert(
                        f.clone(),
                        Binding::Array {
                            base: base.clone(),
                            offsets,
                            extra,
                            extents,
                        },
                    );
                }
                other => {
                    // Unusual: expression bound to an array formal. Treat as
                    // scalar substitution (the annotation author's problem).
                    bind.insert(f.clone(), Binding::Scalar(other.clone()));
                }
            }
        } else {
            bind.insert(f.clone(), Binding::Scalar(a.clone()));
        }
    }

    let mut body = sub.body.clone();
    fir::visit::rewrite_exprs(&mut body, &mut |e| rewrite(e, &bind));
    // Drop trailing RETURNs from the summary.
    while matches!(body.last().map(|s| &s.kind), Some(StmtKind::Return)) {
        body.pop();
    }
    body
}

fn rewrite(e: &mut Expr, bind: &BTreeMap<Ident, Binding>) {
    match e {
        Expr::Var(n) => match bind.get(n) {
            Some(Binding::Scalar(a)) => *e = a.clone(),
            Some(Binding::Array {
                base,
                offsets,
                extra,
                extents,
            }) => {
                // Whole-array reference: a section covering the formal's
                // extent at the actual's offset — rendered exactly so the
                // reverse inliner can recover the offset.
                let mut secs: Vec<SecRange> = Vec::new();
                for (j, off) in offsets.iter().enumerate() {
                    if matches!(off, Expr::Int(1)) {
                        secs.push(SecRange::Full);
                    } else {
                        // off : off + extent - 1 (hi open for assumed size).
                        let hi = extents.get(j).cloned().flatten().map(|ext| {
                            let mut h = Expr::sub(Expr::add(off.clone(), ext), Expr::int(1));
                            fold_expr(&mut h);
                            Box::new(h)
                        });
                        secs.push(SecRange::Range {
                            lo: Some(Box::new(off.clone())),
                            hi,
                            step: None,
                        });
                    }
                }
                for x in extra {
                    secs.push(SecRange::At(x.clone()));
                }
                if secs.iter().all(|s| matches!(s, SecRange::Full)) {
                    *e = Expr::Var(base.clone());
                } else {
                    *e = Expr::Section(base.clone(), secs);
                }
            }
            None => {}
        },
        Expr::Index(n, subs) => {
            if let Some(b) = bind.get(n) {
                match b {
                    Binding::Array {
                        base,
                        offsets,
                        extra,
                        ..
                    } => {
                        let mut new_subs = Vec::with_capacity(offsets.len() + extra.len());
                        for (j, sub) in subs.iter().enumerate() {
                            let off = offsets.get(j).cloned().unwrap_or(Expr::int(1));
                            let mut x = if matches!(off, Expr::Int(1)) {
                                sub.clone()
                            } else {
                                Expr::sub(Expr::add(off, sub.clone()), Expr::int(1))
                            };
                            fold_expr(&mut x);
                            new_subs.push(x);
                        }
                        for x in extra {
                            new_subs.push(x.clone());
                        }
                        *e = Expr::Index(base.clone(), new_subs);
                    }
                    Binding::Scalar(_) => {}
                }
            }
        }
        Expr::Section(n, secs) => {
            if let Some(Binding::Array {
                base,
                offsets,
                extra,
                ..
            }) = bind.get(n)
            {
                let mut new_secs = Vec::with_capacity(offsets.len() + extra.len());
                for (j, sec) in secs.iter().enumerate() {
                    let off = offsets.get(j).cloned().unwrap_or(Expr::int(1));
                    let shifted = match sec {
                        SecRange::Full => SecRange::Full,
                        SecRange::At(x) => {
                            let mut v = if matches!(off, Expr::Int(1)) {
                                x.clone()
                            } else {
                                Expr::sub(Expr::add(off.clone(), x.clone()), Expr::int(1))
                            };
                            fold_expr(&mut v);
                            SecRange::At(v)
                        }
                        SecRange::Range { lo, hi, step } => {
                            let shift = |b: &Option<Box<Expr>>| -> Option<Box<Expr>> {
                                b.as_ref().map(|x| {
                                    let mut v = if matches!(off, Expr::Int(1)) {
                                        (**x).clone()
                                    } else {
                                        Expr::sub(
                                            Expr::add(off.clone(), (**x).clone()),
                                            Expr::int(1),
                                        )
                                    };
                                    fold_expr(&mut v);
                                    Box::new(v)
                                })
                            };
                            SecRange::Range {
                                lo: shift(lo),
                                hi: shift(hi),
                                step: step.clone(),
                            }
                        }
                    };
                    new_secs.push(shifted);
                }
                for x in extra {
                    new_secs.push(SecRange::At(x.clone()));
                }
                *e = Expr::Section(base.clone(), new_secs);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn matmlt_instantiation_matches_fig18() {
        let reg = AnnotRegistry::parse(MATMLT_ANNOT).unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DIMENSION PP(4, 4, 15), PHIT(4, 4), TM1(4, 4)
      DO KS = 1, 15
        IF (KS .GT. 1) THEN
          CALL MATMLT(PP(1, 1, KS - 1), PHIT(1, 1), TM1(1, 1), 4, 4, 4)
        ENDIF
      ENDDO
      END
",
        )
        .unwrap();
        let rep = apply(&mut p, &reg);
        assert_eq!(rep.tags.len(), 1);
        let out = print_program(&p);
        // Tagged region with the instantiated loops (paper Fig. 18 shape).
        assert!(out.contains("BEGIN(Code, tag=1, callee=MATMLT)"), "{out}");
        assert!(out.contains("TM1(JL, JN) = 0.0"), "{out}");
        // M1[JL,JM] with actual PP(1,1,KS-1): dims 1-2 pass through, the
        // extra caller dimension is pinned at KS-1.
        assert!(out.contains("PP(JL, JM, KS - 1)"), "{out}");
        // No linearization: caller decls keep their shapes.
        assert!(out.contains("PP(4, 4, 15)"), "{out}");
    }

    #[test]
    fn interior_offsets_shift_subscripts() {
        let reg =
            AnnotRegistry::parse("subroutine S(X, N) { dimension X[N]; do (I = 1:N) X[I] = 0.0; }")
                .unwrap();
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
        apply(&mut p, &reg);
        let out = print_program(&p);
        assert!(out.contains("T(41 + I - 1)"), "{out}");
    }

    #[test]
    fn whole_array_actual_renames() {
        let reg = AnnotRegistry::parse("subroutine Z(A, N) { dimension A[N]; A = 0.0; }").unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DIMENSION B(50)
      DO K = 1, 2
        CALL Z(B, 50)
      ENDDO
      END
",
        )
        .unwrap();
        apply(&mut p, &reg);
        let out = print_program(&p);
        assert!(out.contains("B = 0.0"), "{out}");
    }

    #[test]
    fn unannotated_calls_survive() {
        let reg = AnnotRegistry::default();
        let mut p = parse(
            "      PROGRAM MAIN
      CALL MYSTERY(1)
      END
",
        )
        .unwrap();
        let rep = apply(&mut p, &reg);
        assert_eq!(rep.unannotated, vec!["MYSTERY".to_string()]);
        assert!(print_program(&p).contains("CALL MYSTERY(1)"));
    }

    #[test]
    fn annotation_globals_get_declarations() {
        let reg = AnnotRegistry::parse(
            "subroutine F(ID) { dimension FE[16, 100]; FE[*, ID] = unknown(ID); }",
        )
        .unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DO K = 1, 5
        CALL F(K)
      ENDDO
      END
",
        )
        .unwrap();
        apply(&mut p, &reg);
        let main = p.unit("MAIN").unwrap();
        assert!(main
            .decls
            .iter()
            .any(|d| matches!(d, Decl::Var(v) if v.name == "FE" && v.dims.len() == 2)));
    }

    #[test]
    fn tag_ids_are_unique_across_sites() {
        let reg = AnnotRegistry::parse("subroutine G(X) { Y = unknown(X); }").unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      CALL G(1)
      CALL G(2)
      END
",
        )
        .unwrap();
        let rep = apply(&mut p, &reg);
        assert_eq!(rep.tags.len(), 2);
        assert_ne!(rep.tags[0].0, rep.tags[1].0);
    }

    #[test]
    fn operator_ids_are_shared_across_sites() {
        // Two inlined copies of the same annotation must use the SAME
        // unknown id: they denote the same internal function of FSMP.
        let reg = AnnotRegistry::parse("subroutine G(X) { Y = unknown(X); }").unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      CALL G(1)
      CALL G(2)
      END
",
        )
        .unwrap();
        apply(&mut p, &reg);
        let mut ids = Vec::new();
        fir::visit::walk_stmts(&p.units[0].body, &mut |s| {
            if let StmtKind::Assign {
                rhs: Expr::Unknown(id, _),
                ..
            } = &s.kind
            {
                ids.push(*id);
            }
        });
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], ids[1]);
    }
}
