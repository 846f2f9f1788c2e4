//! Annotation soundness checking — the paper's second future-work item
//! (§III-D: "Our future work will develop techniques to automatically
//! verify the soundness of user-supplied annotations").
//!
//! A static MOD/REF comparison between an annotation and the real
//! implementation: the annotation must *cover* every visible side effect of
//! the subroutine (including, transitively, the side effects of its
//! callees — the FSMP case), or a parallelization decision based on it may
//! be wrong. The check is name-granular (which array/scalar is written or
//! read), which is exactly the granularity at which a missing effect breaks
//! the dependence analysis. Region-level imprecision is reported as a
//! warning, not an error: writing a *larger* region than the implementation
//! is only conservative for dependence testing, but can mislead the kill
//! analysis — hence worth surfacing.

use crate::annot::{AnnotRegistry, AnnotSub};
use fir::ast::*;
use fir::symbol::{Storage, SymbolTable};
use fir::visit::walk_stmts;
use std::collections::{BTreeMap, BTreeSet};

/// Severity of a soundness finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The annotation could make the parallelizer unsound.
    Error,
    /// The annotation is conservative but imprecise.
    Warning,
    /// An intentional, §III-B3-sanctioned relaxation.
    Info,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Issue {
    /// How bad.
    pub severity: Severity,
    /// What.
    pub what: IssueKind,
}

/// Kinds of soundness findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssueKind {
    /// The implementation writes a visible location the annotation never
    /// writes — hidden side effect, unsound.
    MissingWrite(Ident),
    /// The implementation reads a visible location the annotation never
    /// reads — a flow dependence could be missed, unsound.
    MissingRead(Ident),
    /// The annotation writes something the implementation does not —
    /// conservative for dependences, but can mislead kill analysis.
    ExtraWrite(Ident),
    /// The annotation reads something the implementation does not —
    /// purely conservative.
    ExtraRead(Ident),
    /// The implementation contains I/O or STOP that the annotation omits —
    /// the sanctioned error-handling relaxation.
    OmittedErrorHandling,
    /// A callee of the subroutine has no definition in the program; its
    /// side effects could not be folded in.
    UnknownCallee(Ident),
}

/// MOD/REF sets of visible (COMMON or formal) names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModRef {
    /// Names written.
    pub writes: BTreeSet<Ident>,
    /// Names read.
    pub reads: BTreeSet<Ident>,
    /// Contains `WRITE`/`STOP`.
    pub has_io: bool,
}

/// Compute the transitive MOD/REF summary of a unit: formal positions of
/// callees are translated back through the actual arguments.
pub fn modref_of_unit(p: &Program, unit_name: &str) -> ModRef {
    let mut memo: BTreeMap<Ident, ModRef> = BTreeMap::new();
    let mut in_progress: BTreeSet<Ident> = BTreeSet::new();
    modref_rec(p, unit_name, &mut memo, &mut in_progress)
}

fn modref_rec(
    p: &Program,
    unit_name: &str,
    memo: &mut BTreeMap<Ident, ModRef>,
    in_progress: &mut BTreeSet<Ident>,
) -> ModRef {
    if let Some(m) = memo.get(unit_name) {
        return m.clone();
    }
    // Recursion: return an empty summary for the back edge (fixpoint
    // iteration is overkill at name granularity for these codes).
    if !in_progress.insert(unit_name.into()) {
        return ModRef::default();
    }
    let Some(unit) = p.unit(unit_name) else {
        in_progress.remove(unit_name);
        return ModRef::default();
    };
    let table = SymbolTable::build(unit);
    let visible = |n: &str| {
        matches!(
            table.get(n).map(|s| s.storage.clone()),
            Some(Storage::Common(_)) | Some(Storage::Formal(_))
        )
    };

    let mut mr = ModRef::default();
    let record_expr_reads = |e: &Expr, mr: &mut ModRef| {
        e.walk(&mut |n| match n {
            Expr::Var(v) if visible(v) => {
                mr.reads.insert(v.clone());
            }
            Expr::Index(v, _) | Expr::Section(v, _) if visible(v) => {
                mr.reads.insert(v.clone());
            }
            _ => {}
        });
    };

    let mut calls: Vec<(Ident, Vec<Expr>)> = Vec::new();
    walk_stmts(&unit.body, &mut |s| match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            match lhs {
                Expr::Var(n) | Expr::Index(n, _) | Expr::Section(n, _) if visible(n) => {
                    mr.writes.insert(n.clone());
                }
                _ => {}
            }
            if let Expr::Index(_, subs) = lhs {
                for sub in subs {
                    record_expr_reads(sub, &mut mr);
                }
            }
            record_expr_reads(rhs, &mut mr);
        }
        StmtKind::If { cond, .. } => record_expr_reads(cond, &mut mr),
        StmtKind::Do(d) => {
            record_expr_reads(&d.lo, &mut mr);
            record_expr_reads(&d.hi, &mut mr);
            if let Some(st) = &d.step {
                record_expr_reads(st, &mut mr);
            }
        }
        StmtKind::Call { name, args } => {
            calls.push((name.clone(), args.clone()));
            for a in args {
                record_expr_reads(a, &mut mr);
            }
        }
        StmtKind::Write { items, .. } => {
            mr.has_io = true;
            for i in items {
                record_expr_reads(i, &mut mr);
            }
        }
        StmtKind::Stop { .. } => mr.has_io = true,
        _ => {}
    });

    // Fold in callee effects: callee formals map back to our actuals (by
    // base name) and callee COMMON effects pass through unchanged when the
    // name is visible here too (COMMON is global).
    for (callee, args) in calls {
        let callee_mr = modref_rec(p, &callee, memo, in_progress);
        let formals: Vec<Ident> = p
            .unit(&callee)
            .map(|u| u.params.clone())
            .unwrap_or_default();
        let translate = |name: &Ident| -> Option<Ident> {
            if let Some(pos) = formals.iter().position(|f| f == name) {
                match args.get(pos) {
                    Some(Expr::Var(b)) | Some(Expr::Index(b, _)) => Some(b.clone()),
                    _ => None,
                }
            } else {
                Some(name.clone())
            }
        };
        for w in &callee_mr.writes {
            if let Some(n) = translate(w) {
                if visible(&n) {
                    mr.writes.insert(n);
                }
            }
        }
        for r in &callee_mr.reads {
            if let Some(n) = translate(r) {
                if visible(&n) {
                    mr.reads.insert(n);
                }
            }
        }
        mr.has_io |= callee_mr.has_io;
    }

    in_progress.remove(unit_name);
    memo.insert(unit_name.into(), mr.clone());
    mr
}

/// MOD/REF summary of an annotation body (everything named there is a
/// formal or a global by construction).
pub fn modref_of_annotation(sub: &AnnotSub) -> ModRef {
    let mut mr = ModRef::default();
    // Names that are local summary temporaries (declared via `int X;`)
    // don't count as side effects.
    let local = |n: &str| sub.types.contains_key(n);
    walk_stmts(&sub.body, &mut |s| {
        let mut reads = |e: &Expr| {
            e.walk(&mut |n| match n {
                Expr::Var(v) | Expr::Index(v, _) | Expr::Section(v, _) if !local(v) => {
                    mr.reads.insert(v.clone());
                }
                _ => {}
            });
        };
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                match lhs {
                    Expr::Var(n) | Expr::Index(n, _) | Expr::Section(n, _) if !local(n) => {
                        mr.writes.insert(n.clone());
                    }
                    _ => {}
                }
                if let Expr::Index(_, subs) = lhs {
                    for sub in subs {
                        reads(sub);
                    }
                }
                if let Expr::Section(_, secs) = lhs {
                    for sec in secs {
                        match sec {
                            SecRange::At(e) => reads(e),
                            SecRange::Range { lo, hi, .. } => {
                                for e in [lo, hi].into_iter().flatten() {
                                    reads(e);
                                }
                            }
                            SecRange::Full => {}
                        }
                    }
                }
                reads(rhs);
            }
            StmtKind::If { cond, .. } => reads(cond),
            StmtKind::Do(d) => {
                reads(&d.lo);
                reads(&d.hi);
            }
            StmtKind::Write { .. } | StmtKind::Stop { .. } => mr.has_io = true,
            _ => {}
        }
    });
    mr
}

/// Check one annotation against the program.
pub fn check(p: &Program, sub: &AnnotSub) -> Vec<Issue> {
    let mut issues = Vec::new();
    let impl_mr = modref_of_unit(p, &sub.name);
    let annot_mr = modref_of_annotation(sub);

    // Externally-called units the summary could not see.
    if let Some(unit) = p.unit(&sub.name) {
        for callee in fir::visit::called_names(&unit.body) {
            if p.unit(&callee).is_none() {
                issues.push(Issue {
                    severity: Severity::Warning,
                    what: IssueKind::UnknownCallee(callee),
                });
            }
        }
    }

    // Loop variables used by the annotation's own DO loops are not side
    // effects.
    let mut annot_loop_vars = BTreeSet::new();
    fir::visit::walk_loops(&sub.body, &mut |d| {
        annot_loop_vars.insert(d.var.clone());
    });

    for w in &impl_mr.writes {
        if !annot_mr.writes.contains(w) {
            issues.push(Issue {
                severity: Severity::Error,
                what: IssueKind::MissingWrite(w.clone()),
            });
        }
    }
    for r in &impl_mr.reads {
        if !annot_mr.reads.contains(r) && !annot_mr.writes.contains(r) {
            issues.push(Issue {
                severity: Severity::Error,
                what: IssueKind::MissingRead(r.clone()),
            });
        }
    }
    for w in &annot_mr.writes {
        if !impl_mr.writes.contains(w) && !annot_loop_vars.contains(w) {
            issues.push(Issue {
                severity: Severity::Warning,
                what: IssueKind::ExtraWrite(w.clone()),
            });
        }
    }
    for r in &annot_mr.reads {
        if !impl_mr.reads.contains(r) && !impl_mr.writes.contains(r) && !annot_loop_vars.contains(r)
        {
            issues.push(Issue {
                severity: Severity::Warning,
                what: IssueKind::ExtraRead(r.clone()),
            });
        }
    }
    if impl_mr.has_io && !annot_mr.has_io {
        issues.push(Issue {
            severity: Severity::Info,
            what: IssueKind::OmittedErrorHandling,
        });
    }
    issues
}

/// Check every annotation in a registry; returns `(name, issues)` pairs for
/// annotations with findings.
pub fn check_registry(p: &Program, reg: &AnnotRegistry) -> Vec<(Ident, Vec<Issue>)> {
    let mut out = Vec::new();
    for (name, sub) in &reg.subs {
        let issues = check(p, sub);
        if !issues.is_empty() {
            out.push((name.clone(), issues));
        }
    }
    out
}

/// True when the findings contain no `Error`.
pub fn is_sound(issues: &[Issue]) -> bool {
    issues.iter().all(|i| i.severity != Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::AnnotRegistry;

    const PROGRAM: &str = "      PROGRAM MAIN
      CALL FSMP(1, 2)
      END
      SUBROUTINE FSMP(ID, IDE)
      COMMON /EL/ FE(16, 200), IDEDON(200)
      COMMON /WK/ XY(2, 32)
      CALL GETCR(ID)
      IF (IDEDON(IDE) .EQ. 0) THEN
        IDEDON(IDE) = 1
        FE(1, ID) = XY(1, 1)
        IF (FE(1, ID) .GT. 1.0E30) THEN
          WRITE(6,*) 'SINGULAR'
          STOP 'SINGULAR'
        ENDIF
      ENDIF
      END
      SUBROUTINE GETCR(ID)
      COMMON /WK/ XY(2, 32)
      DO J = 1, 32
        XY(1, J) = ID*0.5
      ENDDO
      END
";

    fn program() -> Program {
        fir::parse(PROGRAM).unwrap()
    }

    #[test]
    fn transitive_modref_includes_callee_effects() {
        let mr = modref_of_unit(&program(), "FSMP");
        assert!(mr.writes.contains("XY"), "{mr:?}"); // via GETCR
        assert!(mr.writes.contains("FE"));
        assert!(mr.writes.contains("IDEDON"));
        assert!(mr.has_io);
    }

    #[test]
    fn faithful_annotation_is_sound_with_io_info() {
        let annot = "
subroutine FSMP(ID, IDE) {
  dimension FE[16, 200], IDEDON[200];
  XY = unknown(ID);
  if (IDEDON[IDE] == 0) {
    IDEDON[IDE] = 1;
    FE[1, ID] = unknown(XY);
  }
}
";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let issues = check(&program(), reg.get("FSMP").unwrap());
        assert!(is_sound(&issues), "{issues:?}");
        assert!(issues
            .iter()
            .any(|i| i.what == IssueKind::OmittedErrorHandling));
    }

    #[test]
    fn hidden_write_is_an_error() {
        // The annotation "forgets" that FSMP (via GETCR) writes XY.
        let annot = "
subroutine FSMP(ID, IDE) {
  dimension FE[16, 200], IDEDON[200];
  if (IDEDON[IDE] == 0) {
    IDEDON[IDE] = 1;
    FE[1, ID] = unknown(ID);
  }
}
";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let issues = check(&program(), reg.get("FSMP").unwrap());
        assert!(!is_sound(&issues), "{issues:?}");
        assert!(issues
            .iter()
            .any(|i| i.what == IssueKind::MissingWrite("XY".into())));
    }

    #[test]
    fn extra_write_is_a_warning() {
        let annot = "
subroutine GETCR(ID) {
  dimension XY[2, 32], BOGUS[4];
  XY = unknown(ID);
  BOGUS[1] = unknown(ID);
}
";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let issues = check(&program(), reg.get("GETCR").unwrap());
        assert!(is_sound(&issues), "{issues:?}");
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Warning
                && i.what == IssueKind::ExtraWrite("BOGUS".into())));
    }

    #[test]
    fn suite_annotations_are_sound() {
        // Every hand-written annotation in the PERFECT suite must cover its
        // implementation's visible writes. (Read coverage is also enforced;
        // the suite annotations name their operands.)
        // Checked here for the crates this one can see; the full-suite check
        // lives in the workspace integration tests.
        let p = program();
        let annot = "
subroutine GETCR(ID) {
  dimension XY[2, 32];
  XY = unknown(ID);
}
";
        let reg = AnnotRegistry::parse(annot).unwrap();
        let issues = check(&p, reg.get("GETCR").unwrap());
        assert!(is_sound(&issues), "{issues:?}");
    }

    #[test]
    fn unknown_callee_is_flagged() {
        let p = fir::parse(
            "      PROGRAM MAIN
      CALL S(1)
      END
      SUBROUTINE S(I)
      CALL LIBFN(I)
      END
",
        )
        .unwrap();
        let reg = AnnotRegistry::parse("subroutine S(I) { Z = unknown(I); }").unwrap();
        let issues = check(&p, reg.get("S").unwrap());
        assert!(issues
            .iter()
            .any(|i| i.what == IssueKind::UnknownCallee("LIBFN".into())));
    }
}
