//! The auto-parallelization planner.
//!
//! Runs [`fdep::analyze_loop`] on every `DO` loop of a program, records a
//! [`LoopDecision`] per loop (Table II counts these), and emits
//! `!$OMP PARALLEL DO` directives on the outermost legal-and-profitable
//! loops. Loops that privatize a global temporary get the last iteration
//! peeled first (paper §III-B4) so the sequential tail restores the
//! observable final values.

use crate::peel::peel_last_iteration;
use crate::profit::{ProfitVerdict, Profitability};
use fdep::analyze::{analyze_loop, substitute_for_emission, Blocker, LoopAnalysis, UnitCtx};
use fir::ast::*;
use fir::symbol::SymbolTable;

/// Options controlling the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParOptions {
    /// Profitability model.
    pub profit: Profitability,
    /// Emit directives on loops nested inside an already-parallelized loop
    /// (off by default — nested parallel regions are not profitable on the
    /// paper's machines).
    pub nested: bool,
    /// Allow last-iteration peeling (paper §III-B4). When disabled, loops
    /// that would need peeling (privatized escaping temporaries) are left
    /// sequential — the ablation configuration.
    pub enable_peel: bool,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            profit: Profitability::default(),
            nested: false,
            enable_peel: true,
        }
    }
}

/// Per-loop outcome.
#[derive(Debug, Clone)]
pub struct LoopDecision {
    /// Loop identity (original-program identity, surviving inlining).
    pub id: LoopId,
    /// Unit in which this (copy of the) loop now resides.
    pub in_unit: Ident,
    /// Dependence-legal to parallelize.
    pub legal: bool,
    /// Profitable per the heuristic.
    pub profitable: bool,
    /// A directive was actually placed on this loop (outermost rule).
    pub emitted: bool,
    /// Why not legal (empty when legal).
    pub blockers: Vec<Blocker>,
}

/// Whole-program parallelization report.
#[derive(Debug, Clone, Default)]
pub struct ParReport {
    /// One decision per loop *instance* (inlined copies appear once each).
    pub decisions: Vec<LoopDecision>,
}

impl ParReport {
    /// Distinct original loop ids counted as parallelized — the paper's
    /// rule: "each loop in the original benchmark is counted only once,
    /// even when inlining has made multiple copies of the original loop
    /// and all copies are subsequently parallelized". A loop therefore
    /// counts only when *every* surviving copy is parallelized; one broken
    /// inlined copy loses the loop.
    pub fn parallel_ids(&self) -> Vec<LoopId> {
        let mut out: Vec<LoopId> = Vec::new();
        for d in &self.decisions {
            if d.legal && d.profitable && !out.contains(&d.id) {
                out.push(d.id.clone());
            }
        }
        out.retain(|id| {
            self.decisions
                .iter()
                .filter(|d| &d.id == id)
                .all(|d| d.legal && d.profitable)
        });
        out.sort();
        out
    }

    /// Decisions for a given loop id.
    pub fn of(&self, id: &LoopId) -> Vec<&LoopDecision> {
        self.decisions.iter().filter(|d| &d.id == id).collect()
    }
}

/// Parallelize a program in place: analyze every loop, peel where needed,
/// attach directives. Returns the per-loop report.
pub fn parallelize(p: &mut Program, opts: &ParOptions) -> ParReport {
    let mut report = ParReport::default();
    for unit in &mut p.units {
        let table = SymbolTable::build(unit);
        let unit_name = unit.name.clone();
        let body = std::mem::take(&mut unit.body);
        unit.body = plan_block(body, &table, &unit_name, opts, false, &mut report);
    }
    report
}

fn plan_block(
    block: Block,
    table: &SymbolTable,
    unit_name: &Ident,
    opts: &ParOptions,
    inside_parallel: bool,
    report: &mut ParReport,
) -> Block {
    let mut out = Vec::with_capacity(block.len());
    for mut s in block {
        match s.kind {
            StmtKind::Do(mut d) => {
                let ctx = UnitCtx::new(table);
                let mut analysis = analyze_loop(&d, &ctx);
                let verdict = opts.profit.judge(&analysis);
                let legal = analysis.parallelizable
                    && (opts.enable_peel
                        || (analysis.lastprivate.is_empty()
                            && !analysis.private_arrays.iter().any(|pa| pa.needs_copy_out)));
                let profitable = verdict == ProfitVerdict::Profitable;
                let emit = legal && profitable && (opts.nested || !inside_parallel);

                report.decisions.push(LoopDecision {
                    id: d.id.clone(),
                    in_unit: unit_name.clone(),
                    legal,
                    profitable,
                    emitted: emit,
                    blockers: std::mem::take(&mut analysis.blockers),
                });

                if emit {
                    // Emit the *transformed* loop (induction variables
                    // substituted) — the raw body still carries the scalar
                    // recurrence and would be wrong to run in parallel.
                    let mut em = d;
                    if !analysis.iv_subs.is_empty() {
                        substitute_for_emission(&mut em, &ctx);
                    }
                    // Post-loop compensation: each substituted induction
                    // variable gets its sequential final value,
                    // `iv = iv + max(trip, 0) * incr`.
                    let compensation: Vec<Stmt> = analysis
                        .iv_subs
                        .iter()
                        .map(|(name, incr)| {
                            let trip = Expr::Intrinsic(
                                fir::ast::Intrinsic::Max,
                                vec![
                                    Expr::add(
                                        Expr::sub(em.hi.clone(), em.lo.clone()),
                                        Expr::int(1),
                                    ),
                                    Expr::int(0),
                                ],
                            );
                            let mut rhs = Expr::add(
                                Expr::var(name.clone()),
                                Expr::mul(trip, Expr::int(*incr)),
                            );
                            fir::fold::fold_expr(&mut rhs);
                            Stmt::assign(Expr::var(name.clone()), rhs)
                        })
                        .collect();
                    em.body = plan_block(
                        std::mem::take(&mut em.body),
                        table,
                        unit_name,
                        opts,
                        true,
                        report,
                    );
                    let directive = build_directive(&analysis);
                    let needs_peel = analysis.private_arrays.iter().any(|pa| pa.needs_copy_out)
                        || !analysis.lastprivate.is_empty();
                    if needs_peel {
                        let mut stmts = peel_last_iteration(&em);
                        if let StmtKind::Do(main) = &mut stmts[0].kind {
                            main.directive = Some(directive);
                        }
                        out.extend(stmts);
                    } else {
                        em.directive = Some(directive);
                        out.push(Stmt {
                            kind: StmtKind::Do(em),
                            span: s.span,
                            label: s.label,
                        });
                    }
                    out.extend(compensation);
                    continue;
                }
                // Not emitted: keep the original body, still analyzing
                // nested loops for the accounting.
                d.body = plan_block(
                    std::mem::take(&mut d.body),
                    table,
                    unit_name,
                    opts,
                    inside_parallel,
                    report,
                );
                s.kind = StmtKind::Do(d);
                out.push(s);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let then_blk =
                    plan_block(then_blk, table, unit_name, opts, inside_parallel, report);
                let else_blk =
                    plan_block(else_blk, table, unit_name, opts, inside_parallel, report);
                s.kind = StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                };
                out.push(s);
            }
            StmtKind::Tagged { tag, body } => {
                let body = plan_block(body, table, unit_name, opts, inside_parallel, report);
                s.kind = StmtKind::Tagged { tag, body };
                out.push(s);
            }
            _ => out.push(s),
        }
    }
    out
}

/// Build the OpenMP directive from the analysis result.
fn build_directive(a: &LoopAnalysis) -> OmpDirective {
    let mut dir = OmpDirective {
        private: a.private.clone(),
        firstprivate: vec![],
        lastprivate: a.lastprivate.clone(),
        reductions: a.reductions.clone(),
        nowait: false,
    };
    for pa in &a.private_arrays {
        // Arrays without copy-out are plain private; copy-out arrays are
        // made safe by peeling (the caller peels when any needs it), so they
        // are private in the shortened loop.
        dir.private.push(pa.name.clone());
    }
    dir.private.sort();
    dir.private.dedup();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;
    use fir::printer::print_program;

    fn run(src: &str) -> (Program, ParReport) {
        let mut p = parse(src).unwrap();
        let r = parallelize(&mut p, &ParOptions::default());
        (p, r)
    }

    #[test]
    fn simple_loop_gets_directive() {
        let (p, r) = run("      PROGRAM P
      DIMENSION A(100), B(100)
      DO I = 1, 100
        A(I) = B(I)*2.0
      ENDDO
      END
");
        assert_eq!(r.parallel_ids(), vec![LoopId::new("P", 1)]);
        let out = print_program(&p);
        assert!(out.contains("!$OMP PARALLEL DO"), "{out}");
    }

    #[test]
    fn outermost_only_emission() {
        let (p, r) = run("      PROGRAM P
      DIMENSION A(64, 64)
      DO I = 1, 64
        DO J = 1, 64
          A(J, I) = 0.0
        ENDDO
      ENDDO
      END
");
        // Both loops counted as parallelizable...
        assert_eq!(r.parallel_ids().len(), 2);
        // ...but only the outer one carries a directive.
        let out = print_program(&p);
        assert_eq!(out.matches("!$OMP PARALLEL DO").count(), 1, "{out}");
        let outer = r
            .decisions
            .iter()
            .find(|d| d.id == LoopId::new("P", 1))
            .unwrap();
        let inner = r
            .decisions
            .iter()
            .find(|d| d.id == LoopId::new("P", 2))
            .unwrap();
        assert!(outer.emitted);
        assert!(!inner.emitted);
    }

    #[test]
    fn recurrence_is_not_parallelized() {
        let (p, r) = run("      PROGRAM P
      DIMENSION A(100)
      DO I = 2, 100
        A(I) = A(I - 1)
      ENDDO
      END
");
        assert!(r.parallel_ids().is_empty());
        assert!(!print_program(&p).contains("!$OMP"));
        assert!(!r.decisions[0].blockers.is_empty());
    }

    #[test]
    fn small_trip_count_unprofitable() {
        let (p, r) = run("      PROGRAM P
      DIMENSION A(3)
      DO I = 1, 3
        A(I) = 0.0
      ENDDO
      END
");
        let d = &r.decisions[0];
        assert!(d.legal);
        assert!(!d.profitable);
        assert!(!print_program(&p).contains("!$OMP"));
    }

    #[test]
    fn reduction_clause_emitted() {
        let (p, _) = run("      PROGRAM P
      DIMENSION A(100)
      DO I = 1, 100
        S = S + A(I)
      ENDDO
      END
");
        let out = print_program(&p);
        assert!(out.contains("!$OMP+REDUCTION(+:S)"), "{out}");
    }

    #[test]
    fn lastprivate_triggers_peeling() {
        let (p, _) = run("      PROGRAM P
      COMMON /WK/ WTDET
      DIMENSION A(100), B(100)
      DO I = 1, 100
        WTDET = A(I)
        B(I) = WTDET*2.0
      ENDDO
      END
");
        let out = print_program(&p);
        // Peeled: shortened loop + guarded last iteration.
        assert!(out.contains("DO I = 1, 99"), "{out}");
        assert!(out.contains("IF (100 .GE. 1) THEN"), "{out}");
        assert!(out.contains("I = 100"), "{out}");
        assert!(
            out.contains("!$OMP+PRIVATE") || out.contains("!$OMP+LASTPRIVATE"),
            "{out}"
        );
    }

    #[test]
    fn private_temp_array_clause() {
        let (p, _) = run("      PROGRAM P
      DIMENSION A(100), B(100), T(8)
      DO I = 1, 100
        DO J = 1, 8
          T(J) = A(I) + J
        ENDDO
        DO J = 1, 8
          B(I) = B(I) + T(J)
        ENDDO
      ENDDO
      END
");
        let out = print_program(&p);
        assert!(out.contains("PRIVATE(") && out.contains("T"), "{out}");
    }

    #[test]
    fn loops_inside_tagged_regions_are_planned() {
        use finline::{annot_inline, AnnotRegistry};
        let reg =
            AnnotRegistry::parse("subroutine Z(A, N) { dimension A[N]; do (I = 1:N) A[I] = 0.0; }")
                .unwrap();
        let mut p = parse(
            "      PROGRAM MAIN
      DIMENSION B(100)
      CALL Z(B, 100)
      END
",
        )
        .unwrap();
        annot_inline::apply(&mut p, &reg);
        let r = parallelize(&mut p, &ParOptions::default());
        // The annotation loop inside the tagged region is analyzed and
        // parallelized (Fig. 17 shows directives inside tagged regions).
        assert_eq!(r.parallel_ids().len(), 1);
        assert!(r.parallel_ids()[0].is_annotation());
        let out = print_program(&p);
        assert!(out.contains("!$OMP PARALLEL DO"), "{out}");
    }

    #[test]
    fn call_blocks_loop() {
        let (_, r) = run("      PROGRAM P
      DO I = 1, 100
        CALL OPAQUE(I)
      ENDDO
      END
");
        assert!(r.parallel_ids().is_empty());
        assert!(r.decisions[0]
            .blockers
            .iter()
            .any(|b| matches!(b, Blocker::Call(_))));
    }
}
