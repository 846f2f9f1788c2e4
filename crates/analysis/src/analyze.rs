//! Per-loop parallelizability analysis — the Polaris pipeline in miniature.
//!
//! For each `DO` loop the driver: substitutes induction variables,
//! forward-substitutes scalar definitions, classifies scalars (reductions /
//! privates / carried), privatizes temporary arrays via kill analysis, and
//! runs the subscript-wise dependence tests on whatever remains. The result
//! records both the verdict and *why* — the blockers are what the paper's
//! §II narrates (I/O, opaque calls, carried scalars, non-analyzable array
//! dependences), and the tests in `perfect` assert on them directly.

use crate::ddtest::{test_pair, DepCtx, DepResult};
use crate::fwdsub::{forward_substitute, forward_substitutes};
use crate::ivsub::substitute_inductions;
use crate::privatize::{try_privatize, PrivArray};
use crate::refs::BodyRefs;
use crate::scalar::{classify, ScalarClass, ScalarInfo};
use fir::ast::{DoLoop, Expr, Ident, LoopId, RedOp};
use fir::symbol::{Storage, SymbolTable};

/// Why a loop cannot be parallelized.
#[derive(Debug, Clone, PartialEq)]
pub enum Blocker {
    /// Program output inside the loop.
    Io,
    /// `STOP` inside the loop (error-handling idiom, paper §II-B2).
    Stop,
    /// `RETURN` inside the loop.
    Return,
    /// An opaque `CALL` (name recorded).
    Call(Ident),
    /// A scalar that carries a value across iterations.
    CarriedScalar(Ident),
    /// A (possibly) loop-carried dependence on an array.
    ArrayDep {
        /// The array involved.
        array: Ident,
        /// Known constant distance, when the tests produced one.
        distance: Option<i64>,
    },
}

/// Analysis result for one loop.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// Identity of the analyzed loop.
    pub id: LoopId,
    /// Verdict.
    pub parallelizable: bool,
    /// All reasons the verdict is negative (empty when parallelizable).
    pub blockers: Vec<Blocker>,
    /// Privatizable scalars that do not escape the loop.
    pub private: Vec<Ident>,
    /// Privatizable scalars whose final value escapes (COMMON / dummies).
    pub lastprivate: Vec<Ident>,
    /// Recognized reductions.
    pub reductions: Vec<(RedOp, Ident)>,
    /// Privatizable temporary arrays.
    pub private_arrays: Vec<PrivArray>,
    /// Constant trip count, when the bounds are constants.
    pub trip_count: Option<i64>,
    /// `(name, increment)` of each substituted induction variable. When
    /// it is non-empty the raw loop still carries the scalar recurrence:
    /// the emitter rewrites it with [`substitute_for_emission`] before
    /// attaching a directive, and appends
    /// `name = name + max(trip,0)*increment` after the loop so the
    /// post-loop value matches sequential semantics.
    pub iv_subs: Vec<(Ident, i64)>,
}

/// Unit-level context: the symbol table answers "is this an array?" and
/// "does this variable escape the loop?".
pub struct UnitCtx<'a> {
    /// Symbol table of the enclosing program unit.
    pub table: &'a SymbolTable,
}

impl<'a> UnitCtx<'a> {
    /// Create a context from a symbol table.
    pub fn new(table: &'a SymbolTable) -> Self {
        UnitCtx { table }
    }

    fn is_array(&self, name: &str) -> bool {
        self.table.get(name).map(|s| s.is_array()).unwrap_or(false)
    }

    /// A variable escapes when its storage is visible outside the unit
    /// (COMMON) or belongs to the caller (dummy argument). Locals also
    /// escape the *loop* (they may be read later in the unit), but for
    /// last-value purposes we only distinguish storage that must survive.
    fn escapes(&self, name: &str) -> bool {
        matches!(
            self.table.get(name).map(|s| &s.storage),
            Some(Storage::Common(_)) | Some(Storage::Formal(_))
        )
    }
}

/// Analyze one loop. The input program is never modified: the
/// normalizations below are analysis-local, made on a scratch copy of the
/// loop, and only when one of them would rewrite it.
pub fn analyze_loop(d: &DoLoop, ctx: &UnitCtx<'_>) -> LoopAnalysis {
    let is_array = |n: &str| ctx.is_array(n);

    // 1. Induction-variable substitution (needs raw increments), then
    // 2. forward substitution of scalar definitions into subscripts
    //    (analysis-only: value-preserving, never emitted), then
    // 3. the final scalar classification. A loop neither pass rewrites
    //    is analyzed as it stands, with the classification it already has.
    let info0 = classify(&d.body, &d.var, &is_array);
    let has_candidates = info0
        .classes
        .values()
        .any(|c| matches!(c, ScalarClass::Induction { .. }));
    let scratch;
    let (work, info, iv_subs): (&DoLoop, ScalarInfo, _) =
        if has_candidates || forward_substitutes(&d.body, &is_array) {
            let mut w = d.clone();
            let iv_subs = substitute_inductions(&mut w, &info0);
            forward_substitute(&mut w.body, &is_array);
            let info = classify(&w.body, &w.var, &is_array);
            scratch = w;
            (&scratch, info, iv_subs)
        } else {
            (d, info0, Vec::new())
        };

    // 4. Reference collection.
    let refs = BodyRefs::collect(work, &is_array);

    let mut blockers = Vec::new();

    // 5. Statement-level blockers.
    if refs.facts.has_io {
        blockers.push(Blocker::Io);
    }
    if refs.facts.has_stop {
        blockers.push(Blocker::Stop);
    }
    if refs.facts.has_return {
        blockers.push(Blocker::Return);
    }
    for c in &refs.facts.calls {
        blockers.push(Blocker::Call(c.clone()));
    }

    // 6. Scalar verdicts.
    let mut private = Vec::new();
    let mut lastprivate = Vec::new();
    let mut reductions = Vec::new();
    let mut variant: Vec<Ident> = Vec::new();
    for (name, class) in &info.classes {
        match class {
            ScalarClass::ReadOnly => {}
            ScalarClass::Private => {
                if ctx.escapes(name) {
                    lastprivate.push(name.clone());
                } else {
                    private.push(name.clone());
                }
                variant.push(name.clone());
            }
            ScalarClass::Reduction(op) => {
                reductions.push((*op, name.clone()));
                variant.push(name.clone());
            }
            ScalarClass::Induction { .. } => {
                // Not substituted (otherwise it would no longer classify as
                // Induction): conservative.
                blockers.push(Blocker::CarriedScalar(name.clone()));
                variant.push(name.clone());
            }
            ScalarClass::LoopCarried => {
                blockers.push(Blocker::CarriedScalar(name.clone()));
                variant.push(name.clone());
            }
        }
    }
    // Inner loop index variables are variant in subscript positions only
    // insofar as they are index vars — the dependence context handles them.

    // 7. Array dependence testing / privatization.
    let lo = fold_const(&work.lo);
    let hi = fold_const(&work.hi);
    let carried_bounds = match (lo, hi) {
        (Some(a), Some(b)) => Some((a.min(b), a.max(b))),
        _ => None,
    };
    let dep_ctx = DepCtx {
        carried: work.var.clone(),
        carried_bounds,
        variant,
    };

    let mut private_arrays = Vec::new();
    for array in refs.array_names() {
        let accs = refs.accesses_of(&array);
        if !accs.iter().any(|a| a.is_write) {
            continue; // read-only array
        }
        if let Some(pa) = try_privatize(&array, &refs, ctx.escapes(&array), &work.var) {
            private_arrays.push(pa);
            continue;
        }
        // Pairwise tests: write vs write, write vs read.
        let mut worst: Option<Option<i64>> = None;
        'pairs: for (i, a) in accs.iter().enumerate() {
            for b in accs.iter().skip(i) {
                if !a.is_write && !b.is_write {
                    continue;
                }
                match test_pair(a, b, &dep_ctx) {
                    DepResult::Independent | DepResult::LoopIndependent => {}
                    DepResult::Carried(dist) => {
                        worst = Some(dist);
                        break 'pairs;
                    }
                }
            }
        }
        if let Some(distance) = worst {
            blockers.push(Blocker::ArrayDep {
                array: array.clone(),
                distance,
            });
        }
    }

    let trip_count = carried_bounds.map(|(a, b)| {
        let step = work.step_expr().as_int_const().unwrap_or(1).max(1);
        ((b - a) / step + 1).max(0)
    });

    LoopAnalysis {
        id: work.id.clone(),
        parallelizable: blockers.is_empty(),
        blockers,
        private,
        lastprivate,
        reductions,
        private_arrays,
        trip_count,
        iv_subs,
    }
}

/// Rewrite `d` into the loop to emit under a directive: the induction
/// variables [`analyze_loop`] substituted on its scratch copy, substituted
/// the same way in `d` itself. Returns the `(name, increment)` pairs, the
/// analysis's [`LoopAnalysis::iv_subs`].
pub fn substitute_for_emission(d: &mut DoLoop, ctx: &UnitCtx<'_>) -> Vec<(Ident, i64)> {
    let info = classify(&d.body, &d.var, &|n| ctx.is_array(n));
    substitute_inductions(d, &info)
}

fn fold_const(e: &Expr) -> Option<i64> {
    e.as_int_const()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::ast::StmtKind;
    use fir::parser::parse;
    use fir::symbol::SymbolTable;

    /// Analyze the first loop of the first unit in `src`.
    fn analyze_first(src: &str) -> LoopAnalysis {
        let p = parse(src).unwrap();
        let unit = &p.units[0];
        let table = SymbolTable::build(unit);
        let ctx = UnitCtx::new(&table);
        for s in &unit.body {
            if let StmtKind::Do(d) = &s.kind {
                return analyze_loop(d, &ctx);
            }
        }
        panic!("no loop in fixture");
    }

    #[test]
    fn simple_parallel_loop() {
        let a = analyze_first(
            "      PROGRAM P
      DIMENSION A(100), B(100)
      DO I = 1, 100
        A(I) = B(I)*2.0
      ENDDO
      END
",
        );
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
        assert_eq!(a.trip_count, Some(100));
    }

    #[test]
    fn recurrence_is_blocked() {
        let a = analyze_first(
            "      PROGRAM P
      DIMENSION A(100)
      DO I = 2, 100
        A(I) = A(I - 1) + 1.0
      ENDDO
      END
",
        );
        assert!(!a.parallelizable);
        assert!(matches!(a.blockers[0], Blocker::ArrayDep { .. }));
    }

    #[test]
    fn reduction_loop_is_parallel() {
        let a = analyze_first(
            "      PROGRAM P
      DIMENSION A(100)
      DO I = 1, 100
        S = S + A(I)
      ENDDO
      END
",
        );
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
        assert_eq!(a.reductions, vec![(RedOp::Add, "S".into())]);
    }

    #[test]
    fn io_blocks() {
        let a = analyze_first(
            "      PROGRAM P
      DO I = 1, 10
        WRITE(6,*) I
      ENDDO
      END
",
        );
        assert!(a.blockers.contains(&Blocker::Io));
    }

    #[test]
    fn call_blocks() {
        let a = analyze_first(
            "      PROGRAM P
      DO I = 1, 10
        CALL FSMP(I, J)
      ENDDO
      END
",
        );
        assert!(a.blockers.contains(&Blocker::Call("FSMP".into())));
    }

    #[test]
    fn pcinit_inner_shape_parallelizes_after_ivsub() {
        // The paper's Fig. 2 inner loop: induction variable + stride-1
        // writes to three arrays.
        let a = analyze_first(
            "      SUBROUTINE PCINIT(X2, Y2, Z2)
      DIMENSION X2(*), Y2(*), Z2(*)
      COMMON /FRC/ FX(1000), FY(1000), FZ(1000), DSUMM(10)
      DO J = 1, 100
        I = I + 1
        X2(I) = FX(I)*TSTEP**2/2.D0/DSUMM(N)
        Y2(I) = FY(I)*TSTEP**2/2.D0/DSUMM(N)
        Z2(I) = FZ(I)*TSTEP**2/2.D0/DSUMM(N)
      ENDDO
      END
",
        );
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
    }

    #[test]
    fn subscripted_subscripts_block_after_inlining_shape() {
        // The same loop after conventional inlining bound X2/Y2/Z2 to
        // regions of one array T at unknown offsets (paper Fig. 3).
        let a = analyze_first(
            "      PROGRAM P
      COMMON /BLK/ T(10000), IX(20)
      DO J = 1, 100
        I = I + 1
        T(IX(7) + I) = T(IX(1) + I)*TSTEP**2
        T(IX(8) + I) = T(IX(2) + I)*TSTEP**2
        T(IX(9) + I) = T(IX(3) + I)*TSTEP**2
      ENDDO
      END
",
        );
        assert!(!a.parallelizable);
        assert!(a
            .blockers
            .iter()
            .any(|b| matches!(b, Blocker::ArrayDep { array, .. } if array == "T")));
    }

    #[test]
    fn private_scalar_and_temp_array() {
        let a = analyze_first(
            "      PROGRAM P
      DIMENSION A(100), B(100), T(8)
      DO I = 1, 100
        S = A(I)*3.0
        DO J = 1, 8
          T(J) = S + J
        ENDDO
        DO J = 1, 8
          B(I) = B(I) + T(J)
        ENDDO
      ENDDO
      END
",
        );
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
        assert!(a.private.contains(&"S".into()));
        assert!(a.private_arrays.iter().any(|pa| pa.name == "T"));
    }

    #[test]
    fn matmlt_multidim_form_is_parallel() {
        // MATMLT with explicit 2-D shapes (paper Fig. 16 annotations).
        let a = analyze_first(
            "      SUBROUTINE MATMLT(M1, M2, M3, L, M, N)
      DIMENSION M1(4, 4), M2(4, 4), M3(4, 4)
      DO JN = 1, 4
        DO JM = 1, 4
          M3(JM, JN) = 0.0
        ENDDO
      ENDDO
      END
",
        );
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
    }

    #[test]
    fn linearized_symbolic_form_is_blocked() {
        // The same loop after linearization with symbolic extents
        // (paper §II-A2).
        let a = analyze_first(
            "      SUBROUTINE MATMLT(M3, L, M, N)
      DIMENSION M3(*)
      DO JN = 1, N
        DO JM = 1, M
          M3(JM + (JN - 1)*L) = 0.0
        ENDDO
      ENDDO
      END
",
        );
        assert!(!a.parallelizable);
    }

    #[test]
    fn unique_subscript_enables_parallelization() {
        use fir::ast::{Expr, StmtKind};
        // Hand-build: DO I: RHSB(UNIQ1(NB + I)) = RHSB(UNIQ1(NB + I)) + 1.0
        let mut p = parse(
            "      PROGRAM P
      DIMENSION RHSB(1000)
      DO I = 1, 100
        RHSB(J) = RHSB(J) + 1.0
      ENDDO
      END
",
        )
        .unwrap();
        let uniq = Expr::Unique(1, vec![Expr::add(Expr::var("NB"), Expr::var("I"))]);
        if let StmtKind::Do(d) = &mut p.units[0].body[0].kind {
            if let StmtKind::Assign { lhs, rhs } = &mut d.body[0].kind {
                *lhs = Expr::idx("RHSB", vec![uniq.clone()]);
                if let Expr::Bin(_, l, _) = rhs {
                    **l = Expr::idx("RHSB", vec![uniq.clone()]);
                }
            }
        }
        let unit = &p.units[0];
        let table = SymbolTable::build(unit);
        let ctx = UnitCtx::new(&table);
        let a = match &unit.body[0].kind {
            StmtKind::Do(d) => analyze_loop(d, &ctx),
            _ => unreachable!(),
        };
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
    }

    #[test]
    fn without_unique_the_same_loop_blocks() {
        // Indirect subscript without the unique annotation: conservative.
        let a = analyze_first(
            "      PROGRAM P
      DIMENSION RHSB(1000), ICOND(2, 100)
      DO I = 1, 100
        RHSB(ICOND(1, I)) = RHSB(ICOND(1, I)) + 1.0
      ENDDO
      END
",
        );
        assert!(!a.parallelizable);
    }

    #[test]
    fn lastprivate_for_common_scalars() {
        let a = analyze_first(
            "      PROGRAM P
      COMMON /WK/ WTDET
      DIMENSION A(100), B(100)
      DO I = 1, 100
        WTDET = A(I)
        B(I) = WTDET*2.0
      ENDDO
      END
",
        );
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
        assert_eq!(a.lastprivate, vec!["WTDET".to_string()]);
    }

    #[test]
    fn forward_substitution_enables_column_disjointness() {
        // ID = base + K, FE(:, ID) written each iteration: after forward
        // substitution the column index is affine in K.
        let a = analyze_first(
            "      PROGRAM P
      DIMENSION FE(16, 100)
      DO K = 1, 50
        ID = NBASE + 1 + K
        DO J = 1, 16
          FE(J, ID) = 0.0
        ENDDO
      ENDDO
      END
",
        );
        assert!(a.parallelizable, "blockers: {:?}", a.blockers);
    }
}
