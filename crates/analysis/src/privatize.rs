//! Array privatization via kill (covering-write) analysis.
//!
//! An array is privatizable for a loop when, in every iteration, each read
//! is covered by a write that happened *earlier in the same iteration* —
//! the array is a per-iteration temporary (paper §II-B3). Writes that cover
//! only a data-dependent subset may fail the check (the `XY(1:2,1:NNPED)`
//! situation of Figs. 8–9), which is exactly why the paper's annotations
//! treat such global temporaries "as if they are atomic scalar variables":
//! a whole-array (`Full`-section) write trivially covers every later read.
//!
//! Coverage is deliberately syntactic: a write region covers a read region
//! when each dimension provably contains it, with bounds compared either as
//! integer constants or by structural expression equality.

use crate::refs::{ArrayAccess, BodyRefs, Sub};
use fir::ast::{Expr, Ident};

/// Per-dimension region of an access, normalized so that an access inside
/// `DO J = lo, hi` with subscript `J` becomes the range `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub enum DimRegion {
    /// The entire declared extent.
    Whole,
    /// A single point.
    Point(Expr),
    /// A contiguous range (inclusive).
    Range(Expr, Expr),
    /// Not representable.
    Unknown,
}

impl DimRegion {
    /// Does `self` (a write) cover `other` (a read)?
    fn covers(&self, other: &DimRegion) -> bool {
        match (self, other) {
            (DimRegion::Whole, _) => true,
            (_, DimRegion::Unknown) => false,
            (DimRegion::Unknown, _) => false,
            (DimRegion::Point(a), DimRegion::Point(b)) => a == b,
            (DimRegion::Range(lo, hi), DimRegion::Point(p)) => {
                // Constant containment, or exact bound match.
                match (lo.as_int_const(), hi.as_int_const(), p.as_int_const()) {
                    (Some(l), Some(h), Some(v)) => l <= v && v <= h,
                    _ => p == lo || p == hi,
                }
            }
            (DimRegion::Range(lo, hi), DimRegion::Range(lo2, hi2)) => {
                let lo_ok = match (lo.as_int_const(), lo2.as_int_const()) {
                    (Some(a), Some(b)) => a <= b,
                    _ => lo == lo2,
                };
                let hi_ok = match (hi.as_int_const(), hi2.as_int_const()) {
                    (Some(a), Some(b)) => b <= a,
                    _ => hi == hi2,
                };
                lo_ok && hi_ok
            }
            (DimRegion::Point(_), DimRegion::Range(_, _)) => false,
            (_, DimRegion::Whole) => false,
        }
    }
}

/// Convert one access into per-dimension regions by widening subscripts
/// that walk an enclosing inner loop.
pub fn regions_of(acc: &ArrayAccess) -> Vec<DimRegion> {
    acc.subs
        .iter()
        .map(|s| match s {
            Sub::Full => DimRegion::Whole,
            Sub::Range {
                lo: Some(l),
                hi: Some(h),
            } => DimRegion::Range(l.clone(), h.clone()),
            Sub::Range { .. } => DimRegion::Whole,
            Sub::At(e) => {
                // Subscript equal to an enclosing inner-loop variable sweeps
                // that loop's range.
                if let Expr::Var(v) = e {
                    for il in &acc.inners {
                        if &il.var == v && il.step.is_none() {
                            return DimRegion::Range(il.lo.clone(), il.hi.clone());
                        }
                    }
                }
                // Loop-variant subscripts that are not a plain inner index
                // are not representable as a per-iteration region.
                let mut variant = false;
                e.walk(&mut |n| {
                    if let Expr::Var(v) = n {
                        if acc.inners.iter().any(|il| &il.var == v) {
                            variant = true;
                        }
                    }
                });
                if variant {
                    DimRegion::Unknown
                } else {
                    DimRegion::Point(e.clone())
                }
            }
        })
        .collect()
}

/// Result of the privatization analysis for one array.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivArray {
    /// Array name.
    pub name: Ident,
    /// Whether the privatized array's final value must be restored after
    /// the loop (the paper peels the last iteration for global temporaries).
    pub needs_copy_out: bool,
}

/// Try to privatize `array` within the collected body references.
/// `escapes` is true when the array is visible after the loop (COMMON,
/// dummy argument) so its final value matters; `carried` is the analyzed
/// loop's index variable.
///
/// Privatization additionally requires the touched region to be
/// *iteration-invariant*: an array whose write region moves with the
/// carried variable (`TM2(:, :, KS)`) is a per-iteration *output*, not a
/// temporary — privatizing it would discard all but the last iteration's
/// slice. Such arrays are left to the dependence tests, which prove the
/// slices disjoint instead.
pub fn try_privatize(
    array: &str,
    refs: &BodyRefs,
    escapes: bool,
    carried: &str,
) -> Option<PrivArray> {
    let accs = refs.accesses_of(array);
    let has_write = accs.iter().any(|a| a.is_write);
    let has_read = accs.iter().any(|a| !a.is_write);
    // Read-only arrays need no privatization; write-only arrays are loop
    // *outputs* (their values must survive), so privatizing them would be
    // wrong — they go to the dependence tests instead.
    if !has_write || !has_read {
        return None;
    }

    // Iteration-invariance: no region bound may mention the carried
    // variable.
    let mentions_carried = |regions: &[DimRegion]| {
        regions.iter().any(|r| match r {
            DimRegion::Point(e) => e.mentions(carried),
            DimRegion::Range(lo, hi) => lo.mentions(carried) || hi.mentions(carried),
            DimRegion::Unknown => true,
            DimRegion::Whole => false,
        })
    };
    for acc in &accs {
        if mentions_carried(&regions_of(acc)) {
            return None;
        }
    }

    // Every read must be covered by an earlier unguarded write in the same
    // iteration. Guarded writes (inside IF) cannot be relied on.
    {
        for r in accs.iter().filter(|a| !a.is_write) {
            let r_regions = regions_of(r);
            let covered = accs
                .iter()
                .filter(|w| w.is_write && w.guard_depth == 0 && w.pos < r.pos)
                .any(|w| {
                    let w_regions = regions_of(w);
                    w_regions.len() == r_regions.len()
                        && w_regions
                            .iter()
                            .zip(&r_regions)
                            .all(|(wr, rr)| wr.covers(rr))
                });
            if !covered {
                return None;
            }
        }
    }

    Some(PrivArray {
        name: array.into(),
        needs_copy_out: escapes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::ast::StmtKind;
    use fir::parser::parse;

    fn refs_of(src: &str, arrays: &[&str]) -> BodyRefs {
        let p = parse(src).unwrap();
        for s in &p.units[0].body {
            if let StmtKind::Do(d) = &s.kind {
                let names: Vec<String> = arrays.iter().map(|s| s.to_string()).collect();
                return BodyRefs::collect(d, &move |n: &str| names.iter().any(|x| x == n));
            }
        }
        panic!("no loop");
    }

    #[test]
    fn whole_array_write_covers_everything() {
        // The annotation idiom: XY = unknown(...) writes Full, later reads
        // are covered — treated "as an atomic scalar".
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        XY = 0.0
        B(I) = XY(1)
      ENDDO
      END
",
            &["XY", "B"],
        );
        let pa = try_privatize("XY", &refs, true, "I").unwrap();
        assert!(pa.needs_copy_out);
    }

    #[test]
    fn element_write_then_same_element_read() {
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        T(1) = A(I)
        B(I) = T(1)
      ENDDO
      END
",
            &["T", "A", "B"],
        );
        assert!(try_privatize("T", &refs, false, "I").is_some());
    }

    #[test]
    fn covering_loop_write_then_loop_read() {
        // Write T(J) for J=1..8, then read T(J) for J=1..8: covered.
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        DO J = 1, 8
          T(J) = A(J, I)
        ENDDO
        DO J = 1, 8
          B(J, I) = T(J)*2.0
        ENDDO
      ENDDO
      END
",
            &["T", "A", "B"],
        );
        assert!(try_privatize("T", &refs, false, "I").is_some());
    }

    #[test]
    fn subset_kill_fails() {
        // Paper Figs. 8–9: the write covers 1..NNPED but the read scans
        // 1..MNPED (same runtime value, different symbol) — not provably
        // covered, privatization fails.
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        DO J = 1, NNPED
          XY(J) = A(J, I)
        ENDDO
        DO J = 1, MNPED
          B(J, I) = XY(J)
        ENDDO
      ENDDO
      END
",
            &["XY", "A", "B"],
        );
        assert!(try_privatize("XY", &refs, true, "I").is_none());
    }

    #[test]
    fn matching_symbolic_bounds_succeed() {
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        DO J = 1, NNPED
          XY(J) = A(J, I)
        ENDDO
        DO J = 1, NNPED
          B(J, I) = XY(J)
        ENDDO
      ENDDO
      END
",
            &["XY", "A", "B"],
        );
        assert!(try_privatize("XY", &refs, true, "I").is_some());
    }

    #[test]
    fn read_before_write_fails() {
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        B(I) = T(1)
        T(1) = A(I)
      ENDDO
      END
",
            &["T", "A", "B"],
        );
        assert!(try_privatize("T", &refs, false, "I").is_none());
    }

    #[test]
    fn guarded_write_does_not_cover() {
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          T(1) = A(I)
        ENDIF
        B(I) = T(1)
      ENDDO
      END
",
            &["T", "A", "B"],
        );
        assert!(try_privatize("T", &refs, false, "I").is_none());
    }

    #[test]
    fn write_only_array_is_not_privatized() {
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        A(I) = 1.0
      ENDDO
      END
",
            &["A"],
        );
        assert!(try_privatize("A", &refs, true, "I").is_none());
    }

    #[test]
    fn wider_const_write_covers_narrower_read() {
        let refs = refs_of(
            "      PROGRAM P
      DO I = 1, N
        DO J = 1, 16
          T(J) = 0.0
        ENDDO
        DO J = 2, 15
          B(J, I) = T(J)
        ENDDO
      ENDDO
      END
",
            &["T", "B"],
        );
        assert!(try_privatize("T", &refs, false, "I").is_some());
    }
}
