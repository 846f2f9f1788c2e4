//! Data-dependence tests between two array accesses.
//!
//! The tests follow the classic subscript-wise strategy used by Polaris:
//! each dimension is tested separately (ZIV / GCD / strong SIV / Banerjee
//! bounds), and the per-dimension verdicts are combined — any dimension that
//! proves independence clears the pair; a dimension that forces the carried
//! iterations to be equal demotes the dependence to loop-independent.
//!
//! Two extensions carry the paper's contribution:
//!
//! * **Symbolic terms** (from [`crate::affine`]) cancel only when they are
//!   structurally identical on both sides. Subscripted subscripts such as
//!   `T(IX(7)+I)` vs `T(IX(8)+I)` do *not* cancel and the pair is
//!   conservatively dependent — the conventional-inlining pathology of
//!   paper §II-A1.
//! * **`unique` operators** are injective: `UNIQ(args)` dimensions force all
//!   argument pairs equal, so a `unique` subscript that varies with the
//!   carried loop variable proves independence — paper §III-B5.

use crate::affine::{extract, Affine, VarClass};
use crate::refs::{ArrayAccess, Sub};
use fir::ast::{Expr, Ident};

/// Result of testing one pair of accesses with respect to a carried loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepResult {
    /// Provably no dependence.
    Independent,
    /// Dependence exists only within one iteration of the carried loop
    /// (distance 0) — it does not block parallelizing that loop.
    LoopIndependent,
    /// A loop-carried dependence may exist (distance known when `Some`).
    Carried(Option<i64>),
}

/// Verdict for a single dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DimVerdict {
    /// This dimension proves the accesses never overlap.
    Independent,
    /// This dimension forces `i == i'` (the carried iterations coincide).
    EqualOnly,
    /// Dependence possible with a known constant carried distance.
    Distance(i64),
    /// No information from this dimension.
    NoInfo,
}

/// Context for a dependence test.
#[derive(Debug, Clone)]
pub struct DepCtx {
    /// Carried loop variable.
    pub carried: Ident,
    /// Constant bounds of the carried loop, when known.
    pub carried_bounds: Option<(i64, i64)>,
    /// Loop-variant scalars (not index variables) — their presence in a
    /// subscript makes it unanalyzable.
    pub variant: Vec<Ident>,
}

impl DepCtx {
    /// Suffix used to rename the second access's iteration instance.
    const PRIME: &'static str = "'";

    /// Extract the affine form of the second instance: every index variable
    /// is primed so the two iteration instances are independent unknowns.
    /// Only index variables become coefficients (symbolic terms never
    /// contain one), so priming the extracted coefficients is the same as
    /// extracting from a primed copy of the expression.
    fn extract_primed(&self, e: &Expr, acc: &ArrayAccess) -> Option<Affine> {
        let mut f = extract(e, &AccessClass { ctx: self, acc })?;
        f.coeffs = std::mem::take(&mut f.coeffs)
            .into_iter()
            .map(|(v, c)| (Ident::from(format!("{v}{}", Self::PRIME)), c))
            .collect();
        Some(f)
    }

    /// Constant range of an index variable occurring in the difference form:
    /// the carried var (and its primed twin) use `carried_bounds`; inner
    /// variables use their loop bounds when constant.
    fn var_range(&self, name: &str, a: &ArrayAccess, b: &ArrayAccess) -> Option<(i64, i64)> {
        let base = name.trim_end_matches(Self::PRIME);
        if base == self.carried {
            return self.carried_bounds;
        }
        for il in a.inners.iter().chain(b.inners.iter()) {
            if il.var == base {
                let lo = il.lo.as_int_const()?;
                let hi = il.hi.as_int_const()?;
                return Some((lo.min(hi), lo.max(hi)));
            }
        }
        None
    }
}

/// Index/variant classification at one access, borrowed from the context:
/// the carried variable and the access's inner-loop variables are index
/// variables.
struct AccessClass<'a> {
    ctx: &'a DepCtx,
    acc: &'a ArrayAccess,
}

impl VarClass for AccessClass<'_> {
    fn is_index(&self, name: &str) -> bool {
        self.ctx.carried == name || self.acc.inners.iter().any(|il| il.var == name)
    }
    fn is_variant(&self, name: &str) -> bool {
        self.ctx.variant.iter().any(|v| v == name)
    }
}

/// Test a pair of accesses to the same array. At least one must be a write
/// for the result to matter; the function itself does not check that.
pub fn test_pair(a: &ArrayAccess, b: &ArrayAccess, ctx: &DepCtx) -> DepResult {
    debug_assert_eq!(a.array, b.array);

    // Mismatched arity (e.g. a linearized reference vs the original 2-D
    // form) cannot be compared dimension-wise: conservative.
    if a.subs.len() != b.subs.len() {
        return DepResult::Carried(None);
    }

    let mut verdicts = Vec::with_capacity(a.subs.len());
    for (sa, sb) in a.subs.iter().zip(&b.subs) {
        verdicts.push(dim_verdict(sa, sb, a, b, ctx));
    }
    combine(&verdicts)
}

fn combine(verdicts: &[DimVerdict]) -> DepResult {
    if verdicts.contains(&DimVerdict::Independent) {
        return DepResult::Independent;
    }
    if verdicts.contains(&DimVerdict::EqualOnly) {
        return DepResult::LoopIndependent;
    }
    // All dimensions are Distance/NoInfo. A single consistent nonzero
    // distance is reported; conflicting distances mean no dependence.
    let mut dist: Option<i64> = None;
    let mut all_dist = true;
    for v in verdicts {
        match v {
            DimVerdict::Distance(d) => match dist {
                None => dist = Some(*d),
                Some(prev) if prev != *d => return DepResult::Independent,
                _ => {}
            },
            DimVerdict::NoInfo => all_dist = false,
            _ => unreachable!(),
        }
    }
    match dist {
        Some(0) => DepResult::LoopIndependent,
        Some(d) if all_dist => DepResult::Carried(Some(d)),
        _ => DepResult::Carried(dist),
    }
}

fn dim_verdict(sa: &Sub, sb: &Sub, a: &ArrayAccess, b: &ArrayAccess, ctx: &DepCtx) -> DimVerdict {
    match (sa, sb) {
        (Sub::At(ea), Sub::At(eb)) => point_verdict(ea, eb, a, b, ctx),
        (Sub::Range { lo: la, hi: ha }, Sub::Range { lo: lb, hi: hb }) => {
            range_verdict(la, ha, lb, hb)
        }
        // A point against a range/full, or full against anything: the
        // dimension gives no disjointness information.
        _ => DimVerdict::NoInfo,
    }
}

/// Test one point-subscript dimension.
fn point_verdict(
    ea: &Expr,
    eb: &Expr,
    a: &ArrayAccess,
    b: &ArrayAccess,
    ctx: &DepCtx,
) -> DimVerdict {
    // unique-operator dimensions: injective in their arguments.
    if let (Expr::Unique(ida, args_a), Expr::Unique(idb, args_b)) = (ea, eb) {
        if ida == idb && args_a.len() == args_b.len() {
            return unique_verdict(args_a, args_b, a, b, ctx);
        }
        return DimVerdict::NoInfo;
    }

    let fa = extract(ea, &AccessClass { ctx, acc: a });
    let fb = ctx.extract_primed(eb, b);
    let (fa, fb) = match (fa, fb) {
        (Some(x), Some(y)) => (x, y),
        _ => return DimVerdict::NoInfo, // non-affine subscript
    };

    let diff = fa.sub(&fb);

    // Symbolic terms that do not cancel: unknown relation, conservative.
    if !diff.syms.is_empty() {
        return DimVerdict::NoInfo;
    }

    let vars: Vec<(&Ident, &i64)> = diff.coeffs.iter().collect();

    // ZIV: both sides constant. Unequal constants prove independence;
    // equal constants mean the dimension *always* collides — that says
    // nothing about which iterations collide, so it is NoInfo, not
    // EqualOnly (EqualOnly is reserved for verdicts that force i == i').
    if vars.is_empty() {
        return if diff.konst != 0 {
            DimVerdict::Independent
        } else {
            DimVerdict::NoInfo
        };
    }

    // GCD test.
    let g = vars.iter().fold(0i64, |acc, (_, c)| gcd(acc, **c));
    if g != 0 && diff.konst % g != 0 {
        return DimVerdict::Independent;
    }

    // Strong SIV on the carried variable: diff = a*i - a*i' + c, no other
    // variables.
    let i = &ctx.carried;
    let ip = format!("{}{}", i, DepCtx::PRIME);
    if vars.len() == 2 {
        let ci = diff.coeff(i);
        let cip = diff.coeff(&ip);
        if ci != 0 && cip == -ci && vars.iter().all(|(n, _)| *n == i || **n == ip) {
            // a*(i - i') + c = 0  ⇒  i' - i = c / a.
            if diff.konst % ci != 0 {
                return DimVerdict::Independent;
            }
            let d = diff.konst / ci;
            if let Some((lo, hi)) = ctx.carried_bounds {
                if d.abs() > (hi - lo).abs() {
                    return DimVerdict::Independent;
                }
            }
            return if d == 0 {
                DimVerdict::EqualOnly
            } else {
                DimVerdict::Distance(d)
            };
        }
    }

    // Banerjee-style bound tests. When the carried variable appears with
    // opposite coefficients on the two sides (the common `a·i … a·i'`
    // shape), the test is run per *direction*: δ = i − i' restricted to
    // δ < 0, δ = 0, δ > 0. A dependence that is only feasible at δ = 0 is
    // loop-independent — this is what proves `A(I + (J-1)*LD)` slices
    // disjoint across J when LD ≥ the inner extent.
    let i_name = i.as_str();
    let ci = diff.coeff(i_name);
    let cip = diff.coeff(&ip);

    // Range sum of all variables except the carried pair. `None` bound =
    // unbounded in that direction.
    let mut rest_min: Option<i128> = Some(diff.konst as i128);
    let mut rest_max: Option<i128> = Some(diff.konst as i128);
    for (name, &c) in &vars {
        if *name == i_name || **name == ip {
            continue;
        }
        match ctx.var_range(name, a, b) {
            Some((lo, hi)) => {
                let (a1, a2) = ((c as i128) * lo as i128, (c as i128) * hi as i128);
                rest_min = rest_min.map(|v| v + a1.min(a2));
                rest_max = rest_max.map(|v| v + a1.max(a2));
            }
            None => {
                rest_min = None;
                rest_max = None;
            }
        }
    }

    if ci != 0 && cip == -ci {
        // δ-form: diff = ci·δ + rest. Feasibility of 0 per direction.
        let delta_range = ctx.carried_bounds.map(|(lo, hi)| (hi - lo).abs().max(1));
        let feasible = |dlo: Option<i128>, dhi: Option<i128>| -> bool {
            // Range of ci·δ over δ ∈ [dlo, dhi] (None = unbounded side).
            let c = ci as i128;
            let (lo_c, hi_c): (Option<i128>, Option<i128>) = match (dlo, dhi) {
                (Some(a), Some(b)) => (Some((c * a).min(c * b)), Some((c * a).max(c * b))),
                (None, Some(b)) if c > 0 => (None, Some(c * b)),
                (None, Some(b)) => (Some(c * b), None),
                (Some(a), None) if c > 0 => (Some(c * a), None),
                (Some(a), None) => (None, Some(c * a)),
                (None, None) => (None, None),
            };
            // total range = ci·δ range + rest range; 0 feasible unless the
            // total is provably all-positive or all-negative.
            let total_min = match (lo_c, rest_min) {
                (Some(x), Some(y)) => Some(x + y),
                _ => None,
            };
            let total_max = match (hi_c, rest_max) {
                (Some(x), Some(y)) => Some(x + y),
                _ => None,
            };
            let all_pos = matches!(total_min, Some(v) if v > 0);
            let all_neg = matches!(total_max, Some(v) if v < 0);
            !(all_pos || all_neg)
        };

        let b = delta_range.map(|r| r as i128);
        let lt = feasible(b.map(|r| -r), Some(-1)); // δ ∈ [-range, -1]
        let gt = feasible(Some(1), b); // δ ∈ [1, range]
        let eq = feasible(Some(0), Some(0));
        return match (lt || gt, eq) {
            (false, false) => DimVerdict::Independent,
            (false, true) => DimVerdict::EqualOnly,
            (true, _) => DimVerdict::NoInfo,
        };
    }

    // Generic Banerjee over everything (carried pair included).
    let mut min_sum = diff.konst as i128;
    let mut max_sum = diff.konst as i128;
    for (name, &c) in &vars {
        match ctx.var_range(name, a, b) {
            Some((lo, hi)) => {
                let (a1, a2) = ((c as i128) * lo as i128, (c as i128) * hi as i128);
                min_sum += a1.min(a2);
                max_sum += a1.max(a2);
            }
            None => return DimVerdict::NoInfo, // unbounded variable
        }
    }
    // The carried-pair constant terms were double-counted above only if the
    // pair fell through (ci == 0 or mismatched coefficients) — in that case
    // the generic sum is correct as-is.
    if min_sum > 0 || max_sum < 0 {
        DimVerdict::Independent
    } else {
        DimVerdict::NoInfo
    }
}

/// `unique(args)` vs `unique(args')` with the same operator id: the values
/// are equal iff all arguments are equal, so the dimension forces pairwise
/// equality of the argument lists.
fn unique_verdict(
    args_a: &[Expr],
    args_b: &[Expr],
    a: &ArrayAccess,
    b: &ArrayAccess,
    ctx: &DepCtx,
) -> DimVerdict {
    let mut forces_equal = false;
    for (ea, eb) in args_a.iter().zip(args_b) {
        match point_verdict(ea, eb, a, b, ctx) {
            // An argument pair that can never be equal ⇒ the unique values
            // differ ⇒ the subscripts differ ⇒ no overlap in this dimension.
            DimVerdict::Independent => return DimVerdict::Independent,
            // An argument that is equal only when i == i' propagates
            // injectivity: the whole dimension collides only at i == i'.
            DimVerdict::EqualOnly => forces_equal = true,
            // A constant nonzero distance for an argument means the values
            // can only be equal at that distance... but equality of the
            // argument at distance d means the unique values coincide at
            // distance d, which is a genuine carried collision: no help.
            DimVerdict::Distance(_) | DimVerdict::NoInfo => {}
        }
    }
    if forces_equal {
        DimVerdict::EqualOnly
    } else {
        DimVerdict::NoInfo
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::ast::Expr as E;

    fn acc(array: &str, subs: Vec<Sub>, is_write: bool) -> ArrayAccess {
        ArrayAccess {
            array: array.into(),
            subs,
            is_write,
            pos: 0,
            guard_depth: 0,
            inners: vec![],
        }
    }

    fn ctx(carried: &str, bounds: Option<(i64, i64)>) -> DepCtx {
        DepCtx {
            carried: carried.into(),
            carried_bounds: bounds,
            variant: vec![],
        }
    }

    #[test]
    fn same_subscript_is_loop_independent() {
        // A(I) write vs A(I) read: distance 0 ⇒ parallelizable.
        let w = acc("A", vec![Sub::At(E::var("I"))], true);
        let r = acc("A", vec![Sub::At(E::var("I"))], false);
        assert_eq!(
            test_pair(&w, &r, &ctx("I", Some((1, 100)))),
            DepResult::LoopIndependent
        );
    }

    #[test]
    fn shifted_subscript_is_carried() {
        // A(I) written at iteration i is read at iteration i+1 via A(I-1):
        // carried with distance +1.
        let w = acc("A", vec![Sub::At(E::var("I"))], true);
        let r = acc("A", vec![Sub::At(E::sub(E::var("I"), E::int(1)))], false);
        assert_eq!(
            test_pair(&w, &r, &ctx("I", Some((1, 100)))),
            DepResult::Carried(Some(1))
        );
    }

    #[test]
    fn distance_beyond_range_is_independent() {
        // A(I) vs A(I+200) in a loop of 100 iterations.
        let w = acc("A", vec![Sub::At(E::var("I"))], true);
        let r = acc("A", vec![Sub::At(E::add(E::var("I"), E::int(200)))], false);
        assert_eq!(
            test_pair(&w, &r, &ctx("I", Some((1, 100)))),
            DepResult::Independent
        );
    }

    #[test]
    fn gcd_test_filters_strided_accesses() {
        // A(2*I) vs A(2*I+1): even vs odd, never equal.
        let w = acc("A", vec![Sub::At(E::mul(E::int(2), E::var("I")))], true);
        let r = acc(
            "A",
            vec![Sub::At(E::add(E::mul(E::int(2), E::var("I")), E::int(1)))],
            false,
        );
        assert_eq!(
            test_pair(&w, &r, &ctx("I", Some((1, 100)))),
            DepResult::Independent
        );
    }

    #[test]
    fn ziv_distinct_constants() {
        let w = acc("A", vec![Sub::At(E::int(1))], true);
        let r = acc("A", vec![Sub::At(E::int(2))], false);
        assert_eq!(test_pair(&w, &r, &ctx("I", None)), DepResult::Independent);
    }

    #[test]
    fn ziv_equal_constants_is_carried() {
        // A(1) written every iteration: output dependence carried.
        let w1 = acc("A", vec![Sub::At(E::int(1))], true);
        let w2 = acc("A", vec![Sub::At(E::int(1))], true);
        // Equal constants force the subscripts equal, but not the
        // iterations: conservative carried... combine() maps EqualOnly to
        // LoopIndependent only when the *iterations* coincide. A ZIV-equal
        // dimension says nothing about iterations, so it must NOT count as
        // EqualOnly. This test pins the conservative behaviour.
        let res = test_pair(&w1, &w2, &ctx("I", Some((1, 10))));
        assert_ne!(res, DepResult::Independent);
    }

    #[test]
    fn equal_symbolic_offsets_cancel() {
        // T(NBASE + I) vs T(NBASE + I): same symbol cancels, distance 0.
        let e = E::add(E::var("NBASE"), E::var("I"));
        let w = acc("T", vec![Sub::At(e.clone())], true);
        let r = acc("T", vec![Sub::At(e)], false);
        assert_eq!(
            test_pair(&w, &r, &ctx("I", Some((1, 50)))),
            DepResult::LoopIndependent
        );
    }

    #[test]
    fn subscripted_subscripts_are_conservative() {
        // Paper §II-A1: T(IX(7)+I) vs T(IX(8)+I) — symbols differ, assume
        // dependence.
        let w1 = acc(
            "T",
            vec![Sub::At(E::add(E::idx("IX", vec![E::int(7)]), E::var("I")))],
            true,
        );
        let w2 = acc(
            "T",
            vec![Sub::At(E::add(E::idx("IX", vec![E::int(8)]), E::var("I")))],
            true,
        );
        assert_eq!(
            test_pair(&w1, &w2, &ctx("I", Some((1, 100)))),
            DepResult::Carried(None)
        );
    }

    #[test]
    fn mismatched_arity_is_conservative() {
        // Paper §II-A2: linearized PP(expr) vs PP(i, j, k).
        let a = acc("PP", vec![Sub::At(E::var("I"))], true);
        let b = acc(
            "PP",
            vec![
                Sub::At(E::var("I")),
                Sub::At(E::var("J")),
                Sub::At(E::var("K")),
            ],
            false,
        );
        assert_eq!(test_pair(&a, &b, &ctx("I", None)), DepResult::Carried(None));
    }

    #[test]
    fn second_dim_disambiguates_columns() {
        // FE(J, ID) with ID affine in the carried var K: strong SIV on dim 2.
        let w = acc("FE", vec![Sub::At(E::var("J")), Sub::At(E::var("K"))], true);
        let r = acc(
            "FE",
            vec![
                Sub::At(E::var("J")),
                Sub::At(E::add(E::var("K"), E::int(3))),
            ],
            false,
        );
        // Distance 3 within a 10-iteration loop: carried.
        assert_eq!(
            test_pair(&w, &r, &ctx("K", Some((1, 10)))),
            DepResult::Carried(Some(-3))
        );
        // But with only 2 iterations the distance is out of range.
        assert_eq!(
            test_pair(&w, &r, &ctx("K", Some((1, 2)))),
            DepResult::Independent
        );
    }

    #[test]
    fn unique_injective_in_carried_var() {
        // RHSB(UNIQ(ID)) where ID = base + I: distinct iterations write
        // distinct elements (paper Fig. 10/14).
        let sa = Sub::At(E::Unique(1, vec![E::add(E::var("NB"), E::var("I"))]));
        let w1 = acc("RHSB", vec![sa.clone()], true);
        let w2 = acc("RHSB", vec![sa], true);
        assert_eq!(
            test_pair(&w1, &w2, &ctx("I", Some((1, 100)))),
            DepResult::LoopIndependent
        );
    }

    #[test]
    fn unique_with_invariant_args_gives_no_info() {
        let sa = Sub::At(E::Unique(1, vec![E::var("N")]));
        let w1 = acc("R", vec![sa.clone()], true);
        let w2 = acc("R", vec![sa], true);
        assert_eq!(
            test_pair(&w1, &w2, &ctx("I", Some((1, 100)))),
            DepResult::Carried(None)
        );
    }

    #[test]
    fn different_unique_ids_are_conservative() {
        let w1 = acc("R", vec![Sub::At(E::Unique(1, vec![E::var("I")]))], true);
        let w2 = acc("R", vec![Sub::At(E::Unique(2, vec![E::var("I")]))], true);
        assert_eq!(
            test_pair(&w1, &w2, &ctx("I", Some((1, 100)))),
            DepResult::Carried(None)
        );
    }

    #[test]
    fn range_dimensions_disjoint_constants() {
        let a = acc(
            "X",
            vec![Sub::Range {
                lo: Some(E::int(1)),
                hi: Some(E::int(5)),
            }],
            true,
        );
        let b = acc(
            "X",
            vec![Sub::Range {
                lo: Some(E::int(6)),
                hi: Some(E::int(10)),
            }],
            false,
        );
        assert_eq!(test_pair(&a, &b, &ctx("I", None)), DepResult::Independent);
    }

    #[test]
    fn full_dimension_gives_no_info_but_other_dims_decide() {
        // FE(*, IDE) vs FE(*, IDE): sections overlap in dim 1; dim 2 forces
        // equality of the carried iteration.
        let w = acc("FE", vec![Sub::Full, Sub::At(E::var("K"))], true);
        let r = acc("FE", vec![Sub::Full, Sub::At(E::var("K"))], false);
        assert_eq!(
            test_pair(&w, &r, &ctx("K", Some((1, 8)))),
            DepResult::LoopIndependent
        );
    }

    #[test]
    fn inner_loop_vars_with_banerjee() {
        // A(J, I) vs A(J, I): inner J both instances; dim1 diff = J - J'
        // has range [-(M-1), M-1] containing 0 ⇒ no info; dim2 EqualOnly.
        let inner = crate::refs::InnerLoop {
            var: "J".into(),
            lo: E::int(1),
            hi: E::int(4),
            step: None,
        };
        let mut w = acc("A", vec![Sub::At(E::var("J")), Sub::At(E::var("I"))], true);
        let mut r = acc("A", vec![Sub::At(E::var("J")), Sub::At(E::var("I"))], false);
        w.inners = vec![inner.clone()];
        r.inners = vec![inner];
        assert_eq!(
            test_pair(&w, &r, &ctx("I", Some((1, 100)))),
            DepResult::LoopIndependent
        );
    }

    #[test]
    fn banerjee_disjoint_inner_ranges() {
        // A(J) write with J in 1..4 vs A(J2+10) read with J2 in 1..4:
        // difference J - J' - 10 ∈ [-13, -7], never 0.
        let inner = crate::refs::InnerLoop {
            var: "J".into(),
            lo: E::int(1),
            hi: E::int(4),
            step: None,
        };
        let mut w = acc("A", vec![Sub::At(E::var("J"))], true);
        let mut r = acc("A", vec![Sub::At(E::add(E::var("J"), E::int(10)))], false);
        w.inners = vec![inner.clone()];
        r.inners = vec![inner];
        assert_eq!(
            test_pair(&w, &r, &ctx("I", Some((1, 100)))),
            DepResult::Independent
        );
    }

    #[test]
    fn variant_scalar_subscript_is_conservative() {
        let mut c = ctx("J", Some((1, 10)));
        c.variant = vec!["I".into()];
        // X2(I) with I a variant scalar (I = I + 1 pattern, pre-substitution).
        let w1 = acc("X2", vec![Sub::At(E::var("I"))], true);
        let w2 = acc("X2", vec![Sub::At(E::var("I"))], true);
        assert_eq!(test_pair(&w1, &w2, &c), DepResult::Carried(None));
    }
}

/// Verdict for two range dimensions: independent only when both are fully
/// constant and disjoint.
fn range_verdict(
    la: &Option<Expr>,
    ha: &Option<Expr>,
    lb: &Option<Expr>,
    hb: &Option<Expr>,
) -> DimVerdict {
    let c = |e: &Option<Expr>| e.as_ref().and_then(|x| x.as_int_const());
    if let (Some(la), Some(ha), Some(lb), Some(hb)) = (c(la), c(ha), c(lb), c(hb)) {
        if ha < lb || hb < la {
            return DimVerdict::Independent;
        }
    }
    DimVerdict::NoInfo
}

#[cfg(test)]
mod direction_tests {
    use super::*;
    use crate::refs::{ArrayAccess, InnerLoop, Sub};
    use fir::ast::Expr as E;

    fn acc_inner(array: &str, sub: E, is_write: bool, inner: &InnerLoop) -> ArrayAccess {
        ArrayAccess {
            array: array.into(),
            subs: vec![Sub::At(sub)],
            is_write,
            pos: 0,
            guard_depth: 0,
            inners: vec![inner.clone()],
        }
    }

    #[test]
    fn linearized_slices_with_big_stride_are_loop_independent() {
        // A(I + (J-1)*64) with I in 1..64: columns disjoint across J.
        let inner = InnerLoop {
            var: "I".into(),
            lo: E::int(1),
            hi: E::int(64),
            step: None,
        };
        let sub = E::add(
            E::var("I"),
            E::mul(E::sub(E::var("J"), E::int(1)), E::int(64)),
        );
        let w = acc_inner("A", sub.clone(), true, &inner);
        let r = acc_inner("A", sub, false, &inner);
        let ctx = DepCtx {
            carried: "J".into(),
            carried_bounds: Some((1, 32)),
            variant: vec![],
        };
        assert_eq!(test_pair(&w, &r, &ctx), DepResult::LoopIndependent);
    }

    #[test]
    fn linearized_slices_with_small_stride_conflict() {
        // Stride 8 < inner extent 64: rows overlap across J.
        let inner = InnerLoop {
            var: "I".into(),
            lo: E::int(1),
            hi: E::int(64),
            step: None,
        };
        let sub = E::add(
            E::var("I"),
            E::mul(E::sub(E::var("J"), E::int(1)), E::int(8)),
        );
        let w = acc_inner("A", sub.clone(), true, &inner);
        let r = acc_inner("A", sub, false, &inner);
        let ctx = DepCtx {
            carried: "J".into(),
            carried_bounds: Some((1, 32)),
            variant: vec![],
        };
        assert_eq!(test_pair(&w, &r, &ctx), DepResult::Carried(None));
    }

    #[test]
    fn unknown_carried_range_still_proves_directions() {
        // Even with unknown carried bounds, |stride| ≥ inner extent proves
        // the < and > directions infeasible.
        let inner = InnerLoop {
            var: "I".into(),
            lo: E::int(1),
            hi: E::int(16),
            step: None,
        };
        let sub = E::add(E::var("I"), E::mul(E::var("J"), E::int(16)));
        let w = acc_inner("A", sub.clone(), true, &inner);
        let r = acc_inner("A", sub, false, &inner);
        let ctx = DepCtx {
            carried: "J".into(),
            carried_bounds: None,
            variant: vec![],
        };
        assert_eq!(test_pair(&w, &r, &ctx), DepResult::LoopIndependent);
    }
}
