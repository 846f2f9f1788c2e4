//! Affine (linear) form extraction from subscript expressions.
//!
//! A subscript is *analyzable* when it can be written as
//!
//! ```text
//!   c0 + Σ ci·vi + Σ sk·Sk
//! ```
//!
//! where `vi` are loop index variables with integer-constant coefficients
//! `ci`, and `Sk` are *loop-invariant symbolic terms* (whole expressions such
//! as `IX(7)` or `NNPED`) with integer coefficients `sk`. Everything the
//! dependence tests can and cannot do follows from this definition:
//!
//! * a subscripted subscript like `T(IX(7) + I)` **is** affine in `I`, but
//!   its symbolic part `IX(7)` differs from `T(IX(8) + I)`'s, so the tests
//!   must conservatively assume the two may collide — this is exactly how
//!   conventional inlining loses parallelism in the paper's Fig. 2/3;
//! * a linearized subscript like `JL + (JN-1)*L` with symbolic extent `L`
//!   has a *non-constant coefficient* on `JN`, so extraction fails and the
//!   reference is unanalyzable — the paper's Fig. 4/5 pathology.

use fir::ast::{BinOp, Expr, Ident, UnOp};
use std::collections::BTreeMap;

/// Classification of scalars in the enclosing analysis scope, used to decide
/// which `Var` nodes are index variables, invariants, or loop-variant.
pub trait VarClass {
    /// Is `name` one of the loop index variables of the analyzed nest?
    fn is_index(&self, name: &str) -> bool;
    /// Is `name` a scalar modified inside the analyzed loop (other than the
    /// index variables)? Such scalars make a subscript unanalyzable until
    /// induction-variable substitution removes them.
    fn is_variant(&self, name: &str) -> bool;
}

/// A simple [`VarClass`] backed by two name lists.
#[derive(Debug, Default, Clone)]
pub struct SimpleClass {
    /// Index variables of the nest (outermost first).
    pub index_vars: Vec<Ident>,
    /// Loop-variant scalars.
    pub variant: Vec<Ident>,
}

impl VarClass for SimpleClass {
    fn is_index(&self, name: &str) -> bool {
        self.index_vars.iter().any(|v| v == name)
    }
    fn is_variant(&self, name: &str) -> bool {
        self.variant.iter().any(|v| v == name)
    }
}

/// An affine form over index variables and invariant symbolic terms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Affine {
    /// Integer coefficients of index variables.
    pub coeffs: BTreeMap<Ident, i64>,
    /// Constant term.
    pub konst: i64,
    /// Integer coefficients of loop-invariant symbolic terms, keyed by the
    /// canonical expression.
    pub syms: BTreeMap<Expr, i64>,
}

impl Affine {
    /// The zero form.
    pub fn zero() -> Affine {
        Affine::default()
    }

    /// A pure constant.
    pub fn constant(c: i64) -> Affine {
        Affine {
            konst: c,
            ..Default::default()
        }
    }

    /// A single index variable.
    pub fn index(v: impl Into<Ident>) -> Affine {
        let mut a = Affine::default();
        a.coeffs.insert(v.into(), 1);
        a
    }

    /// A single symbolic term.
    pub fn sym(e: Expr) -> Affine {
        let mut a = Affine::default();
        a.syms.insert(e, 1);
        a
    }

    /// True if the form is a constant (no variables, no symbols).
    pub fn is_const(&self) -> bool {
        self.coeffs.values().all(|&c| c == 0) && self.syms.values().all(|&c| c == 0)
    }

    /// True if the form has no index-variable component (it may still be
    /// symbolic) — i.e. it is loop-invariant.
    pub fn is_invariant(&self) -> bool {
        self.coeffs.values().all(|&c| c == 0)
    }

    /// Coefficient of index variable `v` (0 if absent).
    pub fn coeff(&self, v: &str) -> i64 {
        self.coeffs.get(v).copied().unwrap_or(0)
    }

    /// `self + other`; `None` when a coefficient or the constant
    /// overflows.
    pub fn add(&self, other: &Affine) -> Option<Affine> {
        let mut out = self.clone();
        for (k, v) in &other.coeffs {
            let c = out.coeffs.entry(k.clone()).or_insert(0);
            *c = c.checked_add(*v)?;
        }
        for (k, v) in &other.syms {
            let c = out.syms.entry(k.clone()).or_insert(0);
            *c = c.checked_add(*v)?;
        }
        out.konst = out.konst.checked_add(other.konst)?;
        out.prune();
        Some(out)
    }

    /// `self - other`; `None` when negating `other` or the sum overflows.
    pub fn sub(&self, other: &Affine) -> Option<Affine> {
        self.add(&other.scale(-1)?)
    }

    /// `self * c`; `None` when a product overflows.
    pub fn scale(&self, c: i64) -> Option<Affine> {
        let mut out = self.clone();
        for v in out.coeffs.values_mut().chain(out.syms.values_mut()) {
            *v = v.checked_mul(c)?;
        }
        out.konst = out.konst.checked_mul(c)?;
        out.prune();
        Some(out)
    }

    /// `self / c` when every coefficient divides evenly by `c`; `None`
    /// when one does not, when `c` is 0, or when a quotient overflows
    /// (`i64::MIN / -1`).
    fn div_exact(&self, c: i64) -> Option<Affine> {
        let div = |v: i64| {
            if v.checked_rem(c)? == 0 {
                v.checked_div(c)
            } else {
                None
            }
        };
        let mut out = self.clone();
        out.konst = div(out.konst)?;
        for v in out.coeffs.values_mut().chain(out.syms.values_mut()) {
            *v = div(*v)?;
        }
        Some(out)
    }

    /// Drop zero entries so structural equality works.
    fn prune(&mut self) {
        self.coeffs.retain(|_, v| *v != 0);
        self.syms.retain(|_, v| *v != 0);
    }

    /// Rename an index variable (used to create the "second iteration
    /// instance" `i'` when building dependence equations).
    pub fn rename(&self, from: &str, to: &str) -> Affine {
        let mut out = self.clone();
        if let Some(c) = out.coeffs.remove(from) {
            *out.coeffs.entry(to.into()).or_insert(0) += c;
        }
        out.prune();
        out
    }

    /// True if the two forms have identical symbolic parts (so the symbols
    /// cancel in a difference).
    pub fn same_syms(&self, other: &Affine) -> bool {
        self.syms == other.syms
    }
}

/// Extract the affine form of `e` relative to the classification `cls`.
/// Returns `None` when the expression is not affine — a non-constant
/// coefficient, a loop-variant scalar, an index variable inside an array
/// subscript used symbolically, etc. — or when its form does not fit in
/// `i64` coefficients (the analysis then gives up rather than reason
/// about wrapped values).
pub fn extract(e: &Expr, cls: &dyn VarClass) -> Option<Affine> {
    match e {
        Expr::Int(v) => Some(Affine::constant(*v)),
        Expr::Var(n) => {
            if cls.is_index(n) {
                Some(Affine::index(n.clone()))
            } else if cls.is_variant(n) {
                None
            } else {
                Some(Affine::sym(e.clone()))
            }
        }
        Expr::Bin(BinOp::Add, l, r) => extract(l, cls)?.add(&extract(r, cls)?),
        Expr::Bin(BinOp::Sub, l, r) => extract(l, cls)?.sub(&extract(r, cls)?),
        Expr::Bin(BinOp::Mul, l, r) => {
            let la = extract(l, cls);
            let ra = extract(r, cls);
            match (la, ra) {
                (Some(a), Some(b)) => {
                    if a.is_const() {
                        b.scale(a.konst)
                    } else if b.is_const() {
                        a.scale(b.konst)
                    } else if a.is_invariant() && b.is_invariant() {
                        // Product of two invariants is itself invariant.
                        invariant_sym(e, cls)
                    } else {
                        // Non-constant coefficient on an index variable:
                        // the linearized-array pathology (paper §II-A2).
                        None
                    }
                }
                _ => invariant_sym(e, cls),
            }
        }
        Expr::Bin(BinOp::Div, l, r) => {
            // `x / c` is affine only when the numerator coefficients divide
            // evenly; otherwise treat an invariant division symbolically.
            let la = extract(l, cls);
            let ra = extract(r, cls);
            if let (Some(a), Some(b)) = (&la, &ra) {
                if b.is_const() {
                    if let Some(out) = a.div_exact(b.konst) {
                        return Some(out);
                    }
                }
            }
            invariant_sym(e, cls)
        }
        Expr::Un(UnOp::Neg, inner) => extract(inner, cls)?.scale(-1),
        // Anything else (array refs, intrinsics, powers, unknown/unique) is
        // affine only if it is entirely loop-invariant, in which case the
        // whole expression becomes one symbolic term.
        _ => invariant_sym(e, cls),
    }
}

/// If `e` contains no index variable and no variant scalar, wrap it as one
/// symbolic term; otherwise fail.
fn invariant_sym(e: &Expr, cls: &dyn VarClass) -> Option<Affine> {
    if is_invariant_expr(e, cls) {
        Some(Affine::sym(e.clone()))
    } else {
        None
    }
}

/// True if `e` mentions no index variable and no loop-variant scalar.
pub fn is_invariant_expr(e: &Expr, cls: &dyn VarClass) -> bool {
    let mut ok = true;
    e.walk(&mut |n| {
        if let Expr::Var(v) = n {
            if cls.is_index(v) || cls.is_variant(v) {
                ok = false;
            }
        }
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::ast::Expr as E;

    fn cls(index: &[&str], variant: &[&str]) -> SimpleClass {
        SimpleClass {
            index_vars: index.iter().map(|&s| s.into()).collect(),
            variant: variant.iter().map(|&s| s.into()).collect(),
        }
    }

    #[test]
    fn plain_index() {
        let a = extract(&E::var("I"), &cls(&["I"], &[])).unwrap();
        assert_eq!(a.coeff("I"), 1);
        assert_eq!(a.konst, 0);
    }

    #[test]
    fn linear_combination() {
        // 2*I + 3*J - 5
        let e = E::sub(
            E::add(
                E::mul(E::int(2), E::var("I")),
                E::mul(E::int(3), E::var("J")),
            ),
            E::int(5),
        );
        let a = extract(&e, &cls(&["I", "J"], &[])).unwrap();
        assert_eq!(a.coeff("I"), 2);
        assert_eq!(a.coeff("J"), 3);
        assert_eq!(a.konst, -5);
    }

    #[test]
    fn subscripted_subscript_is_affine_with_symbol() {
        // T(IX(7) + I): the subscript IX(7)+I is affine with symbol IX(7).
        let e = E::add(E::idx("IX", vec![E::int(7)]), E::var("I"));
        let a = extract(&e, &cls(&["I"], &[])).unwrap();
        assert_eq!(a.coeff("I"), 1);
        assert_eq!(a.syms.len(), 1);
        assert!(a.syms.contains_key(&E::idx("IX", vec![E::int(7)])));
    }

    #[test]
    fn different_symbol_bases_do_not_cancel() {
        let a = extract(
            &E::add(E::idx("IX", vec![E::int(7)]), E::var("I")),
            &cls(&["I"], &[]),
        )
        .unwrap();
        let b = extract(
            &E::add(E::idx("IX", vec![E::int(8)]), E::var("I")),
            &cls(&["I"], &[]),
        )
        .unwrap();
        assert!(!a.same_syms(&b));
        let d = a.sub(&b).unwrap();
        assert!(!d.is_const());
    }

    #[test]
    fn symbolic_coefficient_is_not_affine() {
        // JL + (JN - 1) * L with symbolic L — the linearization pathology.
        let e = E::add(
            E::var("JL"),
            E::mul(E::sub(E::var("JN"), E::int(1)), E::var("L")),
        );
        assert!(extract(&e, &cls(&["JL", "JN"], &[])).is_none());
    }

    #[test]
    fn constant_extent_linearization_is_affine() {
        // JL + (JN - 1) * 4 — fine once the extent is a known constant.
        let e = E::add(
            E::var("JL"),
            E::mul(E::sub(E::var("JN"), E::int(1)), E::int(4)),
        );
        let a = extract(&e, &cls(&["JL", "JN"], &[])).unwrap();
        assert_eq!(a.coeff("JL"), 1);
        assert_eq!(a.coeff("JN"), 4);
        assert_eq!(a.konst, -4);
    }

    #[test]
    fn variant_scalar_blocks_extraction() {
        // X2(I) where I is a variant scalar (pre induction substitution).
        assert!(extract(&E::var("I"), &cls(&["J"], &["I"])).is_none());
    }

    #[test]
    fn invariant_array_ref_in_subscript_is_symbol() {
        // NSPECI(N) with N invariant: symbolic, fine.
        let e = E::idx("NSPECI", vec![E::var("N")]);
        let a = extract(&e, &cls(&["J"], &[])).unwrap();
        assert_eq!(a.syms.len(), 1);
    }

    #[test]
    fn variant_array_subscript_fails() {
        // A(K) where K is modified in the loop: not invariant, not affine.
        let e = E::idx("A", vec![E::var("K")]);
        assert!(extract(&e, &cls(&["I"], &["K"])).is_none());
    }

    #[test]
    fn division_by_even_constant() {
        let e = E::bin(BinOp::Div, E::mul(E::int(4), E::var("I")), E::int(2));
        let a = extract(&e, &cls(&["I"], &[])).unwrap();
        assert_eq!(a.coeff("I"), 2);
    }

    #[test]
    fn uneven_division_goes_symbolic_only_if_invariant() {
        let e = E::bin(BinOp::Div, E::var("I"), E::int(2));
        assert!(extract(&e, &cls(&["I"], &[])).is_none());
        let e = E::bin(BinOp::Div, E::var("N"), E::int(2));
        assert!(extract(&e, &cls(&["I"], &[])).is_some());
    }

    #[test]
    fn rename_for_second_instance() {
        let a = extract(&E::add(E::var("I"), E::int(1)), &cls(&["I"], &[])).unwrap();
        let b = a.rename("I", "I'");
        assert_eq!(b.coeff("I"), 0);
        assert_eq!(b.coeff("I'"), 1);
        assert_eq!(b.konst, 1);
    }

    #[test]
    fn difference_cancels_equal_syms() {
        let c = cls(&["I"], &[]);
        let a = extract(&E::add(E::var("NNPED"), E::var("I")), &c).unwrap();
        let b = extract(&E::add(E::var("NNPED"), E::var("I")), &c).unwrap();
        let d = a.sub(&b.rename("I", "I'")).unwrap();
        assert!(d.syms.is_empty());
        assert_eq!(d.coeff("I"), 1);
        assert_eq!(d.coeff("I'"), -1);
    }

    #[test]
    fn overflowing_forms_give_up() {
        let c = cls(&["I"], &[]);
        let min = E::sub(E::int(-i64::MAX), E::int(1));
        // I - (-9223372036854775807 - 1): negating i64::MIN overflows.
        assert!(extract(&E::sub(E::var("I"), min.clone()), &c).is_none());
        assert!(extract(&E::Un(UnOp::Neg, Box::new(min.clone())), &c).is_none());
        // 2 * i64::MIN and i64::MAX + 1 overflow; i64::MIN itself fits.
        assert!(extract(&E::mul(E::int(2), min.clone()), &c).is_none());
        assert!(extract(&E::add(E::int(i64::MAX), E::int(1)), &c).is_none());
        assert_eq!(extract(&min, &c).unwrap().konst, i64::MIN);
        // A symbolic coefficient overflows the same way.
        let n = Affine::sym(E::var("N")).scale(i64::MAX).unwrap();
        assert!(n.add(&Affine::sym(E::var("N"))).is_none());
        assert!(n.scale(2).is_none());
    }

    #[test]
    fn invariant_product_is_symbolic() {
        // N * M with both invariant: one symbolic term, still analyzable.
        let e = E::mul(E::var("N"), E::var("M"));
        let a = extract(&e, &cls(&["I"], &[])).unwrap();
        assert_eq!(a.syms.len(), 1);
        assert!(a.is_invariant());
    }
}
