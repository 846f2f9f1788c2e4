//! Automatic annotation generation — the paper's first future-work item
//! (§III-D: "Our future work will develop techniques ... to automatically
//! generate inlining annotations when possible").
//!
//! Given a subroutine implementation, derive an [`AnnotSub`] that
//! accurately summarizes its side effects: one collective assignment per
//! array write (with the written region expressed in section notation and
//! the values abstracted by `unknown` over everything the unit reads), and
//! one `unknown` assignment per written visible scalar.
//!
//! Generation *refuses* rather than approximate unsoundly. The annotation
//! must be accurate in both directions — over-claiming a write would let
//! the kill analysis privatize an array that is not fully re-initialized,
//! under-claiming would hide a dependence — so a subroutine is summarized
//! only when every write region is exactly representable:
//!
//! * every write unguarded, except inside *error-handling* conditionals
//!   (`IF` whose body is only `WRITE`/`STOP`), which are omitted under the
//!   §III-B3 relaxation when [`AutoGenOptions::relax_error_handling`] is on;
//! * every written region loop-invariant per call: a whole array, a fixed
//!   point, or a dense range swept by an inner loop;
//! * no early `RETURN`.
//!
//! [`generate`] is the *leaf* entry point: it refuses any subroutine that
//! makes calls. Non-leaf chains are handled by [`crate::chain`], which
//! walks the call graph bottom-up and substitutes each callee's
//! already-derived summary in place of the `CALL` — see that module for
//! the composition rules and the extended refusal taxonomy
//! ([`AutoGenRefusal::Recursive`], [`AutoGenRefusal::GuardedCall`], ...).
//!
//! The `unique` operator is *not* inferred — recognizing injective index
//! tables is exactly the domain knowledge the paper argues only the
//! developer has.

use crate::annot::AnnotSub;
use fdep::privatize::{regions_of, DimRegion};
use fdep::refs::BodyRefs;
use fir::ast::*;
use fir::fold::fold_expr;
use fir::loc::Span;
use fir::symbol::{Storage, SymbolTable};
use fir::visit::walk_stmts;
use std::collections::BTreeMap;

/// Options for annotation generation.
#[derive(Debug, Clone)]
pub struct AutoGenOptions {
    /// Omit `IF` blocks containing only error handling (`WRITE`/`STOP`),
    /// per paper §III-B3. When off, such subroutines are refused instead.
    pub relax_error_handling: bool,
    /// Cap on `unknown` operand lists. The summary must name *every* read
    /// (the soundness checker requires it), so generation refuses when the
    /// read set exceeds this cap rather than silently truncating.
    pub max_operands: usize,
}

impl Default for AutoGenOptions {
    fn default() -> Self {
        AutoGenOptions {
            relax_error_handling: true,
            max_operands: 16,
        }
    }
}

/// Why a subroutine could not be summarized automatically.
///
/// The first six variants are the leaf lattice ([`generate`]); the last
/// four are emitted only by the chain summarizer ([`crate::chain`]).
/// Every variant is documented with a concrete MiniF77 example in
/// `docs/annotation-language.md` ("Derived annotations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoGenRefusal {
    /// Calls other subroutines and only leaf summarization was attempted
    /// (each callee is paired with its call-site location). The chain
    /// summarizer exists to lift exactly this refusal.
    MakesCalls(Vec<(Ident, Span)>),
    /// Contains I/O outside an omittable error-handling conditional.
    HasIo,
    /// Contains an early `RETURN`.
    EarlyReturn,
    /// A write sits under a non-error conditional: the write set is
    /// data-dependent and cannot be stated exactly.
    GuardedWrite(Ident),
    /// A write region is not exactly representable (e.g. indirect
    /// subscript, non-inner-loop index expression).
    UnrepresentableRegion(Ident),
    /// The unit is a PROGRAM, not a SUBROUTINE.
    NotASubroutine,
    /// The unit sits in a recursive call cluster, so bottom-up
    /// summarization cannot bottom out. `cycle` lists the cluster
    /// members; `span` locates the first in-cycle call site.
    Recursive {
        /// Members of the strongly connected component, sorted.
        cycle: Vec<Ident>,
        /// Location of the first call into the cycle.
        span: Span,
    },
    /// A call sits under a non-error conditional: whether the callee's
    /// side effects happen at all is data-dependent, and stating them
    /// unconditionally would over-claim the kill set.
    GuardedCall {
        /// The conditionally-called subroutine.
        callee: Ident,
        /// Location of the guarded call site.
        span: Span,
    },
    /// Calls a subroutine that has no definition in the program and no
    /// manual annotation to substitute.
    UnresolvedExternal {
        /// The undefined callee.
        callee: Ident,
        /// Location of the call site.
        span: Span,
    },
    /// Calls a defined subroutine that was itself refused and has no
    /// manual annotation to fall back on.
    CalleeUnsummarized {
        /// The refused callee.
        callee: Ident,
        /// Location of the call site.
        span: Span,
    },
}

impl std::fmt::Display for AutoGenRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoGenRefusal::MakesCalls(cs) => {
                let list: Vec<String> = cs.iter().map(|(n, sp)| format!("{n} ({sp})")).collect();
                write!(f, "makes calls: {}", list.join(", "))
            }
            AutoGenRefusal::HasIo => write!(f, "contains non-error I/O"),
            AutoGenRefusal::EarlyReturn => write!(f, "contains an early RETURN"),
            AutoGenRefusal::GuardedWrite(n) => write!(f, "conditional write to {n}"),
            AutoGenRefusal::UnrepresentableRegion(n) => {
                write!(f, "write region of {n} not exactly representable")
            }
            AutoGenRefusal::NotASubroutine => write!(f, "not a subroutine"),
            AutoGenRefusal::Recursive { cycle, span } => {
                write!(f, "recursive call cluster {} ({span})", cycle.join(" -> "))
            }
            AutoGenRefusal::GuardedCall { callee, span } => {
                write!(f, "call to {callee} under a non-error conditional ({span})")
            }
            AutoGenRefusal::UnresolvedExternal { callee, span } => {
                write!(
                    f,
                    "calls {callee}, which has no definition and no annotation ({span})"
                )
            }
            AutoGenRefusal::CalleeUnsummarized { callee, span } => {
                write!(
                    f,
                    "callee {callee} could not be summarized and has no annotation ({span})"
                )
            }
        }
    }
}

/// Generate an annotation for one *leaf* subroutine. Refuses subroutines
/// that make calls; use [`crate::chain::generate_with_chains`] for those.
pub fn generate(unit: &ProcUnit, opts: &AutoGenOptions) -> Result<AnnotSub, AutoGenRefusal> {
    if unit.kind != UnitKind::Subroutine {
        return Err(AutoGenRefusal::NotASubroutine);
    }
    let table = SymbolTable::build(unit);

    // Strip omittable error-handling conditionals first.
    let mut body = unit.body.clone();
    if opts.relax_error_handling {
        strip_error_handlers(&mut body);
    }

    // Structural refusals.
    let calls = called_sites(&body);
    if !calls.is_empty() {
        return Err(AutoGenRefusal::MakesCalls(calls));
    }
    check_io_and_return(&body)?;

    let refs = collect_body_refs(&body, &table);
    let visible = visible_in(&table);
    let pool = operand_pool(&refs, &visible, opts)?;

    let mut out_body: Block = Vec::new();
    let mut dims: BTreeMap<Ident, Vec<Dim>> = BTreeMap::new();
    let mut next_op = 0u32;
    emit_write_summaries(
        &refs,
        &table,
        &visible,
        &pool,
        &mut next_op,
        &mut out_body,
        &mut dims,
    )?;

    // Shapes for formal arrays that are only read also matter.
    for p in &unit.params {
        if let Some(sym) = table.get(p) {
            if sym.is_array() {
                dims.entry(p.clone()).or_insert_with(|| sym.dims.clone());
            }
        }
    }

    Ok(AnnotSub {
        name: unit.name.clone(),
        params: unit.params.clone(),
        dims,
        types: BTreeMap::new(),
        body: out_body,
    })
}

/// Every `CALL` in `body` with its location, in statement order.
pub(crate) fn called_sites(body: &Block) -> Vec<(Ident, Span)> {
    let mut calls = Vec::new();
    walk_stmts(body, &mut |s| {
        if let StmtKind::Call { name, .. } = &s.kind {
            calls.push((name.clone(), s.span));
        }
    });
    calls
}

/// Refuse on non-error I/O or an early RETURN (shared structural checks).
pub(crate) fn check_io_and_return(body: &Block) -> Result<(), AutoGenRefusal> {
    let mut has_io = false;
    walk_stmts(body, &mut |s| {
        if matches!(&s.kind, StmtKind::Write { .. } | StmtKind::Stop { .. }) {
            has_io = true;
        }
    });
    if has_io {
        return Err(AutoGenRefusal::HasIo);
    }
    if crate::heuristics::body_has_early_return(body) {
        return Err(AutoGenRefusal::EarlyReturn);
    }
    Ok(())
}

/// Collect the accesses of `body`, as if it were a loop body.
pub(crate) fn collect_body_refs(body: &Block, table: &SymbolTable) -> BodyRefs {
    let is_array = |n: &str| table.get(n).map(|s| s.is_array()).unwrap_or(false);
    BodyRefs::collect_block(body, &is_array)
}

/// Caller-visibility predicate: COMMON members and formal parameters.
pub(crate) fn visible_in(table: &SymbolTable) -> impl Fn(&str) -> bool + '_ {
    move |name: &str| {
        matches!(
            table.get(name).map(|s| s.storage.clone()),
            Some(Storage::Common(_)) | Some(Storage::Formal(_))
        )
    }
}

/// Operand pool: every visible thing the body reads (arrays as whole-array
/// refs, scalars as plain vars). Completeness is what makes the generated
/// summary pass the soundness checker.
pub(crate) fn operand_pool(
    refs: &BodyRefs,
    visible: &impl Fn(&str) -> bool,
    opts: &AutoGenOptions,
) -> Result<Vec<Expr>, AutoGenRefusal> {
    let mut operands: Vec<Expr> = Vec::new();
    for a in &refs.arrays {
        if !a.is_write && visible(&a.array) {
            let e = Expr::Var(a.array.clone());
            if !operands.contains(&e) {
                operands.push(e);
            }
        }
    }
    for s in &refs.scalars {
        if !s.is_write && visible(&s.name) {
            let e = Expr::Var(s.name.clone());
            if !operands.contains(&e) {
                operands.push(e);
            }
        }
    }
    if operands.len() > opts.max_operands {
        return Err(AutoGenRefusal::UnrepresentableRegion(
            "<operand overflow>".into(),
        ));
    }
    Ok(operands)
}

/// Emit one summary assignment per visible written scalar (first-write
/// order, deduplicated) and one per array write access (in order), all
/// reading `unknown` over `pool`. Shared by the leaf generator (whole-body
/// call) and the chain summarizer (per-item calls).
pub(crate) fn emit_write_summaries(
    refs: &BodyRefs,
    table: &SymbolTable,
    visible: &impl Fn(&str) -> bool,
    pool: &[Expr],
    next_op: &mut u32,
    out_body: &mut Block,
    dims: &mut BTreeMap<Ident, Vec<Dim>>,
) -> Result<(), AutoGenRefusal> {
    let fresh_unknown = |next_op: &mut u32| {
        *next_op += 1;
        Expr::Unknown(*next_op, pool.to_vec())
    };

    // Scalars: all writes must be unguarded.
    let mut summarized_scalars: Vec<Ident> = Vec::new();
    for s in &refs.scalars {
        if !s.is_write || !visible(&s.name) || summarized_scalars.contains(&s.name) {
            continue;
        }
        if s.guard_depth > 0 {
            return Err(AutoGenRefusal::GuardedWrite(s.name.clone()));
        }
        summarized_scalars.push(s.name.clone());
        let rhs = fresh_unknown(next_op);
        out_body.push(Stmt::assign(Expr::Var(s.name.clone()), rhs));
    }

    for a in &refs.arrays {
        if !a.is_write {
            continue;
        }
        if !visible(&a.array) {
            // Local temporary: omitted entirely (paper §III-B4: "our
            // annotations will omit their existence entirely").
            continue;
        }
        if a.guard_depth > 0 {
            return Err(AutoGenRefusal::GuardedWrite(a.array.clone()));
        }
        let declared: &[Dim] = table
            .get(&a.array)
            .map(|s| s.dims.as_slice())
            .unwrap_or(&[]);
        let regions = regions_of(a);
        let mut secs = Vec::with_capacity(regions.len());
        for (j, r) in regions.into_iter().enumerate() {
            let sec = match r {
                DimRegion::Whole => SecRange::Full,
                DimRegion::Point(e) => SecRange::At(e),
                DimRegion::Range(lo, hi) => normalize_full(lo, hi, declared.get(j)),
                DimRegion::Unknown => {
                    return Err(AutoGenRefusal::UnrepresentableRegion(a.array.clone()))
                }
            };
            secs.push(sec);
        }
        // A region bound may not mention a local (it would be meaningless
        // at the call site).
        let mut bad = false;
        for sec in &secs {
            let mut chk = |e: &Expr| {
                e.walk(&mut |n| {
                    if let Expr::Var(v) = n {
                        if !visible(v) && table.param_value(v).is_none() && v != "__AG" {
                            bad = true;
                        }
                    }
                })
            };
            match sec {
                SecRange::At(e) => chk(e),
                SecRange::Range { lo, hi, .. } => {
                    for e in [lo, hi].into_iter().flatten() {
                        chk(e);
                    }
                }
                SecRange::Full => {}
            }
        }
        if bad {
            return Err(AutoGenRefusal::UnrepresentableRegion(a.array.clone()));
        }
        let lhs = if secs.iter().all(|s| matches!(s, SecRange::Full)) {
            Expr::Var(a.array.clone())
        } else {
            Expr::Section(a.array.clone(), secs)
        };
        let rhs = fresh_unknown(next_op);
        out_body.push(Stmt::assign(lhs, rhs));
        // Record the declared shape so the annotation inliner can map
        // actuals dimension-wise.
        if let Some(sym) = table.get(&a.array) {
            dims.entry(a.array.clone())
                .or_insert_with(|| sym.dims.clone());
        }
    }
    Ok(())
}

/// A `1 : extent` range over a dimension declared with exactly that extent
/// *is* the full dimension. Normalizing it to `SecRange::Full` matters for
/// privatization: the kill analysis compares derived regions against
/// whole-array reads syntactically, and `X` / `X[1:16]` only join when
/// both sides use the `Full` form (cf. `DimRegion::covers`, which never
/// treats a range as covering a whole-array access).
fn normalize_full(lo: Expr, hi: Expr, declared: Option<&Dim>) -> SecRange {
    if let (Expr::Int(1), Some(Dim::Extent(ext))) = (&lo, declared) {
        let mut a = hi.clone();
        let mut b = ext.clone();
        fold_expr(&mut a);
        fold_expr(&mut b);
        if a == b {
            return SecRange::Full;
        }
    }
    SecRange::Range {
        lo: Some(Box::new(lo)),
        hi: Some(Box::new(hi)),
        step: None,
    }
}

/// Generate *leaf* annotations for every subroutine in a program that
/// qualifies; returns the registry and the per-unit refusals. Chain-aware
/// generation (which lifts the `MakesCalls` refusals) lives in
/// [`crate::chain::generate_with_chains`].
pub fn generate_program(
    p: &Program,
    opts: &AutoGenOptions,
) -> (crate::annot::AnnotRegistry, Vec<(Ident, AutoGenRefusal)>) {
    let mut reg = crate::annot::AnnotRegistry::default();
    let mut refusals = Vec::new();
    for u in &p.units {
        if u.kind != UnitKind::Subroutine {
            continue;
        }
        match generate(u, opts) {
            Ok(sub) => {
                reg.subs.insert(sub.name.clone(), sub);
            }
            Err(r) => refusals.push((u.name.clone(), r)),
        }
    }
    (reg, refusals)
}

/// Remove `IF` statements whose branches contain only error handling
/// (`WRITE`, `STOP`, `CONTINUE`) — the §III-B3 relaxation.
pub(crate) fn strip_error_handlers(block: &mut Block) {
    fn is_error_block(b: &Block) -> bool {
        b.iter().all(|s| match &s.kind {
            StmtKind::Write { .. } | StmtKind::Stop { .. } | StmtKind::Continue => true,
            StmtKind::If {
                then_blk, else_blk, ..
            } => is_error_block(then_blk) && is_error_block(else_blk),
            _ => false,
        })
    }
    block.retain(|s| match &s.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            (then_blk.is_empty() && else_blk.is_empty())
                || !is_error_block(then_blk)
                || !is_error_block(else_blk)
        }
        _ => true,
    });
    for s in block.iter_mut() {
        match &mut s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                strip_error_handlers(then_blk);
                strip_error_handlers(else_blk);
            }
            StmtKind::Do(d) => strip_error_handlers(&mut d.body),
            StmtKind::Tagged { body, .. } => strip_error_handlers(body),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    fn unit_of(src: &str, name: &str) -> ProcUnit {
        parse(src).unwrap().unit(name).unwrap().clone()
    }

    const PCINIT: &str = "      SUBROUTINE PCINIT(X2, Y2, N)
      DIMENSION X2(*), Y2(*)
      COMMON /FRC/ FX(512), FY(512)
      DO I = 1, N
        X2(I) = FX(I)*0.5
      ENDDO
      DO I = 1, N
        Y2(I) = FY(I)*0.25
      ENDDO
      END
";

    #[test]
    fn generates_section_summaries_for_leaf_kernels() {
        let u = unit_of(PCINIT, "PCINIT");
        let sub = generate(&u, &AutoGenOptions::default()).unwrap();
        assert_eq!(sub.name, "PCINIT");
        assert_eq!(sub.params, vec!["X2", "Y2", "N"]);
        // Two section writes: X2[1:N], Y2[1:N].
        assert_eq!(sub.body.len(), 2);
        match &sub.body[0].kind {
            StmtKind::Assign {
                lhs: Expr::Section(n, secs),
                rhs: Expr::Unknown(_, ops),
            } => {
                assert_eq!(n, "X2");
                assert!(matches!(&secs[0], SecRange::Range { .. }));
                // Operands mention the read arrays.
                assert!(ops.iter().any(|o| matches!(o, Expr::Var(v) if v == "FX")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_extent_ranges_normalize_to_whole_array() {
        // A write sweeping 1..16 over a dimension declared (16) must come
        // out as the whole-array form — the privatization analysis only
        // joins `Full` with whole-array reads, so the range form would
        // silently lose the kill.
        let u = unit_of(
            "      SUBROUTINE STR(MB)
      COMMON /WRK/ TWORK(16)
      DO K = 1, 16
        TWORK(K) = MB*0.5 + K
      ENDDO
      END
",
            "STR",
        );
        let sub = generate(&u, &AutoGenOptions::default()).unwrap();
        assert_eq!(sub.body.len(), 1);
        assert!(
            matches!(&sub.body[0].kind,
            StmtKind::Assign { lhs: Expr::Var(n), rhs: Expr::Unknown(_, _) } if n == "TWORK"),
            "{:?}",
            sub.body[0].kind
        );
    }

    #[test]
    fn generated_annotation_gives_zero_loss_pipeline() {
        // The headline: autogen closes the conventional-inlining loss for
        // the PCINIT idiom without any manual annotation.
        let src = format!(
            "      PROGRAM MAIN
      COMMON /BLK/ T(4096), IX(12)
      COMMON /FRC/ FX(512), FY(512)
      CALL SETUP
      DO S = 1, 3
        CALL PCINIT(T(IX(7)), T(IX(8)), 256)
      ENDDO
      WRITE(6,*) T(1)
      END
      SUBROUTINE SETUP
      COMMON /BLK/ T(4096), IX(12)
      COMMON /FRC/ FX(512), FY(512)
      DO K = 1, 12
        IX(K) = (K - 1)*300 + 1
      ENDDO
      DO I = 1, 512
        FX(I) = I*0.5
        FY(I) = I*0.25
      ENDDO
      END
{PCINIT}"
        );
        let p = fir::parse(&src).unwrap();
        let (reg, _refusals) = generate_program(&p, &AutoGenOptions::default());
        assert!(reg.get("PCINIT").is_some());

        use ipp_core_test_shim::*;
        let none = compile_mode(&p, &reg, Mode::None);
        let annot = compile_mode(&p, &reg, Mode::Annotation);
        // No losses relative to no-inlining.
        assert!(
            none.iter().all(|id| annot.contains(id)),
            "{none:?} vs {annot:?}"
        );
    }

    /// Minimal local shim so this crate's tests can exercise the pipeline
    /// without a circular dev-dependency on `ipp-core`.
    mod ipp_core_test_shim {
        use crate::annot::AnnotRegistry;
        use fir::ast::{LoopId, Program};

        pub enum Mode {
            None,
            Annotation,
        }

        pub fn compile_mode(p: &Program, reg: &AnnotRegistry, mode: Mode) -> Vec<LoopId> {
            let mut q = p.clone();
            fir::fold::normalize_program(&mut q);
            if matches!(mode, Mode::Annotation) {
                crate::annot_inline::apply(&mut q, reg);
            }
            let rep = fpar_parallelize(&mut q);
            if matches!(mode, Mode::Annotation) {
                let rev = crate::reverse::apply(&mut q, reg);
                assert!(rev.failed.is_empty(), "{:?}", rev.failed);
            }
            rep
        }

        // fpar is not a dependency of finline; replicate the counting with
        // fdep directly: a loop is "parallelizable" when analyze_loop says
        // legal and the trip count is not tiny.
        fn fpar_parallelize(p: &mut Program) -> Vec<LoopId> {
            use fdep::analyze::{analyze_loop, UnitCtx};
            use fir::symbol::SymbolTable;
            let mut out = Vec::new();
            for u in &p.units {
                let table = SymbolTable::build(u);
                let ctx = UnitCtx::new(&table);
                fir::visit::walk_loops(&u.body, &mut |d| {
                    let a = analyze_loop(d, &ctx);
                    if a.parallelizable
                        && a.trip_count.map(|t| t >= 4).unwrap_or(true)
                        && !d.id.is_annotation()
                        && !out.contains(&d.id)
                    {
                        out.push(d.id.clone());
                    }
                });
            }
            out.sort();
            out
        }
    }

    #[test]
    fn refuses_compositional_subroutines() {
        let u = unit_of(
            "      SUBROUTINE FSMP(ID)
      CALL GETCR(ID)
      END
",
            "FSMP",
        );
        assert!(matches!(
            generate(&u, &AutoGenOptions::default()),
            Err(AutoGenRefusal::MakesCalls(_))
        ));
    }

    #[test]
    fn makes_calls_display_is_comma_separated_and_located() {
        let u = unit_of(
            "      SUBROUTINE FSMP(ID)
      CALL GETCR(ID)
      CALL SHAPE1
      END
",
            "FSMP",
        );
        let err = generate(&u, &AutoGenOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert_eq!(msg, "makes calls: GETCR (line 2), SHAPE1 (line 3)");
    }

    #[test]
    fn error_handling_is_stripped_under_relaxation() {
        let src = "      SUBROUTINE W(X, N)
      DIMENSION X(*)
      DO I = 1, N
        X(I) = I*2.0
      ENDDO
      IF (X(1) .GT. 1.0E30) THEN
        WRITE(6,*) 'OVERFLOW'
        STOP 'OVERFLOW'
      ENDIF
      END
";
        let u = unit_of(src, "W");
        let sub = generate(&u, &AutoGenOptions::default()).unwrap();
        assert_eq!(sub.body.len(), 1);
        // Without the relaxation, refused.
        let strict = AutoGenOptions {
            relax_error_handling: false,
            ..Default::default()
        };
        assert_eq!(generate(&u, &strict), Err(AutoGenRefusal::HasIo));
    }

    #[test]
    fn refuses_guarded_writes() {
        let u = unit_of(
            "      SUBROUTINE G(X, N)
      DIMENSION X(*)
      IF (N .GT. 4) THEN
        X(1) = 0.0
      ENDIF
      END
",
            "G",
        );
        assert_eq!(
            generate(&u, &AutoGenOptions::default()),
            Err(AutoGenRefusal::GuardedWrite("X".into()))
        );
    }

    #[test]
    fn refuses_indirect_write_regions() {
        let u = unit_of(
            "      SUBROUTINE S(I)
      COMMON /G/ ACC(256), PERM(256)
      DO K = 1, 4
        ACC(PERM(K)) = K*1.0
      ENDDO
      END
",
            "S",
        );
        assert_eq!(
            generate(&u, &AutoGenOptions::default()),
            Err(AutoGenRefusal::UnrepresentableRegion("ACC".into()))
        );
    }

    #[test]
    fn local_temporaries_are_omitted() {
        let src = "      SUBROUTINE T2(X, N)
      DIMENSION X(*), TMP(8)
      DO K = 1, 8
        TMP(K) = K*0.5
      ENDDO
      DO I = 1, N
        X(I) = TMP(1) + I
      ENDDO
      END
";
        let u = unit_of(src, "T2");
        let sub = generate(&u, &AutoGenOptions::default()).unwrap();
        // Only X is summarized; TMP vanished (paper §III-B4).
        assert_eq!(sub.body.len(), 1);
        let mut mentions_tmp = false;
        for s in &sub.body {
            if let StmtKind::Assign { lhs, rhs } = &s.kind {
                if lhs.mentions("TMP") || rhs.mentions("TMP") {
                    mentions_tmp = true;
                }
            }
        }
        assert!(!mentions_tmp);
    }

    #[test]
    fn scalar_side_effects_are_summarized() {
        let src = "      SUBROUTINE SC(N)
      COMMON /ST/ KOUNT, TOTAL
      KOUNT = N*2
      TOTAL = N*0.5
      END
";
        let u = unit_of(src, "SC");
        let sub = generate(&u, &AutoGenOptions::default()).unwrap();
        assert_eq!(sub.body.len(), 2);
        assert!(matches!(&sub.body[0].kind,
            StmtKind::Assign { lhs: Expr::Var(n), rhs: Expr::Unknown(_, _) } if n == "KOUNT"));
    }

    #[test]
    fn program_level_generation_reports_refusals() {
        let p = parse(
            "      PROGRAM MAIN
      CALL A(1)
      END
      SUBROUTINE A(I)
      CALL B(I)
      END
      SUBROUTINE B(I)
      COMMON /S/ V(10)
      V(I) = I
      END
",
        )
        .unwrap();
        let (reg, refusals) = generate_program(&p, &AutoGenOptions::default());
        // B(I): write region V(I) is a visible point — representable.
        assert!(reg.get("B").is_some());
        assert!(refusals.iter().any(|(n, _)| n == "A"));
    }
}
