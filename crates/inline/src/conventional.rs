//! Conventional (implementation-substituting) inlining.
//!
//! Faithfully reproduces the two §II-A pathologies of the paper, because
//! they are load-bearing for the evaluation:
//!
//! * **Forward substitution of indirect actuals** — an array-element actual
//!   like `T(IX(7))` bound to an assumed-size formal `X2(*)` turns every
//!   `X2(I)` in the callee into `T(IX(7) + I - 1)`: a subscripted subscript
//!   the dependence tests cannot relate to `T(IX(8) + I - 1)` (Fig. 2/3).
//! * **Linearization of reshaped arrays** — when formal and actual shapes
//!   disagree, Polaris linearizes the caller's array to a single dimension
//!   "without any explicit shape information": the caller's declaration
//!   becomes assumed-size, every caller reference is flattened with the old
//!   (constant) extents, and the inlined body indexes the flat array with
//!   the *formal's* (symbolic) extents — killing the inlined loops'
//!   parallelism (Fig. 4/5).

use crate::heuristics::{check, Heuristics, SkipReason};
use fdep::callgraph::CallGraph;
use fir::ast::*;
use fir::fold::{fold_expr, normalize_unit};
use fir::symbol::{Storage, SymbolTable};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

/// Outcome of conventionally inlining a whole program.
#[derive(Debug, Clone, Default)]
pub struct ConvReport {
    /// (caller, callee) pairs successfully inlined (one entry per site).
    pub inlined: Vec<(Ident, Ident)>,
    /// (caller, callee, reason) for rejected sites.
    pub skipped: Vec<(Ident, Ident, SkipReason)>,
    /// Arrays whose caller declaration was linearized, per unit.
    pub linearized: Vec<(Ident, Ident)>,
    /// Units removed by dead-procedure elimination after inlining.
    pub removed_units: Vec<Ident>,
}

/// Inline every eligible call site in the program (Polaris-style), then
/// remove subroutines that are no longer reachable from the main program.
pub fn inline_program(p: &mut Program, h: &Heuristics) -> ConvReport {
    let mut report = ConvReport::default();
    let graph = CallGraph::build(p);

    // Process callees bottom-up first so that (under aggressive policies)
    // inlining chains expand transitively. A processed subroutine moves
    // into `done`, where its callers find it, and returns to its slot
    // once every unit is processed.
    let order = graph.bottom_up();
    let mut done: BTreeMap<Ident, ProcUnit> = BTreeMap::new();
    let mut fresh = FreshNames::new(p);
    for unit_name in order {
        let Some(idx) = p.units.iter().position(|u| u.name == unit_name) else {
            continue;
        };
        // Work on the unit itself; its slot keeps only the name until the
        // rewritten unit goes back.
        let placeholder = ProcUnit {
            kind: p.units[idx].kind,
            name: unit_name.clone(),
            params: Vec::new(),
            decls: Vec::new(),
            body: Vec::new(),
            span: p.units[idx].span,
        };
        let mut unit = std::mem::replace(&mut p.units[idx], placeholder);
        let caller_table = SymbolTable::build(&unit);
        let mut ctx = InlineCtx {
            caller: unit_name.clone(),
            caller_table,
            callees: Callees {
                done: &done,
                pending: p,
            },
            graph: &graph,
            h,
            report: &mut report,
            fresh: &mut fresh,
            new_decls: Vec::new(),
            linearize: Vec::new(),
        };
        let body = std::mem::take(&mut unit.body);
        unit.body = ctx.walk_block(body, false);
        let new_decls = std::mem::take(&mut ctx.new_decls);
        let linearize = std::mem::take(&mut ctx.linearize);
        unit.decls.extend(new_decls);
        for arr in linearize {
            linearize_unit_array(&mut unit, &arr);
            report.linearized.push((unit_name.clone(), arr));
        }
        if unit.kind == UnitKind::Subroutine {
            done.insert(unit.name.clone(), unit);
        } else {
            p.units[idx] = unit;
        }
    }
    // Each processed subroutine returns to the first slot of its name,
    // the one it left.
    for slot in &mut p.units {
        if let Some(unit) = done.remove(&slot.name) {
            *slot = unit;
        }
    }

    // Dead-procedure elimination: after inlining, callees with no remaining
    // call sites disappear from the emitted program (so a loop that only
    // survives inside a broken inlined copy really is lost — Table II's
    // #par-loss).
    let graph = CallGraph::build(p);
    if graph.main.is_some() {
        let live = graph.reachable_from_main();
        let before: Vec<Ident> = p.units.iter().map(|u| u.name.clone()).collect();
        p.units.retain(|u| live.contains(&u.name));
        for name in before {
            if !p.units.iter().any(|u| u.name == name) {
                report.removed_units.push(name);
            }
        }
    }
    report
}

/// The report [`inline_program`] would return when it changes nothing:
/// every call site fails the heuristics and dead-procedure elimination
/// finds every unit live. `None` when a site passes the heuristics (it
/// would be expanded), when a unit is dead, or when two units share a
/// name. Reads `p` without copying it: a caller holding a shared program
/// copies it only for the passes that change it.
pub fn report_if_unchanged(p: &Program, h: &Heuristics) -> Option<ConvReport> {
    let graph = CallGraph::build(p);
    if graph.edges.len() != p.units.len() {
        return None;
    }
    if graph.main.is_some() {
        let live = graph.reachable_from_main();
        if p.units.iter().any(|u| !live.contains(&u.name)) {
            return None;
        }
    }
    let mut report = ConvReport::default();
    for name in graph.bottom_up() {
        let unit = p.units.iter().find(|u| u.name == name)?;
        if !skipped_calls(&unit.body, false, &name, p, &graph, h, &mut report.skipped) {
            return None;
        }
    }
    Some(report)
}

/// [`InlineCtx::walk_block`]'s visit order without the rewrite: records
/// each call in `block` with the heuristic that rejects it, or returns
/// false at the first call the heuristics accept.
fn skipped_calls(
    block: &Block,
    in_loop: bool,
    caller: &Ident,
    p: &Program,
    graph: &CallGraph,
    h: &Heuristics,
    out: &mut Vec<(Ident, Ident, SkipReason)>,
) -> bool {
    block.iter().all(|s| match &s.kind {
        StmtKind::Call { name, .. } => {
            let callee = p
                .units
                .iter()
                .find(|u| u.kind == UnitKind::Subroutine && u.name == *name);
            match check(name, callee, in_loop, graph, h) {
                Ok(()) => false,
                Err(reason) => {
                    out.push((caller.clone(), name.clone(), reason));
                    true
                }
            }
        }
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            skipped_calls(then_blk, in_loop, caller, p, graph, h, out)
                && skipped_calls(else_blk, in_loop, caller, p, graph, h, out)
        }
        StmtKind::Do(d) => skipped_calls(&d.body, true, caller, p, graph, h, out),
        _ => true,
    })
}

/// Fresh caller names for renamed callee locals, `{base}_I{n}`. A
/// candidate the program already spells is skipped, so a renamed local can
/// never capture a caller variable.
struct FreshNames {
    counter: u32,
    taken: HashSet<Ident>,
}

impl FreshNames {
    fn new(p: &Program) -> Self {
        let mut taken: HashSet<Ident> = HashSet::new();
        for u in &p.units {
            taken.extend(u.params.iter().cloned());
            for d in &u.decls {
                match d {
                    Decl::Var(v) => {
                        taken.insert(v.name.clone());
                    }
                    Decl::Common { vars, .. } => taken.extend(vars.iter().map(|v| v.name.clone())),
                    Decl::Param { name, .. } => {
                        taken.insert(name.clone());
                    }
                }
            }
            fir::visit::walk_stmts(&u.body, &mut |s| {
                if let StmtKind::Do(d) = &s.kind {
                    taken.insert(d.var.clone());
                }
                fir::visit::stmt_exprs(s, &mut |e| {
                    e.walk(&mut |n| {
                        if let Expr::Var(v) | Expr::Index(v, _) | Expr::Section(v, _) = n {
                            taken.insert(v.clone());
                        }
                    })
                });
            });
        }
        FreshNames { counter: 0, taken }
    }

    fn next(&mut self, base: &str) -> Ident {
        loop {
            self.counter += 1;
            let name = Ident::from(format!("{base}_I{}", self.counter));
            if self.taken.insert(name.clone()) {
                return name;
            }
        }
    }
}

/// Callee definitions as the walk of one caller sees them.
#[derive(Clone, Copy)]
struct Callees<'a> {
    /// Subroutines already processed, with their own call sites inlined.
    done: &'a BTreeMap<Ident, ProcUnit>,
    /// The program, holding the subroutines not processed yet.
    pending: &'a Program,
}

impl<'a> Callees<'a> {
    /// The definition a call to `name` inlines. Bottom-up order processes
    /// every non-recursive callee before its callers, so an unprocessed
    /// definition is normalized (PARAMETERs folded) only in the rare case
    /// it is still pending; the last subroutine of the name defines it.
    fn get(self, name: &str) -> Option<Cow<'a, ProcUnit>> {
        if let Some(unit) = self.done.get(name) {
            return Some(Cow::Borrowed(unit));
        }
        let unit = self
            .pending
            .units
            .iter()
            .rfind(|u| u.kind == UnitKind::Subroutine && u.name == name)?;
        let mut unit = unit.clone();
        normalize_unit(&mut unit);
        Some(Cow::Owned(unit))
    }
}

struct InlineCtx<'a> {
    caller: Ident,
    caller_table: SymbolTable,
    callees: Callees<'a>,
    graph: &'a CallGraph,
    h: &'a Heuristics,
    report: &'a mut ConvReport,
    fresh: &'a mut FreshNames,
    /// Declarations to add to the caller (renamed callee locals, COMMONs).
    new_decls: Vec<Decl>,
    /// Caller arrays that must be linearized after the walk.
    linearize: Vec<Ident>,
}

impl<'a> InlineCtx<'a> {
    fn walk_block(&mut self, block: Block, in_loop: bool) -> Block {
        let mut out = Vec::with_capacity(block.len());
        for mut s in block {
            match s.kind {
                StmtKind::Call { ref name, ref args } => {
                    let callee = self.callees.get(name.as_str());
                    match check(name, callee.as_deref(), in_loop, self.graph, self.h) {
                        Ok(()) => {
                            let callee = callee.expect("check accepts only a defined callee");
                            match self.expand(&callee, args) {
                                Ok(body) => {
                                    self.report
                                        .inlined
                                        .push((self.caller.clone(), name.clone()));
                                    out.extend(body);
                                }
                                Err(reason) => {
                                    self.report.skipped.push((
                                        self.caller.clone(),
                                        name.clone(),
                                        reason,
                                    ));
                                    out.push(s);
                                }
                            }
                        }
                        Err(reason) => {
                            self.report
                                .skipped
                                .push((self.caller.clone(), name.clone(), reason));
                            out.push(s);
                        }
                    }
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let then_blk = self.walk_block(then_blk, in_loop);
                    let else_blk = self.walk_block(else_blk, in_loop);
                    s.kind = StmtKind::If {
                        cond,
                        then_blk,
                        else_blk,
                    };
                    out.push(s);
                }
                StmtKind::Do(mut d) => {
                    d.body = self.walk_block(std::mem::take(&mut d.body), true);
                    s.kind = StmtKind::Do(d);
                    out.push(s);
                }
                _ => out.push(s),
            }
        }
        out
    }

    /// Expand one call site: returns the substituted callee body.
    fn expand(&mut self, callee: &ProcUnit, args: &[Expr]) -> Result<Block, SkipReason> {
        if args.len() != callee.params.len() {
            return Err(SkipReason::External); // arity mismatch: treat as opaque
        }
        let table = SymbolTable::build(callee);

        // Build the substitution plan per formal parameter.
        enum Plan {
            /// Replace Var(F) by the expression (scalars).
            Scalar(Expr),
            /// Rename the array base (shape-compatible pass-through).
            Rename(Ident),
            /// Flatten: F(i1..im) → base(offset + Σ (i_k − 1)·stride_k).
            Flatten {
                base: Ident,
                offset: Expr,
                strides: Vec<Expr>,
            },
        }

        // Scalar formal → actual map, needed to instantiate dimension
        // expressions (e.g. `M1(L,N)` with actual `L = 4` or `L = NDIM`).
        let mut scalar_map: BTreeMap<Ident, Expr> = BTreeMap::new();
        for (f, a) in callee.params.iter().zip(args) {
            if !table.get_or_implicit(f).is_array() {
                scalar_map.insert(f.clone(), a.clone());
            }
        }
        let instantiate = |e: &Expr| -> Expr {
            let mut e = e.clone();
            e.rewrite(&mut |node| {
                if let Expr::Var(v) = node {
                    if let Some(a) = scalar_map.get(v) {
                        *node = a.clone();
                    }
                }
            });
            fold_expr(&mut e);
            e
        };
        let instantiate_dims = |dims: &[Dim]| -> Vec<Dim> {
            dims.iter()
                .map(|d| match d {
                    Dim::Extent(e) => Dim::Extent(instantiate(e)),
                    Dim::Assumed => Dim::Assumed,
                })
                .collect()
        };

        let mut plans: BTreeMap<Ident, Plan> = BTreeMap::new();
        for (f, a) in callee.params.iter().zip(args) {
            let sym = table.get_or_implicit(f);
            if !sym.is_array() {
                plans.insert(f.clone(), Plan::Scalar(a.clone()));
                continue;
            }
            // Array formal.
            match a {
                Expr::Var(base) => {
                    // Whole-array actual. Shape-compatible if ranks match and
                    // each formal extent is assumed or structurally equal to
                    // some constant — we approximate Polaris by accepting
                    // rank-1-to-rank-1 and identical-rank passes whose formal
                    // dims are all assumed; anything else linearizes.
                    let compatible =
                        sym.dims.iter().all(|d| matches!(d, Dim::Assumed)) || sym.dims.len() == 1;
                    if compatible {
                        plans.insert(f.clone(), Plan::Rename(base.clone()));
                    } else {
                        // Reshape: linearize both sides.
                        let strides = formal_strides(&instantiate_dims(&sym.dims));
                        self.linearize.push(base.clone());
                        plans.insert(
                            f.clone(),
                            Plan::Flatten {
                                base: base.clone(),
                                offset: Expr::int(1),
                                strides,
                            },
                        );
                    }
                }
                Expr::Index(base, subs) => {
                    // Array-element actual: the formal aliases a region at an
                    // indirect offset. Rank-1 caller arrays keep their
                    // declaration; higher-rank callers get linearized and the
                    // offset becomes the element's linear index in the
                    // caller's (original) shape.
                    let offset = if subs.len() == 1 {
                        instantiate(&subs[0])
                    } else {
                        let Some(csym) = self.caller_table.get(base) else {
                            return Err(SkipReason::External);
                        };
                        if csym.dims.len() != subs.len() {
                            return Err(SkipReason::External);
                        }
                        let cstrides = formal_strides(&csym.dims);
                        let mut lin = Expr::int(1);
                        for (e, stride) in subs.iter().zip(&cstrides) {
                            lin = Expr::add(
                                lin,
                                Expr::mul(Expr::sub(e.clone(), Expr::int(1)), stride.clone()),
                            );
                        }
                        fold_expr(&mut lin);
                        self.linearize.push(base.clone());
                        lin
                    };
                    let strides = formal_strides(&instantiate_dims(&sym.dims));
                    plans.insert(
                        f.clone(),
                        Plan::Flatten {
                            base: base.clone(),
                            offset,
                            strides,
                        },
                    );
                }
                _ => return Err(SkipReason::External), // non-lvalue for array formal
            }
        }

        // Rename callee locals to fresh caller names and register decls.
        let mut renames: BTreeMap<Ident, Ident> = BTreeMap::new();
        for s in table.iter() {
            match &s.storage {
                Storage::Local => {
                    let fresh = self.fresh.next(&s.name);
                    if s.is_array() {
                        self.new_decls.push(Decl::Var(VarDecl {
                            name: fresh.clone(),
                            ty: Some(s.ty),
                            dims: s.dims.clone(),
                        }));
                    } else if s.ty != Type::implicit_for(&fresh) {
                        self.new_decls.push(Decl::Var(VarDecl {
                            name: fresh.clone(),
                            ty: Some(s.ty),
                            dims: vec![],
                        }));
                    }
                    renames.insert(s.name.clone(), fresh);
                }
                Storage::Common(_) | Storage::Formal(_) | Storage::Param => {}
            }
        }
        // Import the callee's COMMON declarations (shared storage must stay
        // shared — the caller may not declare the block yet).
        for d in &callee.decls {
            if let Decl::Common { block, .. } = d {
                if !block.is_empty() {
                    self.new_decls.push(d.clone());
                }
            }
        }

        // Clone and rewrite the body.
        let mut body = callee.body.clone();
        // Drop a single trailing RETURN (heuristics rejected early returns).
        if matches!(body.last().map(|s| &s.kind), Some(StmtKind::Return)) {
            body.pop();
        }
        fir::visit::rewrite_exprs(&mut body, &mut |e| {
            // Local renames first (they apply to Var and Index bases).
            match e {
                Expr::Var(n) => {
                    if let Some(r) = renames.get(n) {
                        *n = r.clone();
                        return;
                    }
                }
                Expr::Index(n, _) | Expr::Section(n, _) => {
                    if let Some(r) = renames.get(n) {
                        *n = r.clone();
                    }
                }
                _ => {}
            }
            // Parameter plans.
            match e {
                Expr::Var(n) => {
                    if let Some(Plan::Scalar(a)) = plans.get(n) {
                        *e = a.clone();
                    } else if let Some(Plan::Rename(base)) = plans.get(n) {
                        *e = Expr::Var(base.clone());
                    } else if let Some(Plan::Flatten { base, offset, .. }) = plans.get(n) {
                        // Whole-array use of a flattened formal: refer to the
                        // base at its offset (rare; conservative).
                        *e = Expr::idx(base.clone(), vec![offset.clone()]);
                    }
                }
                Expr::Index(n, subs) => match plans.get(n) {
                    Some(Plan::Rename(base)) => {
                        *n = base.clone();
                    }
                    Some(Plan::Flatten {
                        base,
                        offset,
                        strides,
                    }) => {
                        let mut lin = offset.clone();
                        for (k, sub) in subs.iter().enumerate() {
                            let stride = strides.get(k).cloned().unwrap_or(Expr::int(1));
                            lin = Expr::add(
                                lin,
                                Expr::mul(Expr::sub(sub.clone(), Expr::int(1)), stride),
                            );
                        }
                        fold_expr(&mut lin);
                        *e = Expr::idx(base.clone(), vec![lin]);
                    }
                    _ => {}
                },
                _ => {}
            }
        });

        // Rename loop variables too (they are locals).
        fir::visit::walk_loops_mut(&mut body, &mut |d| {
            if let Some(r) = renames.get(&d.var) {
                d.var = r.clone();
            }
        });

        Ok(body)
    }
}

/// Strides of a formal array from its declared dimension list: stride of
/// dim k is the product of extents of dims 0..k. Assumed-size dims only
/// appear last, where no stride is needed.
fn formal_strides(dims: &[Dim]) -> Vec<Expr> {
    let mut strides = Vec::with_capacity(dims.len());
    let mut acc = Expr::int(1);
    for d in dims {
        strides.push(acc.clone());
        match d {
            Dim::Extent(e) => {
                acc = Expr::mul(acc, e.clone());
                fold_expr(&mut acc);
            }
            Dim::Assumed => {
                // Last dimension: stride never used beyond it.
                acc = Expr::int(0);
            }
        }
    }
    strides
}

/// Linearize every reference to `array` in the unit using its *original*
/// declared extents, and demote its declaration to `array(*)` — "without
/// any explicit shape information" (paper §II-A2).
pub fn linearize_unit_array(unit: &mut ProcUnit, array: &str) {
    let table = SymbolTable::build(unit);
    let Some(sym) = table.get(array) else { return };
    if sym.dims.len() <= 1 {
        return;
    }
    let strides = formal_strides(&sym.dims);

    fir::visit::rewrite_exprs(&mut unit.body, &mut |e| {
        if let Expr::Index(n, subs) = e {
            if n == array && subs.len() == strides.len() {
                let mut lin = Expr::int(1);
                for (k, sub) in subs.iter().enumerate() {
                    lin = Expr::add(
                        lin,
                        Expr::mul(Expr::sub(sub.clone(), Expr::int(1)), strides[k].clone()),
                    );
                }
                fold_expr(&mut lin);
                *e = Expr::idx(array.to_string(), vec![lin]);
            }
        }
    });

    // Demote the declaration to a single dimension. Dummy arguments lose
    // their shape entirely (assumed size, "without any explicit shape
    // information"); local and COMMON arrays must keep their storage, so
    // they become flat arrays of the total element count.
    let flat_dim = match sym.total_elems() {
        Some(n) if !matches!(sym.storage, fir::symbol::Storage::Formal(_)) => {
            vec![Dim::Extent(Expr::int(n))]
        }
        _ => vec![Dim::Assumed],
    };
    for d in &mut unit.decls {
        let vars: &mut Vec<VarDecl> = match d {
            Decl::Var(v) => {
                if v.name == array {
                    v.dims = flat_dim.clone();
                }
                continue;
            }
            Decl::Common { vars, .. } => vars,
            Decl::Param { .. } => continue,
        };
        for v in vars {
            if v.name == array {
                v.dims = flat_dim.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;
    use fir::printer::print_program;

    fn inline_src(src: &str, h: &Heuristics) -> (Program, ConvReport) {
        let mut p = parse(src).unwrap();
        let r = inline_program(&mut p, h);
        (p, r)
    }

    #[test]
    fn scalar_params_substituted() {
        let (p, r) = inline_src(
            "      PROGRAM MAIN
      DIMENSION A(10)
      DO I = 1, 10
        CALL SETV(A(I), I)
      ENDDO
      END
      SUBROUTINE SETV(X, K)
      X = K*2
      END
",
            &Heuristics::polaris(),
        );
        assert_eq!(r.inlined.len(), 1);
        let out = print_program(&p);
        assert!(out.contains("A(I) = I*2"), "{out}");
        // SETV had its only call site inlined: dead-procedure elimination.
        assert!(p.unit("SETV").is_none());
        assert_eq!(r.removed_units, vec!["SETV".to_string()]);
    }

    #[test]
    fn indirect_element_actual_creates_subscripted_subscripts() {
        // The PCINIT pathology (paper Figs. 2-3).
        let (p, _r) = inline_src(
            "      PROGRAM MAIN
      COMMON /BLK/ T(10000), IX(20)
      DO K = 1, 10
        CALL PCINIT(T(IX(7)), T(IX(8)))
      ENDDO
      END
      SUBROUTINE PCINIT(X2, Y2)
      DIMENSION X2(*), Y2(*)
      DO I = 1, 100
        X2(I) = Y2(I)*2.0
      ENDDO
      END
",
            &Heuristics::polaris(),
        );
        let out = print_program(&p);
        assert!(out.contains("T(IX(7) + (I"), "{out}");
        assert!(out.contains("T(IX(8) + (I"), "{out}");
    }

    #[test]
    fn reshape_linearizes_caller_and_callee() {
        // The MATMLT pathology (paper Figs. 4-5).
        let (p, r) = inline_src(
            "      PROGRAM MAIN
      DIMENSION PP(4, 4, 15), TM1(4, 4)
      DO KS = 1, 15
        CALL MATMLT(PP(1, 1, KS), TM1(1, 1), 4, 4)
      ENDDO
      TM1(2, 3) = 0.0
      END
      SUBROUTINE MATMLT(M1, M3, L, N)
      DIMENSION M1(L, N), M3(L, N)
      DO JN = 1, N
        DO JL = 1, L
          M3(JL, JN) = M1(JL, JN)
        ENDDO
      ENDDO
      END
",
            &Heuristics::polaris(),
        );
        let out = print_program(&p);
        // Caller declarations demoted to flat single-dimension storage.
        assert!(out.contains("PP(240)"), "{out}");
        assert!(out.contains("TM1(16)"), "{out}");
        // Caller's own reference linearized with the old constant extents:
        // TM1(2,3) → TM1(1 + (2-1)*1 + (3-1)*4) = TM1(10).
        assert!(out.contains("TM1(10)"), "{out}");
        // Inlined body indexes the flat arrays with the formal's strides
        // (loop variables are renamed with an _I suffix by the inliner).
        assert!(out.contains("TM1(1 + (JL"), "{out}");
        assert!(out.contains(" - 1)*4)"), "{out}");
        assert!(r.linearized.iter().any(|(_, a)| a == "PP"));
    }

    #[test]
    fn locals_are_renamed_and_declared() {
        let (p, _) = inline_src(
            "      PROGRAM MAIN
      DIMENSION A(10)
      DO I = 1, 10
        CALL W(A(I))
      ENDDO
      END
      SUBROUTINE W(X)
      DIMENSION TMP(4)
      TMP(1) = 1.0
      X = TMP(1)
      END
",
            &Heuristics::polaris(),
        );
        let out = print_program(&p);
        assert!(out.contains("TMP_I"), "{out}");
        // The renamed temp array keeps a declaration in the caller.
        let main = p.unit("MAIN").unwrap();
        let decls = format!("{:?}", main.decls);
        assert!(decls.contains("TMP_I"), "{decls}");
    }

    #[test]
    fn commons_are_imported() {
        let (p, _) = inline_src(
            "      PROGRAM MAIN
      DIMENSION A(10)
      DO I = 1, 10
        CALL G(A(I))
      ENDDO
      END
      SUBROUTINE G(X)
      COMMON /GEOM/ XY(2, 100)
      X = XY(1, 1)
      END
",
            &Heuristics::polaris(),
        );
        let main = p.unit("MAIN").unwrap();
        assert!(main
            .decls
            .iter()
            .any(|d| matches!(d, Decl::Common { block, .. } if block == "GEOM")));
    }

    #[test]
    fn skipped_sites_keep_their_calls() {
        let (p, r) = inline_src(
            "      PROGRAM MAIN
      DO I = 1, 10
        CALL BIGIO(I)
      ENDDO
      END
      SUBROUTINE BIGIO(I)
      WRITE(6,*) I
      END
",
            &Heuristics::polaris(),
        );
        assert!(r.inlined.is_empty());
        assert_eq!(r.skipped.len(), 1);
        assert!(p.unit("BIGIO").is_some());
        let out = print_program(&p);
        assert!(out.contains("CALL BIGIO(I)"), "{out}");
    }

    #[test]
    fn call_outside_loop_not_inlined_by_default() {
        let (_, r) = inline_src(
            "      PROGRAM MAIN
      CALL S(1)
      END
      SUBROUTINE S(I)
      X = I
      END
",
            &Heuristics::polaris(),
        );
        assert!(r.inlined.is_empty());
        assert!(matches!(r.skipped[0].2, SkipReason::NotInLoop));
    }

    #[test]
    fn aggressive_policy_inlines_chains() {
        let (p, r) = inline_src(
            "      PROGRAM MAIN
      CALL OUTER(1)
      END
      SUBROUTINE OUTER(I)
      CALL INNER(I)
      END
      SUBROUTINE INNER(I)
      Y = I
      END
",
            &Heuristics::aggressive(),
        );
        assert_eq!(r.inlined.len(), 2);
        assert!(p.unit("OUTER").is_none());
        assert!(p.unit("INNER").is_none());
    }

    #[test]
    fn loop_ids_survive_inlining() {
        let (p, _) = inline_src(
            "      PROGRAM MAIN
      DIMENSION A(100)
      DO I = 1, 10
        CALL F(A(1))
      ENDDO
      END
      SUBROUTINE F(X)
      DIMENSION X(*)
      DO J = 1, 100
        X(J) = 0.0
      ENDDO
      END
",
            &Heuristics::polaris(),
        );
        let mut ids = Vec::new();
        fir::visit::walk_loops(&p.unit("MAIN").unwrap().body, &mut |d| {
            ids.push(d.id.clone())
        });
        assert!(ids.contains(&LoopId::new("MAIN", 1)));
        assert!(
            ids.contains(&LoopId::new("F", 1)),
            "callee loop id preserved: {ids:?}"
        );
    }
}
