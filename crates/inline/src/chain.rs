//! Chain-aware annotation generation: autogen over the call graph.
//!
//! [`crate::autogen`] summarizes *leaf* subroutines. This module lifts its
//! `MakesCalls` refusal: it builds a [`CallGraph`] over the program,
//! processes strongly connected components in reverse topological
//! (callee-first) order, and when summarizing a caller substitutes each
//! callee's already-derived [`AnnotSub`] summary in place of the `CALL` —
//! so FSMP-class call chains, the exact case where annotation-based
//! inlining beats conventional inlining in the paper's Table II, can be
//! summarized without hand-written annotations when their structure
//! permits it.
//!
//! # The summary algebra
//!
//! A derived summary is a sequence of *summary items* in original
//! statement order. Order is load-bearing: re-summarizing a substituted
//! body as one flat region set would see a callee's `TWORK = unknown(MB)`
//! followed by a read of `TWORK` and fold them into the self-dependent
//! `TWORK = unknown(TWORK, MB)`, destroying the privatization the
//! substitution was meant to expose. Instead, composition keeps the
//! callee's summary verbatim and summarizes the caller's own statements
//! around it:
//!
//! * **`CALL` at top level** — the callee's summary is instantiated with
//!   the actual arguments ([`annot_inline::instantiate`]) and passed
//!   through statement by statement. `unknown`/`unique` operator ids are
//!   renumbered into the caller's id space through a per-`(callee, id)`
//!   map, so two calls to the same callee keep denoting the same internal
//!   function (the property the dependence tests exploit). Any
//!   substituted right-hand side that is *not* an operator application or
//!   a literal is **widened** to a fresh `unknown` over its visible reads
//!   — substitution may lose linearity, never soundness.
//! * **own statement** — flat-summarized like a leaf body
//!   (`autogen::emit_write_summaries`), with the operand pool of the
//!   whole original body (over-naming reads is conservative).
//! * **`DO` containing calls** — callee summaries are substituted inside,
//!   then the whole loop is flat-summarized; this works because summaries
//!   are already in region normal form. Content that resists flat
//!   re-summarization (`unique` temporaries, guarded writes) refuses.
//! * **`IF` containing calls** — refused as
//!   [`AutoGenRefusal::GuardedCall`]: whether the callee's side effects
//!   happen at all is data-dependent, and a summary stating them
//!   unconditionally would over-claim the kill set. (Manual annotations
//!   express this with a summary `if` — paper Fig. 13 — using developer
//!   knowledge the derivation does not have.)
//!
//! Recursion ([`AutoGenRefusal::Recursive`]), undefined callees without a
//! manual annotation ([`AutoGenRefusal::UnresolvedExternal`]), and refused
//! callees without a fallback ([`AutoGenRefusal::CalleeUnsummarized`])
//! refuse with the call-site location. The full taxonomy, with one MiniF77
//! example per refusal, is documented in `docs/annotation-language.md`.

use crate::annot::{AnnotRegistry, AnnotSub};
use crate::annot_inline;
use crate::autogen::{self, AutoGenOptions, AutoGenRefusal};
use fdep::callgraph::CallGraph;
use fir::ast::*;
use fir::loc::Span;
use fir::symbol::SymbolTable;
use std::collections::{BTreeMap, BTreeSet};

/// How one call site is covered after chain-aware generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// The callee has a derived (auto-generated) summary.
    Auto,
    /// The callee has only a manual annotation (derivation refused it).
    Manual,
    /// The callee has neither — the call stays opaque.
    Refused,
}

/// One call site with its coverage classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Unit containing the call.
    pub caller: Ident,
    /// Called subroutine.
    pub callee: Ident,
    /// Call-site location.
    pub span: Span,
    /// Coverage class.
    pub class: SiteClass,
}

/// Everything chain-aware generation produced for one program.
#[derive(Debug, Clone, Default)]
pub struct ChainReport {
    /// Final registry: every derived summary, with the manual annotations
    /// kept as fallback for the subroutines derivation refused.
    pub registry: AnnotRegistry,
    /// Subroutines with a derived summary (leaf and chain), sorted.
    pub derived: Vec<Ident>,
    /// The subset of `derived` that made calls — summarized by
    /// substitution, the new capability.
    pub chain_derived: Vec<Ident>,
    /// Refused subroutines that fell back to a manual annotation.
    pub manual_fallback: Vec<Ident>,
    /// Per-unit refusals, in bottom-up processing order.
    pub refusals: Vec<(Ident, AutoGenRefusal)>,
    /// `(caller, written name)` pairs whose substituted right-hand side
    /// was widened to a fresh `unknown`.
    pub widened: Vec<(Ident, Ident)>,
    /// Every call site in the program, classified.
    pub sites: Vec<CallSite>,
}

impl ChainReport {
    /// Call sites whose callee has a derived summary.
    pub fn auto_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.class == SiteClass::Auto)
            .count()
    }

    /// Call sites served by a manual annotation only.
    pub fn manual_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.class == SiteClass::Manual)
            .count()
    }

    /// Call sites left opaque.
    pub fn refused_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.class == SiteClass::Refused)
            .count()
    }
}

/// Derive summaries for every subroutine reachable in `p`, bottom-up over
/// the call graph, substituting already-derived (or, failing that, manual)
/// callee summaries at call sites. Never fails: refused units are recorded
/// and fall back to their manual annotation when one exists.
pub fn generate_with_chains(
    p: &Program,
    manual: &AnnotRegistry,
    opts: &AutoGenOptions,
) -> ChainReport {
    let graph = CallGraph::build(p);
    let defined: BTreeSet<&str> = p
        .units
        .iter()
        .filter(|u| u.kind == UnitKind::Subroutine)
        .map(|u| u.name.as_str())
        .collect();

    let mut derived = AnnotRegistry::default();
    let mut chain_derived = Vec::new();
    let mut refusals: Vec<(Ident, AutoGenRefusal)> = Vec::new();
    let mut widened: Vec<(Ident, Ident)> = Vec::new();
    // Operator provenance: `(sub, op id in that sub's summary)` → the
    // `(unit, id)` the operator originally denoted. Absent = originated in
    // `sub` itself. Renumbering keys on the *root*, so a shared callee's
    // operator keeps a single identity in a caller even when it arrives
    // through two different intermediate summaries (diamond call graphs).
    let mut origins: BTreeMap<(Ident, u32), (Ident, u32)> = BTreeMap::new();

    for comp in graph.sccs() {
        // A recursion cluster (multi-node SCC or self-loop) cannot bottom
        // out; refuse every subroutine in it, located at its first
        // in-cycle call.
        let cyclic = comp.len() > 1 || graph.callees(&comp[0]).iter().any(|c| *c == comp[0]);
        for name in &comp {
            let Some(unit) = p.unit(name) else { continue };
            if unit.kind != UnitKind::Subroutine {
                continue;
            }
            if cyclic {
                let span = autogen::called_sites(&unit.body)
                    .into_iter()
                    .find(|(c, _)| comp.iter().any(|m| m == c))
                    .map(|(_, sp)| sp)
                    .unwrap_or(unit.span);
                refusals.push((
                    name.clone(),
                    AutoGenRefusal::Recursive {
                        cycle: comp.clone(),
                        span,
                    },
                ));
                continue;
            }
            match derive_unit(
                unit,
                &defined,
                &derived,
                manual,
                opts,
                &origins,
                &mut widened,
            ) {
                Ok((sub, was_chain, new_origins)) => {
                    if was_chain {
                        chain_derived.push(name.clone());
                    }
                    for (id, root) in new_origins {
                        origins.insert((name.clone(), id), root);
                    }
                    derived.subs.insert(name.clone(), sub);
                }
                Err(r) => refusals.push((name.clone(), r)),
            }
        }
    }

    let manual_fallback: Vec<Ident> = refusals
        .iter()
        .map(|(n, _)| n.clone())
        .filter(|n| manual.get(n).is_some())
        .collect();

    // Final registry: manual annotations as the base, derived summaries on
    // top (a successful derivation is preferred — it is exactly what the
    // implementation does, while a manual annotation may encode §III-B4
    // developer knowledge the runtime testers cannot check).
    let mut registry = manual.clone();
    for (n, sub) in &derived.subs {
        registry.subs.insert(n.clone(), sub.clone());
    }

    // Classify every call site by its callee's coverage.
    let mut sites = Vec::new();
    for u in &p.units {
        for (callee, span) in autogen::called_sites(&u.body) {
            let class = if derived.get(&callee).is_some() {
                SiteClass::Auto
            } else if manual.get(&callee).is_some() {
                SiteClass::Manual
            } else {
                SiteClass::Refused
            };
            sites.push(CallSite {
                caller: u.name.clone(),
                callee,
                span,
                class,
            });
        }
    }

    let derived_names = derived.subs.keys().cloned().collect();
    ChainReport {
        registry,
        derived: derived_names,
        chain_derived,
        manual_fallback,
        refusals,
        widened,
        sites,
    }
}

/// Provenance records produced while deriving one unit: new operator id
/// in this summary → the root `(unit, id)` it denotes.
type NewOrigins = BTreeMap<u32, (Ident, u32)>;

/// Derive one unit's summary; the bool is true when the unit made calls
/// (chain composition ran rather than the leaf path); the map records the
/// provenance of every operator id the composition renumbered in.
fn derive_unit(
    unit: &ProcUnit,
    defined: &BTreeSet<&str>,
    derived: &AnnotRegistry,
    manual: &AnnotRegistry,
    opts: &AutoGenOptions,
    origins: &BTreeMap<(Ident, u32), (Ident, u32)>,
    widened: &mut Vec<(Ident, Ident)>,
) -> Result<(AnnotSub, bool, NewOrigins), AutoGenRefusal> {
    let mut body = unit.body.clone();
    if opts.relax_error_handling {
        autogen::strip_error_handlers(&mut body);
    }
    if autogen::called_sites(&body).is_empty() {
        return autogen::generate(unit, opts).map(|s| (s, false, BTreeMap::new()));
    }
    autogen::check_io_and_return(&body)?;

    let table = SymbolTable::build(unit);
    // Shared own-item operand pool: every visible read of the whole
    // original body. Over-naming a read is conservative (it can only add
    // dependences); per-item pools would *miss* reads routed through local
    // temporaries.
    let pool = {
        let visible = autogen::visible_in(&table);
        let whole = autogen::collect_body_refs(&body, &table);
        autogen::operand_pool(&whole, &visible, opts)?
    };

    let mut cx = Composer {
        table: &table,
        defined,
        derived,
        manual,
        opts,
        pool,
        origins,
        new_origins: BTreeMap::new(),
        op_map: BTreeMap::new(),
        next_op: 0,
        dims: BTreeMap::new(),
        types: BTreeMap::new(),
        allowed: BTreeSet::new(),
        loop_vars: Vec::new(),
        widened: Vec::new(),
    };

    let mut out_body: Block = Vec::new();
    cx.compose(&body, &mut out_body)?;

    // Shapes for formal arrays that are only read also matter.
    for pname in &unit.params {
        if let Some(sym) = table.get(pname) {
            if sym.is_array() {
                cx.dims
                    .entry(pname.clone())
                    .or_insert_with(|| sym.dims.clone());
            }
        }
    }

    widened.extend(cx.widened.iter().map(|v| (unit.name.clone(), v.clone())));
    let (dims, types, new_origins) = (cx.dims, cx.types, cx.new_origins);
    Ok((
        AnnotSub {
            name: unit.name.clone(),
            params: unit.params.clone(),
            dims,
            types,
            body: out_body,
        },
        true,
        new_origins,
    ))
}

/// State threaded through one unit's chain composition.
struct Composer<'a> {
    table: &'a SymbolTable,
    defined: &'a BTreeSet<&'a str>,
    derived: &'a AnnotRegistry,
    manual: &'a AnnotRegistry,
    opts: &'a AutoGenOptions,
    /// Whole-body operand pool for own-statement summarization.
    pool: Vec<Expr>,
    /// Global operator provenance from already-derived summaries.
    origins: &'a BTreeMap<(Ident, u32), (Ident, u32)>,
    /// Provenance of this unit's renumbered ids (fresh flat-summary ids
    /// originate here and need no entry).
    new_origins: BTreeMap<u32, (Ident, u32)>,
    /// Root `(unit, op id)` → caller op id: repeated occurrences of the
    /// same original operator must keep sharing one id, even when they
    /// arrive through different intermediate summaries.
    op_map: BTreeMap<(Ident, u32), u32>,
    next_op: u32,
    dims: BTreeMap<Ident, Vec<Dim>>,
    types: BTreeMap<Ident, Type>,
    /// Names bound *inside* the summary so far (pass-through assignment
    /// targets, summary loop variables): legal in later region bounds.
    allowed: BTreeSet<Ident>,
    /// Caller `DO` variables currently in scope during nested
    /// substitution; legal in substituted region bounds because the
    /// subsequent flat re-summarization converts them to ranges (or
    /// refuses itself).
    loop_vars: Vec<Ident>,
    /// Names whose substituted RHS was widened to a fresh `unknown`.
    widened: Vec<Ident>,
}

impl Composer<'_> {
    /// Compose a sequence of top-level items in order.
    fn compose(&mut self, items: &Block, out: &mut Block) -> Result<(), AutoGenRefusal> {
        for s in items {
            match &s.kind {
                StmtKind::Call { name, args } => {
                    let sub = self.resolve(name, s.span)?;
                    let inst = annot_inline::instantiate(&sub, args);
                    self.absorb_decls(&sub);
                    self.pass_through(inst, &sub.name, out)?;
                }
                StmtKind::If { .. } if stmt_has_call(s) => {
                    let (callee, span) = first_call(s);
                    return Err(AutoGenRefusal::GuardedCall { callee, span });
                }
                StmtKind::Do(_) if stmt_has_call(s) => {
                    let mut item = s.clone();
                    self.substitute_stmt(&mut item)?;
                    self.flat_item(&item, out)?;
                }
                StmtKind::Return => {} // trailing RETURN
                _ => self.flat_item(s, out)?,
            }
        }
        Ok(())
    }

    /// Look up a callee's summary: derived first, manual second.
    fn resolve(&self, name: &str, span: Span) -> Result<AnnotSub, AutoGenRefusal> {
        if let Some(s) = self.derived.get(name) {
            return Ok(s.clone());
        }
        if let Some(s) = self.manual.get(name) {
            return Ok(s.clone());
        }
        if self.defined.contains(name) {
            Err(AutoGenRefusal::CalleeUnsummarized {
                callee: name.into(),
                span,
            })
        } else {
            Err(AutoGenRefusal::UnresolvedExternal {
                callee: name.into(),
                span,
            })
        }
    }

    /// Merge a callee summary's global declarations (non-param dims and
    /// types) into the derived summary, so the annotation inliner can
    /// declare them at the eventual call site.
    fn absorb_decls(&mut self, sub: &AnnotSub) {
        for (n, d) in &sub.dims {
            if !sub.is_param(n) {
                self.dims.entry(n.clone()).or_insert_with(|| d.clone());
            }
        }
        for (n, t) in &sub.types {
            if !sub.is_param(n) {
                self.types.entry(n.clone()).or_insert(*t);
            }
        }
    }

    /// Pass an instantiated callee summary through into the derived body:
    /// operator ids renumbered, non-operator right-hand sides widened,
    /// region bounds checked for caller-site meaning.
    fn pass_through(
        &mut self,
        block: Block,
        callee: &str,
        out: &mut Block,
    ) -> Result<(), AutoGenRefusal> {
        for s in block {
            let Stmt { kind, span, label } = s;
            match kind {
                StmtKind::Assign { mut lhs, rhs } => {
                    let rhs = self.transfer_rhs(rhs, callee, base_name(&lhs));
                    self.renumber_ops_in(&mut lhs, callee);
                    self.check_region_bounds(&lhs)?;
                    if let Some(b) = base_name(&lhs) {
                        self.allowed.insert(b.into());
                    }
                    out.push(Stmt {
                        kind: StmtKind::Assign { lhs, rhs },
                        span,
                        label,
                    });
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    // A summary `if` (manual fallback annotations may have
                    // them) passes through with both branches composed.
                    let mut t = Vec::new();
                    let mut e = Vec::new();
                    self.pass_through(then_blk, callee, &mut t)?;
                    self.pass_through(else_blk, callee, &mut e)?;
                    out.push(Stmt {
                        kind: StmtKind::If {
                            cond,
                            then_blk: t,
                            else_blk: e,
                        },
                        span,
                        label,
                    });
                }
                StmtKind::Do(mut d) => {
                    // Summary loop skeleton: the loop variable is bound by
                    // the summary itself and legal in nested bounds.
                    self.allowed.insert(d.var.clone());
                    let inner = std::mem::take(&mut d.body);
                    let mut nb = Vec::new();
                    self.pass_through(inner, callee, &mut nb)?;
                    d.body = nb;
                    out.push(Stmt {
                        kind: StmtKind::Do(d),
                        span,
                        label,
                    });
                }
                StmtKind::Continue | StmtKind::Return => {}
                other => out.push(Stmt {
                    kind: other,
                    span,
                    label,
                }),
            }
        }
        Ok(())
    }

    /// Renumber a callee operator id into the caller's id space, keyed by
    /// the operator's *root* origin so identity survives diamonds.
    fn renumber(&mut self, callee: &str, id: u32) -> u32 {
        let key = (Ident::from(callee), id);
        let root = self.origins.get(&key).cloned().unwrap_or(key);
        if let Some(v) = self.op_map.get(&root) {
            *v
        } else {
            self.next_op += 1;
            self.op_map.insert(root.clone(), self.next_op);
            self.new_origins.insert(self.next_op, root);
            self.next_op
        }
    }

    /// Renumber every operator id occurring *inside* an expression (LHS
    /// subscripts carry `unique`/`unknown` after instantiation too).
    fn renumber_ops_in(&mut self, e: &mut Expr, callee: &str) {
        match e {
            Expr::Unique(id, ops) | Expr::Unknown(id, ops) => {
                *id = self.renumber(callee, *id);
                for o in ops {
                    self.renumber_ops_in(o, callee);
                }
            }
            Expr::Index(_, subs) | Expr::Intrinsic(_, subs) => {
                for s in subs {
                    self.renumber_ops_in(s, callee);
                }
            }
            Expr::Section(_, secs) => {
                for sec in secs {
                    match sec {
                        SecRange::At(x) => self.renumber_ops_in(x, callee),
                        SecRange::Range { lo, hi, step } => {
                            for b in [lo, hi, step].into_iter().flatten() {
                                self.renumber_ops_in(b, callee);
                            }
                        }
                        SecRange::Full => {}
                    }
                }
            }
            Expr::Bin(_, a, b) => {
                self.renumber_ops_in(a, callee);
                self.renumber_ops_in(b, callee);
            }
            Expr::Un(_, a) => self.renumber_ops_in(a, callee),
            _ => {}
        }
    }

    /// Carry a substituted RHS into the caller's summary: operator
    /// applications are renumbered, literals pass verbatim, anything else
    /// is widened to a fresh `unknown` over its visible reads.
    fn transfer_rhs(&mut self, rhs: Expr, callee: &str, lhs_base: Option<&str>) -> Expr {
        match rhs {
            Expr::Unknown(id, mut ops) => {
                let id = self.renumber(callee, id);
                for o in &mut ops {
                    self.renumber_ops_in(o, callee);
                }
                Expr::Unknown(id, ops)
            }
            Expr::Unique(id, mut ops) => {
                let id = self.renumber(callee, id);
                for o in &mut ops {
                    self.renumber_ops_in(o, callee);
                }
                Expr::Unique(id, ops)
            }
            Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) => rhs,
            other => {
                if let Some(b) = lhs_base {
                    self.widened.push(b.into());
                }
                let reads = reads_of(&other);
                self.next_op += 1;
                Expr::Unknown(self.next_op, reads)
            }
        }
    }

    /// A pass-through region bound must mean something at the caller's
    /// call sites: caller-visible names, caller parameter constants,
    /// names bound by the summary itself, and names the summary declares.
    fn check_region_bounds(&self, lhs: &Expr) -> Result<(), AutoGenRefusal> {
        let exprs: Vec<&Expr> = match lhs {
            Expr::Index(_, subs) => subs.iter().collect(),
            Expr::Section(_, secs) => {
                let mut v = Vec::new();
                for sec in secs {
                    match sec {
                        SecRange::At(e) => v.push(e),
                        SecRange::Range { lo, hi, step } => {
                            for b in [lo, hi, step].into_iter().flatten() {
                                v.push(b);
                            }
                        }
                        SecRange::Full => {}
                    }
                }
                v
            }
            _ => return Ok(()),
        };
        let visible = autogen::visible_in(self.table);
        let mut bad = false;
        for e in exprs {
            e.walk(&mut |n| {
                if let Expr::Var(v) = n {
                    let ok = visible(v)
                        || self.table.param_value(v).is_some()
                        || self.allowed.contains(v.as_str())
                        || self.loop_vars.iter().any(|lv| lv == v)
                        || self.dims.contains_key(v.as_str())
                        || self.types.contains_key(v.as_str());
                    if !ok {
                        bad = true;
                    }
                }
            });
        }
        if bad {
            Err(AutoGenRefusal::UnrepresentableRegion(
                base_name(lhs).unwrap_or("<section>").into(),
            ))
        } else {
            Ok(())
        }
    }

    /// Substitute callee summaries in place of `CALL`s *inside* a nested
    /// statement (a `DO` item about to be flat-summarized). Calls under an
    /// `IF` refuse — the write set would be data-dependent.
    fn substitute_stmt(&mut self, s: &mut Stmt) -> Result<(), AutoGenRefusal> {
        match &mut s.kind {
            StmtKind::Do(d) => {
                self.loop_vars.push(d.var.clone());
                let body = std::mem::take(&mut d.body);
                let res = self.substitute_block(body);
                self.loop_vars.pop();
                d.body = res?;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn substitute_block(&mut self, block: Block) -> Result<Block, AutoGenRefusal> {
        let mut out = Vec::with_capacity(block.len());
        for mut s in block {
            if let StmtKind::Call { name, args } = &s.kind {
                let sub = self.resolve(name, s.span)?;
                self.absorb_decls(&sub);
                let inst = annot_inline::instantiate(&sub, args);
                // Renumbered pass-through keeps operator identity
                // consistent with top-level substitutions of the same
                // callee (flat re-summarization below reads through the
                // operators either way).
                let mut nb = Vec::new();
                self.pass_through(inst, &sub.name, &mut nb)?;
                out.extend(nb);
                continue;
            }
            if matches!(s.kind, StmtKind::If { .. }) && stmt_has_call(&s) {
                let (callee, span) = first_call(&s);
                return Err(AutoGenRefusal::GuardedCall { callee, span });
            }
            if let StmtKind::Do(d) = &mut s.kind {
                self.loop_vars.push(d.var.clone());
                let body = std::mem::take(&mut d.body);
                let res = self.substitute_block(body);
                self.loop_vars.pop();
                d.body = res?;
            }
            out.push(s);
        }
        Ok(out)
    }

    /// Flat-summarize one own statement (leaf semantics, shared pool).
    fn flat_item(&mut self, s: &Stmt, out: &mut Block) -> Result<(), AutoGenRefusal> {
        let body: Block = vec![s.clone()];
        let refs = autogen::collect_body_refs(&body, self.table);
        let visible = autogen::visible_in(self.table);
        // The shared pool plus anything only this item reads (substituted
        // callee content can read names the original body did not).
        let mut pool = self.pool.clone();
        for e in autogen::operand_pool(&refs, &visible, self.opts)? {
            if !pool.contains(&e) {
                pool.push(e);
            }
        }
        if pool.len() > self.opts.max_operands {
            return Err(AutoGenRefusal::UnrepresentableRegion(
                "<operand overflow>".into(),
            ));
        }
        let before = out.len();
        autogen::emit_write_summaries(
            &refs,
            self.table,
            &visible,
            &pool,
            &mut self.next_op,
            out,
            &mut self.dims,
        )?;
        for st in &out[before..] {
            if let StmtKind::Assign { lhs, .. } = &st.kind {
                if let Some(b) = base_name(lhs) {
                    self.allowed.insert(b.into());
                }
            }
        }
        Ok(())
    }
}

/// Base identifier of an assignment target.
fn base_name(lhs: &Expr) -> Option<&str> {
    match lhs {
        Expr::Var(n) | Expr::Index(n, _) | Expr::Section(n, _) => Some(n.as_str()),
        _ => None,
    }
}

/// Distinct visible reads of an expression, as `unknown` operands.
fn reads_of(e: &Expr) -> Vec<Expr> {
    let mut out: Vec<Expr> = Vec::new();
    e.walk(&mut |n| {
        let name = match n {
            Expr::Var(v) => Some(v),
            Expr::Index(b, _) | Expr::Section(b, _) => Some(b),
            _ => None,
        };
        if let Some(v) = name {
            let op = Expr::Var(v.clone());
            if !out.contains(&op) {
                out.push(op);
            }
        }
    });
    out
}

fn stmt_has_call(s: &Stmt) -> bool {
    let b: Block = vec![s.clone()];
    fir::visit::contains_call(&b)
}

fn first_call(s: &Stmt) -> (Ident, Span) {
    let b: Block = vec![s.clone()];
    autogen::called_sites(&b)
        .into_iter()
        .next()
        .unwrap_or_else(|| ("<none>".into(), s.span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    fn chains(src: &str) -> ChainReport {
        chains_with(src, "")
    }

    fn chains_with(src: &str, manual: &str) -> ChainReport {
        let p = parse(src).unwrap();
        let reg = AnnotRegistry::parse(manual).unwrap();
        generate_with_chains(&p, &reg, &AutoGenOptions::default())
    }

    /// The BONDFC idiom (BDNA): caller sequences two leaves through a
    /// shared COMMON scratch array, plus a strippable error handler.
    const BONDFC_LIKE: &str = "      PROGRAM MAIN
      COMMON /WRK/ TWORK(16)
      COMMON /EN/ EBOND(128)
      DO MB = 1, 128
        CALL BONDFC(MB)
      ENDDO
      WRITE(6,*) EBOND(1)
      END
      SUBROUTINE BONDFC(MB)
      COMMON /WRK/ TWORK(16)
      COMMON /EN/ EBOND(128)
      CALL STRETC(MB)
      CALL BENDC(MB)
      IF (EBOND(MB) .GT. 1.0E30) THEN
        WRITE(6,*) 'BOND OVERFLOW'
        STOP 'BOND'
      ENDIF
      END
      SUBROUTINE STRETC(MB)
      COMMON /WRK/ TWORK(16)
      DO K = 1, 16
        TWORK(K) = MB*0.5 + K
      ENDDO
      END
      SUBROUTINE BENDC(MB)
      COMMON /WRK/ TWORK(16)
      COMMON /EN/ EBOND(128)
      E = 0.0
      DO K = 1, 16
        E = E + TWORK(K)
      ENDDO
      EBOND(MB) = E
      END
";

    #[test]
    fn composes_two_leaf_callees_in_sequence() {
        let rep = chains(BONDFC_LIKE);
        assert!(rep.derived.iter().any(|n| n == "BONDFC"), "{rep:?}");
        assert_eq!(rep.chain_derived, vec!["BONDFC".to_string()]);
        let sub = rep.registry.get("BONDFC").unwrap();
        // Sequence preserved: whole-array TWORK kill first, then the
        // EBOND point write reading TWORK — *not* a flat join that would
        // make TWORK read itself.
        assert_eq!(sub.body.len(), 2, "{:?}", sub.body);
        match &sub.body[0].kind {
            StmtKind::Assign {
                lhs: Expr::Var(n),
                rhs: Expr::Unknown(_, ops),
            } => {
                assert_eq!(n, "TWORK");
                assert!(
                    !ops.iter()
                        .any(|o| matches!(o, Expr::Var(v) if v == "TWORK")),
                    "self-read would kill privatization: {ops:?}"
                );
            }
            other => panic!("{other:?}"),
        }
        match &sub.body[1].kind {
            StmtKind::Assign {
                lhs: Expr::Section(n, secs),
                rhs: Expr::Unknown(_, ops),
            } => {
                assert_eq!(n, "EBOND");
                assert!(
                    matches!(&secs[0], SecRange::At(Expr::Var(v)) if v == "MB"),
                    "{secs:?}"
                );
                assert!(
                    ops.iter()
                        .any(|o| matches!(o, Expr::Var(v) if v == "TWORK")),
                    "{ops:?}"
                );
            }
            other => panic!("{other:?}"),
        }
        // Operator ids are distinct within the summary.
        let (Expr::Unknown(a, _), Expr::Unknown(b, _)) = (
            match &sub.body[0].kind {
                StmtKind::Assign { rhs, .. } => rhs,
                _ => unreachable!(),
            },
            match &sub.body[1].kind {
                StmtKind::Assign { rhs, .. } => rhs,
                _ => unreachable!(),
            },
        ) else {
            panic!()
        };
        assert_ne!(a, b);
        // Coverage: all three call sites of the program are auto-covered.
        assert_eq!(rep.auto_sites(), 3);
        assert_eq!(rep.refused_sites(), 0);
    }

    #[test]
    fn recursive_pair_is_refused_with_cycle_and_location() {
        let rep = chains(
            "      PROGRAM MAIN
      CALL PING(1)
      END
      SUBROUTINE PING(N)
      COMMON /S/ V(8)
      V(N) = N
      CALL PONG(N)
      END
      SUBROUTINE PONG(N)
      CALL PING(N)
      END
",
        );
        assert!(rep.derived.is_empty(), "{rep:?}");
        for name in ["PING", "PONG"] {
            let (_, r) = rep.refusals.iter().find(|(n, _)| n == name).unwrap();
            match r {
                AutoGenRefusal::Recursive { cycle, span } => {
                    assert_eq!(cycle, &vec!["PING".to_string(), "PONG".to_string()]);
                    assert!(!span.is_synthetic());
                }
                other => panic!("{other:?}"),
            }
        }
        // Display names the cycle and the line.
        let msg = rep.refusals[0].1.to_string();
        assert!(msg.contains("PING -> PONG"), "{msg}");
        assert!(msg.contains("line"), "{msg}");
    }

    #[test]
    fn diamond_shares_one_callee_summary_and_operator_ids() {
        // A → B, A → C, B → D, C → D: D is summarized once; B and C both
        // substitute it; A composes B and C.
        let rep = chains(
            "      PROGRAM MAIN
      CALL A(3)
      END
      SUBROUTINE A(N)
      CALL B(N)
      CALL C(N)
      END
      SUBROUTINE B(N)
      COMMON /S/ U(64), V(64)
      U(N) = N*2
      CALL D(N)
      END
      SUBROUTINE C(N)
      COMMON /S/ U(64), V(64)
      V(N) = N*3
      CALL D(N)
      END
      SUBROUTINE D(N)
      COMMON /T/ W(64)
      W(N) = N*5
      END
",
        );
        for n in ["A", "B", "C", "D"] {
            assert!(rep.derived.iter().any(|d| d == n), "{n} missing: {rep:?}");
        }
        assert_eq!(
            rep.chain_derived,
            vec!["B".to_string(), "C".to_string(), "A".to_string()]
        );
        // A's summary: U(N) kill, W(N) kill (via B via D), V(N), W(N) again.
        let a = rep.registry.get("A").unwrap();
        let mut w_ids = Vec::new();
        fir::visit::walk_stmts(&a.body, &mut |s| {
            if let StmtKind::Assign {
                lhs: Expr::Section(n, _),
                rhs: Expr::Unknown(id, _),
            } = &s.kind
            {
                if n == "W" {
                    w_ids.push(*id);
                }
            }
        });
        // D's operator appears twice in A (once via B, once via C) and both
        // occurrences denote the same internal function: same id. The two
        // paths reach A through *different* intermediate summaries (B's and
        // C's), each of which renumbered D's operator into its own space —
        // so the ids agree only if renumbering is per-callee consistent.
        assert_eq!(w_ids.len(), 2, "{a:?}");
        assert_eq!(w_ids[0], w_ids[1]);
    }

    #[test]
    fn guarded_call_is_refused_with_location() {
        let rep = chains(
            "      PROGRAM MAIN
      CALL F(1, 2)
      END
      SUBROUTINE F(ID, IDE)
      COMMON /EL/ IDEDON(200)
      IF (IDEDON(IDE) .EQ. 0) THEN
        IDEDON(IDE) = 1
        CALL G(ID)
      ENDIF
      END
      SUBROUTINE G(ID)
      COMMON /WK/ XY(2, 32)
      DO J = 1, 32
        XY(1, J) = ID*0.5
      ENDDO
      END
",
        );
        let (_, r) = rep.refusals.iter().find(|(n, _)| n == "F").unwrap();
        match r {
            AutoGenRefusal::GuardedCall { callee, span } => {
                assert_eq!(callee, "G");
                assert!(!span.is_synthetic());
            }
            other => panic!("{other:?}"),
        }
        // G itself (a leaf) is still derived.
        assert!(rep.derived.iter().any(|n| n == "G"));
        // Sites: MAIN→F refused, F→G auto-covered.
        assert_eq!(rep.auto_sites(), 1);
        assert_eq!(rep.refused_sites(), 1);
    }

    #[test]
    fn unresolved_external_vs_unsummarized_callee() {
        let rep = chains(
            "      PROGRAM MAIN
      CALL P(1)
      CALL Q(1)
      END
      SUBROUTINE P(N)
      CALL NOWHERE(N)
      END
      SUBROUTINE Q(N)
      CALL R(N)
      END
      SUBROUTINE R(N)
      COMMON /S/ V(8)
      K = N + 1
      V(K) = N
      END
",
        );
        // P: NOWHERE has no definition.
        let (_, rp) = rep.refusals.iter().find(|(n, _)| n == "P").unwrap();
        assert!(
            matches!(rp, AutoGenRefusal::UnresolvedExternal { callee, .. } if callee == "NOWHERE"),
            "{rp:?}"
        );
        // Q: R is defined but refused (write region indexed by a local).
        let (_, rq) = rep.refusals.iter().find(|(n, _)| n == "Q").unwrap();
        assert!(
            matches!(rq, AutoGenRefusal::CalleeUnsummarized { callee, .. } if callee == "R"),
            "{rq:?}"
        );
    }

    #[test]
    fn manual_annotation_unblocks_a_refused_callee() {
        // R refuses (its write is indexed through a local), but a manual
        // `unique` annotation lets the chain substitute it into Q —
        // `unique` propagates through call substitution with a renumbered
        // id.
        let rep = chains_with(
            "      PROGRAM MAIN
      CALL Q(1)
      END
      SUBROUTINE Q(N)
      COMMON /S/ KOUNT
      KOUNT = N
      CALL R(N)
      END
      SUBROUTINE R(N)
      COMMON /S2/ V(8)
      K = N + 1
      V(K) = N
      END
",
            "subroutine R(N) { dimension V[8]; V[unique(N)] = unknown(N); }",
        );
        assert!(rep.derived.iter().any(|n| n == "Q"), "{rep:?}");
        let q = rep.registry.get("Q").unwrap();
        let mut saw_unique = false;
        fir::visit::walk_stmts(&q.body, &mut |s| {
            if let StmtKind::Assign {
                lhs: Expr::Index(n, subs),
                ..
            } = &s.kind
            {
                if n == "V" && matches!(&subs[0], Expr::Unique(_, _)) {
                    saw_unique = true;
                }
            }
        });
        assert!(saw_unique, "{q:?}");
        // Coverage: Q is auto, R manual-only.
        assert_eq!(rep.auto_sites(), 1);
        assert_eq!(rep.manual_sites(), 1);
        assert!(rep.manual_fallback.iter().any(|n| n == "R"));
    }

    #[test]
    fn widening_of_non_operator_rhs_is_recorded() {
        // A manual callee annotation with an expression RHS, and a callee
        // whose *implementation* would refuse — so the manual body is what
        // gets substituted, and its expression RHS must widen.
        let rep = chains_with(
            "      PROGRAM MAIN
      CALL OUTER(2)
      END
      SUBROUTINE OUTER(N)
      CALL SETK(N)
      END
      SUBROUTINE SETK(N)
      COMMON /ST/ KOUNT
      IF (N .GT. 0) THEN
        KOUNT = N*2 + 1
      ENDIF
      RETURN
      END
",
            "subroutine SETK(N) { KOUNT = N*2 + 1; }",
        );
        // SETK's implementation refuses (guarded write) → manual body
        // substitutes into OUTER; RHS `N*2 + 1` widens to unknown(N).
        assert!(rep.derived.iter().any(|n| n == "OUTER"), "{rep:?}");
        let outer = rep.registry.get("OUTER").unwrap();
        match &outer.body[0].kind {
            StmtKind::Assign {
                lhs: Expr::Var(n),
                rhs: Expr::Unknown(_, ops),
            } => {
                assert_eq!(n, "KOUNT");
                assert!(
                    ops.iter().any(|o| matches!(o, Expr::Var(v) if v == "N")),
                    "{ops:?}"
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(
            rep.widened
                .iter()
                .any(|(s, v)| s == "OUTER" && v == "KOUNT"),
            "{:?}",
            rep.widened
        );
    }

    #[test]
    fn call_inside_do_is_substituted_then_flattened() {
        let rep = chains(
            "      PROGRAM MAIN
      CALL SWEEP(8)
      END
      SUBROUTINE SWEEP(N)
      COMMON /S/ ROW(64)
      DO I = 1, N
        CALL PUT(I)
      ENDDO
      END
      SUBROUTINE PUT(I)
      COMMON /S/ ROW(64)
      ROW(I) = I*2
      END
",
        );
        assert!(rep.derived.iter().any(|n| n == "SWEEP"), "{rep:?}");
        let sweep = rep.registry.get("SWEEP").unwrap();
        // The DO item flattens to a dense-range section write over ROW.
        assert_eq!(sweep.body.len(), 1, "{:?}", sweep.body);
        match &sweep.body[0].kind {
            StmtKind::Assign {
                lhs: Expr::Section(n, secs),
                ..
            } => {
                assert_eq!(n, "ROW");
                assert!(matches!(&secs[0], SecRange::Range { .. }), "{secs:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn derived_chain_summaries_pass_the_soundness_checker() {
        let p = parse(BONDFC_LIKE).unwrap();
        let rep = generate_with_chains(&p, &AnnotRegistry::default(), &AutoGenOptions::default());
        let issues = crate::soundness::check_registry(&p, &rep.registry);
        let errors: Vec<_> = issues
            .iter()
            .flat_map(|(n, is)| is.iter().map(move |i| (n, i)))
            .filter(|(_, i)| i.severity == crate::soundness::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }
}
