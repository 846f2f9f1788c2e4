//! Per-unit symbol tables.
//!
//! Resolves declarations of a [`ProcUnit`] into a flat map from variable
//! name to [`Symbol`] (type, shape, storage class). Fortran implicit typing
//! applies to anything never declared. PARAMETER constants are recorded and
//! substituted on demand by [`SymbolTable::fold_params`].

use crate::ast::{Decl, Dim, Expr, Ident, ProcUnit, StmtKind, Type, UnitKind, VarDecl};
use std::collections::HashMap;

/// Where a variable's storage lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Storage {
    /// Local to the unit.
    Local,
    /// A dummy argument (position in the parameter list).
    Formal(usize),
    /// Member of a COMMON block (block name).
    Common(Ident),
    /// A PARAMETER constant.
    Param,
}

/// Everything known statically about one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    /// Variable name.
    pub name: Ident,
    /// Resolved type (declared or implicit).
    pub ty: Type,
    /// Array dimensions; empty for scalars.
    pub dims: Vec<Dim>,
    /// Storage class.
    pub storage: Storage,
}

impl Symbol {
    /// True if the symbol is an array.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }

    /// The declared extent of dimension `d` as a constant, if it is one
    /// (after PARAMETER folding by the table builder).
    pub fn extent_const(&self, d: usize) -> Option<i64> {
        match self.dims.get(d)? {
            Dim::Extent(e) => e.as_int_const(),
            Dim::Assumed => None,
        }
    }

    /// Total number of elements if all extents are constants.
    pub fn total_elems(&self) -> Option<i64> {
        let mut n = 1i64;
        for d in 0..self.dims.len() {
            n = n.checked_mul(self.extent_const(d)?)?;
        }
        Some(n)
    }
}

/// Symbol table for one program unit.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    syms: HashMap<Ident, Symbol>,
    /// First-insertion order of `syms`. [`SymbolTable::iter`] follows this,
    /// never the map's hash order: downstream passes number fresh names and
    /// allocate interpreter slots in iteration order, so it must be a pure
    /// function of the source text.
    order: Vec<Ident>,
    /// PARAMETER constants, already folded to literals where possible.
    params: HashMap<Ident, Expr>,
    /// Names of COMMON blocks declared in this unit, in order.
    pub common_blocks: Vec<Ident>,
}

impl SymbolTable {
    /// Build the table for a unit. Undeclared variables that appear in the
    /// body are entered with implicit typing so lookups never miss.
    pub fn build(unit: &ProcUnit) -> SymbolTable {
        let mut t = SymbolTable::default();

        // Pass 1: PARAMETER constants (may be referenced by later dims).
        for d in &unit.decls {
            if let Decl::Param { name, value } = d {
                let mut v = value.clone();
                t.fold_params(&mut v);
                t.params.insert(name.clone(), v);
            }
        }

        // Pass 2: explicit declarations. A name may appear in several
        // declarations (e.g. `INTEGER X` + `DIMENSION X(10)`); merge them.
        for d in &unit.decls {
            match d {
                Decl::Var(v) => t.merge_decl(v, None),
                // An empty block name is the parser's encoding for a
                // multi-entry type/DIMENSION declaration — plain locals,
                // not COMMON storage.
                Decl::Common { block, vars } if block.is_empty() => {
                    for v in vars {
                        t.merge_decl(v, None);
                    }
                }
                Decl::Common { block, vars } => {
                    if !t.common_blocks.contains(block) {
                        t.common_blocks.push(block.clone());
                    }
                    for v in vars {
                        t.merge_decl(v, Some(block.clone()));
                    }
                }
                Decl::Param { .. } => {}
            }
        }

        // Pass 3: formal parameters get their storage class (overriding
        // Local from a type declaration).
        for (i, p) in unit.params.iter().enumerate() {
            match t.syms.get_mut(p) {
                Some(s) => s.storage = Storage::Formal(i),
                None => {
                    t.define(Symbol {
                        name: p.clone(),
                        ty: Type::implicit_for(p),
                        dims: vec![],
                        storage: Storage::Formal(i),
                    });
                }
            }
        }

        // Pass 4: PARAMETER names become Param-storage symbols. (Sorted:
        // `params` is a hash map, but insertion order must be stable.)
        let mut param_names: Vec<Ident> = t.params.keys().cloned().collect();
        param_names.sort();
        for name in param_names {
            let ty = t
                .syms
                .get(&name)
                .map(|s| s.ty)
                .unwrap_or_else(|| Type::implicit_for(&name));
            t.define(Symbol {
                name,
                ty,
                dims: vec![],
                storage: Storage::Param,
            });
        }

        // Pass 5: implicit declarations for anything referenced in the body.
        for_each_name(&unit.body, &mut |n| {
            if !t.syms.contains_key(n) {
                t.define(Symbol {
                    name: n.clone(),
                    ty: Type::implicit_for(n),
                    dims: vec![],
                    storage: Storage::Local,
                });
            }
        });

        // Fold PARAMETER references inside every dimension extent so that
        // `extent_const` works on e.g. `DIMENSION A(N)` with `PARAMETER (N=100)`.
        let param_snapshot = t.params.clone();
        for s in t.syms.values_mut() {
            for d in &mut s.dims {
                if let Dim::Extent(e) = d {
                    fold_with(e, &param_snapshot);
                }
            }
        }

        debug_assert!(unit.kind == UnitKind::Program || !unit.name.is_empty());
        t
    }

    /// Insert or replace a symbol, recording first-insertion order.
    fn define(&mut self, sym: Symbol) {
        if !self.syms.contains_key(&sym.name) {
            self.order.push(sym.name.clone());
        }
        self.syms.insert(sym.name.clone(), sym);
    }

    fn merge_decl(&mut self, v: &VarDecl, common: Option<Ident>) {
        if !self.syms.contains_key(&v.name) {
            self.order.push(v.name.clone());
        }
        let entry = self.syms.entry(v.name.clone()).or_insert_with(|| Symbol {
            name: v.name.clone(),
            ty: v.ty.unwrap_or_else(|| Type::implicit_for(&v.name)),
            dims: vec![],
            storage: Storage::Local,
        });
        if let Some(ty) = v.ty {
            entry.ty = ty;
        }
        if !v.dims.is_empty() {
            entry.dims = v.dims.clone();
        }
        if let Some(b) = common {
            entry.storage = Storage::Common(b);
        }
    }

    /// Look up a symbol (never fails for names that occur in the unit body
    /// the table was built from).
    pub fn get(&self, name: &str) -> Option<&Symbol> {
        self.syms.get(name)
    }

    /// Symbol lookup falling back to an implicit local (for synthesized
    /// names introduced by transformations).
    pub fn get_or_implicit(&self, name: &str) -> Symbol {
        self.get(name).cloned().unwrap_or_else(|| Symbol {
            name: name.into(),
            ty: Type::implicit_for(name),
            dims: vec![],
            storage: Storage::Local,
        })
    }

    /// The PARAMETER constant bound to `name`, if any.
    pub fn param_value(&self, name: &str) -> Option<&Expr> {
        self.params.get(name)
    }

    /// Replace PARAMETER names in `e` by their constant values and fold.
    pub fn fold_params(&self, e: &mut Expr) {
        fold_with(e, &self.params);
    }

    /// Iterate over all symbols, in first-insertion (declaration) order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.order.iter().map(|n| &self.syms[n])
    }

    /// All symbols stored in the given COMMON block.
    pub fn common_members(&self, block: &str) -> Vec<&Symbol> {
        let mut v: Vec<&Symbol> = self
            .syms
            .values()
            .filter(|s| matches!(&s.storage, Storage::Common(b) if b == block))
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }
}

fn fold_with(e: &mut Expr, params: &HashMap<Ident, Expr>) {
    e.rewrite(&mut |node| {
        if let Expr::Var(n) = node {
            if let Some(v) = params.get(n) {
                *node = v.clone();
            }
        }
        if let Some(c) = node.as_int_const() {
            if !matches!(node, Expr::Int(_)) {
                *node = Expr::Int(c);
            }
        }
    });
}

/// Visit every identifier used as a variable or array base in a block, in
/// source order (repeats included).
fn for_each_name(block: &crate::ast::Block, out: &mut impl FnMut(&Ident)) {
    fn expr_names(e: &Expr, out: &mut impl FnMut(&Ident)) {
        e.walk(&mut |n| match n {
            Expr::Var(v) | Expr::Index(v, _) | Expr::Section(v, _) => out(v),
            _ => {}
        });
    }
    for s in block {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                expr_names(lhs, out);
                expr_names(rhs, out);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                expr_names(cond, out);
                for_each_name(then_blk, out);
                for_each_name(else_blk, out);
            }
            StmtKind::Do(d) => {
                out(&d.var);
                expr_names(&d.lo, out);
                expr_names(&d.hi, out);
                if let Some(st) = &d.step {
                    expr_names(st, out);
                }
                for_each_name(&d.body, out);
            }
            StmtKind::Call { args, .. } => {
                for a in args {
                    expr_names(a, out);
                }
            }
            StmtKind::Write { items, .. } => {
                for i in items {
                    expr_names(i, out);
                }
            }
            StmtKind::Tagged { body, .. } => for_each_name(body, out),
            StmtKind::Stop { .. } | StmtKind::Return | StmtKind::Continue => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn unit_with(decls: Vec<Decl>, params: Vec<&str>, body: Block) -> ProcUnit {
        ProcUnit {
            kind: UnitKind::Subroutine,
            name: "S".into(),
            params: params.into_iter().map(Ident::from).collect(),
            decls,
            body,
            span: crate::loc::Span::SYNTH,
        }
    }

    #[test]
    fn merge_type_and_dimension_decls() {
        let decls = vec![
            Decl::Var(VarDecl {
                name: "X".into(),
                ty: Some(Type::Double),
                dims: vec![],
            }),
            Decl::Var(VarDecl {
                name: "X".into(),
                ty: None,
                dims: vec![Dim::Extent(Expr::int(10))],
            }),
        ];
        let t = SymbolTable::build(&unit_with(decls, vec![], vec![]));
        let s = t.get("X").unwrap();
        assert_eq!(s.ty, Type::Double);
        assert_eq!(s.extent_const(0), Some(10));
    }

    #[test]
    fn formals_get_positions() {
        let t = SymbolTable::build(&unit_with(vec![], vec!["A", "B"], vec![]));
        assert_eq!(t.get("B").unwrap().storage, Storage::Formal(1));
    }

    #[test]
    fn common_membership() {
        let decls = vec![Decl::Common {
            block: "BLK".into(),
            vars: vec![VarDecl {
                name: "T".into(),
                ty: None,
                dims: vec![Dim::Extent(Expr::int(100))],
            }],
        }];
        let t = SymbolTable::build(&unit_with(decls, vec![], vec![]));
        assert_eq!(t.get("T").unwrap().storage, Storage::Common("BLK".into()));
        assert_eq!(t.common_members("BLK").len(), 1);
        assert_eq!(t.common_blocks, vec!["BLK".to_string()]);
    }

    #[test]
    fn parameter_folding_in_dims() {
        let decls = vec![
            Decl::Param {
                name: "N".into(),
                value: Expr::int(64),
            },
            Decl::Var(VarDecl {
                name: "A".into(),
                ty: None,
                dims: vec![Dim::Extent(Expr::mul(Expr::var("N"), Expr::int(2)))],
            }),
        ];
        let t = SymbolTable::build(&unit_with(decls, vec![], vec![]));
        assert_eq!(t.get("A").unwrap().extent_const(0), Some(128));
        assert_eq!(t.get("A").unwrap().total_elems(), Some(128));
    }

    #[test]
    fn implicit_symbols_from_body() {
        let body = vec![Stmt::assign(
            Expr::var("KOUNT"),
            Expr::add(Expr::var("KOUNT"), Expr::int(1)),
        )];
        let t = SymbolTable::build(&unit_with(vec![], vec![], body));
        let s = t.get("KOUNT").unwrap();
        assert_eq!(s.ty, Type::Integer);
        assert_eq!(s.storage, Storage::Local);
    }

    #[test]
    fn assumed_size_has_no_extent() {
        let decls = vec![Decl::Var(VarDecl {
            name: "X2".into(),
            ty: None,
            dims: vec![Dim::Assumed],
        })];
        let t = SymbolTable::build(&unit_with(decls, vec!["X2"], vec![]));
        let s = t.get("X2").unwrap();
        assert!(s.is_array());
        assert_eq!(s.extent_const(0), None);
        assert_eq!(s.total_elems(), None);
    }

    #[test]
    fn param_value_is_folded() {
        let decls = vec![
            Decl::Param {
                name: "N".into(),
                value: Expr::int(4),
            },
            Decl::Param {
                name: "M".into(),
                value: Expr::mul(Expr::var("N"), Expr::var("N")),
            },
        ];
        let t = SymbolTable::build(&unit_with(decls, vec![], vec![]));
        assert_eq!(t.param_value("M"), Some(&Expr::int(16)));
    }
}
