//! Parsed trees are exact-size and a statement is small.
//!
//! Every configuration the pipeline compiles starts from a copy of the
//! parsed program, and the tournament holds the parsed suite for its whole
//! run, so the front end's trees set the floor of the IR's footprint. Both
//! parsers (`fir::parse` and `AnnotRegistry::parse`) build each list at its
//! exact length, with no spare capacity, and a `DO` loop lives behind a
//! box so that every other statement stays small. These tests walk every
//! list of the parsed PERFECT suite and of the 1,000-program CI corpus,
//! pin the node sizes, and pin the live bytes of the parsed suite with a
//! counting allocator.

use bench::harness::alloc_counter::{self, CountingAlloc};
use finline::annot::AnnotRegistry;
use fir::ast::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seed of the 1,000-program corpus the CI streaming smoke runs.
const CI_CORPUS_SEED: u64 = 501_227_537;

/// Live bytes of `perfect::suite_jobs()`: the twelve parsed programs and
/// registries. 1,056,977 B when each list kept its growth slack and a
/// statement was 336 B with its `DO` loop stored inline.
const SUITE_JOBS_LIVE_CEILING: i64 = 432_761 * 105 / 100;

/// Every list of a tree, checked for spare capacity.
#[derive(Default)]
struct Lists {
    seen: usize,
    loose: Vec<String>,
}

impl Lists {
    fn check<T>(&mut self, what: &str, v: &Vec<T>) {
        self.seen += 1;
        if v.capacity() != v.len() {
            self.loose
                .push(format!("{what}: len {} capacity {}", v.len(), v.capacity()));
        }
    }

    fn expr(&mut self, e: &Expr) {
        e.walk(&mut |e| match e {
            Expr::Index(_, subs) => self.check("subscripts", subs),
            Expr::Section(_, ranges) => self.check("section ranges", ranges),
            Expr::Intrinsic(_, args) | Expr::Unique(_, args) | Expr::Unknown(_, args) => {
                self.check("operands", args)
            }
            _ => {}
        });
    }

    fn dims(&mut self, dims: &Vec<Dim>) {
        self.check("dims", dims);
        for d in dims {
            if let Dim::Extent(e) = d {
                self.expr(e);
            }
        }
    }

    fn block(&mut self, b: &Block) {
        self.check("block", b);
        for s in b {
            match &s.kind {
                StmtKind::Assign { lhs, rhs } => {
                    self.expr(lhs);
                    self.expr(rhs);
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.expr(cond);
                    self.block(then_blk);
                    self.block(else_blk);
                }
                StmtKind::Do(d) => {
                    for e in [Some(&d.lo), Some(&d.hi), d.step.as_ref()]
                        .into_iter()
                        .flatten()
                    {
                        self.expr(e);
                    }
                    self.block(&d.body);
                }
                StmtKind::Call { args, .. } => {
                    self.check("call args", args);
                    args.iter().for_each(|e| self.expr(e));
                }
                StmtKind::Write { items, .. } => {
                    self.check("write items", items);
                    items.iter().for_each(|e| self.expr(e));
                }
                StmtKind::Tagged { body, .. } => self.block(body),
                StmtKind::Stop { .. } | StmtKind::Return | StmtKind::Continue => {}
            }
        }
    }

    fn program(&mut self, p: &Program) {
        self.check("units", &p.units);
        for u in &p.units {
            self.check("params", &u.params);
            self.check("decls", &u.decls);
            for d in &u.decls {
                match d {
                    Decl::Var(v) => self.dims(&v.dims),
                    Decl::Common { vars, .. } => {
                        self.check("declared vars", vars);
                        vars.iter().for_each(|v| self.dims(&v.dims));
                    }
                    Decl::Param { value, .. } => self.expr(value),
                }
            }
            self.block(&u.body);
        }
    }

    fn registry(&mut self, r: &AnnotRegistry) {
        for sub in r.subs.values() {
            self.check("annotation params", &sub.params);
            sub.dims.values().for_each(|d| self.dims(d));
            self.block(&sub.body);
        }
    }
}

/// Parse every PERFECT program and registry and every program of the CI
/// corpus, and return the list census.
fn census() -> Lists {
    let mut lists = Lists::default();
    for app in perfect::all() {
        let (program, registry) = (app.program(), app.registry());
        assert_eq!(program.clone(), program);
        assert_eq!(registry.clone(), registry);
        lists.program(&program);
        lists.registry(&registry);
    }
    for g in corpus::stream(CI_CORPUS_SEED, 1000) {
        let program = fir::parse(&g.source).unwrap();
        let registry = AnnotRegistry::parse(&g.annotations).unwrap();
        assert_eq!(program.clone(), program, "{}", g.name);
        assert_eq!(registry.clone(), registry, "{}", g.name);
        lists.program(&program);
        lists.registry(&registry);
    }
    lists
}

#[test]
fn every_parsed_list_is_exact_size() {
    let lists = census();
    assert!(lists.seen > 40_000, "only {} lists walked", lists.seen);
    assert!(
        lists.loose.is_empty(),
        "{} of {} lists have spare capacity, first: {:?}",
        lists.loose.len(),
        lists.seen,
        &lists.loose[..lists.loose.len().min(5)]
    );
}

#[test]
#[cfg(target_pointer_width = "64")]
fn a_statement_is_small() {
    // A `DO` loop is boxed, so an assignment or an `IF` sets the size.
    assert_eq!(std::mem::size_of::<DoLoop>(), 312);
    assert_eq!(std::mem::size_of::<Stmt>(), 128);
    assert_eq!(std::mem::size_of::<Expr>(), 48);
}

#[test]
fn the_parsed_suite_fits_its_footprint() {
    let before = alloc_counter::thread_live_bytes();
    let (jobs, allocs) = alloc_counter::count(perfect::suite_jobs);
    let live = alloc_counter::thread_live_bytes() - before;
    println!("suite_jobs: {live} B live, {allocs} allocation events");
    assert_eq!(jobs.len(), 12);
    assert!(
        live <= SUITE_JOBS_LIVE_CEILING,
        "the parsed suite holds {live} B, above the {SUITE_JOBS_LIVE_CEILING} B ceiling"
    );
}
