//! Identifiers are shared, not copied.
//!
//! `fir::Ident` is an `Arc<str>`: cloning one bumps a reference count, and
//! the lexers intern each distinct spelling once per parse. These tests
//! pin both halves with a counting global allocator, and show that the
//! shared type behaves exactly like the `String` it replaced wherever the
//! pipeline can observe it: sorted order, `Display`, `Debug`, hashing and
//! map lookups by `&str`.
//!
//! The counter is per thread, so the tests in this binary may run in
//! parallel without leaking into each other's counts.

use bench::harness::alloc_counter::{self, CountingAlloc};
use finline::annot::AnnotRegistry;
use fir::lexer::lex;
use fir::token::Tok;
use fir::Ident;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events of `Program::clone` over the whole PERFECT suite,
/// measured when identifiers were `String`s (one heap buffer per name
/// occurrence). The shared representation clones the suite with 2,663.
const STRING_IDENT_SUITE_CLONE_ALLOCS: u64 = 5636;

/// Every identifier occurrence of the PERFECT suite and of 200 seeded
/// corpus programs, in source order, as the lexer produces them.
fn all_identifiers() -> Vec<Ident> {
    let mut sources: Vec<String> = perfect::all()
        .iter()
        .map(|a| a.source.to_string())
        .collect();
    sources.extend(corpus::stream(0x1DE0_2011, 200).map(|g| g.source));
    let mut out = Vec::new();
    for src in &sources {
        for t in lex(src).unwrap() {
            if let Tok::Ident(id) = t.kind {
                out.push(id);
            }
        }
    }
    out
}

#[test]
fn idents_order_print_and_hash_like_strings() {
    let ids = all_identifiers();
    assert!(ids.len() > 10_000, "workload too small: {}", ids.len());
    let strs: Vec<String> = ids.iter().map(|i| i.as_str().to_string()).collect();

    for (i, s) in ids.iter().zip(&strs) {
        assert_eq!(format!("{i}"), format!("{s}"));
        assert_eq!(format!("{i:?}"), format!("{s:?}"));
        assert_eq!(format!("{i:>12}|{i:<12}"), format!("{s:>12}|{s:<12}"));
    }

    let mut sorted_ids = ids.clone();
    sorted_ids.sort();
    let mut sorted_strs = strs.clone();
    sorted_strs.sort();
    assert!(sorted_ids.iter().eq(sorted_strs.iter()));

    // Same hash as the `String` (and so as the `&str`) with the same
    // bytes: the contract that makes lookups by `&str` find `Ident` keys.
    let rs = std::hash::RandomState::new();
    for (i, s) in ids.iter().zip(&strs) {
        assert_eq!(rs.hash_one(i), rs.hash_one(s));
        assert_eq!(rs.hash_one(i), rs.hash_one(s.as_str()));
    }

    let mut by_ident: HashMap<Ident, usize> = HashMap::new();
    let mut by_string: HashMap<String, usize> = HashMap::new();
    let mut tree_ident: BTreeMap<Ident, usize> = BTreeMap::new();
    let mut tree_string: BTreeMap<String, usize> = BTreeMap::new();
    for (n, (i, s)) in ids.iter().zip(&strs).enumerate() {
        by_ident.entry(i.clone()).or_insert(n);
        by_string.entry(s.clone()).or_insert(n);
        tree_ident.entry(i.clone()).or_insert(n);
        tree_string.entry(s.clone()).or_insert(n);
    }
    assert_eq!(by_ident.len(), by_string.len());
    for s in &strs {
        assert_eq!(by_ident.get(s.as_str()), by_string.get(s.as_str()));
        assert_eq!(tree_ident.get(s.as_str()), tree_string.get(s.as_str()));
    }
    assert!(tree_ident
        .iter()
        .map(|(k, v)| (k.as_str(), v))
        .eq(tree_string.iter().map(|(k, v)| (k.as_str(), v))));
}

#[test]
fn ident_clone_allocates_nothing() {
    let id = Ident::from("A_RATHER_LONG_FORTRAN_NAME");
    let (copies, allocs) = alloc_counter::count(|| {
        let mut v = [id.clone(), id.clone(), id.clone(), id.clone()];
        for c in &mut v {
            *c = c.clone();
        }
        v
    });
    assert_eq!(allocs, 0);
    assert!(copies.iter().all(|c| *c == id));
}

#[test]
fn cloning_a_parsed_program_allocates_nothing_per_name() {
    let programs: Vec<fir::Program> = perfect::all().iter().map(|a| a.program()).collect();
    let (copies, allocs) = alloc_counter::count(|| programs.clone());
    assert_eq!(copies, programs);
    println!("suite clone: {allocs} allocation events");
    assert!(
        allocs < STRING_IDENT_SUITE_CLONE_ALLOCS,
        "cloning the suite allocated {allocs} times, \
         no fewer than with String names ({STRING_IDENT_SUITE_CLONE_ALLOCS})"
    );
}

/// A program with `uses` `WRITE(6,*) X` statements among 1,000 writes; the
/// rest write a literal, so every variant lexes to the same token count and
/// parses to the same tree shape.
fn write_program(uses: usize) -> String {
    let mut src = String::from("      PROGRAM MAIN\n");
    for k in 0..1000 {
        src.push_str(if k < uses {
            "      WRITE(6,*) X\n"
        } else {
            "      WRITE(6,*) 1\n"
        });
    }
    src.push_str("      END\n");
    src
}

#[test]
fn lexer_allocates_each_name_once_per_parse() {
    let (few_src, many_src) = (write_program(10), write_program(1000));
    let (few, few_allocs) = alloc_counter::count(|| fir::parse(&few_src).unwrap());
    let (many, many_allocs) = alloc_counter::count(|| fir::parse(&many_src).unwrap());
    assert_eq!(few.units[0].body.len(), many.units[0].body.len());
    assert!(
        many_allocs <= few_allocs,
        "1,000 uses of X allocated {many_allocs} times, 10 uses {few_allocs}"
    );
}

/// An annotation whose body stores through `Y[X]` `uses` times and through
/// `Y[1]` otherwise, 1,000 statements in all.
fn annotation(uses: usize) -> String {
    let mut src = String::from("subroutine S(Y, X) {\n  dimension Y[*];\n");
    for k in 0..1000 {
        src.push_str(if k < uses {
            "  Y[X] = 1;\n"
        } else {
            "  Y[1] = 1;\n"
        });
    }
    src.push_str("}\n");
    src
}

#[test]
fn annotation_lexer_allocates_each_name_once_per_parse() {
    let (few_src, many_src) = (annotation(10), annotation(1000));
    let (few, few_allocs) = alloc_counter::count(|| AnnotRegistry::parse(&few_src).unwrap());
    let (many, many_allocs) = alloc_counter::count(|| AnnotRegistry::parse(&many_src).unwrap());
    assert_eq!(
        few.get("S").unwrap().body.len(),
        many.get("S").unwrap().body.len()
    );
    assert!(
        many_allocs <= few_allocs,
        "1,000 uses of X allocated {many_allocs} times, 10 uses {few_allocs}"
    );
}
