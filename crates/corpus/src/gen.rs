//! Seeded, deterministic MiniF77 program generator spanning the paper's
//! pathology space.
//!
//! Every program is a pure function of `(seed, index)` — workers can
//! evaluate a corpus in any order, on any host, and program `i` is always
//! the same text. A program is a skeleton (COMMON block, init loop, final
//! checksum reduction) carrying one to three *idiom sections* drawn from
//! the catalog the paper's evaluation stresses:
//!
//! | idiom | pathology exercised |
//! |---|---|
//! | [`Idiom::PlainParallel`] | clean disjoint-write loop (the parallelizer's bread and butter) |
//! | [`Idiom::Reduction`] | scalar `REDUCTION` recognition |
//! | [`Idiom::IndirectSubscript`] | subscript-of-subscript writes that defeat dependence analysis |
//! | [`Idiom::ReshapedCommon`] | callee sees the caller's COMMON under a different shape (§II-A2) |
//! | [`Idiom::OpaqueChain`] | two-level CALL chain the chain autogen must summarize through |
//! | [`Idiom::DeepCallTree`] | three-to-five-level CALL chain (summary substitution depth) |
//! | [`Idiom::GuardedCall`] | a data-dependent guard around a CALL — the autogen `GuardedCall` refusal |
//! | [`Idiom::IntIndexChain`] | integer-index-heavy loops: strided/affine index chains and an integer reduction (the typed engine's integer fused plans) |
//!
//! Each generated program is tagged with the idioms it exercises, and
//! idioms that define subroutines sometimes carry a hand-written
//! annotation for the root callee (exercising annotation inlining and
//! reverse inlining on generated code, not just the curated suite).

use crate::rng::Rng;
use finline::annot::AnnotRegistry;
use ipp_core::SuiteJob;

/// One pathology idiom a generated program can exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Idiom {
    /// Clean disjoint-write loop.
    PlainParallel,
    /// Scalar sum reduction.
    Reduction,
    /// Writes through an integer index table.
    IndirectSubscript,
    /// Callee redeclares the caller's COMMON block under another shape.
    ReshapedCommon,
    /// Two-level opaque CALL chain.
    OpaqueChain,
    /// Three-to-five-level CALL chain.
    DeepCallTree,
    /// Data-guarded CALL (chain autogen refuses with `GuardedCall`).
    GuardedCall,
    /// Strided/affine integer index chains and an integer reduction.
    IntIndexChain,
}

impl Idiom {
    /// Every idiom, in catalog order.
    pub const ALL: [Idiom; 8] = [
        Idiom::PlainParallel,
        Idiom::Reduction,
        Idiom::IndirectSubscript,
        Idiom::ReshapedCommon,
        Idiom::OpaqueChain,
        Idiom::DeepCallTree,
        Idiom::GuardedCall,
        Idiom::IntIndexChain,
    ];

    /// Stable label (reports, artifacts).
    pub fn label(self) -> &'static str {
        match self {
            Idiom::PlainParallel => "plain-parallel",
            Idiom::Reduction => "reduction",
            Idiom::IndirectSubscript => "indirect-subscript",
            Idiom::ReshapedCommon => "reshaped-common",
            Idiom::OpaqueChain => "opaque-chain",
            Idiom::DeepCallTree => "deep-call-tree",
            Idiom::GuardedCall => "guarded-call",
            Idiom::IntIndexChain => "int-index-chain",
        }
    }
}

/// One generated corpus entry: source text, optional annotations, and the
/// idioms it exercises.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// Program name (`G<index>`), the job's report label.
    pub name: String,
    /// Corpus position this program was derived from.
    pub index: u64,
    /// Campaign seed this program was derived from.
    pub seed: u64,
    /// MiniF77 source text. Contract: always parses (pinned by the
    /// corpus-validity tests across seeds).
    pub source: String,
    /// Annotation-language text (may be empty).
    pub annotations: String,
    /// Idioms this program exercises, in section order.
    pub idioms: Vec<Idiom>,
}

impl GeneratedProgram {
    /// Parse into a driver job. `Err` here means a generator bug — the
    /// corpus contract is that every emitted program parses.
    pub fn job(&self) -> Result<SuiteJob, fir::diag::Error> {
        let program = fir::parse(&self.source)?;
        Ok(SuiteJob {
            name: self.name.clone(),
            program,
            registry: AnnotRegistry::parse(&self.annotations)?,
        })
    }
}

/// Generate corpus entry `index` of the campaign seeded with `seed`.
/// Pure: the same `(seed, index)` always yields the same program.
pub fn generate(seed: u64, index: u64) -> GeneratedProgram {
    let mut rng = Rng::for_index(seed, index);
    let n = rng.range(8, 48);

    // 1–3 distinct idiom sections via a partial Fisher–Yates shuffle.
    let mut catalog = Idiom::ALL;
    let count = 1 + rng.index(3);
    for i in 0..count {
        let j = i + rng.index(catalog.len() - i);
        catalog.swap(i, j);
    }
    let idioms: Vec<Idiom> = catalog[..count].to_vec();

    let name = format!("G{index}");
    let mut decls = format!("      DIMENSION W({n})\n");
    let mut body = String::new();
    let mut subs = String::new();
    let mut annotations = String::new();

    let c1 = rng.range(1, 9);
    let c2 = rng.range(1, 9);
    for (section, idiom) in idioms.iter().enumerate() {
        emit_idiom(
            &mut rng,
            *idiom,
            n,
            section,
            &mut decls,
            &mut body,
            &mut subs,
            &mut annotations,
        );
    }

    let source = format!(
        "      PROGRAM {name}\n\
         \x20     COMMON /C/ A({n}), B({n}), S\n\
         {decls}\
         \x20     DO I = 1, {n}\n\
         \x20       A(I) = I*{c1}.0 + 1.0\n\
         \x20       B(I) = I*0.5 + {c2}.0\n\
         \x20       W(I) = 0.0\n\
         \x20     ENDDO\n\
         {body}\
         \x20     S = 0.0\n\
         \x20     DO I = 1, {n}\n\
         \x20       S = S + A(I) + B(I) + W(I)\n\
         \x20     ENDDO\n\
         \x20     WRITE(6,*) S\n\
         \x20     END\n\
         {subs}"
    );

    GeneratedProgram {
        name,
        index,
        seed,
        source,
        annotations,
        idioms,
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_idiom(
    rng: &mut Rng,
    idiom: Idiom,
    n: i64,
    section: usize,
    decls: &mut String,
    body: &mut String,
    subs: &mut String,
    annotations: &mut String,
) {
    match idiom {
        Idiom::PlainParallel => {
            let k = rng.range(2, 9);
            body.push_str(&format!(
                "      DO I = 1, {n}\n\
                 \x20       W(I) = A(I)*{k}.0 + B(I)\n\
                 \x20     ENDDO\n"
            ));
        }
        Idiom::Reduction => {
            body.push_str(&format!(
                "      T{section} = 0.0\n\
                 \x20     DO I = 1, {n}\n\
                 \x20       T{section} = T{section} + A(I)*0.25\n\
                 \x20     ENDDO\n\
                 \x20     B(1) = B(1) + T{section}*0.125\n"
            ));
        }
        Idiom::IndirectSubscript => {
            let p = rng.range(1, 7);
            decls.push_str(&format!("      DIMENSION IX({n})\n"));
            body.push_str(&format!(
                "      DO I = 1, {n}\n\
                 \x20       IX(I) = MOD(I*{p}, {n}) + 1\n\
                 \x20     ENDDO\n\
                 \x20     DO I = 1, {n}\n\
                 \x20       B(IX(I)) = B(IX(I)) + A(I)*0.25\n\
                 \x20     ENDDO\n"
            ));
        }
        Idiom::ReshapedCommon => {
            // Caller holds the flat view, callee the 2-D view of the same
            // block; the annotation (when emitted) describes the callee's
            // column writes in the caller's flat coordinates.
            let r1 = rng.range(4, 8);
            let r2 = rng.range(4, 8);
            let flat = r1 * r2;
            decls.push_str(&format!("      COMMON /R/ RM({flat})\n"));
            body.push_str(&format!(
                "      DO J = 1, {r2}\n\
                 \x20       CALL RSHP(J)\n\
                 \x20     ENDDO\n\
                 \x20     W(1) = W(1) + RM(1)*0.0625\n"
            ));
            subs.push_str(&format!(
                "      SUBROUTINE RSHP(J)\n\
                 \x20     COMMON /R/ RV({r1}, {r2})\n\
                 \x20     DO K = 1, {r1}\n\
                 \x20       RV(K, J) = J*2.0 + K\n\
                 \x20     ENDDO\n\
                 \x20     END\n"
            ));
            if rng.chance(1, 2) {
                annotations.push_str(&format!(
                    "subroutine RSHP(J) {{\n\
                     \x20 dimension RM[{flat}];\n\
                     \x20 do (K = 1:{r1})\n\
                     \x20   RM[(J - 1)*{r1} + K] = unknown(J, K);\n\
                     }}\n"
                ));
            }
        }
        Idiom::OpaqueChain | Idiom::DeepCallTree => {
            let (prefix, depth) = if idiom == Idiom::OpaqueChain {
                ("OP", 2)
            } else {
                ("DT", rng.range(3, 5))
            };
            body.push_str(&format!(
                "      DO I = 1, {n}\n\
                 \x20       CALL {prefix}1(I)\n\
                 \x20     ENDDO\n"
            ));
            for level in 1..depth {
                subs.push_str(&format!(
                    "      SUBROUTINE {prefix}{level}(K)\n\
                     \x20     CALL {prefix}{next}(K)\n\
                     \x20     END\n",
                    next = level + 1
                ));
            }
            subs.push_str(&format!(
                "      SUBROUTINE {prefix}{depth}(K)\n\
                 \x20     COMMON /C/ A({n}), B({n}), S\n\
                 \x20     B(K) = B(K) + A(K)*0.5\n\
                 \x20     END\n"
            ));
            if idiom == Idiom::OpaqueChain && rng.chance(1, 2) {
                annotations.push_str(&format!(
                    "subroutine {prefix}1(K) {{\n\
                     \x20 dimension A[{n}], B[{n}];\n\
                     \x20 B[K] = unknown(A[K], B[K]);\n\
                     }}\n"
                ));
            }
        }
        Idiom::GuardedCall => {
            let g = rng.range(2, 20);
            body.push_str(&format!(
                "      DO I = 1, {n}\n\
                 \x20       CALL GRD(I)\n\
                 \x20     ENDDO\n"
            ));
            subs.push_str(&format!(
                "      SUBROUTINE GRD(K)\n\
                 \x20     COMMON /C/ A({n}), B({n}), S\n\
                 \x20     IF (A(K) .GT. {g}.0) THEN\n\
                 \x20       CALL GHLP(K)\n\
                 \x20     ENDIF\n\
                 \x20     END\n\
                 \x20     SUBROUTINE GHLP(K)\n\
                 \x20     COMMON /C/ A({n}), B({n}), S\n\
                 \x20     B(K) = B(K)*0.5 + 1.0\n\
                 \x20     END\n"
            ));
            if rng.chance(1, 2) {
                annotations.push_str(&format!(
                    "subroutine GRD(K) {{\n\
                     \x20 dimension A[{n}], B[{n}];\n\
                     \x20 if (A[K] > {g}) {{ B[K] = unknown(B[K]); }}\n\
                     }}\n"
                ));
            }
        }
        Idiom::IntIndexChain => {
            // Integer-index-heavy section: a strided index chained
            // through integer temps feeding a subscripted write, then a
            // pure integer reduction folded into the checksum. All the
            // arithmetic is wrapping-safe Add/Sub/Mul on INTEGER locals
            // — the shapes the typed engine's integer fused plans and
            // compare-and-branch-on-literal lowering target. The 1/128
            // weight keeps the checksum exact in f64.
            let st = rng.range(1, 7);
            let ph = rng.range(0, 5);
            let c = rng.range(1, 9);
            body.push_str(&format!(
                "      K{section} = {ph}\n\
                 \x20     DO I = 1, {n}\n\
                 \x20       K{section} = MOD(K{section}*{st} + I, {n}) + 1\n\
                 \x20       L{section} = K{section}*3 - K{section}*2\n\
                 \x20       W(L{section}) = W(L{section}) + A(I)*0.25\n\
                 \x20     ENDDO\n\
                 \x20     M{section} = 0\n\
                 \x20     DO I = 1, {n}\n\
                 \x20       M{section} = M{section} + I*{c} - I\n\
                 \x20     ENDDO\n\
                 \x20     B(1) = B(1) + M{section}*0.0078125\n"
            ));
        }
    }
}

/// Generate a small program exercising the constructs both interpreter
/// engines lower: COMMON + locals, nested DO loops (some with directives
/// and reductions), subscripted and scalar assignments, IFs, a
/// subroutine call with an element actual, and WRITE. Used by the
/// engine-differential property test (bytecode VM ≡ tree-walker);
/// directives are marked randomly — *including sometimes-illegal ones* —
/// so the race checker and write-log merge paths get compared too, not
/// just clean execution.
pub fn differential_program(rng: &mut Rng) -> fir::ast::Program {
    use fir::ast::{OmpDirective, RedOp};

    let n = rng.range(3, 24);
    let trip1 = rng.range(1, 20);
    let trip2 = rng.range(1, 10);
    let step = if rng.chance(1, 2) { ", 2" } else { "" };
    let c = rng.range(1, 9);
    let off = rng.range(1, n);
    let src = format!(
        "      PROGRAM G
      COMMON /B/ A({n}), S
      DIMENSION W({n})
      DO I = 1, {n}
        A(I) = I*{c}.0
        W(I) = 0.0
      ENDDO
      DO I = 1, {trip1}{step}
        IF (A(1) .GT. 0.0) THEN
          W(1) = W(1) + A(1)
        ELSE
          W(1) = W(1) - 1.0
        ENDIF
      ENDDO
      S = 0.0
      DO I = 1, {n}
        S = S + A(I)*W(1)
      ENDDO
      DO J = 1, {trip2}
        CALL BUMP(A({off}), S)
      ENDDO
      WRITE(6,*) S, A({off}), W(1)
      END
      SUBROUTINE BUMP(X, T)
      X = X + 1.0
      T = T + X*0.5
      END
"
    );
    let mut p = fir::parse(&src).expect("differential template parses");
    let mark = rng.below(128);
    let red = rng.chance(1, 2);
    let mut k = 0;
    fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
        if mark & (1 << k) != 0 {
            d.directive = Some(if red && k == 2 {
                OmpDirective {
                    reductions: vec![(RedOp::Add, "S".into())],
                    ..Default::default()
                }
            } else {
                OmpDirective::default()
            });
        }
        k += 1;
    });
    p
}

/// Lazily generate corpus entries `0..programs` for `seed`.
pub fn stream(seed: u64, programs: u64) -> impl Iterator<Item = GeneratedProgram> {
    (0..programs).map(move |i| generate(seed, i))
}

/// Lazily generate parsed driver jobs `0..programs` for `seed`. Panics on
/// a program that fails to parse — that is a generator bug by contract
/// (the corpus-validity tests pin it), not an input condition.
pub fn jobs(seed: u64, programs: u64) -> impl Iterator<Item = SuiteJob> {
    stream(seed, programs).map(|g| {
        g.job().unwrap_or_else(|e| {
            panic!(
                "corpus generator emitted an unparsable program (seed {}, index {}): {e}\n{}",
                g.seed, g.index, g.source
            )
        })
    })
}

/// One entry of a generated service-request stream: a corpus program
/// paired with an inlining-mode label, protocol-agnostic (the server and
/// chaos crates turn these into wire requests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Program name (the request's `name` field).
    pub name: String,
    /// MiniF77 source text.
    pub source: String,
    /// Annotation-language text (may be empty).
    pub annotations: String,
    /// Inlining-mode label (`InlineMode::label` vocabulary).
    pub mode: &'static str,
    /// When set, the request asks for a full portfolio tournament
    /// (`op: "tournament"` on the wire) instead of a single-mode
    /// evaluation; `mode` is ignored for such requests.
    pub tournament: bool,
}

/// Lazily generate service requests `0..n` for `seed`, drawing programs
/// from a pool of `pool` distinct corpus entries so a request stream
/// *revisits* content — the shape that exercises a server-side
/// content-addressed cache. Pure in `(seed, n, pool)`: position `i` is
/// always the same request.
pub fn requests(seed: u64, n: u64, pool: u64) -> impl Iterator<Item = RequestSpec> {
    const MODES: [&str; 4] = ["no-inline", "conventional", "annotation", "auto-annot"];
    let pool = pool.max(1);
    (0..n).map(move |i| {
        // A distinct substream from the program generator's: the request
        // schedule must not correlate with program content.
        let mut rng = Rng::for_index(seed ^ 0x5E9F_E57A_u64, i);
        let g = generate(seed, rng.below(pool));
        RequestSpec {
            name: g.name,
            source: g.source,
            annotations: g.annotations,
            mode: MODES[rng.index(MODES.len())],
            tournament: false,
        }
    })
}

/// Like [`requests`], but roughly `tournament_percent` of positions are
/// flagged as portfolio-tournament requests. The flag is drawn from its
/// own substream, so positions that stay plain evaluations carry the
/// *same* request as [`requests`] would — a mixed stream still shares
/// cache entries with a pure one. Pure in `(seed, n, pool,
/// tournament_percent)`.
pub fn mixed_requests(
    seed: u64,
    n: u64,
    pool: u64,
    tournament_percent: u64,
) -> impl Iterator<Item = RequestSpec> {
    requests(seed, n, pool).enumerate().map(move |(i, mut r)| {
        let mut rng = Rng::for_index(seed ^ 0x70C4_11A0_u64, i as u64);
        r.tournament = rng.chance(tournament_percent.min(100), 100);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_requests_flag_is_pure_and_preserves_the_plain_stream() {
        let mixed: Vec<_> = mixed_requests(77, 60, 8, 25).collect();
        let again: Vec<_> = mixed_requests(77, 60, 8, 25).collect();
        assert_eq!(mixed, again);
        let plain: Vec<_> = requests(77, 60, 8).collect();
        let flagged = mixed.iter().filter(|r| r.tournament).count();
        assert!(flagged > 0 && flagged < 60, "flagged {flagged} of 60");
        for (m, p) in mixed.iter().zip(&plain) {
            // Only the flag differs; program content and mode are shared
            // with the pure-evaluate stream.
            assert_eq!(
                (&m.name, &m.source, &m.annotations, m.mode),
                (&p.name, &p.source, &p.annotations, p.mode)
            );
        }
        assert!(
            mixed_requests(77, 40, 8, 0).all(|r| !r.tournament),
            "0% must flag nothing"
        );
        assert!(
            mixed_requests(77, 40, 8, 100).all(|r| r.tournament),
            "100% must flag everything"
        );
    }

    #[test]
    fn generation_is_pure_in_seed_and_index() {
        for index in [0, 1, 7, 500] {
            let a = generate(0xC0B0, index);
            let b = generate(0xC0B0, index);
            assert_eq!(a.source, b.source);
            assert_eq!(a.annotations, b.annotations);
            assert_eq!(a.idioms, b.idioms);
        }
        assert_ne!(generate(1, 0).source, generate(2, 0).source);
    }

    #[test]
    fn every_program_parses_and_tags_idioms() {
        for g in stream(0x5EED, 64) {
            let job = g.job().unwrap_or_else(|e| {
                panic!("index {}: {e}\n{}", g.index, g.source);
            });
            assert_eq!(job.name, format!("G{}", g.index));
            assert!(
                !g.idioms.is_empty() && g.idioms.len() <= 3,
                "{:?}",
                g.idioms
            );
            let distinct: std::collections::BTreeSet<Idiom> = g.idioms.iter().copied().collect();
            assert_eq!(distinct.len(), g.idioms.len(), "duplicate idiom sections");
        }
    }

    #[test]
    fn corpus_covers_the_whole_idiom_catalog() {
        let mut seen = std::collections::BTreeSet::new();
        let mut annotated = 0;
        for g in stream(0xC0FFEE, 128) {
            seen.extend(g.idioms.iter().copied());
            if !g.annotations.is_empty() {
                annotated += 1;
            }
        }
        for idiom in Idiom::ALL {
            assert!(seen.contains(&idiom), "{} never generated", idiom.label());
        }
        assert!(annotated > 10, "only {annotated} annotated programs in 128");
    }
}
