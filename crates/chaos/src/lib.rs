//! # chaos — deterministic fault injection for the evaluation pipeline
//!
//! The driver promises that *bad input degrades, it never detonates*: any
//! program or annotation text, however mangled, must come back as either a
//! completed evaluation or a structured, located diagnostic — never a
//! panic, never a hang. This crate earns that promise empirically. It
//! takes the twelve PERFECT sources and their annotation registries,
//! applies seeded mutations (token deletion, truncation, corrupted
//! annotation clauses, dimension perturbations, COMMON-line reshapes,
//! call-graph rewiring that manufactures recursion and multi-level call
//! chains...), and drives every mutant through the full parse → annotate
//! → compile → verify pipeline, recording how each one died.
//!
//! The campaign is deterministic: mutant `i` of a run is a pure function
//! of `(seed, i)`, so a failure reported by CI reproduces locally with the
//! same seed, and thread count only affects wall-clock, never results.
//!
//! What counts as a pass:
//!
//! * **no panics** — every mutant resolves to [`Outcome::Accepted`] or
//!   [`Outcome::Rejected`]; an [`Outcome::Panicked`] fails the campaign;
//! * **located rejections** — a mutant rejected at the source or
//!   annotation parser must carry a real line number, not a synthetic
//!   span;
//! * **bounded work** — runaway mutants hit the driver's op-budget
//!   deadline and are reported as timeouts.
//!
//! The wire-protocol counterpart lives in [`client_load`]: the same
//! seeded-mutation discipline aimed at the service daemon's framing and
//! admission layers (truncated frames, garbage headers, slow-loris
//! writes, mid-request disconnects), gated by a byte-identity canary.

pub mod client_load;

use fruntime::Machine;
use ipp_core::driver::{run_app, DriverOptions, SuiteJob};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The workspace-shared audited RNG (`corpus::rng`): this crate used to
/// carry its own modulo-reduced xorshift64* copy; mutation draws now go
/// through the same Lemire-unbiased generator as the corpus generator
/// and the property tests.
pub use corpus::Rng;

// ---------------------------------------------------------------------------
// Mutation catalog
// ---------------------------------------------------------------------------

/// One named text mutation. Returns `None` when the text offers no
/// applicable site (the campaign then tries the next catalog entry).
type Mutator = fn(&mut Rng, &str) -> Option<String>;

/// The catalog: every way the harness damages input text.
pub const MUTATIONS: &[(&str, Mutator)] = &[
    ("delete-token", delete_token),
    ("truncate", truncate),
    ("delete-line", delete_line),
    ("duplicate-line", duplicate_line),
    ("swap-lines", swap_lines),
    ("perturb-digit", perturb_digit),
    ("insert-junk", insert_junk),
    ("mangle-keyword", mangle_keyword),
    ("reshape-decl", reshape_decl),
    ("drop-delimiter", drop_delimiter),
    ("insert-unicode", insert_unicode),
    ("rewire-call", rewire_call),
];

fn tokens(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && !b[i].is_ascii_whitespace() {
            i += 1;
        }
        out.push((start, i));
    }
    out
}

fn delete_token(rng: &mut Rng, text: &str) -> Option<String> {
    let toks = tokens(text);
    if toks.is_empty() {
        return None;
    }
    let (s, e) = toks[rng.index(toks.len())];
    Some(format!("{}{}", &text[..s], &text[e..]))
}

fn truncate(rng: &mut Rng, text: &str) -> Option<String> {
    if text.len() < 8 {
        return None;
    }
    let mut cut = 4 + rng.index(text.len() - 4);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    Some(text[..cut].to_string())
}

fn delete_line(rng: &mut Rng, text: &str) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() < 2 {
        return None;
    }
    let victim = rng.index(lines.len());
    let kept: Vec<&str> = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, l)| *l)
        .collect();
    Some(kept.join("\n") + "\n")
}

fn duplicate_line(rng: &mut Rng, text: &str) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return None;
    }
    let pick = rng.index(lines.len());
    let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
    for (i, l) in lines.iter().enumerate() {
        out.push(l);
        if i == pick {
            out.push(l);
        }
    }
    Some(out.join("\n") + "\n")
}

fn swap_lines(rng: &mut Rng, text: &str) -> Option<String> {
    let mut lines: Vec<&str> = text.lines().collect();
    if lines.len() < 3 {
        return None;
    }
    let i = rng.index(lines.len() - 1);
    lines.swap(i, i + 1);
    Some(lines.join("\n") + "\n")
}

fn perturb_digit(rng: &mut Rng, text: &str) -> Option<String> {
    let digits: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(i, _)| i)
        .collect();
    if digits.is_empty() {
        return None;
    }
    let at = digits[rng.index(digits.len())];
    let old = text.as_bytes()[at];
    let new = b'0' + ((old - b'0' + 1 + rng.index(9) as u8) % 10);
    let mut out = text.as_bytes().to_vec();
    out[at] = new;
    Some(String::from_utf8(out).expect("ascii digit swap"))
}

fn insert_junk(rng: &mut Rng, text: &str) -> Option<String> {
    const JUNK: &[u8] = b"(){}[];,:*+-/=<>.!%&|$?";
    let mut at = rng.index(text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let c = JUNK[rng.index(JUNK.len())] as char;
    Some(format!("{}{}{}", &text[..at], c, &text[at..]))
}

/// Multibyte characters probe byte-indexed lexers: a slice taken at a
/// byte offset inside a UTF-8 sequence panics, and `as_bytes()` walkers
/// must reject the bytes without assuming ASCII.
fn insert_unicode(rng: &mut Rng, text: &str) -> Option<String> {
    const EXOTIC: &[&str] = &["é", "λ", "∂", "🧨", "Ω", "\u{2028}", "ß"];
    let mut at = rng.index(text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let c = EXOTIC[rng.index(EXOTIC.len())];
    Some(format!("{}{}{}", &text[..at], c, &text[at..]))
}

fn mangle_keyword(rng: &mut Rng, text: &str) -> Option<String> {
    const KEYWORDS: &[&str] = &[
        "SUBROUTINE",
        "DIMENSION",
        "COMMON",
        "ENDDO",
        "CALL",
        "RETURN",
        "WRITE",
        "subroutine",
        "dimension",
        "unknown",
        "unique",
        "return",
        "else",
    ];
    let mut sites: Vec<(usize, &str)> = Vec::new();
    for kw in KEYWORDS {
        let mut from = 0;
        while let Some(off) = text[from..].find(kw) {
            sites.push((from + off, kw));
            from += off + kw.len();
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (at, kw) = sites[rng.index(sites.len())];
    // Drop one interior character: SUBROUTINE → SUBROTINE.
    let drop = 1 + rng.index(kw.len() - 2);
    Some(format!(
        "{}{}{}{}",
        &text[..at],
        &kw[..drop],
        &kw[drop + 1..],
        &text[at + kw.len()..]
    ))
}

/// Corrupt a declaration clause: a digit inside a `DIMENSION`/`COMMON`
/// line (Fortran) or a `[...]` shape clause (annotations) — the
/// dimension-mismatch / bad-COMMON-reshape cases.
fn reshape_decl(rng: &mut Rng, text: &str) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let decls: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            l.contains("DIMENSION")
                || l.contains("COMMON")
                || l.contains("dimension")
                || l.contains('[')
        })
        .map(|(i, _)| i)
        .collect();
    if decls.is_empty() {
        return None;
    }
    let target = decls[rng.index(decls.len())];
    let line = lines[target];
    let digits: Vec<usize> = line
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(i, _)| i)
        .collect();
    let mutated = if !digits.is_empty() && rng.index(2) == 0 {
        // Same-magnitude extent change: a mismatch, not a memory bomb.
        let at = digits[rng.index(digits.len())];
        let old = line.as_bytes()[at];
        let new = b'0' + ((old - b'0' + 1 + rng.index(9) as u8) % 10);
        let mut out = line.as_bytes().to_vec();
        out[at] = new;
        String::from_utf8(out).expect("ascii digit swap")
    } else if let Some(b) = line.find(['(', '[']) {
        // Drop the opening bracket of the shape clause.
        format!("{}{}", &line[..b], &line[b + 1..])
    } else {
        return None;
    };
    let mut out: Vec<&str> = lines.clone();
    out[target] = &mutated;
    Some(out.join("\n") + "\n")
}

/// Retarget a `CALL` at a different subroutine defined in the same file.
/// This perturbs the *call graph* rather than the text around it: a
/// rewired call can create direct or mutual recursion (a cycle the
/// chain-aware autogen pass must refuse with a located diagnostic),
/// deepen a call chain so summaries substitute through extra levels, or
/// hand a callee the wrong actuals entirely. Every outcome must still
/// degrade structurally — never panic — in all four configurations.
fn rewire_call(rng: &mut Rng, text: &str) -> Option<String> {
    fn name_end(text: &str, start: usize) -> usize {
        start
            + text[start..]
                .bytes()
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .count()
    }
    let mut calls: Vec<(usize, usize)> = Vec::new();
    let mut from = 0;
    while let Some(off) = text[from..].find("CALL ") {
        let start = from + off + 5;
        let end = name_end(text, start);
        if end > start {
            calls.push((start, end));
        }
        from = start;
    }
    let mut subs: Vec<&str> = Vec::new();
    let mut from = 0;
    while let Some(off) = text[from..].find("SUBROUTINE ") {
        let start = from + off + 11;
        let end = name_end(text, start);
        if end > start {
            subs.push(&text[start..end]);
        }
        from = start;
    }
    if calls.is_empty() {
        return None;
    }
    let (s, e) = calls[rng.index(calls.len())];
    let current = &text[s..e];
    let targets: Vec<&str> = subs.into_iter().filter(|n| *n != current).collect();
    if targets.is_empty() {
        return None;
    }
    let target = targets[rng.index(targets.len())];
    Some(format!("{}{}{}", &text[..s], target, &text[e..]))
}

fn drop_delimiter(rng: &mut Rng, text: &str) -> Option<String> {
    let sites: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| matches!(b, b'(' | b')' | b'[' | b']' | b'{' | b'}' | b';' | b','))
        .map(|(i, _)| i)
        .collect();
    if sites.is_empty() {
        return None;
    }
    let at = sites[rng.index(sites.len())];
    Some(format!("{}{}", &text[..at], &text[at + 1..]))
}

// ---------------------------------------------------------------------------
// Mutant execution
// ---------------------------------------------------------------------------

/// How one mutant fared.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The pipeline consumed the mutant end to end; any cells that failed
    /// did so as recorded, structured failures.
    Accepted {
        /// Cells that degraded (of 3).
        failed_cells: u64,
        /// The subset that hit the op-budget deadline.
        timed_out_cells: u64,
        /// Cell failures whose cause was a *caught panic* — tolerated by
        /// the driver but each one names a panic site worth converting
        /// into a structured diagnostic.
        caught_panics: Vec<String>,
    },
    /// The mutant was rejected before the driver — a source or annotation
    /// parse diagnostic.
    Rejected {
        /// `parse` or `annotations`.
        stage: &'static str,
        /// True when the diagnostic carries a real source line.
        located: bool,
        /// The rendered diagnostic.
        message: String,
    },
    /// Something unwound all the way out. Always a campaign failure.
    Panicked(String),
}

/// One executed mutant, for reporting.
#[derive(Debug, Clone)]
pub struct MutantRecord {
    /// Mutant index within the campaign (reproduce with the same seed).
    pub index: usize,
    /// Application the mutant was derived from.
    pub app: String,
    /// `source` or `annotations`.
    pub target: &'static str,
    /// Catalog name of the applied mutation.
    pub mutation: &'static str,
    /// What happened.
    pub outcome: Outcome,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// PRNG seed; a campaign is a pure function of (seed, mutants).
    pub seed: u64,
    /// Mutants to run.
    pub mutants: usize,
    /// Worker threads (0 = one per available core). Affects wall-clock
    /// only, never outcomes.
    pub threads: usize,
    /// Per-run op budget handed to the driver (the anti-hang deadline;
    /// kept small so runaway mutants die fast).
    pub max_ops: u64,
    /// Execution engine mutants run under. Campaigns default to the
    /// bytecode VM (the production engine); a tree-walker slice keeps the
    /// reference engine under the same fault pressure.
    pub engine: fruntime::Engine,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seed: 0x1CB2011,
            mutants: 500,
            threads: 0,
            max_ops: 2_000_000,
            engine: fruntime::Engine::default(),
        }
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Mutants executed.
    pub mutants: usize,
    /// Accepted with all three cells green.
    pub accepted_clean: usize,
    /// Accepted with at least one degraded cell.
    pub accepted_degraded: usize,
    /// Rejected at source/annotation parse.
    pub rejected: usize,
    /// Total cells that hit the op-budget deadline.
    pub timeouts: u64,
    /// Mutation name → times applied.
    pub per_mutation: BTreeMap<&'static str, usize>,
    /// Descriptions of every panic (must be empty to pass).
    pub panics: Vec<String>,
    /// Descriptions of every unlocated parse rejection (must be empty).
    pub unlocated: Vec<String>,
    /// Panics caught and degraded by the driver's isolation boundary —
    /// tolerated (the suite survived), but each names a panic site that
    /// should eventually report a structured diagnostic instead.
    pub caught_panics: Vec<String>,
}

impl CampaignStats {
    /// The campaign's pass criterion: no panics, no unlocated rejections.
    pub fn passed(&self) -> bool {
        self.panics.is_empty() && self.unlocated.is_empty()
    }

    /// One-screen human summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mutants {}  accepted {} (clean {}, degraded {})  rejected {}  timeouts {}\n",
            self.mutants,
            self.accepted_clean + self.accepted_degraded,
            self.accepted_clean,
            self.accepted_degraded,
            self.rejected,
            self.timeouts,
        ));
        for (name, n) in &self.per_mutation {
            out.push_str(&format!("  {name:<16} {n}\n"));
        }
        out.push_str(&format!(
            "panics {}  unlocated {}  caught-panics {}  => {}\n",
            self.panics.len(),
            self.unlocated.len(),
            self.caught_panics.len(),
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        for p in self.panics.iter().take(10) {
            out.push_str(&format!("  PANIC {p}\n"));
        }
        for u in self.unlocated.iter().take(10) {
            out.push_str(&format!("  UNLOCATED {u}\n"));
        }
        for c in self.caught_panics.iter().take(20) {
            out.push_str(&format!("  CAUGHT {c}\n"));
        }
        out
    }
}

/// One corpus entry the mutator draws from.
pub struct Corpus {
    /// Application name.
    pub name: String,
    /// MiniF77 source text.
    pub source: String,
    /// Annotation-language text (may be empty).
    pub annotations: String,
}

/// Derive mutant `index` from the corpus and run it through the pipeline.
/// Pure in `(seed, index)` — this is the reproduction entry point.
pub fn run_mutant(
    corpus_idx_seed: u64,
    index: usize,
    apps: &[Corpus],
    max_ops: u64,
    engine: fruntime::Engine,
) -> MutantRecord {
    let mut rng = Rng::for_index(corpus_idx_seed, index as u64);
    let app = &apps[index % apps.len()];
    // Mutate annotations for a third of the draws (when the app has any);
    // the Fortran source otherwise.
    let target_annot = !app.annotations.trim().is_empty() && rng.index(3) == 0;
    let (target, text) = if target_annot {
        ("annotations", app.annotations.as_str())
    } else {
        ("source", app.source.as_str())
    };
    // Apply 1–3 stacked mutations; each walks the catalog from a random
    // start until one applies. Stacking reaches states no single mutation
    // produces (e.g. a deleted token inside an already-truncated clause).
    let rounds = 1 + rng.index(3);
    let mut applied = MUTATIONS[0].0;
    let mut mutated = text.to_string();
    for _ in 0..rounds {
        let first = rng.index(MUTATIONS.len());
        for k in 0..MUTATIONS.len() {
            let (name, f) = MUTATIONS[(first + k) % MUTATIONS.len()];
            if let Some(m) = f(&mut rng, &mutated) {
                applied = name;
                mutated = m;
                break;
            }
        }
    }
    let (source, annotations) = if target_annot {
        (app.source.clone(), mutated)
    } else {
        (mutated, app.annotations.clone())
    };

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        evaluate_mutant(&app.name, &source, &annotations, max_ops, engine)
    }))
    .unwrap_or_else(|payload| Outcome::Panicked(ipp_core::error::panic_message(&*payload)));

    MutantRecord {
        index,
        app: app.name.clone(),
        target,
        mutation: applied,
        outcome,
    }
}

fn evaluate_mutant(
    name: &str,
    source: &str,
    annotations: &str,
    max_ops: u64,
    engine: fruntime::Engine,
) -> Outcome {
    let program = match fir::parse(source) {
        Ok(p) => p,
        Err(e) => {
            return Outcome::Rejected {
                stage: "parse",
                located: !e.span.is_synthetic(),
                message: e.to_string(),
            }
        }
    };
    let registry = match finline::annot::AnnotRegistry::parse(annotations) {
        Ok(r) => r,
        Err(e) => {
            return Outcome::Rejected {
                stage: "annotations",
                located: !e.span.is_synthetic(),
                message: e.to_string(),
            }
        }
    };
    let job = SuiteJob {
        name: name.to_string(),
        program,
        registry,
    };
    let opts = DriverOptions {
        workers: 1,
        verify_threads: 2,
        machines: Vec::<Machine>::new(),
        verify_max_ops: max_ops,
        engine,
        ..Default::default()
    };
    let (report, metrics) = run_app(&job, &opts);
    debug_assert_eq!(report.failures.len() as u64, metrics.failed_cells);
    // A failure cause of `Panic(..)` was caught at the driver boundary; a
    // Diag reading "<stage> stage panicked: ..." was caught by the
    // pipeline's per-stage wrapper. Both name reachable panic sites.
    let caught_panics = report
        .failures
        .iter()
        .filter(|f| match &f.cause {
            ipp_core::FailCause::Panic(_) => true,
            ipp_core::FailCause::Diag(d) => d.message.contains("stage panicked"),
            _ => false,
        })
        .map(|f| f.to_string())
        .collect();
    Outcome::Accepted {
        failed_cells: metrics.failed_cells,
        timed_out_cells: metrics.timed_out_cells,
        caught_panics,
    }
}

/// Run a full campaign: `mutants` seeded mutants over the PERFECT corpus,
/// fanned across threads, aggregated into [`CampaignStats`].
pub fn run_campaign(opts: &CampaignOptions) -> CampaignStats {
    let apps: Vec<Corpus> = perfect::suite::all()
        .into_iter()
        .map(|a| Corpus {
            name: a.name.to_string(),
            source: a.source.to_string(),
            annotations: a.annotations.to_string(),
        })
        .collect();

    // The whole point is to provoke panics; keep the hook from spamming
    // stderr with thousands of expected backtraces while we do.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let threads = if opts.threads > 0 {
        opts.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
    .min(opts.mutants.max(1));

    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<MutantRecord>> = Mutex::new(Vec::with_capacity(opts.mutants));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= opts.mutants {
                    return;
                }
                let rec = run_mutant(opts.seed, i, &apps, opts.max_ops, opts.engine);
                records
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(rec);
            });
        }
    });

    std::panic::set_hook(prev_hook);

    let mut records = records
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    records.sort_by_key(|r| r.index);

    let mut stats = CampaignStats {
        mutants: records.len(),
        ..Default::default()
    };
    for r in &records {
        *stats.per_mutation.entry(r.mutation).or_insert(0) += 1;
        match &r.outcome {
            Outcome::Accepted {
                failed_cells,
                timed_out_cells,
                caught_panics,
            } => {
                if *failed_cells == 0 {
                    stats.accepted_clean += 1;
                } else {
                    stats.accepted_degraded += 1;
                }
                stats.timeouts += timed_out_cells;
                for p in caught_panics {
                    stats.caught_panics.push(format!(
                        "mutant {} [{}/{}] {p}",
                        r.index, r.target, r.mutation
                    ));
                }
            }
            Outcome::Rejected {
                stage,
                located,
                message,
            } => {
                stats.rejected += 1;
                if !located {
                    stats.unlocated.push(format!(
                        "mutant {} {} [{}/{}] {stage}: {message}",
                        r.index, r.app, r.target, r.mutation
                    ));
                }
            }
            Outcome::Panicked(msg) => stats.panics.push(format!(
                "mutant {} {} [{}/{}]: {msg}",
                r.index, r.app, r.target, r.mutation
            )),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_mutant_set_is_unchanged_across_runs() {
        // The RNG dedup cross-check: with mutation draws served by the
        // shared `corpus::Rng`, a fixed seed must keep producing the
        // exact same mutant set — same app, same target, same mutation,
        // same outcome class, run after run.
        let apps: Vec<Corpus> = perfect::suite::all()
            .into_iter()
            .map(|a| Corpus {
                name: a.name.to_string(),
                source: a.source.to_string(),
                annotations: a.annotations.to_string(),
            })
            .collect();
        let fingerprint = |seed: u64| -> Vec<(String, &'static str, &'static str, u8)> {
            (0..24)
                .map(|i| {
                    let r = run_mutant(seed, i, &apps, 100_000, fruntime::Engine::default());
                    let class = match r.outcome {
                        Outcome::Accepted { .. } => 0,
                        Outcome::Rejected { .. } => 1,
                        Outcome::Panicked(_) => 2,
                    };
                    (r.app, r.target, r.mutation, class)
                })
                .collect()
        };
        assert_eq!(fingerprint(0x1CB2011), fingerprint(0x1CB2011));
        // And a different seed is genuinely a different campaign.
        assert_ne!(fingerprint(0x1CB2011), fingerprint(0xFACADE));
    }

    #[test]
    fn every_mutator_applies_to_realistic_text() {
        let text = "      PROGRAM MAIN\n      COMMON /C/ A(64)\n      DIMENSION B(8)\n      CALL INIT\n      DO I = 1, 8\n        B(I) = 0.0\n      ENDDO\n      END\n\n      SUBROUTINE INIT\n      RETURN\n      END\n\n      SUBROUTINE STEP\n      RETURN\n      END\n";
        for (name, f) in MUTATIONS {
            let mut rng = Rng::new(7);
            let m = f(&mut rng, text);
            assert!(m.is_some(), "{name} did not apply");
            assert_ne!(m.as_deref(), Some(text), "{name} was a no-op");
        }
    }

    #[test]
    fn rewired_recursive_chain_degrades_without_panicking() {
        // Force the call-graph mutation into a self-cycle: MDG's UPDATE is
        // itself reached through a chain, so retargeting calls at
        // arbitrary defined subroutines manufactures both recursion and
        // deeper chains. Every such mutant must come back structurally.
        let app = perfect::suite::by_name("MDG").unwrap();
        let mut rng = Rng::new(0xC411);
        for _ in 0..8 {
            let mutated = rewire_call(&mut rng, app.source).expect("MDG has calls to rewire");
            let outcome = evaluate_mutant(
                "MDG",
                &mutated,
                app.annotations,
                200_000,
                fruntime::Engine::default(),
            );
            assert!(
                !matches!(outcome, Outcome::Panicked(_)),
                "rewired chain panicked: {outcome:?}"
            );
        }
    }

    #[test]
    fn mutants_are_reproducible() {
        let apps: Vec<Corpus> = perfect::suite::all()
            .into_iter()
            .take(2)
            .map(|a| Corpus {
                name: a.name.to_string(),
                source: a.source.to_string(),
                annotations: a.annotations.to_string(),
            })
            .collect();
        let a = run_mutant(99, 5, &apps, 100_000, fruntime::Engine::default());
        let b = run_mutant(99, 5, &apps, 100_000, fruntime::Engine::default());
        assert_eq!(a.mutation, b.mutation);
        assert_eq!(a.app, b.app);
        assert_eq!(
            matches!(a.outcome, Outcome::Panicked(_)),
            matches!(b.outcome, Outcome::Panicked(_))
        );
    }
}
