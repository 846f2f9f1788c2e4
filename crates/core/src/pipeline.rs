//! The enhanced-inlining compilation pipeline (paper Fig. 15).
//!
//! ```text
//!            ┌────────────────────┐
//!  input ───▶│ annotation-based   │   (or conventional inlining,
//!            │ inlining           │    or no inlining at all)
//!            └────────┬───────────┘
//!                     ▼
//!            ┌────────────────────┐
//!            │ automatic          │   Polaris-style dependence analysis,
//!            │ parallelization    │   OpenMP directive insertion
//!            └────────┬───────────┘
//!                     ▼
//!            ┌────────────────────┐
//!            │ reverse inlining   │   tagged regions → original CALLs,
//!            └────────┬───────────┘   directives on outer loops kept
//!                     ▼
//!                parallelized source
//! ```
//!
//! [`compile`] runs the whole pipeline under one of four
//! [`InlineMode`]s: the three configurations compared in the paper's
//! Table II, plus [`InlineMode::AutoAnnot`] — annotation-based inlining
//! where the annotations themselves are *derived* over the call graph
//! ([`finline::chain`], the paper's §III-D future-work direction) with
//! the hand-written registry kept only as fallback for refused
//! subroutines.

use fdep::analyze::Blocker;
use finline::annot::AnnotRegistry;
use finline::{annot_inline, chain, conventional, reverse, Heuristics};
use fir::ast::{LoopId, Program};
use fir::fold::normalize_program;
use fpar::{parallelize, ParOptions, ParReport};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which inlining strategy feeds the parallelizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineMode {
    /// Parallelize the program as-is.
    None,
    /// Polaris-default conventional inlining (paper §II).
    Conventional,
    /// The paper's contribution: annotation-based inlining + reverse
    /// inlining (§III), with hand-written annotations.
    Annotation,
    /// Annotation-based inlining driven by *derived* summaries: chain
    /// autogen over the call graph supplies the registry, hand-written
    /// annotations serve only as fallback where derivation refused.
    AutoAnnot,
}

impl InlineMode {
    /// Display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            InlineMode::None => "no-inline",
            InlineMode::Conventional => "conventional",
            InlineMode::Annotation => "annotation",
            InlineMode::AutoAnnot => "auto-annot",
        }
    }

    /// Parse a display label back into a mode — the wire-protocol
    /// decoder for service requests. Accepts exactly the strings
    /// [`InlineMode::label`] produces.
    pub fn from_label(label: &str) -> Option<InlineMode> {
        InlineMode::all().into_iter().find(|m| m.label() == label)
    }

    /// Every evaluated configuration: the paper's three Table II columns,
    /// then the derived-annotation mode.
    pub fn all() -> [InlineMode; 4] {
        [
            InlineMode::None,
            InlineMode::Conventional,
            InlineMode::Annotation,
            InlineMode::AutoAnnot,
        ]
    }

    /// The paper's three Table II configurations, in column order.
    pub fn classic() -> [InlineMode; 3] {
        [
            InlineMode::None,
            InlineMode::Conventional,
            InlineMode::Annotation,
        ]
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Inlining strategy.
    pub mode: InlineMode,
    /// Conventional-inlining heuristics (Polaris defaults).
    pub heuristics: Heuristics,
    /// Parallelizer options.
    pub par: ParOptions,
}

impl PipelineOptions {
    /// Defaults for a given mode.
    pub fn for_mode(mode: InlineMode) -> PipelineOptions {
        PipelineOptions {
            mode,
            heuristics: Heuristics::polaris(),
            par: ParOptions::default(),
        }
    }
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The final (emitted) program.
    pub program: Program,
    /// Per-loop planner decisions (pre-reverse-inlining view).
    pub par_report: ParReport,
    /// Conventional-inlining report, when that mode ran.
    pub conv_report: Option<conventional::ConvReport>,
    /// Annotation-inlining report, when that mode ran.
    pub annot_report: Option<annot_inline::AnnotInlineReport>,
    /// Reverse-inlining report, when that mode ran.
    pub reverse_report: Option<reverse::ReverseReport>,
    /// Chain-autogen report (derived registry, refusals, per-call-site
    /// coverage), when [`InlineMode::AutoAnnot`] ran.
    pub autogen: Option<chain::ChainReport>,
    /// Emitted source text.
    pub source: String,
    /// Code size: non-comment source lines (the paper's metric).
    pub loc: usize,
}

impl PipelineResult {
    /// Reassemble a result from the back end's output and the cell's own
    /// stage reports.
    pub(crate) fn from_parts(compiled: Compiled, reports: StageReports) -> PipelineResult {
        let program = compiled.program;
        let Emitted {
            par_report,
            source,
            loc,
        } = Arc::unwrap_or_clone(compiled.emitted);
        PipelineResult {
            program,
            par_report,
            conv_report: reports.conv_report,
            annot_report: reports.annot_report,
            reverse_report: reports.reverse_report,
            autogen: reports.autogen,
            source,
            loc,
        }
    }

    /// Distinct *original* loops judged parallelizable — annotation-body
    /// loops are excluded because they do not exist in the emitted program
    /// (the reverse inliner replaced them with the original calls).
    pub fn parallel_loops(&self) -> BTreeSet<LoopId> {
        original_parallel_loops(&self.par_report)
    }

    /// Blockers recorded for a given loop (all copies).
    pub fn blockers_of(&self, id: &LoopId) -> Vec<&Blocker> {
        self.par_report
            .decisions
            .iter()
            .filter(|d| &d.id == id)
            .flat_map(|d| d.blockers.iter())
            .collect()
    }
}

/// What the back end (parallelize, reverse-inline, print) made of one
/// post-inline program: a [`PipelineResult`] without the per-mode
/// reports. Modes whose inlining left the normalized program unchanged
/// share one `Compiled` through the driver's per-program memo.
#[derive(Debug, Clone)]
pub(crate) struct Compiled {
    pub(crate) program: Program,
    pub(crate) emitted: Arc<Emitted>,
}

/// What a cell reports of its compile once the program is verified: the
/// loop decisions, the source and its size. A cell that does not retain
/// results keeps only this, not the program.
#[derive(Debug, Clone)]
pub(crate) struct Emitted {
    pub(crate) par_report: ParReport,
    pub(crate) source: String,
    pub(crate) loc: usize,
}

impl Emitted {
    /// [`PipelineResult::parallel_loops`] of this compile.
    pub(crate) fn parallel_loops(&self) -> BTreeSet<LoopId> {
        original_parallel_loops(&self.par_report)
    }
}

/// The per-mode reports of one compile: the inline stage's, and
/// reverse-inlining's once the back end ran.
#[derive(Debug, Default)]
pub(crate) struct StageReports {
    pub(crate) conv_report: Option<conventional::ConvReport>,
    pub(crate) annot_report: Option<annot_inline::AnnotInlineReport>,
    pub(crate) reverse_report: Option<reverse::ReverseReport>,
    pub(crate) autogen: Option<chain::ChainReport>,
}

impl StageReports {
    /// The registry reverse-inlining matches regions against under
    /// `mode` (the one that drove inlining), or `None` for the modes
    /// without a reverse stage.
    pub(crate) fn reverse_registry<'a>(
        &'a self,
        mode: InlineMode,
        annotations: &'a AnnotRegistry,
    ) -> Option<&'a AnnotRegistry> {
        match mode {
            InlineMode::Annotation => Some(annotations),
            InlineMode::AutoAnnot => Some(
                self.autogen
                    .as_ref()
                    .map(|r| &r.registry)
                    .unwrap_or(annotations),
            ),
            InlineMode::None | InlineMode::Conventional => None,
        }
    }
}

/// Distinct original loops every copy of which is parallel, annotation
/// bodies excluded.
fn original_parallel_loops(report: &ParReport) -> BTreeSet<LoopId> {
    report
        .parallel_ids()
        .into_iter()
        .filter(|id| !id.is_annotation())
        .collect()
}

/// Run the full pipeline on `input` under `opts`, using `annotations` when
/// the mode calls for them.
///
/// This is the trusted-input entry point: a stage failure (which only a
/// malformed program can provoke) panics with the underlying diagnostic.
/// Fault-isolated callers — the suite driver, the chaos harness — use
/// [`compile_timed`] and handle the `Err` instead.
pub fn compile(
    input: &Program,
    annotations: &AnnotRegistry,
    opts: &PipelineOptions,
) -> PipelineResult {
    compile_timed(
        input,
        annotations,
        opts,
        &mut crate::phase::PhaseTimings::default(),
    )
    .unwrap_or_else(|e| panic!("pipeline failed: {e}"))
}

/// Run `f` as one pipeline stage: a panic inside the stage is caught and
/// converted into a located-as-well-as-possible transform diagnostic, so
/// malformed input degrades to an `Err` instead of unwinding through the
/// driver. The half-mutated program is discarded with the error.
fn stage<T>(
    phase: crate::phase::Phase,
    f: impl FnOnce() -> T,
) -> std::result::Result<T, fir::diag::Error> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        fir::diag::Error::transform(format!(
            "{} stage panicked: {}",
            phase.label(),
            crate::error::panic_message(&*payload)
        ))
    })
}

/// [`compile`], with each stage's wall-clock attributed to its
/// [`Phase`](crate::phase::Phase) in `timings` (the driver's
/// observability layer), and every stage fault — panics included —
/// surfaced as a structured diagnostic instead of unwinding. `compile`
/// itself is this with a discarded recorder and a panicking error path —
/// the instrumentation is a few `Instant::now` calls per compile, far
/// below measurement noise.
///
/// The stages are `normalize`, `inline` and `back_end`; the
/// driver's per-program memo runs the same three, normalizing once per
/// program and sharing one back end among the modes whose inlining
/// changed nothing (a one-cell memo runs `compile_normalized`, as here).
pub fn compile_timed(
    input: &Program,
    annotations: &AnnotRegistry,
    opts: &PipelineOptions,
    timings: &mut crate::phase::PhaseTimings,
) -> std::result::Result<PipelineResult, fir::diag::Error> {
    let p = normalize(input, timings)?;
    let (compiled, reports) = compile_normalized(p, annotations, opts, timings)?;
    Ok(PipelineResult::from_parts(compiled, reports))
}

/// Stages 2–5 on the owned normalized `p`, which inlining rewrites in
/// place.
pub(crate) fn compile_normalized(
    p: Program,
    annotations: &AnnotRegistry,
    opts: &PipelineOptions,
    timings: &mut crate::phase::PhaseTimings,
) -> std::result::Result<(Compiled, StageReports), fir::diag::Error> {
    let (p, mut reports) = inline(Cow::Owned(p), annotations, opts, timings)?;
    let (compiled, reverse_report) = back_end(
        p.into_owned(),
        reports.reverse_registry(opts.mode, annotations),
        &opts.par,
        timings,
    )?;
    reports.reverse_report = reverse_report;
    Ok((compiled, reports))
}

/// Stage 1: a normalized copy of `input`. Mode-independent.
pub(crate) fn normalize(
    input: &Program,
    timings: &mut crate::phase::PhaseTimings,
) -> std::result::Result<Program, fir::diag::Error> {
    use crate::phase::Phase;

    let mut p = input.clone();
    timings.time(Phase::Normalize, || {
        stage(Phase::Normalize, || {
            #[cfg(test)]
            if let Some(n) = NORMALIZE_PANICS.get() {
                NORMALIZE_PANICS.set(Some(n + 1));
                panic!("injected normalize fault");
            }
            normalize_program(&mut p)
        })
    })?;
    Ok(p)
}

#[cfg(test)]
thread_local! {
    /// Test seam: while `Some`, the normalize stage panics on the calling
    /// thread and counts its panics. Normalizing is panic-free on every
    /// known input, so the tests of its failure path need a trigger.
    pub(crate) static NORMALIZE_PANICS: std::cell::Cell<Option<u32>> =
        const { std::cell::Cell::new(None) };
}

/// Stage 2: inline into the normalized `p` under `opts.mode`. Returns the
/// post-inline program and the stage's reports. Each inliner first checks
/// whether it would change anything; when it would not, `p` comes back
/// as it was, and a borrowed `p` is not even copied.
pub(crate) fn inline<'p>(
    p: Cow<'p, Program>,
    annotations: &AnnotRegistry,
    opts: &PipelineOptions,
    timings: &mut crate::phase::PhaseTimings,
) -> std::result::Result<(Cow<'p, Program>, StageReports), fir::diag::Error> {
    use crate::phase::Phase;

    let mut reports = StageReports::default();
    let inlined = timings.time(Phase::Inline, || {
        stage(Phase::Inline, || match opts.mode {
            InlineMode::None => p,
            InlineMode::Conventional => {
                let h = &opts.heuristics;
                if let Some(report) = conventional::report_if_unchanged(&p, h) {
                    reports.conv_report = Some(report);
                    return p;
                }
                let mut q = p.into_owned();
                reports.conv_report = Some(conventional::inline_program(&mut q, h));
                Cow::Owned(q)
            }
            InlineMode::Annotation => annotate(p, annotations, &mut reports),
            InlineMode::AutoAnnot => {
                // Derive summaries bottom-up over the call graph, then
                // inline with the derived registry (manual annotations
                // inside it only where derivation refused).
                let rep = chain::generate_with_chains(&p, annotations);
                let q = annotate(p, &rep.registry, &mut reports);
                reports.autogen = Some(rep);
                q
            }
        })
    })?;
    Ok((inlined, reports))
}

/// Annotation-inline `p` against `reg`, leaving it as it was when no
/// call site has an annotation.
fn annotate<'p>(
    p: Cow<'p, Program>,
    reg: &AnnotRegistry,
    reports: &mut StageReports,
) -> Cow<'p, Program> {
    if let Some(report) = annot_inline::report_if_unchanged(&p, reg) {
        reports.annot_report = Some(report);
        return p;
    }
    let mut q = p.into_owned();
    reports.annot_report = Some(annot_inline::apply(&mut q, reg));
    Cow::Owned(q)
}

/// Stages 3–5 on the post-inline `p`: parallelize, reverse-inline against
/// `reverse_with` (the registry that drove inlining; `None` skips the
/// stage's work for the modes without one), print.
pub(crate) fn back_end(
    mut p: Program,
    reverse_with: Option<&AnnotRegistry>,
    par: &ParOptions,
    timings: &mut crate::phase::PhaseTimings,
) -> std::result::Result<(Compiled, Option<reverse::ReverseReport>), fir::diag::Error> {
    use crate::phase::Phase;

    let par_report = timings.time(Phase::Parallelize, || {
        stage(Phase::Parallelize, || parallelize(&mut p, par))
    })?;

    let reverse_report = timings.time(Phase::ReverseInline, || {
        stage(Phase::ReverseInline, || {
            reverse_with.map(|reg| reverse::apply(&mut p, reg))
        })
    })?;

    let (source, loc) = timings.time(Phase::Print, || {
        stage(Phase::Print, || {
            let source = fir::print_program(&p);
            let loc = fir::count_loc(&source);
            (source, loc)
        })
    })?;
    let compiled = Compiled {
        program: p,
        emitted: Arc::new(Emitted {
            par_report,
            source,
            loc,
        }),
    };
    Ok((compiled, reverse_report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    /// The MATMLT scenario end to end: the §II-A2 pathology under
    /// conventional inlining, fixed by annotations (§III).
    const MATMLT_PROGRAM: &str = "      PROGRAM MAIN
      DIMENSION PP(8, 8, 15), PHIT(8, 8), TM1(8, 8)
      NDIM = 8
      DO KS = 1, 15
        CALL MATMLT(PP(1, 1, KS), PHIT(1, 1), TM1(1, 1), NDIM, NDIM, NDIM)
      ENDDO
      END
      SUBROUTINE MATMLT(M1, M2, M3, L, M, N)
      DIMENSION M1(L, M), M2(M, N), M3(L, N)
      DO JN = 1, N
        DO JM = 1, M
          M3(JM, JN) = M1(JM, JN) + M2(JM, JN)
        ENDDO
      ENDDO
      END
";

    const MATMLT_ANNOT: &str = "
subroutine MATMLT(M1, M2, M3, L, M, N) {
  dimension M1[L,M], M2[M,N], M3[L,N];
  do (JN = 1:N)
    do (JM = 1:M)
      M3[JM,JN] = M1[JM,JN] + M2[JM,JN];
}
";

    fn compile_mode(src: &str, annot: &str, mode: InlineMode) -> PipelineResult {
        let p = parse(src).unwrap();
        let reg = if annot.is_empty() {
            AnnotRegistry::default()
        } else {
            AnnotRegistry::parse(annot).unwrap()
        };
        compile(&p, &reg, &PipelineOptions::for_mode(mode))
    }

    #[test]
    fn no_inline_parallelizes_callee_loops_only() {
        let r = compile_mode(MATMLT_PROGRAM, "", InlineMode::None);
        let ids = r.parallel_loops();
        // The callee's loops are parallelizable in isolation; the caller's
        // KS loop has an opaque call.
        assert!(ids.contains(&LoopId::new("MATMLT", 1)), "{ids:?}");
        assert!(!ids.contains(&LoopId::new("MAIN", 1)), "{ids:?}");
    }

    #[test]
    fn conventional_inlining_loses_matmlt_loops() {
        let r = compile_mode(MATMLT_PROGRAM, "", InlineMode::Conventional);
        let ids = r.parallel_loops();
        // Reshape linearization with symbolic extents kills the inlined
        // loops, and dead-procedure elimination removed the standalone
        // definition: total loss (paper Table II #par-loss).
        assert!(!ids.contains(&LoopId::new("MATMLT", 1)), "{ids:?}");
        assert!(r.conv_report.as_ref().unwrap().inlined.len() == 1);
    }

    #[test]
    fn annotation_inlining_keeps_and_gains() {
        let r = compile_mode(MATMLT_PROGRAM, MATMLT_ANNOT, InlineMode::Annotation);
        let ids = r.parallel_loops();
        // The caller's KS loop is now parallelizable: distinct KS iterations
        // write disjoint PP columns and TM1 is... TM1(1,1) is written by
        // every iteration — the KS loop is NOT parallel here, but the
        // callee's loops stay parallel via the standalone definition.
        assert!(ids.contains(&LoopId::new("MATMLT", 1)), "{ids:?}");
        // Reverse inlining restored the call.
        let rev = r.reverse_report.as_ref().unwrap();
        assert!(rev.failed.is_empty(), "{:?}", rev.failed);
        assert_eq!(rev.restored.len(), 1);
        assert!(r.source.contains("CALL MATMLT"), "{}", r.source);
        assert!(!r.source.contains("BEGIN(Code"), "{}", r.source);
    }

    #[test]
    fn annotation_mode_no_code_explosion() {
        let none = compile_mode(MATMLT_PROGRAM, "", InlineMode::None);
        let annot = compile_mode(MATMLT_PROGRAM, MATMLT_ANNOT, InlineMode::Annotation);
        // Annotation mode's output is within a few lines of the original
        // (only directives added).
        assert!(
            annot.loc <= none.loc + 10,
            "annotation LoC {} vs no-inline {}",
            annot.loc,
            none.loc
        );
    }

    /// The FSMP scenario: opaque compositional subroutine with error
    /// checking; only annotations make the surrounding loop parallel.
    const FSMP_PROGRAM: &str = "      PROGRAM MAIN
      COMMON /EL/ FE(16, 200), IDEDON(200), IDBEGS(20)
      COMMON /WK/ XY(2, 32)
      DO ISS = 1, 10
        DO K = 1, 20
          ID = IDBEGS(ISS) + 1 + K
          IDE = K
          CALL FSMP(ID, IDE)
        ENDDO
      ENDDO
      END
      SUBROUTINE FSMP(ID, IDE)
      COMMON /EL/ FE(16, 200), IDEDON(200), IDBEGS(20)
      COMMON /WK/ XY(2, 32)
      CALL GETCR(ID)
      IF (IDEDON(IDE) .EQ. 0) THEN
        IDEDON(IDE) = 1
        CALL FORMF(ID)
        IF (IERR .NE. 0) THEN
          WRITE(6,*) ' F ELEMENT ', IDE, ' IS SINGULAR '
          STOP 'F SINGULAR'
        ENDIF
      ENDIF
      END
      SUBROUTINE GETCR(ID)
      COMMON /WK/ XY(2, 32)
      DO J = 1, 32
        XY(1, J) = ID*0.5
        XY(2, J) = ID*1.5
      ENDDO
      END
      SUBROUTINE FORMF(ID)
      COMMON /EL/ FE(16, 200), IDEDON(200), IDBEGS(20)
      COMMON /WK/ XY(2, 32)
      DO J = 1, 16
        FE(J, ID) = XY(1, 2) + J
      ENDDO
      END
";

    const FSMP_ANNOT: &str = "
subroutine FSMP(ID, IDE) {
  dimension FE[16, 200], IDEDON[200];
  XY = unknown(ID);
  if (IDEDON[IDE] == 0) {
    IDEDON[IDE] = 1;
    FE[*, ID] = unknown(XY);
  }
}
";

    #[test]
    fn fsmp_conventional_cannot_inline() {
        let r = compile_mode(FSMP_PROGRAM, "", InlineMode::Conventional);
        let conv = r.conv_report.as_ref().unwrap();
        // FSMP makes further calls — excluded (paper §II-B1).
        assert!(
            conv.inlined.iter().all(|(_, callee)| callee != "FSMP"),
            "{conv:?}"
        );
        let ids = r.parallel_loops();
        assert!(!ids.contains(&LoopId::new("MAIN", 2)), "{ids:?}");
    }

    #[test]
    fn fsmp_annotation_parallelizes_k_loop() {
        let r = compile_mode(FSMP_PROGRAM, FSMP_ANNOT, InlineMode::Annotation);
        let ids = r.parallel_loops();
        // The inner K loop of MAIN (paper Fig. 7) becomes parallelizable:
        // ID is affine in K after forward substitution, FE columns are
        // disjoint, IDEDON(IDE)=IDEDON(K) disjoint, XY is a privatizable
        // whole-array temp, and the error-checking I/O was omitted from the
        // annotation (§III-B3).
        assert!(ids.contains(&LoopId::new("MAIN", 2)), "{ids:?}");
        let rev = r.reverse_report.as_ref().unwrap();
        assert!(rev.failed.is_empty(), "{:?}", rev.failed);
        assert!(r.source.contains("CALL FSMP(ID, IDE)"), "{}", r.source);
        assert!(r.source.contains("!$OMP PARALLEL DO"), "{}", r.source);
    }

    #[test]
    fn auto_annot_falls_back_to_manual_fsmp_and_matches_its_decisions() {
        // FSMP's chain derivation refuses (the IDEDON guard is a real data
        // conditional → GuardedCall), so auto-annot mode substitutes the
        // manual FSMP annotation — and must reach the same parallelization
        // of MAIN's K loop as pure annotation mode.
        let manual = compile_mode(FSMP_PROGRAM, FSMP_ANNOT, InlineMode::Annotation);
        let auto = compile_mode(FSMP_PROGRAM, FSMP_ANNOT, InlineMode::AutoAnnot);
        assert!(auto.parallel_loops().contains(&LoopId::new("MAIN", 2)));
        assert_eq!(manual.parallel_loops(), auto.parallel_loops());
        let rep = auto.autogen.as_ref().unwrap();
        // GETCR and FORMF are derivable leaves; FSMP fell back to manual.
        assert!(rep.derived.iter().any(|n| n == "GETCR"), "{rep:?}");
        assert!(rep.derived.iter().any(|n| n == "FORMF"), "{rep:?}");
        assert!(rep.manual_fallback.iter().any(|n| n == "FSMP"), "{rep:?}");
        assert!(
            rep.refusals
                .iter()
                .any(|(n, r)| n == "FSMP"
                    && matches!(r, finline::AutoGenRefusal::GuardedCall { .. })),
            "{:?}",
            rep.refusals
        );
        // Coverage classifies MAIN→FSMP as manual, FSMP→GETCR/FORMF as auto.
        assert_eq!(rep.manual_sites(), 1, "{:?}", rep.sites);
        assert_eq!(rep.auto_sites(), 2, "{:?}", rep.sites);
    }

    #[test]
    fn auto_annot_derives_a_call_chain_without_manual_annotations() {
        // A BONDFC-shaped chain: no hand-written annotations at all, yet
        // the MB loop parallelizes because the caller's summary is derived
        // by substituting its callees' summaries.
        let src = "      PROGRAM MAIN
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
        let none = compile_mode(src, "", InlineMode::None);
        assert!(!none.parallel_loops().contains(&LoopId::new("MAIN", 1)));
        let auto = compile_mode(src, "", InlineMode::AutoAnnot);
        assert!(
            auto.parallel_loops().contains(&LoopId::new("MAIN", 1)),
            "{:?}",
            auto.parallel_loops()
        );
        let rep = auto.autogen.as_ref().unwrap();
        assert!(rep.chain_derived.iter().any(|n| n == "BONDFC"));
        assert_eq!(rep.refused_sites(), 0, "{:?}", rep.sites);
        // Reverse inlining restored the original call.
        assert!(auto.source.contains("CALL BONDFC"), "{}", auto.source);
    }

    #[test]
    fn fsmp_no_inline_blocked_by_call() {
        let r = compile_mode(FSMP_PROGRAM, "", InlineMode::None);
        let ids = r.parallel_loops();
        assert!(!ids.contains(&LoopId::new("MAIN", 2)));
        let blockers = r.blockers_of(&LoopId::new("MAIN", 2));
        assert!(
            blockers.iter().any(|b| matches!(b, Blocker::Call(_))),
            "{blockers:?}"
        );
    }
}
