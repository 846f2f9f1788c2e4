//! # ipp-core — the paper's contribution, assembled
//!
//! Reproduction of *"Enhancing the Role of Inlining in Effective
//! Interprocedural Parallelization"* (Guo, Stiles, Yi, Psarris — ICPP
//! 2011). This crate wires the substrates together into the Fig. 15
//! pipeline and provides the evaluation machinery:
//!
//! * [`pipeline::compile`] — run a MiniF77 program through one of the four
//!   inlining configurations (none / conventional / annotation-based with
//!   reverse inlining / auto-annot, which derives its registry over the
//!   call graph) followed by Polaris-style auto-parallelization;
//! * [`report`] — Table II rows (`#par-loops`, `#par-loss`, `#par-extra`,
//!   code size) and Figure 20 speedup points, with the paper's accounting
//!   rules;
//! * [`verify`](mod@verify) — the runtime testers: original ≡ optimized,
//!   sequential ≡ threaded, and no cross-iteration races;
//! * [`driver`] — the concurrent, cached evaluation driver: a worker pool
//!   over the application × configuration matrix, a per-app baseline-run
//!   memo (one reference run shared by all four configurations), a
//!   verify-dedup cache, and per-phase observability ([`phase`]) rolled
//!   into a [`phase::SuiteMetrics`] JSON report;
//! * [`stream::run_stream`] — the corpus-scale path: bounded-memory
//!   streaming evaluation of an unbounded job iterator, aggregating a
//!   deterministic [`stream::StreamSummary`] instead of retaining
//!   per-app reports;
//! * [`tournament`] — ComPar-style portfolio execution: per app, fan a
//!   labelled configuration portfolio (the four modes plus ablation-knob
//!   variants) through the same worker pool and caches, score every arm
//!   with the machine cost model, and report the winner with a
//!   structured "why" record;
//! * [`service`] — the per-request surface for the daemon front-end
//!   (`crates/server`): [`service::evaluate_request`], the bounded
//!   cross-request [`service::RequestCache`], and the daemon-wide
//!   [`service::ServerMetrics`] report;
//! * [`json`] — the one JSON layer: the streaming writer every report,
//!   artifact and wire message goes through, and the hardened decoder
//!   that reads them back.
//!
//! ## Quick example
//!
//! ```
//! use ipp_core::pipeline::{compile, InlineMode, PipelineOptions};
//! use finline::annot::AnnotRegistry;
//!
//! let program = fir::parse(
//!     "      PROGRAM MAIN
//!       DIMENSION A(100), B(100)
//!       DO I = 1, 100
//!         A(I) = B(I)*2.0
//!       ENDDO
//!       END
//! ").unwrap();
//! let annotations = AnnotRegistry::default();
//! let result = compile(&program, &annotations,
//!                      &PipelineOptions::for_mode(InlineMode::None));
//! assert_eq!(result.parallel_loops().len(), 1);
//! assert!(result.source.contains("!$OMP PARALLEL DO"));
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod error;
pub mod json;
pub mod phase;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod stream;
pub mod tournament;
pub mod verify;

pub use driver::{
    compile_configs, default_configs, run_app, run_suite, source_key, AppReport, CellConfig,
    DriverOptions, SuiteJob, SuiteOutcome,
};
pub use error::{FailCause, FailStage, PipelineError};
pub use phase::{
    blocker_counts, blocker_key, CellMetrics, FailureRecord, Phase, PhaseTimings, SuiteMetrics,
};
pub use pipeline::{compile, compile_timed, InlineMode, PipelineOptions, PipelineResult};
pub use service::{
    arm_key, evaluate_request, evaluate_tournament, request_key, ArmSummary, CacheStats,
    LoopSummary, RequestCache, RequestReport, ServerMetrics, TournamentReport,
};
pub use stream::{run_stream, StreamOutcome, StreamSummary};
pub use tournament::{portfolio, run_tournament, AppTournament, ArmScore, TournamentOutcome};

pub use report::{
    extra_loops, lost_loops, render_fig20, render_table2, table2_rows, totals_for, Fig20Point,
    Table2Row, Table2Totals,
};
pub use verify::{
    baseline_run, baseline_run_with, verify, verify_with_baseline_using, VerifyResult,
};
