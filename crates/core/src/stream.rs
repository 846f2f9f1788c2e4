//! Bounded-memory streaming evaluation over an unbounded job stream.
//!
//! [`crate::driver::run_suite`] is a batch API: it holds every job and
//! every report until assembly, so memory grows linearly with suite
//! size. [`run_stream`] evaluates an `Iterator<Item = SuiteJob>` instead
//! — the corpus-scale path (thousands of generated programs):
//!
//! * **bounded in-flight window** — jobs are pulled
//!   [`DriverOptions::effective_stream_window`] at a time and fed to the
//!   existing worker pool; at most one window of jobs, cells, and
//!   reports is alive at any moment, so peak memory is independent of
//!   stream length (pinned by the retention integration test);
//! * **incremental aggregation** — each window's [`crate::phase::SuiteMetrics`]
//!   counters are folded into a running [`StreamSummary`] and the
//!   window's reports are dropped (unless
//!   [`DriverOptions::retain_results`] opts back into keeping them);
//! * **fault isolation unchanged** — every cell still runs inside the
//!   driver's `catch_unwind` boundary, so one hostile generated program
//!   degrades its own cells and the stream keeps going.
//!
//! The summary deliberately carries only *schedule-independent* counters
//! (no wall-clock, no memo-hit counts, no per-cell timing): its JSON is
//! byte-identical across worker counts and window sizes for the same job
//! stream, which is what the streaming-determinism test pins.
//! Wall-clock and VM counters live on the [`StreamOutcome`] next to it.

use crate::driver::{run_suite, AppReport, DriverOptions, SuiteJob, SuiteOutcome};
use crate::json::{self, ToJson};
use crate::json_object;
use crate::phase::{AutogenCoverage, PhaseTimings};
use std::collections::BTreeMap;

/// Deterministic aggregate over every cell of a streamed corpus.
///
/// Every field is a pure function of the job stream (the driver's
/// counters are schedule-independent: baselines and verifications run
/// exactly once per memo/cache slot regardless of worker interleaving),
/// so [`StreamSummary::to_json`] is byte-identical across worker counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// The effective in-flight window the stream ran with — the resolved
    /// value of [`DriverOptions::effective_stream_window`], recorded so
    /// the artifact says what bound actually applied rather than echoing
    /// the (possibly `0 = auto`) request. Deterministic given the
    /// options; it is the one field that differs between two streams of
    /// the same jobs run with different window configurations.
    pub window: u64,
    /// Jobs evaluated.
    pub programs: u64,
    /// Matrix cells evaluated (programs × inlining configurations).
    pub cells: u64,
    /// Cells that failed (any cause).
    pub failed_cells: u64,
    /// The subset of failed cells that hit the op-budget deadline.
    pub timed_out_cells: u64,
    /// The subset of failed cells caught at the panic isolation boundary.
    pub panicked_cells: u64,
    /// Completed cells whose verification passed both gates.
    pub verified_ok: u64,
    /// Interpreter executions paid for across the stream.
    pub interp_runs: u64,
    /// Verifications served from the emitted-source dedup cache.
    pub verify_cache_hits: u64,
    /// Loop decisions inspected across all completed cells.
    pub loops_total: u64,
    /// Loops judged parallel across all completed cells.
    pub loops_parallel: u64,
    /// Blocker kind → occurrence count across all completed cells.
    pub blockers: BTreeMap<&'static str, u64>,
    /// Summed autogen coverage across the stream's auto-annot cells.
    pub autogen: AutogenCoverage,
    /// Failed stage label → count (bounded: six stages).
    pub failure_stages: BTreeMap<String, u64>,
}

impl StreamSummary {
    /// Fold one finished window into the running aggregate.
    pub fn absorb(&mut self, window: &SuiteOutcome) {
        let m = &window.metrics;
        self.programs += window.apps.len() as u64;
        self.cells += m.cells.len() as u64 + m.failed_cells;
        self.failed_cells += m.failed_cells;
        self.timed_out_cells += m.timed_out_cells;
        self.panicked_cells += m.panicked_cells;
        self.verified_ok += m.verified_ok;
        self.interp_runs += m.interp_runs;
        self.verify_cache_hits += m.verify_cache_hits;
        for c in &m.cells {
            self.loops_total += c.loops_total as u64;
            self.loops_parallel += c.loops_parallel as u64;
            for (k, v) in &c.blockers {
                *self.blockers.entry(k).or_insert(0) += *v as u64;
            }
            if let Some(a) = &c.autogen {
                self.autogen.merge(a);
            }
        }
        for f in &m.failures {
            *self.failure_stages.entry(f.stage.clone()).or_insert(0) += 1;
        }
    }

    /// True when no cell panicked (the corpus-smoke gate: structured
    /// failures are allowed, detonations are not).
    pub fn panic_free(&self) -> bool {
        self.panicked_cells == 0
    }

    /// Serialize the deterministic aggregate as a JSON object.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl ToJson for StreamSummary {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "window": self.window, "programs": self.programs, "cells": self.cells,
            "failed_cells": self.failed_cells, "timed_out_cells": self.timed_out_cells,
            "panicked_cells": self.panicked_cells, "verified_ok": self.verified_ok,
            "interp_runs": self.interp_runs, "verify_cache_hits": self.verify_cache_hits,
            "loops_total": self.loops_total, "loops_parallel": self.loops_parallel,
            "blockers": self.blockers, "autogen": self.autogen,
            "failure_stages": self.failure_stages,
        });
    }
}

/// Everything [`run_stream`] produced: the deterministic summary plus
/// the schedule-dependent measurements kept apart from it.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Deterministic aggregate (byte-identical across worker counts).
    pub summary: StreamSummary,
    /// Worker threads the pool ran with.
    pub workers: usize,
    /// Window size the stream was chunked by.
    pub window: usize,
    /// End-to-end wall-clock, nanoseconds (schedule-dependent).
    pub wall_nanos: u64,
    /// Aggregate per-phase wall-clock (schedule-dependent).
    pub phases: PhaseTimings,
    /// Aggregate VM execution counters.
    pub vm: fruntime::VmCounters,
    /// Retained reports, in stream order — non-empty only when
    /// [`DriverOptions::retain_results`] is set.
    pub retained: Vec<AppReport>,
    /// High-water mark of [`AppReport`]s alive at once. Without
    /// retention this is bounded by the window size no matter how long
    /// the stream ran — the memory contract, pinned by test.
    pub peak_retained: usize,
}

impl StreamOutcome {
    /// Programs evaluated per second of stream wall-clock.
    pub fn programs_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.summary.programs as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Evaluate an unbounded job stream with bounded memory.
///
/// Jobs are drawn from the iterator one window at a time
/// ([`DriverOptions::effective_stream_window`]); each window runs
/// through the existing worker pool ([`run_suite`]), its counters are
/// folded into the [`StreamSummary`], and its reports are dropped before
/// the next window is drawn — unless
/// [`DriverOptions::retain_results`] asks to keep them. Lazy iterators
/// stay lazy: generation of window `k + 1` happens after window `k` has
/// been evaluated and released.
pub fn run_stream(jobs: impl IntoIterator<Item = SuiteJob>, opts: &DriverOptions) -> StreamOutcome {
    let t0 = std::time::Instant::now();
    // The resolved window is validated/reported the way worker counts
    // are: `effective_stream_window` never returns 0 (a configured value
    // is used as-is, `0 = auto` derives from the worker count), and the
    // value that actually applied is recorded on the summary instead of
    // being silently clamped here.
    let window = opts.effective_stream_window();
    let mut it = jobs.into_iter();

    let mut summary = StreamSummary {
        window: window as u64,
        ..StreamSummary::default()
    };
    let mut phases = PhaseTimings::default();
    let mut vm = fruntime::VmCounters::default();
    let mut retained: Vec<AppReport> = Vec::new();
    let mut peak_retained = 0usize;

    loop {
        let chunk: Vec<SuiteJob> = it.by_ref().take(window).collect();
        if chunk.is_empty() {
            break;
        }
        let out = run_suite(&chunk, opts);
        phases.merge(&out.metrics.phases);
        vm.absorb(&out.metrics.vm);
        summary.absorb(&out);
        peak_retained = peak_retained.max(retained.len() + out.apps.len());
        if opts.retain_results {
            retained.extend(out.apps);
        }
        // !retain_results: `out` (reports, cell metrics, failures) is
        // dropped here, together with `chunk` on the next iteration —
        // the whole point of the streaming mode.
    }

    StreamOutcome {
        summary,
        workers: opts.effective_workers(),
        window,
        wall_nanos: t0.elapsed().as_nanos() as u64,
        phases,
        vm,
        retained,
        peak_retained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finline::annot::AnnotRegistry;

    fn job(name: &str, n: i64) -> SuiteJob {
        let src = format!(
            "      PROGRAM {name}
      COMMON /B/ A({n}), S
      DO I = 1, {n}
        A(I) = I*2.0
      ENDDO
      S = 0.0
      DO I = 1, {n}
        S = S + A(I)
      ENDDO
      WRITE(6,*) S
      END
"
        );
        SuiteJob {
            name: name.into(),
            program: fir::parse(&src).unwrap(),
            registry: AnnotRegistry::default(),
        }
    }

    #[test]
    fn stream_matches_batch_counters_and_bounds_retention() {
        let jobs: Vec<SuiteJob> = (0..6).map(|i| job(&format!("J{i}"), 8 + i)).collect();
        let opts = DriverOptions {
            workers: 1,
            stream_window: 2,
            ..Default::default()
        };
        let streamed = run_stream(jobs.iter().cloned(), &opts);
        let batch = run_suite(&jobs, &opts);

        assert_eq!(streamed.summary.programs, 6);
        assert_eq!(streamed.summary.cells, 24);
        assert_eq!(streamed.summary.failed_cells, batch.metrics.failed_cells);
        assert_eq!(streamed.summary.interp_runs, batch.metrics.interp_runs);
        assert_eq!(streamed.summary.verified_ok, batch.metrics.verified_ok);
        // Window of 2 jobs → never more than 2 reports alive, and no
        // reports retained.
        assert_eq!(streamed.peak_retained, 2);
        assert!(streamed.retained.is_empty());
        assert!(streamed.summary.panic_free());
        assert!(streamed.programs_per_sec() > 0.0);
    }

    #[test]
    fn retention_opt_in_keeps_reports_in_stream_order() {
        let jobs: Vec<SuiteJob> = (0..5).map(|i| job(&format!("K{i}"), 8)).collect();
        let out = run_stream(
            jobs,
            &DriverOptions {
                workers: 1,
                stream_window: 2,
                retain_results: true,
                ..Default::default()
            },
        );
        assert_eq!(out.retained.len(), 5);
        assert_eq!(out.peak_retained, 5);
        let names: Vec<&str> = out.retained.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["K0", "K1", "K2", "K3", "K4"]);
        assert!(out.retained.iter().all(|a| a.results.len() == 4));
    }

    #[test]
    fn summary_json_is_deterministic_across_windows_and_workers() {
        let mk = || (0..7).map(|i| job(&format!("W{i}"), 6 + i));
        let a = run_stream(
            mk(),
            &DriverOptions {
                workers: 1,
                stream_window: 3,
                ..Default::default()
            },
        );
        let b = run_stream(
            mk(),
            &DriverOptions {
                workers: 4,
                stream_window: 3,
                ..Default::default()
            },
        );
        // Same window, different workers: byte-identical, window recorded.
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert_eq!(a.summary.window, 3);
        assert!(a.summary.to_json().contains("\"window\":3"));
        assert!(a.summary.to_json().contains("\"programs\":7"));
        // A different window changes only the recorded window field —
        // every evaluation counter stays schedule-independent.
        let c = run_stream(
            mk(),
            &DriverOptions {
                workers: 4,
                stream_window: 5,
                ..Default::default()
            },
        );
        assert_eq!(c.summary.window, 5);
        let mut c_norm = c.summary.clone();
        c_norm.window = a.summary.window;
        assert_eq!(a.summary, c_norm);
        // Auto window (0) resolves to workers × 4 and is reported.
        let d = run_stream(
            mk(),
            &DriverOptions {
                workers: 1,
                stream_window: 0,
                ..Default::default()
            },
        );
        assert_eq!(
            d.summary.window,
            DriverOptions {
                workers: 1,
                ..Default::default()
            }
            .effective_stream_window() as u64
        );
    }

    #[test]
    fn hostile_job_degrades_without_killing_the_stream() {
        let jobs = vec![job("OK1", 8), job("BOOM", 8), job("OK2", 8)];
        let out = run_stream(
            jobs,
            &DriverOptions {
                workers: 1,
                stream_window: 2,
                inject_panic: vec!["BOOM".into()],
                ..Default::default()
            },
        );
        assert_eq!(out.summary.programs, 3);
        assert_eq!(out.summary.panicked_cells, 4);
        assert_eq!(out.summary.failed_cells, 4);
        assert!(!out.summary.panic_free());
        assert_eq!(out.summary.failure_stages.get("driver"), Some(&4));
        // The two healthy programs still verified all cells.
        assert_eq!(out.summary.verified_ok, 8);
    }
}
