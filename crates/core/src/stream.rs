//! Bounded-memory streaming evaluation over an unbounded job stream.
//!
//! [`crate::driver::run_suite`] is a batch API: it holds every job and
//! every report until assembly, so memory grows linearly with suite
//! size. [`run_stream`] evaluates an `Iterator<Item = SuiteJob>` instead
//! — the corpus-scale path (thousands of generated programs):
//!
//! * **one pool, no barriers** — one set of workers lives for the whole
//!   stream. Each worker pulls the next job from the shared iterator,
//!   evaluates that program's whole row on its own thread, folds the
//!   result and pulls again; nobody waits for a slower neighbour between
//!   programs. At most one program per worker is in flight, and the
//!   worker count is capped by [`DriverOptions::effective_stream_window`],
//!   so peak memory is independent of stream length (pinned by the
//!   retention integration test);
//! * **incremental aggregation** — each program's [`crate::phase::SuiteMetrics`]
//!   counters are folded into a running [`StreamSummary`] and its report
//!   is dropped (unless [`DriverOptions::retain_results`] opts back into
//!   keeping them);
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
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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
    /// Fold one finished suite run (in a stream, one program's row) into
    /// the running aggregate.
    pub fn absorb(&mut self, out: &SuiteOutcome) {
        let m = &out.metrics;
        self.programs += out.apps.len() as u64;
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
    /// Workers that evaluated the stream:
    /// [`DriverOptions::effective_workers`] capped by the window.
    pub workers: usize,
    /// The in-flight bound the stream ran with
    /// ([`DriverOptions::effective_stream_window`]).
    pub window: usize,
    /// Worker threads the stream spawned: [`StreamOutcome::workers`], or
    /// 0 when the calling thread evaluated the stream alone. One pool
    /// serves the whole stream, so this never grows with its length.
    pub threads_spawned: usize,
    /// End-to-end wall-clock, nanoseconds (schedule-dependent).
    pub wall_nanos: u64,
    /// Aggregate per-phase wall-clock (schedule-dependent).
    pub phases: PhaseTimings,
    /// Aggregate VM execution counters.
    pub vm: fruntime::VmCounters,
    /// Cells served a shared compile another cell built
    /// ([`crate::phase::SuiteMetrics::compile_memo_hits`] summed over the
    /// stream). Schedule-independent, but kept beside the summary rather
    /// than in it.
    pub compile_memo_hits: u64,
    /// Retained reports, in stream order — non-empty only when
    /// [`DriverOptions::retain_results`] is set.
    pub retained: Vec<AppReport>,
    /// High-water mark of programs in flight plus retained reports. Each
    /// worker holds at most one program, so without retention this is at
    /// most [`StreamOutcome::workers`] no matter how long the stream ran
    /// — the memory contract, pinned by test.
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

/// The running fold every worker adds its finished programs to.
#[derive(Default)]
struct Fold {
    summary: StreamSummary,
    phases: PhaseTimings,
    vm: fruntime::VmCounters,
    compile_memo_hits: u64,
    /// Retained reports tagged with their stream position.
    retained: Vec<(usize, AppReport)>,
    peak_retained: usize,
}

/// Evaluate an unbounded job stream with bounded memory.
///
/// One pool of `min(workers, window)` workers
/// ([`DriverOptions::effective_workers`],
/// [`DriverOptions::effective_stream_window`]) serves the whole stream;
/// with one worker the calling thread does the work and nothing is
/// spawned. Each worker repeatedly takes the next job from the
/// iterator (so parsing in a lazy iterator happens on the worker that
/// pulls), evaluates the program's whole row through [`run_suite`] on its
/// own thread, folds the counters into the [`StreamSummary`] and drops
/// the report — unless [`DriverOptions::retain_results`] asks to keep it;
/// retained reports come back in stream order. Lazy iterators stay lazy:
/// a job is generated only when a worker is free to evaluate it.
///
/// A panic raised by the iterator itself propagates out of `run_stream`;
/// the other workers finish the program they hold and stop pulling.
pub fn run_stream<I>(jobs: I, opts: &DriverOptions) -> StreamOutcome
where
    I: IntoIterator<Item = SuiteJob>,
    I::IntoIter: Send,
{
    let t0 = std::time::Instant::now();
    // `effective_stream_window` never returns 0 (a configured value is
    // used as-is, `0 = auto` derives from the worker count), and the
    // value that applied is recorded on the summary.
    let window = opts.effective_stream_window();
    let workers = opts.effective_workers().min(window);
    // Each worker evaluates one program's row on its own thread.
    let row_opts = DriverOptions {
        workers: 1,
        ..opts.clone()
    };
    let source = Mutex::new(jobs.into_iter().enumerate());
    let in_flight = AtomicUsize::new(0);
    let fold = Mutex::new(Fold {
        summary: StreamSummary {
            window: window as u64,
            ..StreamSummary::default()
        },
        ..Fold::default()
    });

    let work = || loop {
        // A poisoned source means another worker's pull panicked: that
        // panic is the stream's outcome, so stop pulling.
        let Ok(mut it) = source.lock() else { return };
        let Some((seq, job)) = it.next() else { return };
        in_flight.fetch_add(1, Ordering::Relaxed);
        drop(it);

        let out = run_suite(std::slice::from_ref(&job), &row_opts);
        drop(job);

        let mut f = fold.lock().unwrap_or_else(PoisonError::into_inner);
        f.phases.merge(&out.metrics.phases);
        f.vm.absorb(&out.metrics.vm);
        f.compile_memo_hits += out.metrics.compile_memo_hits;
        f.summary.absorb(&out);
        // Programs in flight (this one included) plus retained reports.
        f.peak_retained = f
            .peak_retained
            .max(f.retained.len() + in_flight.fetch_sub(1, Ordering::Relaxed));
        if opts.retain_results {
            f.retained.extend(out.apps.into_iter().map(|a| (seq, a)));
        }
    };
    let threads_spawned = if workers <= 1 {
        work();
        0
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    resume_unwind(payload);
                }
            }
        });
        workers
    };

    let mut f = fold.into_inner().unwrap_or_else(PoisonError::into_inner);
    f.retained.sort_by_key(|(seq, _)| *seq);
    StreamOutcome {
        summary: f.summary,
        workers,
        window,
        threads_spawned,
        wall_nanos: t0.elapsed().as_nanos() as u64,
        phases: f.phases,
        vm: f.vm,
        compile_memo_hits: f.compile_memo_hits,
        retained: f.retained.into_iter().map(|(_, a)| a).collect(),
        peak_retained: f.peak_retained,
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
        // One worker → one program alive at a time whatever the window,
        // no thread spawned, and no reports retained.
        assert_eq!(streamed.peak_retained, 1);
        assert_eq!(streamed.threads_spawned, 0);
        assert!(streamed.retained.is_empty());
        assert!(streamed.summary.panic_free());
        assert!(streamed.programs_per_sec() > 0.0);
    }

    #[test]
    fn retention_opt_in_keeps_reports_in_stream_order() {
        // At 4 workers programs finish out of order; the retained
        // reports still come back in input order.
        for workers in [1, 4] {
            let jobs: Vec<SuiteJob> = (0..12).map(|i| job(&format!("K{i}"), 4 + i)).collect();
            let out = run_stream(
                jobs,
                &DriverOptions {
                    workers,
                    stream_window: 8,
                    retain_results: true,
                    ..Default::default()
                },
            );
            assert_eq!(out.retained.len(), 12);
            assert_eq!(out.peak_retained, 12);
            let names: Vec<String> = out.retained.iter().map(|a| a.name.clone()).collect();
            let want: Vec<String> = (0..12).map(|i| format!("K{i}")).collect();
            assert_eq!(names, want, "{workers} workers");
            assert!(out.retained.iter().all(|a| a.results.len() == 4));
            // One pool for the whole stream: a thread per worker, or
            // none when a single worker runs on the calling thread.
            let pool = if out.workers > 1 { out.workers } else { 0 };
            assert_eq!(out.threads_spawned, pool);
        }
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
        for workers in [1, 2] {
            let jobs: Vec<SuiteJob> = ["OK1", "BOOM", "OK2", "OK3"]
                .iter()
                .map(|n| job(n, 8))
                .collect();
            let out = run_stream(
                jobs,
                &DriverOptions {
                    workers,
                    stream_window: 2,
                    retain_results: true,
                    inject_panic: vec!["BOOM".into()],
                    ..Default::default()
                },
            );
            assert_eq!(out.summary.programs, 4);
            assert_eq!(out.summary.panicked_cells, 4);
            assert_eq!(out.summary.failed_cells, 4);
            assert!(!out.summary.panic_free());
            assert_eq!(out.summary.failure_stages.get("driver"), Some(&4));
            // The healthy programs still verified all cells, and only the
            // hostile program's report carries failures.
            assert_eq!(out.summary.verified_ok, 12);
            for app in &out.retained {
                let want = if app.name == "BOOM" { 4 } else { 0 };
                assert_eq!(app.failures.len(), want, "{} at {workers}", app.name);
            }
        }
    }

    #[test]
    fn window_below_workers_caps_the_workers() {
        let jobs: Vec<SuiteJob> = (0..6).map(|i| job(&format!("C{i}"), 8)).collect();
        let out = run_stream(
            jobs,
            &DriverOptions {
                workers: 4,
                stream_window: 1,
                ..Default::default()
            },
        );
        assert_eq!(out.workers, 1);
        assert_eq!(out.threads_spawned, 0);
        assert_eq!(out.peak_retained, 1);
        assert_eq!(out.summary.window, 1);
        assert_eq!(out.summary.programs, 6);
    }

    #[test]
    #[should_panic(expected = "job source failed")]
    fn iterator_panic_propagates_out_of_the_stream() {
        let jobs = (0..6).map(|i| {
            if i == 3 {
                panic!("job source failed");
            }
            job(&format!("I{i}"), 8)
        });
        run_stream(
            jobs,
            &DriverOptions {
                workers: 2,
                stream_window: 4,
                ..Default::default()
            },
        );
    }
}
