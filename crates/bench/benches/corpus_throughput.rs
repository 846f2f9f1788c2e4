//! Corpus-scale streaming throughput: programs/sec through
//! `ipp_core::run_stream` over a seeded generated corpus, at several
//! worker counts. Run with `cargo bench --bench corpus_throughput`.
//!
//! Emits `crates/bench/artifacts/corpus_throughput.json` with the
//! measured throughput at workers 1/2/4 over a ≥1000-program stream,
//! plus the deterministic stream counters so a regression in corpus
//! composition (more failing cells, fewer parallel loops) is visible
//! next to the wall-clock. The host CPU count contextualizes the worker
//! curve — on a single-CPU host the three points measure scheduling
//! overhead, not fan-out. Each point also records `threads_spawned`, the
//! stream's worker threads: one pool per stream, so it never exceeds the
//! effective worker count however long the stream.
//!
//! A counting global allocator is installed. One extra workers-1 stream
//! after the timed points is metered: the artifact records its allocation
//! events per cell (a deterministic count CI can gate, unlike the
//! wall-clock), its per-phase `PhaseTimings` split, and its
//! `compile_memo_hits` (cells served a shared compile another cell
//! built; the same at every worker count).

use bench::harness::alloc_counter::{self, CountingAlloc};
use bench::harness::median_of;
use ipp_core::{json, json_object};
use ipp_core::{run_stream, DriverOptions, StreamOutcome, StreamSummary};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 0x1DE0_2011;
const PROGRAMS: u64 = 1000;
const SAMPLES: usize = 3;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn stream_at(workers: usize) -> StreamOutcome {
    let opts = DriverOptions {
        workers,
        verify_threads: 2,
        verify_max_ops: 2_000_000,
        ..Default::default()
    };
    run_stream(corpus::jobs(SEED, PROGRAMS), &opts)
}

fn main() {
    println!("group: corpus_throughput");
    let mut points: Vec<(usize, StreamOutcome, Duration)> = Vec::new();
    for workers in WORKER_COUNTS {
        let mut last: Option<StreamOutcome> = None;
        let median = median_of(SAMPLES, || last = Some(stream_at(workers)));
        let out = last.expect("at least one sample ran");
        println!(
            "bench: {:<44} median {:>8.3} s   ({:.1} programs/sec, effective-workers {}, window {}, threads {})",
            format!("corpus_throughput/w{workers}"),
            median.as_secs_f64(),
            PROGRAMS as f64 / median.as_secs_f64(),
            out.workers,
            out.window,
            out.threads_spawned
        );
        points.push((workers, out, median));
    }

    // The stream summary is deterministic: every worker count must have
    // aggregated the exact same corpus the same way. Only the recorded
    // window follows the worker count (auto window on a multi-CPU host).
    let base = points[0].1.summary.to_json();
    let windowless = |out: &StreamOutcome| StreamSummary {
        window: points[0].1.summary.window,
        ..out.summary.clone()
    };
    for (w, out, _) in &points {
        assert_eq!(windowless(out).to_json(), base, "summary diverged at w{w}");
        assert!(out.summary.panic_free(), "panicked cells at w{w}");
        // Served minus built: the same count on any schedule.
        assert_eq!(
            out.compile_memo_hits, points[0].1.compile_memo_hits,
            "compile-memo hits diverged at w{w}"
        );
    }
    let s = &points[0].1.summary;

    let (metered, allocs) = alloc_counter::count_process(|| stream_at(1));
    assert_eq!(metered.summary.to_json(), base, "metered stream diverged");
    let allocs_per_cell = (allocs as f64 / s.cells as f64).round() as u64;
    println!(
        "allocations: {allocs} events over {} cells ({allocs_per_cell} per cell, workers 1)",
        s.cells
    );
    println!(
        "compile memo: {} cells served a shared compile",
        metered.compile_memo_hits
    );
    println!(
        "corpus: {} programs, {} cells, {} verified ok, {} failed ({} timed out), {}/{} loops parallel",
        s.programs,
        s.cells,
        s.verified_ok,
        s.failed_cells,
        s.timed_out_cells,
        s.loops_parallel,
        s.loops_total
    );

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs: Vec<_> = points
        .iter()
        .map(|(w, out, median)| {
            json::from_fn(move |o| {
                let per_sec = format!("{:.3}", PROGRAMS as f64 / median.as_secs_f64());
                json_object!(o, {
                    "workers": w, "effective_workers": out.workers, "window": out.window,
                    "threads_spawned": out.threads_spawned, "median_ns": median.as_nanos(),
                    "programs_per_sec": json::Raw(&per_sec),
                });
            })
        })
        .collect();
    let mut artifact = json_object!({
        "bench": "corpus_throughput", "seed": SEED, "programs": PROGRAMS,
        "samples_per_point": SAMPLES, "host_cpus": host_cpus, "runs": runs,
        "compile_memo_hits": metered.compile_memo_hits,
        "alloc_events": allocs, "alloc_events_per_cell": allocs_per_cell,
        "phases": metered.phases, "summary": s,
    });
    artifact.push('\n');

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    std::fs::create_dir_all(&dir).expect("create artifacts dir");
    let path = dir.join("corpus_throughput.json");
    std::fs::write(&path, &artifact).expect("write corpus_throughput.json");
    println!("artifact: {}", path.display());
}
