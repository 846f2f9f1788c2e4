//! Suite-evaluation scaling: the concurrent cached driver (baseline memo +
//! verify dedup — 90 interpreter runs for the suite's 48 cells) over the
//! PERFECT suite at several worker counts. Run with
//! `cargo bench -p bench --bench driver_scaling`.
//!
//! Emits `crates/bench/artifacts/driver_scaling.json` with the measured
//! wall-clocks and the driver's interpreter-run accounting.

use bench::harness::{fmt_dur, median_of};
use bench::machines;
use ipp_core::driver::DriverOptions;
use ipp_core::json::ToJson;
use ipp_core::json_object;
use perfect::{driver_options, evaluate_suite_with_metrics};
use std::time::Duration;

const SAMPLES: usize = 3;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct DriverSample {
    workers: usize,
    effective_workers: usize,
    median: Duration,
    interp_runs: u64,
    memo_hits: u64,
    cache_hits: u64,
}

impl ToJson for DriverSample {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "workers": self.workers, "effective_workers": self.effective_workers,
            "median_ns": self.median.as_nanos(), "interp_runs": self.interp_runs,
            "baseline_memo_hits": self.memo_hits, "verify_cache_hits": self.cache_hits,
        });
    }
}

fn main() {
    let ms = machines();

    println!("group: driver_scaling");

    let mut samples = Vec::new();
    for workers in WORKER_COUNTS {
        let opts = DriverOptions {
            workers,
            ..driver_options(&ms)
        };
        let mut last_metrics = None;
        let median = median_of(SAMPLES, || {
            let (evals, metrics) = evaluate_suite_with_metrics(&ms, &opts);
            last_metrics = Some(metrics);
            evals
        });
        let m = last_metrics.expect("at least one sample ran");
        println!(
            "bench: {:<44} median {:>12}   (effective-workers {}, interp-runs {}, memo-hits {}, cache-hits {})",
            format!("driver_scaling/driver-w{workers}"),
            fmt_dur(median),
            m.workers,
            m.interp_runs,
            m.baseline_memo_hits,
            m.verify_cache_hits
        );
        samples.push(DriverSample {
            workers,
            effective_workers: m.workers,
            median,
            interp_runs: m.interp_runs,
            memo_hits: m.baseline_memo_hits,
            cache_hits: m.verify_cache_hits,
        });
    }

    // The host CPU count contextualizes the worker curve (on a
    // single-CPU host it is flat).
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut artifact = json_object!({
        "bench": "driver_scaling", "samples_per_point": SAMPLES, "host_cpus": host_cpus,
        "driver": samples,
    });
    artifact.push('\n');

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    std::fs::create_dir_all(&dir).expect("create artifacts dir");
    let path = dir.join("driver_scaling.json");
    std::fs::write(&path, &artifact).expect("write driver_scaling.json");
    println!("artifact: {}", path.display());
}
