//! Measurement primitives: the peak-heap allocator, percentiles, process
//! CPU time, and the report every workload fills in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus a live-byte count and its high-water mark.
/// Both counters are statistics that publish no other data, so `Relaxed`
/// suffices.
pub struct PeakAlloc;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are only read, never used to compute a pointer.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Start the high-water mark over again from the current live heap, so
/// the peak covers the timed region (and the inputs held through it),
/// not a set-up pass.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap since the last reset, in megabytes (10^6 bytes).
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

/// Linear-interpolation percentile (`p` in 0..=100) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// User and system CPU seconds this process has used so far, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks per
/// second on Linux). `(0, 0)` where the file is unavailable.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields after it are
    // space-separated, starting with field 3 (state).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return (0.0, 0.0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    (tick(11), tick(12))
}

/// Host-wide CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`) over the timed region: on a shared host it is the usual
/// reason one run reads slower than the next.
pub struct Steal([u64; 2]);

fn steal_and_total() -> [u64; 2] {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    [ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()]
}

impl Steal {
    pub fn start() -> Steal {
        Steal(steal_and_total())
    }

    /// Print the stolen share of the region; warn above 5%.
    pub fn finish(self, report: &mut Report) {
        let [s1, t1] = steal_and_total();
        let share = (s1 - self.0[0]) as f64 / (t1 - self.0[1]).max(1) as f64;
        println!(
            "host cpu steal during the timed region: {:.1}%",
            100.0 * share
        );
        if share > 0.05 {
            report.warnings.push(format!(
                "the hypervisor stole {:.1}% of host CPU time during the timed region; timings are slower than on a quiet host",
                100.0 * share
            ));
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Worker count of the shipped entry points on this host: one per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a total or a count).
    pub samples: usize,
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the timed region (cells, programs' cells,
    /// requests).
    pub attempted: u64,
    /// Attempted operations that failed, were refused or were shed.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Steadiness warnings (printed, never fatal on their own).
    pub warnings: Vec<String>,
}

impl Report {
    /// Record a named check; a check made again (once per pass) holds
    /// only if it held every time.
    pub fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, held)) => *held &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Run `setup` `reps` times (at least once), keeping the last result;
/// returns it with the median setup time in seconds.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous repetition's state before building the next,
        // so each repetition starts from the same heap.
        drop(last.take());
        let t = Instant::now();
        let v = setup();
        times.push(secs(t));
        last = Some(v);
    }
    (
        last.expect("at least one setup repetition ran"),
        median(&times),
    )
}
