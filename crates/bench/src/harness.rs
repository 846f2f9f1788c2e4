//! Self-contained micro-benchmark harness with a criterion-shaped API.
//!
//! The container this reproduction builds in has no network access to
//! crates.io, so the benches run on this small shim instead of criterion:
//! same `Criterion` / `benchmark_group` / `bench_with_input` / `Bencher::iter`
//! call shapes, wall-clock medians over a fixed sample count, aligned text
//! output. Each bench target provides a plain `fn main` that drives a
//! [`Criterion`] value through its bench functions.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness handle (criterion-compatible subset).
pub struct Criterion {
    /// Samples measured per benchmark.
    pub sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchGroup<'_> {
        println!("group: {name}");
        BenchGroup {
            c: self,
            name: name.to_string(),
            sample_size: None,
        }
    }

    /// Measure a single function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let m = measure(self.sample_size, &mut f);
        report(name, &m);
    }
}

/// A benchmark group.
pub struct BenchGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    fn samples(&self) -> usize {
        self.sample_size.unwrap_or(self.c.sample_size)
    }

    /// Measure a function against one input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let m = measure(self.samples(), &mut |b| f(b, input));
        report(&format!("{}/{}", self.name, id.0), &m);
    }

    /// Measure a named function within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: impl Display, mut f: F) {
        let m = measure(self.samples(), &mut f);
        report(&format!("{}/{}", self.name, name), &m);
    }

    /// End the group (kept for call-site compatibility).
    pub fn finish(self) {}
}

/// Benchmark identifier: `function / parameter`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Compose a two-part id.
    pub fn new(function: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// An id that is just the parameter (criterion-compatible).
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Passed to the measured closure; `iter` runs and times the payload.
pub struct Bencher {
    elapsed: Duration,
}

impl Bencher {
    /// Time one execution of `f` (the harness calls the closure once per
    /// sample; the payload result is black-boxed).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let t = Instant::now();
        let out = f();
        self.elapsed = t.elapsed();
        std::hint::black_box(out);
    }
}

/// Measurement summary over all samples.
pub struct Measurement {
    /// Median sample time.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
}

fn measure<F: FnMut(&mut Bencher)>(samples: usize, f: &mut F) -> Measurement {
    let mut b = Bencher {
        elapsed: Duration::ZERO,
    };
    // One warm-up pass outside the sample set.
    f(&mut b);
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        b.elapsed = Duration::ZERO;
        f(&mut b);
        times.push(b.elapsed);
    }
    times.sort();
    Measurement {
        median: times[times.len() / 2],
        min: times[0],
        max: times[times.len() - 1],
    }
}

fn report(name: &str, m: &Measurement) {
    println!(
        "bench: {name:<44} median {:>12} (min {}, max {})",
        fmt_dur(m.median),
        fmt_dur(m.min),
        fmt_dur(m.max)
    );
}

/// Human-friendly duration formatting.
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Heap-allocation metering for the zero-allocation benches and tests.
///
/// Install [`alloc_counter::CountingAlloc`] as the binary's
/// `#[global_allocator]`, then bracket the region of interest with
/// [`alloc_counter::count`]. Every event bumps a relaxed process-wide
/// atomic and a per-thread counter — cheap enough to leave on for timed
/// runs, precise enough to prove a hot path steady-states at zero. The
/// same hooks keep the calling thread's live bytes and their high-water
/// mark, which [`alloc_counter::peak_live`] reads: an exact, repeatable
/// peak-heap figure for work that runs on one thread.
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // `const`-initialised with no destructor: reading or bumping them
        // never allocates, so the allocator itself may touch them.
        static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
        // Bytes this thread allocated minus bytes it freed (negative when
        // it frees memory another thread allocated), and the highest that
        // balance has reached.
        static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
        static THREAD_PEAK: Cell<i64> = const { Cell::new(0) };
    }

    fn bump() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
    }

    /// Move the calling thread's live-byte balance by `delta`, raising
    /// its high-water mark when the balance passes it.
    fn live(delta: i64) {
        let now = THREAD_LIVE.get() + delta;
        THREAD_LIVE.set(now);
        if now > THREAD_PEAK.get() {
            THREAD_PEAK.set(now);
        }
    }

    /// `System` allocator wrapper that counts every allocation event
    /// (`alloc`, `alloc_zeroed`, and growth via `realloc`; frees are not
    /// counted — the claim under test is about *acquiring* memory) and
    /// keeps the per-thread live-byte balance behind [`peak_live`].
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            let p = System.alloc(layout);
            if !p.is_null() {
                live(layout.size() as i64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                live(layout.size() as i64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            live(-(layout.size() as i64));
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                live(new_size as i64 - layout.size() as i64);
            }
            p
        }
    }

    /// Allocation events of the whole process since it started (0
    /// forever unless [`CountingAlloc`] is the installed global
    /// allocator).
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Allocation events of the calling thread since it started.
    fn thread_allocations() -> u64 {
        THREAD_ALLOCS.with(Cell::get)
    }

    /// Run `f` and return its result plus the number of allocation
    /// events the calling thread performed meanwhile. Other threads'
    /// allocations — a concurrently running test, say — do not leak in.
    pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = thread_allocations();
        let out = f();
        (out, thread_allocations() - before)
    }

    /// Bytes the calling thread holds: what it allocated minus what it
    /// freed since it started (0 unless [`CountingAlloc`] is installed).
    pub fn thread_live_bytes() -> i64 {
        THREAD_LIVE.get()
    }

    /// Run `f` and return its result plus the peak of the calling
    /// thread's live bytes above their level when `f` began: the most
    /// heap `f` held at once. Exact when `f` allocates and frees on the
    /// calling thread only; other threads' allocations do not leak in.
    pub fn peak_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let start = THREAD_LIVE.get();
        let outer = THREAD_PEAK.replace(start);
        let out = f();
        let peak = THREAD_PEAK.get();
        // An enclosing `peak_live` still sees the highest balance.
        THREAD_PEAK.set(outer.max(peak));
        (out, (peak - start) as u64)
    }

    /// [`count`] over the whole process: every thread's allocations while
    /// `f` runs. Only meaningful when nothing else runs concurrently.
    pub fn count_process<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = allocations();
        let out = f();
        (out, allocations() - before)
    }
}

/// Run `f` `n` times, returning the median wall-clock duration.
pub fn median_of<T>(n: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut times: Vec<Duration> = (0..n.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}
