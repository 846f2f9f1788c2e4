//! The traced run: spans recorded around every public call the benchmark
//! makes, and a replay that drives the layers an entry point hides
//! (`run_tournament`, `run_stream`, the daemon) through their public
//! functions, making the same dedup decisions as the driver.

use finline::annot::AnnotRegistry;
use fruntime::{Engine, ExecOptions, Machine, RunResult, VmCounters};
use ipp_core::{compile_timed, source_key, CellConfig, DriverOptions, Phase, PhaseTimings};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span; spans of one
/// unit of work (cell, program, request) share `unit`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

/// In-memory span store, written out once when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Calls, total and self time of every span carrying one name.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned: a traced call panicked")
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`; `f` receives the span's id so the
    /// calls it makes can record children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        unit: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.now(),
                end_ns: 0,
                parent,
                unit,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.lock()[id].end_ns = end;
        out
    }

    /// Per span name: calls, total time, and self time (duration minus
    /// the durations of the span's children).
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write every span as JSON to `path`, creating its directory.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.unit
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// One program to replay, as source text: parsing is part of the replay.
pub struct ReplayJob {
    pub source: String,
    pub annotations: String,
}

/// Counters the replay gathers at the layer boundaries it crosses.
#[derive(Default)]
pub struct LayerCounts {
    pub cells: u64,
    pub cells_ok: u64,
    pub phases: PhaseTimings,
    pub loc_emitted: u64,
    pub loops_total: u64,
    pub loops_parallel: u64,
    pub auto_sites: u64,
    pub refused_sites: u64,
    pub interp_runs: u64,
    pub baseline_memo_hits: u64,
    pub verify_cache_hits: u64,
    /// Directive-loop executions the race-checked sequential gate saw.
    pub seq_loop_execs: u64,
    /// Directive-loop executions the threaded gate saw.
    pub par_loop_execs: u64,
    pub vm: VmCounters,
    pub races: u64,
}

impl LayerCounts {
    pub fn absorb(&mut self, o: &LayerCounts) {
        self.cells += o.cells;
        self.cells_ok += o.cells_ok;
        self.phases.merge(&o.phases);
        self.loc_emitted += o.loc_emitted;
        self.loops_total += o.loops_total;
        self.loops_parallel += o.loops_parallel;
        self.auto_sites += o.auto_sites;
        self.refused_sites += o.refused_sites;
        self.interp_runs += o.interp_runs;
        self.baseline_memo_hits += o.baseline_memo_hits;
        self.verify_cache_hits += o.verify_cache_hits;
        self.seq_loop_execs += o.seq_loop_execs;
        self.par_loop_execs += o.par_loop_execs;
        self.vm.absorb(&o.vm);
        self.races += o.races;
    }
}

/// A paid verification, shared by every cell emitting the same source.
struct Verified {
    ok: bool,
    total_ops: u64,
    events: Vec<fruntime::ParLoopEvent>,
}

type Slot = Arc<OnceLock<Option<Verified>>>;

/// Replay `jobs` × `configs` through the layers' public functions on
/// `opts.effective_workers()` threads, in the driver's config-major
/// order, with its per-app baseline memo and its verify dedup keyed by
/// `(app, source_key(emitted source))`. Each completed, verified cell is
/// scored `score_rounds` times on `machines` (the tournament scores a
/// cell once for its Figure 20 points and once for the ranking).
pub fn replay(
    tracer: &Tracer,
    jobs: &[ReplayJob],
    unit_base: u64,
    configs: &[CellConfig],
    machines: &[Machine],
    score_rounds: usize,
    opts: &DriverOptions,
) -> LayerCounts {
    let parsed: Vec<(fir::ast::Program, AnnotRegistry)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            tracer.span("fir.parse", None, unit_base + i as u64, |_| {
                let program = fir::parse(&j.source).expect("benchmark inputs parse");
                let registry = if j.annotations.trim().is_empty() {
                    AnnotRegistry::default()
                } else {
                    AnnotRegistry::parse(&j.annotations).expect("benchmark annotations parse")
                };
                (program, registry)
            })
        })
        .collect();

    let n_cfg = configs.len();
    let queue: Mutex<VecDeque<(usize, usize)>> = Mutex::new(
        (0..n_cfg)
            .flat_map(|c| (0..jobs.len()).map(move |a| (a, c)))
            .collect(),
    );
    let baselines: Vec<OnceLock<Option<RunResult>>> =
        (0..jobs.len()).map(|_| OnceLock::new()).collect();
    let slots: Mutex<HashMap<(usize, u128), Slot>> = Mutex::new(HashMap::new());
    let totals = Mutex::new(LayerCounts::default());

    let max_ops = opts.verify_max_ops;
    let engine = opts.engine;
    let base_opts = ExecOptions {
        max_ops,
        engine,
        ..Default::default()
    };
    let seq_opts = ExecOptions {
        check_races: true,
        max_ops,
        engine,
        ..Default::default()
    };
    let par_opts = ExecOptions {
        threads: opts.effective_verify_threads(),
        max_ops,
        engine,
        ..Default::default()
    };

    let cell = |app: usize, cfg: usize| -> LayerCounts {
        let mut c = LayerCounts::default();
        let unit = unit_base + app as u64;
        let (program, registry) = &parsed[app];
        tracer.span("driver.cell", None, unit, |cell_span| {
            c.cells = 1;
            let result = tracer.span("pipeline.compile", Some(cell_span), unit, |_| {
                compile_timed(program, registry, &configs[cfg].opts, &mut c.phases)
            });
            let Ok(result) = result else { return };
            c.loc_emitted = result.loc as u64;
            c.loops_total = result.par_report.decisions.len() as u64;
            c.loops_parallel = result.parallel_loops().len() as u64;
            if let Some(auto) = &result.autogen {
                c.auto_sites = auto.auto_sites() as u64;
                c.refused_sites = auto.refused_sites() as u64;
            }
            let verified = tracer.span("driver.verify", Some(cell_span), unit, |v| {
                if baselines[app].get().is_some() {
                    c.baseline_memo_hits += 1;
                }
                let base = baselines[app].get_or_init(|| {
                    c.interp_runs += 1;
                    tracer.span("fruntime.baseline", Some(v), unit, |_| {
                        ipp_core::baseline_run_with(program, &base_opts).ok()
                    })
                });
                let base = base.as_ref()?;
                let slot: Slot = slots
                    .lock()
                    .expect("verify slots poisoned")
                    .entry((app, source_key(&result.source)))
                    .or_default()
                    .clone();
                let mut paid = false;
                slot.get_or_init(|| {
                    paid = true;
                    c.interp_runs += 2;
                    let (seq, par) = match engine {
                        Engine::Bytecode => {
                            let lowered = tracer.span("fruntime.lower", Some(v), unit, |_| {
                                fruntime::compile(&result.program)
                            });
                            let seq = tracer.span("fruntime.seq_check", Some(v), unit, |_| {
                                fruntime::run_compiled(&lowered, &seq_opts)
                            });
                            let par = tracer.span("fruntime.par_run", Some(v), unit, |_| {
                                fruntime::run_compiled(&lowered, &par_opts)
                            });
                            (seq, par)
                        }
                        Engine::TreeWalk => (
                            tracer.span("fruntime.seq_check", Some(v), unit, |_| {
                                fruntime::run(&result.program, &seq_opts)
                            }),
                            tracer.span("fruntime.par_run", Some(v), unit, |_| {
                                fruntime::run(&result.program, &par_opts)
                            }),
                        ),
                    };
                    let (seq, par) = (seq.ok()?, par.ok()?);
                    c.seq_loop_execs += seq.par_events.len() as u64;
                    c.par_loop_execs += par.par_events.len() as u64;
                    c.races += seq.races.len() as u64;
                    c.vm.absorb(&seq.vm);
                    c.vm.absorb(&par.vm);
                    Some(Verified {
                        ok: base.same_observable(&seq, 1e-12) && seq.same_observable(&par, 1e-9),
                        total_ops: seq.total_ops,
                        events: seq.par_events,
                    })
                });
                if !paid {
                    c.verify_cache_hits += 1;
                }
                Some(slot)
            });
            let Some(v) = verified
                .as_ref()
                .and_then(|s| s.get())
                .and_then(Option::as_ref)
            else {
                return;
            };
            if !v.ok {
                return;
            }
            c.cells_ok = 1;
            if !machines.is_empty() {
                tracer.span("tournament.score", Some(cell_span), unit, |_| {
                    for _ in 0..score_rounds {
                        for m in machines {
                            let off = fruntime::tune(&v.events, m);
                            let sim = fruntime::simulate(v.total_ops, &v.events, m, &off);
                            std::hint::black_box(sim.speedup());
                        }
                    }
                });
            }
        });
        c
    };

    let worker = || loop {
        let next = queue.lock().expect("replay queue poisoned").pop_front();
        let Some((app, cfg)) = next else { return };
        let c = cell(app, cfg);
        totals.lock().expect("replay totals poisoned").absorb(&c);
    };
    let workers = opts.effective_workers().min(jobs.len() * n_cfg).max(1);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(worker);
        }
    });
    totals.into_inner().expect("replay totals poisoned")
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fir.parse_ms", "ms"),
    ("fir.print_ms", "ms"),
    ("fir.loc_emitted", "count"),
    ("pipeline.normalize_ms", "ms"),
    ("finline.inline_ms", "ms"),
    ("finline.reverse_ms", "ms"),
    ("finline.auto_sites", "count"),
    ("finline.refused_sites", "count"),
    ("fpar.parallelize_ms", "ms"),
    ("fpar.loops_total", "count"),
    ("fpar.loops_parallel", "count"),
    ("fruntime.baseline_ms", "ms"),
    ("fruntime.lower_ms", "ms"),
    ("fruntime.seq_check_ms", "ms"),
    ("fruntime.par_run_ms", "ms"),
    ("fruntime.par_loop_execs", "count"),
    ("fruntime.insns_retired", "count"),
    ("fruntime.fused_insns", "count"),
    ("fruntime.races", "count"),
    ("driver.interp_runs", "count"),
    ("driver.baseline_memo_hits", "count"),
    ("driver.verify_cache_hits", "count"),
    ("driver.dedup_ratio", "ratio"),
    ("driver.verify_ms", "ms"),
    ("tournament.score_ms", "ms"),
    ("service.evaluate_ms", "ms"),
    ("server.decode_us", "us"),
    ("server.encode_us", "us"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.cache_evictions", "count"),
    ("server.hit_ratio", "ratio"),
    ("server.hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("server.p99_ms", "ms"),
    ("server.throttled", "count"),
    ("server.shed", "count"),
    ("process.user_cpu_s", "s"),
    ("process.sys_cpu_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
];

/// Per-layer values by metric name, with the samples behind each; see
/// [`PER_LAYER`].
pub type Layers = BTreeMap<&'static str, (f64, usize)>;

/// Report every [`PER_LAYER`] metric, 0 where the workload left a layer
/// unexercised.
pub fn emit(report: &mut crate::measure::Report, layers: &Layers) {
    for key in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(name, _)| name == key),
            "per-layer metric {key} is missing from PER_LAYER"
        );
    }
    for (name, unit) in PER_LAYER {
        let (value, samples) = layers.get(name).copied().unwrap_or((0.0, 0));
        report.metric(name, value, unit, samples);
    }
}

/// The replay-derived layer values: span self times and the counters the
/// replay gathered.
pub fn replay_layers(layers: &mut Layers, tracer: &Tracer, c: &LayerCounts) {
    let spans = tracer.summary();
    let span = |name: &str| {
        spans
            .get(name)
            .map_or((0.0, 0), |l| (l.self_ms(), l.calls as usize))
    };
    let phase = |p: Phase| {
        (
            c.phases.nanos_of(p) as f64 / 1e6,
            c.phases.count_of(p) as usize,
        )
    };
    let count = |v: u64| (v as f64, 1);
    let values = [
        ("fir.parse_ms", span("fir.parse")),
        ("fir.print_ms", phase(Phase::Print)),
        ("fir.loc_emitted", count(c.loc_emitted)),
        ("pipeline.normalize_ms", phase(Phase::Normalize)),
        ("finline.inline_ms", phase(Phase::Inline)),
        ("finline.reverse_ms", phase(Phase::ReverseInline)),
        ("finline.auto_sites", count(c.auto_sites)),
        ("finline.refused_sites", count(c.refused_sites)),
        ("fpar.parallelize_ms", phase(Phase::Parallelize)),
        ("fpar.loops_total", count(c.loops_total)),
        ("fpar.loops_parallel", count(c.loops_parallel)),
        ("fruntime.baseline_ms", span("fruntime.baseline")),
        ("fruntime.lower_ms", span("fruntime.lower")),
        ("fruntime.seq_check_ms", span("fruntime.seq_check")),
        ("fruntime.par_run_ms", span("fruntime.par_run")),
        ("fruntime.par_loop_execs", count(c.seq_loop_execs)),
        ("fruntime.insns_retired", count(c.vm.insns_retired)),
        ("fruntime.fused_insns", count(c.vm.fused_insns)),
        ("fruntime.races", count(c.races)),
        ("tournament.score_ms", span("tournament.score")),
    ];
    for (k, v) in values {
        layers.insert(k, v);
    }
}

/// Human-readable breakdown of the replay's verify spans: how much of
/// the traced verify time the `fruntime` calls account for.
pub fn verify_coverage(tracer: &Tracer) -> (f64, f64) {
    let spans = tracer.summary();
    let total = |n: &str| spans.get(n).map_or(0.0, |l| l.total_ns as f64 / 1e6);
    let verify = total("driver.verify");
    let runtime = total("fruntime.baseline")
        + total("fruntime.lower")
        + total("fruntime.seq_check")
        + total("fruntime.par_run");
    (verify, runtime)
}
