//! Reference tree-walker vs bytecode VM on the race-checked PERFECT
//! verification workload: every app is pipeline-compiled in all three
//! inlining modes and executed sequentially with the race checker on —
//! the exact run `ipp_core::verify` performs per matrix cell. Run with
//! `cargo bench --bench interp_engines`.
//!
//! VM timings include lowering (`compile` + execute, the worst case for
//! the VM — the driver amortizes the compile over two runs).
//!
//! Emits `crates/bench/artifacts/interp_engines.json` with per-engine
//! medians, the headline speedup, the VM's execution-counter block, and
//! the allocation count of one warm VM pass (a counting global allocator
//! is installed, so the artifact records how much heap traffic the
//! workload actually causes). `IPP_BENCH_QUICK=1` runs a reduced
//! workload and skips the artifact write (the CI smoke mode).

use bench::harness::alloc_counter::{self, CountingAlloc};
use bench::harness::{fmt_dur, median_of};
use fruntime::interp::OP_CLASS_NAMES;
use fruntime::{run, Engine, ExecOptions, VmCounters};
use ipp_core::{compile, InlineMode, PipelineOptions};
use ipp_core::{json, json_object};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn engine_opts(engine: Engine) -> ExecOptions {
    ExecOptions {
        check_races: true,
        engine,
        ..Default::default()
    }
}

fn main() {
    let quick = std::env::var("IPP_BENCH_QUICK").is_ok_and(|v| v == "1");
    let samples = if quick { 1 } else { 5 };
    let mut apps = perfect::all();
    if quick {
        apps.truncate(3);
    }

    // Pipeline-compile the whole workload up front; only execution is
    // timed.
    let mut programs = Vec::new();
    for app in &apps {
        let p = app.program();
        let reg = app.registry();
        for mode in [
            InlineMode::None,
            InlineMode::Conventional,
            InlineMode::Annotation,
        ] {
            let r = compile(&p, &reg, &PipelineOptions::for_mode(mode));
            programs.push((format!("{} [{}]", app.name, mode.label()), r.program));
        }
    }

    println!("group: interp_engines");
    let run_all = |engine: Engine| -> Duration {
        let opts = engine_opts(engine);
        median_of(samples, || {
            let mut checksum = 0u64;
            for (name, p) in &programs {
                let r = run(p, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
                checksum = checksum.wrapping_add(r.total_ops);
            }
            checksum
        })
    };

    let tree = run_all(Engine::TreeWalk);
    println!(
        "bench: {:<44} median {:>12}",
        "interp_engines/tree-walker",
        fmt_dur(tree)
    );
    let vm = run_all(Engine::Bytecode);
    println!(
        "bench: {:<44} median {:>12}",
        "interp_engines/bytecode-vm",
        fmt_dur(vm)
    );

    let speedup = tree.as_secs_f64() / vm.as_secs_f64();
    println!("\ninterp_engines: bytecode VM vs tree-walker = {speedup:.2}x");

    // One extra warm VM pass, metered: aggregate execution counters and
    // the allocation events the whole workload costs after warmup.
    let vm_opts = engine_opts(Engine::Bytecode);
    let ((ctr, _checksum), allocs) = alloc_counter::count_process(|| {
        let mut ctr = VmCounters::default();
        let mut checksum = 0u64;
        for (name, p) in &programs {
            let r = run(p, &vm_opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            ctr.absorb(&r.vm);
            checksum = checksum.wrapping_add(r.total_ops);
        }
        (ctr, checksum)
    });
    println!(
        "vm counters: {} (pass allocs={allocs})",
        json::to_string(&ctr)
    );
    let class_retired = json::from_fn(|out| {
        let mut obj = json::object(out);
        for (name, count) in OP_CLASS_NAMES.iter().zip(ctr.class_retired) {
            obj.field(name, &count);
        }
        obj.end();
    });
    println!("vm retire histogram: {}", json::to_string(&class_retired));

    if quick {
        println!("quick mode: skipping artifact write");
        return;
    }

    let workload = format!(
        "race-checked sequential verification run, {} programs ({} apps x 3 inline modes); tick-folded control ops charge merged budget runs",
        programs.len(),
        apps.len()
    );
    let speedup = format!("{speedup:.4}");
    let mut artifact = json_object!({
        "bench": "interp_engines", "samples_per_point": samples, "workload": workload,
        "tree_walker_median_ns": tree.as_nanos(), "bytecode_vm_median_ns": vm.as_nanos(),
        "speedup_vm_vs_tree": json::Raw(&speedup), "vm_counters": ctr,
        "vm_class_retired": class_retired, "vm_pass_alloc_events": allocs,
    });
    artifact.push('\n');
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    std::fs::create_dir_all(&dir).expect("create artifacts dir");
    let path = dir.join("interp_engines.json");
    std::fs::write(&path, &artifact).expect("write interp_engines.json");
    println!("artifact: {}", path.display());
}
