//! Ablation: last-iteration peeling (paper §III-B4). With peeling off,
//! loops that privatize escaping global temporaries (DYFESM's `XY`,
//! `WTDET`; BDNA's `TWORK`) cannot be parallelized at all — the paper's
//! design choice is what makes the FSMP-class gains possible.

use bench::harness::{BenchmarkId, Criterion};
use fpar::ParOptions;
use ipp_core::{compile, InlineMode, PipelineOptions};

fn options(peel: bool) -> PipelineOptions {
    let mut o = PipelineOptions::for_mode(InlineMode::Annotation);
    o.par = ParOptions { enable_peel: peel };
    o
}

fn report_once() {
    println!("\nABLATION — last-iteration peeling (annotation mode)");
    println!("{:<10} {:>12} {:>12}", "app", "peel-on", "peel-off");
    for name in ["DYFESM", "BDNA", "MDG"] {
        let app = perfect::by_name(name).unwrap();
        let program = app.program();
        let registry = app.registry();
        let on = compile(&program, &registry, &options(true))
            .parallel_loops()
            .len();
        let off = compile(&program, &registry, &options(false))
            .parallel_loops()
            .len();
        println!("{name:<10} {on:>12} {off:>12}");
    }
    println!();
}

fn bench_peel(c: &mut Criterion) {
    report_once();
    let app = perfect::by_name("DYFESM").unwrap();
    let program = app.program();
    let registry = app.registry();
    let mut group = c.benchmark_group("ablation/peel");
    group.sample_size(10);
    for peel in [true, false] {
        group.bench_with_input(BenchmarkId::from_parameter(peel), &peel, |b, &peel| {
            b.iter(|| std::hint::black_box(compile(&program, &registry, &options(peel)).loc))
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_peel(&mut c);
}
