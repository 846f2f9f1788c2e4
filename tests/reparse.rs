//! Everything the pipeline emits must re-parse, and the re-parsed text
//! must run exactly like the AST it was printed from.
//!
//! Verification runs the optimized AST, not the emitted source, so a
//! printer defect (a REAL ≥ 1e15 spelled as an INTEGER literal, say)
//! would slip past every runtime tester while the daemon hands the broken
//! text to clients. This sweep makes the text the thing under test: every
//! source of the PERFECT 12 × 4 matrix and of a fixed-seed corpus slice
//! × 4 modes goes through `fir::parse`, and the re-parsed program's run
//! must match the AST's run on output, STOP message and COMMON memory.

use fruntime::{run, ExecOptions, RtError, RunResult};
use ipp_core::{compile_timed, InlineMode, PhaseTimings, PipelineOptions, SuiteJob};

const CORPUS_SEED: u64 = 0x2E9A_25E5;
const CORPUS_PROGRAMS: u64 = 300;

/// Same observable behaviour, bit for bit: I/O lines, STOP message and
/// COMMON memory (tolerance zero), or the same runtime error.
fn same_run(a: &Result<RunResult, RtError>, b: &Result<RunResult, RtError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.io == b.io && a.stopped == b.stopped && a.same_observable(b, 0.0),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Compile `job` in every mode; re-parse and re-run each emitted source.
/// Returns the number of sources checked and the failures found.
fn sweep(job: &SuiteJob, exec: &ExecOptions, failures: &mut Vec<String>) -> usize {
    let mut checked = 0;
    for mode in InlineMode::all() {
        let opts = PipelineOptions::for_mode(mode);
        let mut timings = PhaseTimings::default();
        // A structured compile failure emits no source to re-parse.
        let Ok(result) = compile_timed(&job.program, &job.registry, &opts, &mut timings) else {
            continue;
        };
        checked += 1;
        let cell = format!("{} [{}]", job.name, mode.label());
        match fir::parse(&result.source) {
            Err(e) => failures.push(format!("{cell}: emitted source does not re-parse: {e}")),
            Ok(reparsed) => {
                if !same_run(&run(&result.program, exec), &run(&reparsed, exec)) {
                    failures.push(format!("{cell}: re-parsed source runs differently"));
                }
            }
        }
    }
    checked
}

#[test]
fn every_emitted_source_reparses_and_runs_like_its_ast() {
    let mut failures = Vec::new();
    let mut checked = 0;
    for job in perfect::suite_jobs() {
        checked += sweep(&job, &ExecOptions::default(), &mut failures);
    }
    assert_eq!(checked, 48, "the PERFECT matrix is 12 apps × 4 modes");
    // Generated programs are small; a tight op budget keeps a debug build
    // fast and still far above any legitimate run.
    let corpus_exec = ExecOptions {
        max_ops: 500_000,
        ..Default::default()
    };
    for job in corpus::jobs(CORPUS_SEED, CORPUS_PROGRAMS) {
        checked += sweep(&job, &corpus_exec, &mut failures);
    }
    assert_eq!(
        checked,
        48 + 4 * CORPUS_PROGRAMS as usize,
        "every corpus program compiles in every mode"
    );
    assert!(
        failures.is_empty(),
        "{} of {checked} emitted sources failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
