//! End-to-end gate: every suite application, under every inlining
//! configuration, must (a) reverse-inline all tagged regions, (b) produce
//! output identical to the original program, and (c) produce identical
//! output under 4-thread execution — the paper's runtime-tester
//! methodology applied across the board. Also checks the Figure 20 shape:
//! simulated gains stay modest, as the paper observes for the small
//! PERFECT inputs.

use fruntime::Machine;
use ipp_core::{compile, verify, InlineMode, PipelineOptions};

#[test]
fn every_app_every_mode_verifies() {
    for app in perfect::all() {
        let p = app.program();
        let reg = app.registry();
        for mode in InlineMode::all() {
            let r = compile(&p, &reg, &PipelineOptions::for_mode(mode));
            if let Some(rev) = &r.reverse_report {
                assert!(
                    rev.failed.is_empty(),
                    "{} [{}]: {:?}",
                    app.name,
                    mode.label(),
                    rev.failed
                );
            }
            let v = verify(&p, &r.program, 4)
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", app.name, mode.label()));
            assert!(
                v.matches_original,
                "{} [{}]: optimized output differs from original",
                app.name,
                mode.label()
            );
            assert!(
                v.parallel_consistent,
                "{} [{}]: threaded output differs from sequential",
                app.name,
                mode.label()
            );
        }
    }
}

#[test]
fn annotation_mode_output_contains_no_tags_or_operators() {
    for app in perfect::all() {
        let p = app.program();
        let reg = app.registry();
        let r = compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::Annotation));
        assert!(
            !r.source.contains("BEGIN(Code"),
            "{}: tags left behind",
            app.name
        );
        assert!(
            !r.source.contains("UNKN"),
            "{}: unknown operator leaked",
            app.name
        );
        assert!(
            !r.source.contains("UNIQ"),
            "{}: unique operator leaked",
            app.name
        );
    }
}

#[test]
fn fig20_speedups_are_modest_and_machine_ordered() {
    // The paper: "at most 10% performance improvement is achieved" for most
    // benchmarks on these small inputs; the 8-core machine should never be
    // slower than the 4-core one after tuning.
    let machines = [Machine::intel8(), Machine::amd4()];
    for app in perfect::all().into_iter().take(4) {
        let ev = perfect::evaluate_app(&app, &machines);
        for pair in ev.fig20.chunks(2) {
            let (intel, amd) = (&pair[0], &pair[1]);
            assert!(
                intel.speedup >= 0.999,
                "{}: tuned slowdown {intel:?}",
                app.name
            );
            assert!(amd.speedup >= 0.999, "{}: tuned slowdown {amd:?}", app.name);
            assert!(
                intel.speedup >= amd.speedup - 1e-9,
                "{}: {intel:?} vs {amd:?}",
                app.name
            );
            assert!(
                intel.speedup < 8.0,
                "{}: implausible speedup {intel:?}",
                app.name
            );
        }
    }
}

#[test]
fn annotation_speedup_not_worse_than_no_inline() {
    // Figure 20: annotation-based inlining achieves the best performance
    // for the benchmarks it improves.
    let machines = [Machine::intel8()];
    for name in ["DYFESM", "TRFD", "OCEAN"] {
        let app = perfect::by_name(name).unwrap();
        let ev = perfect::evaluate_app(&app, &machines);
        let get = |cfg: &str| {
            ev.fig20
                .iter()
                .find(|p| p.config == cfg)
                .map(|p| p.speedup)
                .unwrap()
        };
        // Tolerance: peeling makes the last iteration sequential, which can
        // cost a fraction of a percent on ties.
        assert!(
            get("annotation") >= get("no-inline") - 5e-3,
            "{name}: annotation {} vs no-inline {}",
            get("annotation"),
            get("no-inline")
        );
    }
}

/// Conventional inlining renames callee locals to `{name}_I{n}`; a caller
/// variable already spelled that way must not be captured. Here `S`'s
/// local `T` would become `T_I1`, overwriting the caller's `T_I1 = 5.0`.
#[test]
fn conventional_fresh_names_never_capture_caller_variables() {
    let src = "      PROGRAM MAIN
      DIMENSION X(10)
      T_I1 = 5.0
      DO I = 1, 10
        CALL S(X(I))
      ENDDO
      WRITE(6,*) T_I1
      END
      SUBROUTINE S(Y)
      T = 1.0
      Y = T
      END
";
    let p = fir::parse(src).unwrap();
    let r = compile(
        &p,
        &Default::default(),
        &PipelineOptions::for_mode(InlineMode::Conventional),
    );
    let inlined = r.conv_report.as_ref().map_or(0, |c| c.inlined.len());
    assert_eq!(inlined, 1, "the call site must be inlined");
    let v = verify(&p, &r.program, 4).unwrap();
    assert!(v.matches_original, "gate 1 rejected the inlined program");
    // 5.0 in the runtime's list-directed format.
    let out = fruntime::run(&r.program, &Default::default()).unwrap();
    assert_eq!(out.io, vec!["5.000000000E0".to_string()]);
}
