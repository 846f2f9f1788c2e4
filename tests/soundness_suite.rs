//! The paper's future-work verifier applied to this repository's own
//! artifacts: every hand-written annotation in the PERFECT suite must pass
//! the static MOD/REF soundness check against its implementation, and the
//! automatic annotation generator must produce sound annotations wherever
//! it succeeds.

use finline::autogen::generate_program;
use finline::soundness::{check, check_registry, is_sound, Severity};

#[test]
fn all_suite_annotations_are_sound() {
    for app in perfect::all() {
        let p = app.program();
        let reg = app.registry();
        for (name, issues) in check_registry(&p, &reg) {
            let errors: Vec<_> = issues
                .iter()
                .filter(|i| i.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{} / {name}: {errors:?}", app.name);
        }
    }
}

#[test]
fn error_handling_omissions_are_reported_as_info() {
    // DYFESM's FSMP annotation omits the singular-element STOP: the checker
    // classifies that as the sanctioned §III-B3 relaxation.
    let app = perfect::by_name("DYFESM").unwrap();
    let p = app.program();
    let reg = app.registry();
    let issues = check(&p, reg.get("FSMP").unwrap());
    assert!(is_sound(&issues), "{issues:?}");
    assert!(
        issues.iter().any(|i| i.severity == Severity::Info),
        "{issues:?}"
    );
}

#[test]
fn autogen_annotations_are_sound_where_generated() {
    for app in perfect::all() {
        let p = app.program();
        let (reg, refusals) = generate_program(&p);
        for (name, sub) in &reg.subs {
            let issues = check(&p, sub);
            let errors: Vec<_> = issues
                .iter()
                .filter(|i| i.severity == Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{} / {name} (autogen): {errors:?}",
                app.name
            );
        }
        // Sanity: the generator produced something on every app (the leaf
        // kernels qualify) and refused the compositional ones.
        assert!(!reg.subs.is_empty(), "{}: nothing generated", app.name);
        let _ = refusals;
    }
}

#[test]
fn autogen_refuses_induction_variable_regions() {
    // BDNA's PCINIT writes through an induction variable — its write
    // region is not exactly representable, so the generator must refuse
    // (the paper's "when possible" qualifier) rather than approximate.
    let app = perfect::by_name("BDNA").unwrap();
    let p = app.program();
    let (reg, refusals) = generate_program(&p);
    assert!(reg.get("PCINIT").is_none());
    assert!(refusals.iter().any(|(n, _)| n == "PCINIT"), "{refusals:?}");
}

#[test]
fn autogen_closes_losses_on_the_leaf_kernels() {
    // Generate annotations automatically for MDG and run the pipeline:
    // the conventional-inlining losses on INTERF/POTENG must not occur
    // (zero #par-loss, like the manual annotations).
    use ipp_core::{compile, InlineMode, PipelineOptions};
    let app = perfect::by_name("MDG").unwrap();
    let p = app.program();
    let (reg, _) = generate_program(&p);
    assert!(reg.get("INTERF").is_some(), "INTERF should be generatable");
    assert!(reg.get("POTENG").is_some(), "POTENG should be generatable");
    let none = compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::None));
    let annot = compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::Annotation));
    let lost = ipp_core::lost_loops(&none, &annot);
    assert!(lost.is_empty(), "autogen lost loops: {lost:?}");
    let rev = annot.reverse_report.as_ref().unwrap();
    assert!(rev.failed.is_empty(), "{:?}", rev.failed);
    // And the result still executes correctly.
    let v = ipp_core::verify(&p, &annot.program, 4).unwrap();
    assert!(v.ok(), "{v:?}");
}
