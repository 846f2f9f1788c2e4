//! The paper's two future-work directions (§III-D), implemented:
//! automatic annotation generation and annotation soundness verification.
//!
//! ```sh
//! cargo run --example annotation_tools
//! ```

use finline::autogen::generate_program;
use finline::soundness::{check_registry, Severity};
use ipp_core::{compile, lost_loops, InlineMode, PipelineOptions};

fn main() {
    // --- 1. soundness: verify every hand-written suite annotation --------
    println!("=== soundness verification of the suite annotations ===");
    for app in perfect::all() {
        let p = app.program();
        let reg = app.registry();
        let findings = check_registry(&p, &reg);
        let (mut errors, mut warnings, mut infos) = (0, 0, 0);
        for (_, issues) in &findings {
            for i in issues {
                match i.severity {
                    Severity::Error => errors += 1,
                    Severity::Warning => warnings += 1,
                    Severity::Info => infos += 1,
                }
            }
        }
        println!(
            "{:<8} annotations={:<2} errors={errors} warnings={warnings} sanctioned-omissions={infos}",
            app.name,
            reg.subs.len()
        );
    }

    // --- 2. autogen: derive annotations automatically where possible -----
    println!("\n=== automatic annotation generation (MDG) ===");
    let app = perfect::by_name("MDG").unwrap();
    let p = app.program();
    let (reg, refusals) = generate_program(&p);
    println!("generated: {:?}", reg.subs.keys().collect::<Vec<_>>());
    for (name, why) in &refusals {
        println!("refused:   {name:<8} — {why}");
    }

    // --- 3. the generated annotations drive the pipeline -----------------
    let none = compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::None));
    let annot = compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::Annotation));
    let conv = compile(
        &p,
        &reg,
        &PipelineOptions::for_mode(InlineMode::Conventional),
    );
    println!("\npipeline with AUTO-GENERATED annotations:");
    println!(
        "  no-inline     : {:>2} parallel loops",
        none.parallel_loops().len()
    );
    println!(
        "  conventional  : {:>2} parallel loops ({} lost)",
        conv.parallel_loops().len(),
        lost_loops(&none, &conv).len()
    );
    println!(
        "  autogen-annot : {:>2} parallel loops ({} lost)",
        annot.parallel_loops().len(),
        lost_loops(&none, &annot).len()
    );

    let v = ipp_core::verify(&p, &annot.program, 4).expect("verify");
    println!(
        "\nruntime testers on the autogen pipeline: matches-original={} parallel-consistent={}",
        v.matches_original, v.parallel_consistent
    );
}
