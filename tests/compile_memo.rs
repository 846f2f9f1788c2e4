//! The driver's per-program compile memo against the plain pipeline.
//!
//! Every cell of the driver compiles through one memo per program: the
//! program is normalized once, and every configuration whose inlining
//! leaves the normalized program unchanged takes one shared no-inline
//! compile (per parallelizer configuration) instead of running its own
//! back end. `ipp_core::compile_configs` is that path. These tests hold
//! each of its results equal to a fresh `compile()` of the same
//! configuration — emitted source, code size, every loop decision with
//! its blockers, and the conventional, annotation, reverse and autogen
//! reports — over the first 200 programs of the CI corpus seed under the
//! four modes, and over the twelve PERFECT apps under the seven-arm
//! tournament portfolio.

use ipp_core::{compile, compile_configs, default_configs, portfolio, CellConfig, PipelineResult};

/// Everything a compile makes observable, as comparable text.
fn observables(r: &PipelineResult) -> Vec<String> {
    let mut out = vec![r.source.clone(), r.loc.to_string()];
    out.extend(r.par_report.decisions.iter().map(|d| format!("{d:?}")));
    out.push(format!("{:?}", r.conv_report));
    out.push(format!("{:?}", r.annot_report));
    out.push(format!("{:?}", r.reverse_report));
    out.push(format!("{:?}", r.autogen));
    out
}

fn assert_memo_matches_fresh(
    name: &str,
    program: &fir::ast::Program,
    registry: &finline::AnnotRegistry,
    configs: &[CellConfig],
) {
    let memo = compile_configs(program, registry, configs);
    assert_eq!(memo.len(), configs.len());
    for (cfg, got) in configs.iter().zip(memo) {
        let got = got.unwrap_or_else(|e| panic!("{name} {}: {e}", cfg.label));
        let want = compile(program, registry, &cfg.opts);
        assert_eq!(
            observables(&got),
            observables(&want),
            "{name} {}: the memo path diverged from a fresh compile",
            cfg.label
        );
        assert!(
            got.program == want.program,
            "{name} {}: emitted program differs",
            cfg.label
        );
    }
}

#[test]
fn corpus_cells_equal_fresh_compiles() {
    let configs = default_configs();
    for job in corpus::jobs(501_227_537, 200) {
        assert_memo_matches_fresh(&job.name, &job.program, &job.registry, &configs);
    }
}

#[test]
fn perfect_portfolio_cells_equal_fresh_compiles() {
    let arms = portfolio();
    for app in perfect::all() {
        assert_memo_matches_fresh(app.name, &app.program(), &app.registry(), &arms);
    }
}

/// The checks that let the pipeline skip a copy must agree with the
/// rewrites they stand in for: an inliner's unchanged report is exactly
/// what the inliner reports while leaving the program as it was, and the
/// loop analysis's forward-substitution check says whether the rewrite
/// changes the loop body.
#[test]
fn read_only_checks_agree_with_the_rewrites() {
    let mut programs: Vec<(fir::ast::Program, finline::AnnotRegistry)> =
        corpus::jobs(501_227_537, 200)
            .map(|j| (j.program, j.registry))
            .collect();
    programs.extend(perfect::all().iter().map(|a| (a.program(), a.registry())));
    let heuristics = portfolio()
        .into_iter()
        .filter(|c| c.mode() == ipp_core::InlineMode::Conventional)
        .map(|c| c.opts.heuristics)
        .collect::<Vec<_>>();
    // [unchanged, changed] inliner plans; [rewritten, untouched] loops.
    let (mut plans, mut loops) = ([0; 2], [0; 2]);
    for (program, registry) in &programs {
        let mut p = program.clone();
        fir::fold::normalize_program(&mut p);
        for h in &heuristics {
            let plan = finline::conventional::report_if_unchanged(&p, h);
            plans[plan.is_none() as usize] += 1;
            if let Some(report) = plan {
                let mut q = p.clone();
                let real = finline::inline_program(&mut q, h);
                assert_eq!(format!("{report:?}"), format!("{real:?}"));
                assert!(
                    q == p,
                    "conventional inlining changed a program it reported unchanged"
                );
            }
        }
        let derived = finline::generate_with_chains(&p, registry).registry;
        for reg in [registry, &derived] {
            let plan = finline::annot_inline::report_if_unchanged(&p, reg);
            plans[plan.is_none() as usize] += 1;
            if let Some(report) = plan {
                let mut q = p.clone();
                let real = finline::annot_inline::apply(&mut q, reg);
                assert_eq!(format!("{report:?}"), format!("{real:?}"));
                assert!(
                    q == p,
                    "annotation inlining changed a program it reported unchanged"
                );
            }
        }
        for unit in &p.units {
            let table = fir::symbol::SymbolTable::build(unit);
            let is_array = |n: &str| table.get(n).is_some_and(|s| s.is_array());
            fir::visit::walk_stmts(&unit.body, &mut |s| {
                if let fir::ast::StmtKind::Do(d) = &s.kind {
                    let mut body = d.body.clone();
                    fdep::fwdsub::forward_substitute(&mut body, &is_array);
                    let rewrites = body != d.body;
                    assert_eq!(
                        fdep::fwdsub::forward_substitutes(&d.body, &is_array),
                        rewrites,
                        "loop {}",
                        d.id
                    );
                    loops[!rewrites as usize] += 1;
                }
            });
        }
    }
    // Both outcomes of each check are exercised.
    assert!(
        plans.iter().chain(&loops).all(|n| *n > 0),
        "{plans:?} {loops:?}"
    );
}
