//! Phase-attributed observability for the evaluation driver.
//!
//! Every pipeline stage ([`Phase`]) is timed per (application ×
//! configuration) cell; the driver aggregates cell timings, per-loop
//! blocker counts, and cache statistics into a [`SuiteMetrics`] report
//! that serializes to JSON through [`crate::json`].

use crate::json::{self, ToJson};
use crate::json_object;
use fdep::analyze::Blocker;
use fpar::ParReport;
use std::collections::BTreeMap;
use std::time::Duration;

/// One stage of the evaluation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// DO-loop normalization before inlining.
    Normalize,
    /// Conventional or annotation-based inlining.
    Inline,
    /// Dependence analysis + directive insertion.
    Parallelize,
    /// Tagged regions restored to original calls.
    ReverseInline,
    /// Source emission + LoC accounting.
    Print,
    /// The runtime testers (all interpreter runs).
    Verify,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Normalize,
        Phase::Inline,
        Phase::Parallelize,
        Phase::ReverseInline,
        Phase::Print,
        Phase::Verify,
    ];

    /// Stable lowercase label (JSON key).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Normalize => "normalize",
            Phase::Inline => "inline",
            Phase::Parallelize => "parallelize",
            Phase::ReverseInline => "reverse-inline",
            Phase::Print => "print",
            Phase::Verify => "verify",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Normalize => 0,
            Phase::Inline => 1,
            Phase::Parallelize => 2,
            Phase::ReverseInline => 3,
            Phase::Print => 4,
            Phase::Verify => 5,
        }
    }
}

/// Wall-clock per pipeline phase (nanoseconds) plus invocation counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    nanos: [u64; 6],
    counts: [u64; 6],
}

impl PhaseTimings {
    /// Record one timed execution of `phase`.
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        let i = phase.index();
        self.nanos[i] += elapsed.as_nanos() as u64;
        self.counts[i] += 1;
    }

    /// Time `f` and attribute the elapsed wall-clock to `phase`.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let out = f();
        self.record(phase, t.elapsed());
        out
    }

    /// Total nanoseconds attributed to `phase`.
    pub fn nanos_of(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Invocations recorded for `phase`.
    pub fn count_of(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Fold another timing set into this one.
    pub fn merge(&mut self, other: &PhaseTimings) {
        for i in 0..6 {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Total attributed time across all phases.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }
}

/// `{"normalize":{"ns":..,"calls":..},..}` in pipeline order.
impl ToJson for PhaseTimings {
    fn write_json(&self, out: &mut String) {
        let mut obj = json::object(out);
        for p in Phase::ALL {
            let (ns, calls) = (self.nanos_of(p), self.count_of(p));
            obj.field(
                p.label(),
                &json::from_fn(|out| json_object!(out, { "ns": ns, "calls": calls })),
            );
        }
        obj.end();
    }
}

/// Stable key for a blocker kind (JSON / wire-protocol vocabulary, shared
/// by [`blocker_counts`] and the service layer's per-loop reports).
pub fn blocker_key(b: &Blocker) -> &'static str {
    match b {
        Blocker::Io => "io",
        Blocker::Stop => "stop",
        Blocker::Return => "return",
        Blocker::Call(_) => "call",
        Blocker::CarriedScalar(_) => "carried-scalar",
        Blocker::ArrayDep { .. } => "array-dep",
    }
}

/// Count a parallelization report's per-loop blockers by kind (stable
/// keys).
pub fn blocker_counts(r: &ParReport) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for d in &r.decisions {
        for b in &d.blockers {
            *out.entry(blocker_key(b)).or_insert(0) += 1;
        }
    }
    out
}

/// Call-site coverage counters from one auto-annot cell: how much of the
/// application chain autogen could summarize on its own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutogenCoverage {
    /// Call sites whose callee has a derived summary.
    pub auto_sites: u64,
    /// Call sites served only by a hand-written annotation (derivation
    /// refused the callee).
    pub manual_sites: u64,
    /// Call sites left opaque (no summary of either kind).
    pub refused_sites: u64,
    /// Subroutines with a derived summary.
    pub derived_subs: u64,
    /// The subset of `derived_subs` that themselves make calls (chain
    /// composition, not the leaf path).
    pub chain_derived_subs: u64,
    /// Subroutines chain autogen refused.
    pub refused_subs: u64,
}

impl AutogenCoverage {
    /// Fold another coverage block into this one (stream aggregation).
    pub fn merge(&mut self, other: &AutogenCoverage) {
        self.auto_sites += other.auto_sites;
        self.manual_sites += other.manual_sites;
        self.refused_sites += other.refused_sites;
        self.derived_subs += other.derived_subs;
        self.chain_derived_subs += other.chain_derived_subs;
        self.refused_subs += other.refused_subs;
    }
}

impl ToJson for AutogenCoverage {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "auto_sites": self.auto_sites, "manual_sites": self.manual_sites,
            "refused_sites": self.refused_sites, "derived_subs": self.derived_subs,
            "chain_derived_subs": self.chain_derived_subs, "refused_subs": self.refused_subs,
        });
    }
}

/// Metrics for one (application × configuration) cell.
#[derive(Debug, Clone, Default)]
pub struct CellMetrics {
    /// Application name.
    pub app: String,
    /// Configuration label (`no-inline` / `conventional` / `annotation` /
    /// `auto-annot`).
    pub config: String,
    /// Per-phase wall-clock for this cell.
    pub phases: PhaseTimings,
    /// Blocker kind → occurrence count across the cell's loops.
    pub blockers: BTreeMap<&'static str, usize>,
    /// Loop decisions inspected.
    pub loops_total: usize,
    /// Distinct original loops judged parallel.
    pub loops_parallel: usize,
    /// Interpreter runs this cell paid for (0 when fully cache-served).
    pub interp_runs: u64,
    /// True when the verification result came from the dedup cache.
    pub verify_cached: bool,
    /// 1 when another cell's compile served this one: its inlining left
    /// the normalized program unchanged, so it shared the program's
    /// no-inline compile instead of running its own back end; else 0.
    pub compile_memo_hits: u64,
    /// Autogen coverage counters; present only on `auto-annot` cells.
    pub autogen: Option<AutogenCoverage>,
    /// VM execution counters from this cell's verification runs (zeros
    /// when cache-served, so the suite aggregate counts actual work, and
    /// on tree-walker runs).
    pub vm: fruntime::VmCounters,
}

/// The one serialization of the VM's execution counters (every report
/// and artifact that carries a `vm` block writes it here). The
/// per-class retire histogram is left to the engine bench, which names
/// the classes.
impl ToJson for fruntime::VmCounters {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "insns_retired": self.insns_retired, "fused_insns": self.fused_insns,
            "fused_ticks": self.fused_ticks, "fused_int": self.fused_int,
            "scal_prebound": self.scal_prebound, "calls": self.calls,
            "pool_hits": self.pool_hits, "pool_misses": self.pool_misses,
            "peak_call_depth": self.peak_call_depth, "warm_allocs": self.warm_allocs,
            "chunks_run": self.chunks_run, "chunk_undo_writes": self.chunk_undo_writes,
            "typed_specializations": self.typed_specializations,
            "reference_runs": self.reference_runs,
        });
    }
}

/// The `autogen` block appears only on cells that carry coverage.
impl ToJson for CellMetrics {
    fn write_json(&self, out: &mut String) {
        let mut obj = json::object(out);
        obj.field("app", &self.app)
            .field("config", &self.config)
            .field("phases", &self.phases)
            .field("blockers", &self.blockers)
            .field("loops_total", &self.loops_total)
            .field("loops_parallel", &self.loops_parallel)
            .field("interp_runs", &self.interp_runs)
            .field("verify_cached", &self.verify_cached)
            .field("compile_memo_hits", &self.compile_memo_hits)
            .field("vm", &self.vm);
        if let Some(a) = &self.autogen {
            obj.field("autogen", a);
        }
        obj.end();
    }
}

/// One failed cell, flattened for reporting (the structured original is
/// [`crate::error::PipelineError`] on the owning [`crate::driver::AppReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Application name.
    pub app: String,
    /// Configuration label, or `"-"` for mode-independent failures.
    pub config: String,
    /// Failed stage label (`parse` / `compile` / `baseline` / ...).
    pub stage: String,
    /// Stable machine-readable cause code
    /// ([`crate::error::FailCause::code`]); what wire clients dispatch
    /// on, independent of `message` formatting.
    pub code: &'static str,
    /// True when the cell hit a deadline (op-budget or wall-clock)
    /// rather than erroring.
    pub timeout: bool,
    /// One-line cause description.
    pub message: String,
}

impl FailureRecord {
    /// Flatten a structured pipeline error.
    pub fn from_error(e: &crate::error::PipelineError) -> Self {
        FailureRecord {
            app: e.app.clone(),
            config: e.mode.map(|m| m.label()).unwrap_or("-").to_string(),
            stage: e.stage.label().to_string(),
            code: e.code(),
            timeout: e.is_timeout(),
            message: e.cause_message(),
        }
    }
}

impl ToJson for FailureRecord {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "app": self.app, "config": self.config, "stage": self.stage, "code": self.code,
            "timeout": self.timeout, "message": self.message,
        });
    }
}

/// Whole-suite metrics: what the driver measured while evaluating.
#[derive(Debug, Clone, Default)]
pub struct SuiteMetrics {
    /// Worker threads the driver ran with.
    pub workers: usize,
    /// Configurations (matrix columns / portfolio arms) evaluated per app.
    pub configs: u64,
    /// End-to-end suite wall-clock, nanoseconds.
    pub wall_nanos: u64,
    /// Total interpreter executions across all cells.
    pub interp_runs: u64,
    /// Baseline runs served from the per-app memo instead of re-running.
    pub baseline_memo_hits: u64,
    /// Verifications served from the emitted-source dedup cache.
    pub verify_cache_hits: u64,
    /// Cells served a shared compile another cell built: the cells whose
    /// inlining changed nothing, minus the shared compiles built. Like
    /// `verify_cache_hits` it does not depend on the schedule.
    pub compile_memo_hits: u64,
    /// Cells that failed (any cause, timeouts included).
    pub failed_cells: u64,
    /// The subset of failed cells that hit the op-budget deadline.
    pub timed_out_cells: u64,
    /// The subset of failed cells caught at the panic isolation boundary.
    pub panicked_cells: u64,
    /// Completed cells whose verification passed both gates (the counter
    /// survives even when result payloads are not retained).
    pub verified_ok: u64,
    /// Aggregate per-phase wall-clock across every cell.
    pub phases: PhaseTimings,
    /// Aggregate VM execution counters across every cell (bytecode-engine
    /// verification work only; zeros under the tree-walker).
    pub vm: fruntime::VmCounters,
    /// One entry per (application × configuration) cell, suite order.
    pub cells: Vec<CellMetrics>,
    /// One entry per failed cell, suite order.
    pub failures: Vec<FailureRecord>,
}

impl SuiteMetrics {
    /// Serialize the full report as a JSON object.
    pub fn to_json(&self) -> String {
        json_object!({
            "workers": self.workers, "configs": self.configs, "wall_ns": self.wall_nanos,
            "interp_runs": self.interp_runs, "baseline_memo_hits": self.baseline_memo_hits,
            "verify_cache_hits": self.verify_cache_hits,
            "compile_memo_hits": self.compile_memo_hits, "failed_cells": self.failed_cells,
            "timed_out_cells": self.timed_out_cells, "panicked_cells": self.panicked_cells,
            "verified_ok": self.verified_ok, "phases": self.phases, "vm": self.vm,
            "cells": self.cells, "failures": self.failures,
        })
    }

    /// GitHub-flavored markdown table of the per-app autogen coverage
    /// counters (auto / manual / refused call sites), for CI job
    /// summaries. Empty string when no cell carried coverage (the suite
    /// ran without the auto-annot mode).
    pub fn render_autogen_markdown(&self) -> String {
        let covered: Vec<(&str, &AutogenCoverage)> = self
            .cells
            .iter()
            .filter_map(|c| c.autogen.as_ref().map(|a| (c.app.as_str(), a)))
            .collect();
        if covered.is_empty() {
            return String::new();
        }
        let mut out = String::from(
            "| app | auto sites | manual sites | refused sites | derived subs | chain-derived | refused subs |\n\
             |-----|-----------:|-------------:|--------------:|-------------:|--------------:|-------------:|\n",
        );
        let mut tot = AutogenCoverage::default();
        for (app, a) in &covered {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} |\n",
                app,
                a.auto_sites,
                a.manual_sites,
                a.refused_sites,
                a.derived_subs,
                a.chain_derived_subs,
                a.refused_subs
            ));
            tot.merge(a);
        }
        out.push_str(&format!(
            "| **total** | **{}** | **{}** | **{}** | **{}** | **{}** | **{}** |\n",
            tot.auto_sites,
            tot.manual_sites,
            tot.refused_sites,
            tot.derived_subs,
            tot.chain_derived_subs,
            tot.refused_subs
        ));
        out
    }

    /// Aligned-text rendering of the per-phase totals.
    pub fn render_phases(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<16} {:>12} {:>8}\n", "phase", "wall", "calls"));
        for p in Phase::ALL {
            out.push_str(&format!(
                "{:<16} {:>9.3} ms {:>8}\n",
                p.label(),
                self.phases.nanos_of(p) as f64 / 1e6,
                self.phases.count_of(p)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_record_and_merge() {
        let mut a = PhaseTimings::default();
        a.record(Phase::Inline, Duration::from_nanos(100));
        a.record(Phase::Inline, Duration::from_nanos(50));
        a.record(Phase::Verify, Duration::from_nanos(10));
        assert_eq!(a.nanos_of(Phase::Inline), 150);
        assert_eq!(a.count_of(Phase::Inline), 2);
        let mut b = PhaseTimings::default();
        b.record(Phase::Verify, Duration::from_nanos(5));
        b.merge(&a);
        assert_eq!(b.nanos_of(Phase::Verify), 15);
        assert_eq!(b.total(), Duration::from_nanos(165));
    }

    #[test]
    fn json_is_well_formed() {
        let mut m = SuiteMetrics {
            workers: 4,
            wall_nanos: 123,
            ..Default::default()
        };
        m.phases.record(Phase::Print, Duration::from_nanos(7));
        m.cells.push(CellMetrics {
            app: "ADM".into(),
            config: "no-inline".into(),
            phases: PhaseTimings::default(),
            blockers: [("call", 3usize)].into_iter().collect(),
            loops_total: 10,
            loops_parallel: 4,
            interp_runs: 3,
            verify_cached: false,
            compile_memo_hits: 0,
            autogen: Some(AutogenCoverage {
                auto_sites: 5,
                manual_sites: 1,
                refused_sites: 2,
                derived_subs: 4,
                chain_derived_subs: 1,
                refused_subs: 2,
            }),
            vm: Default::default(),
        });
        m.cells.push(CellMetrics {
            app: "ADM".into(),
            config: "annotation".into(),
            phases: PhaseTimings::default(),
            blockers: BTreeMap::new(),
            loops_total: 10,
            loops_parallel: 6,
            interp_runs: 0,
            verify_cached: true,
            compile_memo_hits: 1,
            autogen: None,
            vm: fruntime::VmCounters {
                insns_retired: 9,
                chunks_run: 2,
                ..Default::default()
            },
        });
        m.failed_cells = 1;
        m.failures.push(FailureRecord {
            app: "QCD".into(),
            config: "annotation".into(),
            stage: "verify".into(),
            code: "timeout",
            timeout: true,
            message: "verification exceeded the op-budget deadline".into(),
        });
        let j = m.to_json();
        // The exact bytes of the report format.
        assert_eq!(
            j,
            r#"{"workers":4,"configs":0,"wall_ns":123,"interp_runs":0,"baseline_memo_hits":0,"verify_cache_hits":0,"compile_memo_hits":0,"failed_cells":1,"timed_out_cells":0,"panicked_cells":0,"verified_ok":0,"phases":{"normalize":{"ns":0,"calls":0},"inline":{"ns":0,"calls":0},"parallelize":{"ns":0,"calls":0},"reverse-inline":{"ns":0,"calls":0},"print":{"ns":7,"calls":1},"verify":{"ns":0,"calls":0}},"vm":{"insns_retired":0,"fused_insns":0,"fused_ticks":0,"fused_int":0,"scal_prebound":0,"calls":0,"pool_hits":0,"pool_misses":0,"peak_call_depth":0,"warm_allocs":0,"chunks_run":0,"chunk_undo_writes":0,"typed_specializations":0,"reference_runs":0},"cells":[{"app":"ADM","config":"no-inline","phases":{"normalize":{"ns":0,"calls":0},"inline":{"ns":0,"calls":0},"parallelize":{"ns":0,"calls":0},"reverse-inline":{"ns":0,"calls":0},"print":{"ns":0,"calls":0},"verify":{"ns":0,"calls":0}},"blockers":{"call":3},"loops_total":10,"loops_parallel":4,"interp_runs":3,"verify_cached":false,"compile_memo_hits":0,"vm":{"insns_retired":0,"fused_insns":0,"fused_ticks":0,"fused_int":0,"scal_prebound":0,"calls":0,"pool_hits":0,"pool_misses":0,"peak_call_depth":0,"warm_allocs":0,"chunks_run":0,"chunk_undo_writes":0,"typed_specializations":0,"reference_runs":0},"autogen":{"auto_sites":5,"manual_sites":1,"refused_sites":2,"derived_subs":4,"chain_derived_subs":1,"refused_subs":2}},{"app":"ADM","config":"annotation","phases":{"normalize":{"ns":0,"calls":0},"inline":{"ns":0,"calls":0},"parallelize":{"ns":0,"calls":0},"reverse-inline":{"ns":0,"calls":0},"print":{"ns":0,"calls":0},"verify":{"ns":0,"calls":0}},"blockers":{},"loops_total":10,"loops_parallel":6,"interp_runs":0,"verify_cached":true,"compile_memo_hits":1,"vm":{"insns_retired":9,"fused_insns":0,"fused_ticks":0,"fused_int":0,"scal_prebound":0,"calls":0,"pool_hits":0,"pool_misses":0,"peak_call_depth":0,"warm_allocs":0,"chunks_run":2,"chunk_undo_writes":0,"typed_specializations":0,"reference_runs":0}}],"failures":[{"app":"QCD","config":"annotation","stage":"verify","code":"timeout","timeout":true,"message":"verification exceeded the op-budget deadline"}]}"#
        );
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"workers\":4"));
        assert!(j.contains("\"code\":\"timeout\""));
        assert!(j.contains("\"app\":\"ADM\""));
        assert!(j.contains("\"call\":3"));
        assert!(j.contains("\"failed_cells\":1"));
        assert!(j.contains("\"timeout\":true"));
        assert!(j.contains("\"autogen\":{\"auto_sites\":5"));
        assert!(j.contains("\"vm\":{\"insns_retired\":0"));
        // The coverage markdown renders one row plus the total.
        let md = m.render_autogen_markdown();
        assert!(md.contains("| ADM | 5 | 1 | 2 | 4 | 1 | 2 |"), "{md}");
        assert!(md.contains("**total**"), "{md}");
        // Balanced braces/brackets (cheap well-formedness check).
        let open = j.matches('{').count();
        let close = j.matches('}').count();
        assert_eq!(open, close);
    }
}
