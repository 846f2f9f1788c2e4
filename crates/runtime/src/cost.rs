//! Machine cost model — the Figure 20 substrate.
//!
//! The paper measures wall-clock speedups on two real multicores (a 2×4-core
//! 3 GHz Intel Mac with gfortran and a 2×2-core 3 GHz AMD Opteron with
//! ifort). This sandbox has one CPU, so runtime speedups are *simulated*
//! deterministically from the interpreter's op counts: a parallel loop
//! instance with `w` ops on a machine with `c` cores at parallel efficiency
//! `eff` contributes `fork + w / (c·eff)` instead of `w` to the clock.
//!
//! The model also implements the paper's *empirical tuning* step (§IV-B):
//! "we used empirical performance tuning to disable a selected set of loops
//! from being parallelized if their parallelization incurs a slowdown" —
//! [`tune`] returns exactly that set, computed from the measured events.
//!
//! Op counts are an *engine-invariant* currency: the tree-walker charges
//! one op per step while the typed-register VM folds budget ticks into
//! control ops and charges merged runs, but `total_ops` and every
//! `ParLoopEvent::ops` come out identical (pinned by the engine
//! differential suites and `tests/budget_position.rs`). Simulated
//! speedups therefore do not depend on which engine produced the
//! measurement.

use crate::interp::ParLoopEvent;
use fir::ast::LoopId;
use std::collections::BTreeMap;

/// A simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Display name.
    pub name: &'static str,
    /// Worker cores available to one parallel region.
    pub cores: u32,
    /// Fork/join overhead per parallel-loop instance, in op units.
    pub fork_overhead: f64,
    /// Parallel efficiency (memory bandwidth, scheduling imbalance).
    pub efficiency: f64,
}

impl Machine {
    /// The paper's Intel Mac: two quad-core 3 GHz Xeons, gfortran 4.2.1
    /// -O3. Fork/join overheads calibrated so that the small PERFECT
    /// inputs gain at most modestly (the paper: "a majority of the PERFECT
    /// benchmarks do not benefit from loop parallelization due to their
    /// small input data size ... at most 10% performance improvement").
    pub fn intel8() -> Machine {
        Machine {
            name: "intel8",
            cores: 8,
            fork_overhead: 14000.0,
            efficiency: 0.70,
        }
    }

    /// The paper's AMD Opteron: two dual-core 3 GHz, ifort 11.1 -O3.
    /// Fewer cores, heavier fork cost over the HyperTransport link.
    pub fn amd4() -> Machine {
        Machine {
            name: "amd4",
            cores: 4,
            fork_overhead: 20000.0,
            efficiency: 0.60,
        }
    }

    /// Simulated parallel time of one loop instance.
    pub fn loop_time(&self, ev: &ParLoopEvent) -> f64 {
        let lanes = (self.cores as f64).min(ev.iters.max(1) as f64);
        self.fork_overhead + ev.ops as f64 / (lanes * self.efficiency)
    }
}

/// Simulated program times and speedup for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Sequential time (total ops).
    pub seq_time: f64,
    /// Parallel time under the machine model.
    pub par_time: f64,
}

impl SimResult {
    /// seq / par.
    pub fn speedup(&self) -> f64 {
        if self.par_time <= 0.0 {
            1.0
        } else {
            self.seq_time / self.par_time
        }
    }
}

/// Simulate a run: `total_ops` is the sequential clock; every event in
/// `events` (one per dynamic parallel-loop instance, outermost only) has
/// its serial ops replaced by the machine's parallel loop time. Loops in
/// `disabled` run serially; the list must be sorted, as [`tune`] returns
/// it, because each event looks its loop up by binary search.
pub fn simulate(
    total_ops: u64,
    events: &[ParLoopEvent],
    machine: &Machine,
    disabled: &[LoopId],
) -> SimResult {
    debug_assert!(
        disabled.windows(2).all(|w| w[0] < w[1]),
        "disabled loops must be sorted"
    );
    let mut par = total_ops as f64;
    for ev in events {
        if disabled.binary_search(&ev.id).is_ok() {
            continue;
        }
        par -= ev.ops as f64;
        par += machine.loop_time(ev);
    }
    SimResult {
        seq_time: total_ops as f64,
        par_time: par,
    }
}

/// The paper's empirical tuning: a loop is disabled when parallelizing all
/// of its dynamic instances is a net slowdown on the machine.
pub fn tune(events: &[ParLoopEvent], machine: &Machine) -> Vec<LoopId> {
    let mut agg: BTreeMap<LoopId, (f64, f64)> = BTreeMap::new();
    for ev in events {
        let e = agg.entry(ev.id.clone()).or_insert((0.0, 0.0));
        e.0 += ev.ops as f64; // serial time of all instances
        e.1 += machine.loop_time(ev); // parallel time of all instances
    }
    agg.into_iter()
        .filter_map(|(id, (serial, parallel))| (parallel >= serial).then_some(id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(idx: u32, ops: u64, iters: u64) -> ParLoopEvent {
        ParLoopEvent {
            id: LoopId::new("P", idx),
            ops,
            iters,
        }
    }

    #[test]
    fn big_loops_speed_up() {
        let m = Machine::intel8();
        let events = vec![ev(1, 1_000_000, 1000)];
        let sim = simulate(1_100_000, &events, &m, &[]);
        assert!(sim.speedup() > 3.0, "speedup {}", sim.speedup());
        assert!(sim.speedup() < 8.0);
    }

    #[test]
    fn tiny_loops_slow_down() {
        let m = Machine::intel8();
        // 100 instances of a 500-op loop: fork overhead dominates.
        let events: Vec<_> = (0..100).map(|_| ev(1, 500, 8)).collect();
        let sim = simulate(100_000, &events, &m, &[]);
        assert!(sim.speedup() < 1.0, "speedup {}", sim.speedup());
    }

    #[test]
    fn tuning_disables_unprofitable_loops() {
        let m = Machine::intel8();
        let mut events: Vec<_> = (0..100).map(|_| ev(1, 500, 8)).collect();
        events.push(ev(2, 1_000_000, 1000));
        let disabled = tune(&events, &m);
        assert_eq!(disabled, vec![LoopId::new("P", 1)]);
        // After tuning, the program speeds up.
        let sim = simulate(1_200_000, &events, &m, &disabled);
        assert!(sim.speedup() > 1.0);
    }

    #[test]
    fn fewer_cores_less_speedup() {
        let events = vec![ev(1, 10_000_000, 10_000)];
        let s8 = simulate(10_500_000, &events, &Machine::intel8(), &[]).speedup();
        let s4 = simulate(10_500_000, &events, &Machine::amd4(), &[]).speedup();
        assert!(s8 > s4, "{s8} vs {s4}");
    }

    #[test]
    fn lanes_capped_by_iterations() {
        let m = Machine::intel8();
        // 2 iterations can use at most 2 cores.
        let t = m.loop_time(&ev(1, 10_000, 2));
        assert!(t > 10_000.0 / (2.0 * m.efficiency));
    }

    #[test]
    fn disabled_loops_run_serially() {
        let m = Machine::intel8();
        let events = vec![ev(1, 1_000_000, 1000)];
        let sim = simulate(1_000_000, &events, &m, &[LoopId::new("P", 1)]);
        assert_eq!(sim.speedup(), 1.0);
    }
}
