//! The CI gates over the committed engine, corpus-throughput and
//! driver-scaling artifacts, read through [`ipp_core::json`]. Each gate
//! returns its summary line, or the first violation; `check_artifacts`
//! runs them from the command line and `tests/artifacts.rs` runs them
//! over the committed files.

use ipp_core::json::Json;

/// The counters the engine artifact's `vm_counters` block must carry.
const VM_COUNTER_FIELDS: [&str; 14] = [
    "insns_retired",
    "fused_insns",
    "fused_ticks",
    "fused_int",
    "scal_prebound",
    "calls",
    "pool_hits",
    "pool_misses",
    "peak_call_depth",
    "warm_allocs",
    "chunks_run",
    "chunk_undo_writes",
    "typed_specializations",
    "reference_runs",
];

/// Instruction classes the retire histogram must name.
const RETIRE_CLASSES: [&str; 6] = ["const", "load", "store", "bin", "fused", "ctl"];

/// Pipeline phases the throughput artifact must time.
const PHASES: [&str; 6] = [
    "normalize",
    "inline",
    "parallelize",
    "reverse-inline",
    "print",
    "verify",
];

/// Retirement ceiling of the engine workload: the third lowering pass
/// must hold it (the workload retired 15.9M before that pass).
const RETIREMENT_CEILING: u64 = 13_500_000;

/// Allocation events per corpus cell when identifiers were `String`s; the
/// ledger holds the stream at or below 0.6× this.
const STRING_IDENT_ALLOCS_PER_CELL: f64 = 1758.0;

/// The corpus the throughput artifact streams: 1,000 programs of this
/// seed.
const CORPUS_SEED: u64 = 501_227_537;

/// Cells of that corpus served a shared compile another cell built: its
/// inlining left the normalized program unchanged in 1,675 of the 3,000
/// inlining cells. Deterministic, so gated exactly.
const COMPILE_MEMO_HITS: u64 = 1675;

/// `doc[key]`, or the violation naming what `name` lacks.
fn field<'a>(doc: &'a Json, name: &str, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{name} lacks \"{key}\""))
}

/// `doc[key]` as a non-negative integer.
fn count(doc: &Json, name: &str, key: &str) -> Result<u64, String> {
    field(doc, name, key)?
        .as_u64()
        .ok_or_else(|| format!("{name}: \"{key}\" is not a count"))
}

/// `doc[key]` as a number.
fn num(doc: &Json, name: &str, key: &str) -> Result<f64, String> {
    match field(doc, name, key)? {
        Json::Num(n) => Ok(*n),
        _ => Err(format!("{name}: \"{key}\" is not a number")),
    }
}

/// `doc[key]` as an array.
fn items<'a>(doc: &'a Json, name: &str, key: &str) -> Result<&'a [Json], String> {
    match field(doc, name, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{name}: \"{key}\" is not an array")),
    }
}

/// The first gate that does not hold, as the error.
fn first_violation(gates: Vec<(bool, String)>) -> Result<(), String> {
    match gates.into_iter().find(|(holds, _)| !holds) {
        Some((_, violation)) => Err(violation),
        None => Ok(()),
    }
}

/// The `interp_engines.json` gates: the VM's counter block is complete
/// and every fast path fired (fusion, tick folding, integer plans,
/// operand pre-resolution, type-pun specialization), no program fell
/// back to the tree-walker, retirements hold the ceiling, the retire
/// histogram is filled, allocation metering is present, and the typed
/// VM keeps a ≥ 2× margin over the tree-walker.
pub fn engines_gate(a: &Json) -> Result<String, String> {
    let ctr = field(a, "interp_engines", "vm_counters")?;
    for f in VM_COUNTER_FIELDS {
        if ctr.get(f).is_none() {
            return Err(format!("vm_counters missing {f}"));
        }
    }
    let c = |key| count(ctr, "vm_counters", key);
    let hist = field(a, "interp_engines", "vm_class_retired")?;
    let Json::Obj(classes) = hist else {
        return Err("vm_class_retired is not an object".into());
    };
    let retired: u64 = classes.iter().filter_map(|(_, n)| n.as_u64()).sum();
    let speedup = num(a, "interp_engines", "speedup_vm_vs_tree")?;
    let mut gates = vec![
        (
            c("insns_retired")? > 0,
            "counter block is empty".to_string(),
        ),
        (
            c("fused_insns")? > 0,
            "superword fusion inert on the workload".into(),
        ),
        (
            c("fused_ticks")? > 0,
            "control-op tick folding inert".into(),
        ),
        (c("fused_int")? > 0, "integer fused plans inert".into()),
        (
            c("scal_prebound")? > 0,
            "operand pre-resolution inert".into(),
        ),
        // ARC2D binds implicitly INTEGER formals to REAL arrays: those
        // frames run typed bodies specialized on the bound classes, and
        // no PERFECT program needs the tree-walker route.
        (
            c("typed_specializations")? > 0,
            "type-pun specialization inert".into(),
        ),
        (
            c("reference_runs")? == 0,
            format!(
                "{} programs routed to the tree-walker",
                c("reference_runs")?
            ),
        ),
        (
            c("insns_retired")? <= RETIREMENT_CEILING,
            format!("retirement ceiling broken: {}", c("insns_retired")?),
        ),
        (retired > 0, "retire histogram is empty".into()),
    ];
    gates.extend(RETIRE_CLASSES.iter().map(|cls| {
        (
            hist.get(cls).is_some(),
            format!("retire histogram missing class {cls}"),
        )
    }));
    gates.push((
        a.get("vm_pass_alloc_events").is_some(),
        "missing allocation metering".into(),
    ));
    gates.push((
        speedup >= 2.0,
        format!("typed VM lost its margin: {speedup}"),
    ));
    first_violation(gates)?;
    Ok(format!(
        "interp_engines ok: speedup {speedup}x, {} insns ({} fused, {} folded ticks, {} int), \
         {} warm allocs",
        c("insns_retired")?,
        c("fused_insns")?,
        c("fused_ticks")?,
        c("fused_int")?,
        c("warm_allocs")?
    ))
}

/// The `corpus_throughput.json` gates: a ≥ 1,000-program stream measured
/// at workers 1, 2 and 4 with a positive rate at each and no more threads
/// spawned than effective workers, no panicked cell,
/// four cells per program, verified and parallel loops present, exactly
/// 1,675 compile-memo hits over 1,000 programs of seed 501227537, the
/// allocation ledger at or below 0.6× the `String`-identifier baseline,
/// and every pipeline phase timed.
pub fn throughput_gate(a: &Json) -> Result<String, String> {
    const NAME: &str = "corpus_throughput";
    let programs = count(a, NAME, "programs")?;
    let runs = items(a, NAME, "runs")?;
    let workers = runs
        .iter()
        .map(|r| count(r, "run", "workers"))
        .collect::<Result<Vec<_>, _>>()?;
    let rates = runs
        .iter()
        .map(|r| num(r, "run", "programs_per_sec"))
        .collect::<Result<Vec<_>, _>>()?;
    let s = field(a, NAME, "summary")?;
    let sc = |key| count(s, "summary", key);
    let per_cell = count(a, NAME, "alloc_events_per_cell")?;
    let phases = field(a, NAME, "phases")?;
    let seed = count(a, NAME, "seed")?;
    let memo_hits = count(a, NAME, "compile_memo_hits")?;
    let mut gates = vec![
        (programs >= 1000, format!("stream too short: {programs}")),
        (workers == [1, 2, 4], "missing worker points".to_string()),
    ];
    gates.extend(
        workers
            .iter()
            .zip(&rates)
            .map(|(w, rate)| (*rate > 0.0, format!("bad throughput at w{w}"))),
    );
    // One pool per stream: never more threads than effective workers,
    // however many programs the stream held.
    for (w, r) in workers.iter().zip(runs) {
        let spawned = count(r, "run", "threads_spawned")?;
        let effective = count(r, "run", "effective_workers")?;
        gates.push((
            spawned <= effective,
            format!("w{w} spawned {spawned} threads for {effective} workers"),
        ));
    }
    gates.extend([
        (
            sc("panicked_cells")? == 0,
            format!("panicked cells: {}", sc("panicked_cells")?),
        ),
        (sc("cells")? == programs * 4, "cell count off".into()),
        (
            sc("verified_ok")? > 0 && sc("loops_parallel")? > 0,
            "corpus inert".into(),
        ),
        (
            (seed, programs, memo_hits) == (CORPUS_SEED, 1000, COMPILE_MEMO_HITS),
            format!(
                "{memo_hits} compile-memo hits over {programs} programs of seed {seed} \
                 (want {COMPILE_MEMO_HITS} over 1000 of seed {CORPUS_SEED})"
            ),
        ),
        // Allocation ledger of the metered workers-1 stream: a
        // deterministic count.
        (
            per_cell > 0 && per_cell as f64 <= 0.6 * STRING_IDENT_ALLOCS_PER_CELL,
            format!("allocation ledger regressed: {per_cell}"),
        ),
    ]);
    for p in PHASES {
        let timed = match phases.get(p) {
            Some(ph) => count(ph, p, "calls")? > 0 && count(ph, p, "ns")? > 0,
            None => false,
        };
        gates.push((timed, format!("phase {p} missing")));
    }
    first_violation(gates)?;
    let best = rates.iter().copied().fold(0f64, f64::max);
    Ok(format!(
        "corpus_throughput ok: {programs} programs, peak {best:.1} programs/sec, \
         {}/{} cells verified, {memo_hits} compile-memo hits, \
         {per_cell} allocation events per cell",
        sc("verified_ok")?,
        sc("cells")?
    ))
}

/// The allocation ledger of a fresh `corpus_throughput` run against the
/// committed one: the fresh per-cell count stays within 5% of the
/// committed value and at or below 0.6× the `String`-identifier
/// baseline.
pub fn ledger_gate(committed: &Json, fresh: &Json) -> Result<String, String> {
    let committed = count(committed, "committed artifact", "alloc_events_per_cell")?;
    let fresh = count(fresh, "fresh artifact", "alloc_events_per_cell")?;
    let ceiling = (1.05 * committed as f64).min(0.6 * STRING_IDENT_ALLOCS_PER_CELL);
    if fresh as f64 > ceiling {
        return Err(format!(
            "{fresh} allocation events per cell > ceiling {ceiling:.0}"
        ));
    }
    Ok(format!(
        "allocation ledger ok: {fresh} per cell (committed {committed})"
    ))
}

/// The `driver_scaling.json` gates: the PERFECT suite timed at workers 1,
/// 2, 4 and 8, each point with a positive median and the cached driver's
/// exact interpreter-run accounting (90 runs, 36 baseline-memo hits, 9
/// verify-cache hits for the 48 cells) — a count that holds at any worker
/// count.
pub fn scaling_gate(a: &Json) -> Result<String, String> {
    const NAME: &str = "driver_scaling";
    let points = items(a, NAME, "driver")?;
    let workers = points
        .iter()
        .map(|p| count(p, "point", "workers"))
        .collect::<Result<Vec<_>, _>>()?;
    let mut gates = vec![(workers == [1, 2, 4, 8], "missing worker points".to_string())];
    for (w, p) in workers.iter().zip(points) {
        let c = |key| count(p, "point", key);
        let accounting = (
            c("interp_runs")?,
            c("baseline_memo_hits")?,
            c("verify_cache_hits")?,
        );
        gates.push((c("median_ns")? > 0, format!("no median at w{w}")));
        gates.push((
            accounting == (90, 36, 9),
            format!(
                "w{w}: {} interp runs, {} memo hits, {} cache hits (want 90, 36, 9)",
                accounting.0, accounting.1, accounting.2
            ),
        ));
    }
    first_violation(gates)?;
    Ok(format!(
        "driver_scaling ok: {} worker points, 90 interp runs, 36 memo hits, 9 cache hits at each",
        workers.len()
    ))
}
