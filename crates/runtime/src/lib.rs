//! # fruntime — execution substrate for the ICPP 2011 reproduction
//!
//! Runs MiniF77 programs so the pipeline's output can be *verified* and
//! *measured*:
//!
//! * [`interp`] — a sequential interpreter with Fortran call-by-reference /
//!   sequence-association semantics, plus a chunked executor (contiguous
//!   iteration chunks run from the pre-loop memory on the calling thread,
//!   per-chunk write logs merged in iteration order) and a runtime race
//!   checker — the paper's "runtime testers" (§III-D).
//! * [`bytecode`] — the default engine, a register VM: frame build,
//!   calls, chunked directive loops and an allocation-free epoch-vector
//!   race checker around one typed body per unit (compile-then-execute).
//!   Byte-identical observable behaviour to [`interp`], which stays as the
//!   reference engine behind [`interp::Engine`] and also runs the rare
//!   program too large for the typed encoding.
//! * `treg` (internal) — the typed three-address body: monomorphic
//!   opcodes and superword Load/Bin/Store fusion. A frame whose formals
//!   or COMMON members are bound to storage of another type class runs a
//!   body lowered for those classes, on first use, then cached.
//! * [`memory`] — flat column-major storage with COMMON sharing and
//!   view-based aliasing.
//! * [`cost`] — a deterministic machine model (profiles for the paper's two
//!   evaluation machines) that converts interpreter op counts into the
//!   simulated speedups of Figure 20, including the §IV-B empirical-tuning
//!   step that disables unprofitable loops.

pub mod bytecode;
pub mod cost;
pub mod interp;
pub mod memory;
mod treg;

pub use bytecode::{compile, run_compiled, CompiledProgram};
pub use cost::{simulate, tune, Machine, SimResult};
pub use interp::{
    run, Engine, ExecOptions, ParLoopEvent, RaceViolation, RtError, RtErrorKind, RunResult,
    VmCounters, MAX_CALL_DEPTH,
};
pub use memory::{common_key, Memory, Scalar, Slot, View};
