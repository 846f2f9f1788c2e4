//! # fpar — Polaris-style automatic loop parallelizer
//!
//! Consumes the dependence analysis of `fdep` and attaches
//! `!$OMP PARALLEL DO` directives to the outermost legal-and-profitable
//! loops of a MiniF77 program, with last-iteration peeling for privatized
//! global temporaries (paper §III-B4) and a simple trip-count profitability
//! filter (§III-C2). Every loop's decision — legality, profitability,
//! blockers — is recorded in a [`planner::ParReport`], which is the raw
//! material of the paper's Table II.

pub mod peel;
pub mod planner;
pub mod profit;

pub use planner::{parallelize, LoopDecision, ParOptions, ParReport};
pub use profit::{ProfitVerdict, MIN_TRIP};
