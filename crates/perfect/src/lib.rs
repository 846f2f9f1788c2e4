//! # perfect — synthetic PERFECT-club benchmark suite
//!
//! Twelve runnable MiniF77 applications, named for the PERFECT benchmarks
//! of the paper's Table I, each built around the inlining idioms the paper
//! reports for that code. See [`suite`] and DESIGN.md.

pub mod adm;
pub mod arc2d;
pub mod bdna;
pub mod dyfesm;
pub mod flo52q;
pub mod mdg;
pub mod metrics;
pub mod mg3d;
pub mod ocean;
pub mod qcd;
pub mod spec77;
pub mod suite;
pub mod track;
pub mod trfd;

pub use metrics::{
    driver_options, evaluate_app, evaluate_suite, evaluate_suite_with_metrics, suite_job,
    suite_jobs, VERIFY_THREADS,
};
pub use suite::{all, by_name, App};
