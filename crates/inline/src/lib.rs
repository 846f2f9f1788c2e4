//! # finline — the three inliners of the ICPP 2011 paper
//!
//! * [`conventional`] — classic implementation-substituting inlining with
//!   the Polaris default heuristics, including the two §II-A pathologies
//!   (subscripted subscripts from indirect actuals; reshape linearization).
//! * [`annot`] — the annotation language of Fig. 12 (lexer, parser, and
//!   lowering into the `fir` IR with `unique`/`unknown` operators).
//! * [`annot_inline`] — annotation-based inlining: substitutes call sites
//!   with instantiated annotation bodies wrapped in tagged regions.
//! * [`reverse`] — the reverse inliner: pattern-matches tagged regions back
//!   to `CALL` statements, keeping OpenMP directives on surrounding loops,
//!   tolerant of expression reordering and inserted directives (§III-C3).
//!
//! Both of the paper's stated future-work directions are implemented too:
//!
//! * [`autogen`] — automatic annotation generation for leaf subroutines
//!   whose side effects are exactly representable;
//! * [`chain`] — chain-aware generation over the call graph: callee
//!   summaries are substituted bottom-up so non-leaf subroutines can be
//!   summarized too (with a documented widening/refusal algebra);
//! * [`soundness`] — static MOD/REF verification of user-supplied
//!   annotations against the implementations they summarize.

#![warn(missing_docs)]

pub mod annot;
pub mod annot_inline;
pub mod autogen;
pub mod chain;
pub mod conventional;
pub mod heuristics;
pub mod reverse;
pub mod soundness;

pub use annot::{AnnotRegistry, AnnotSub};
pub use annot_inline::AnnotInlineReport;
pub use autogen::{generate, generate_program, AutoGenRefusal};
pub use chain::{generate_with_chains, CallSite, ChainReport, SiteClass};
pub use conventional::{inline_program, ConvReport};
pub use heuristics::{Heuristics, SkipReason};
pub use reverse::ReverseReport;
pub use soundness::{check as check_soundness, check_registry, is_sound, Issue, Severity};
