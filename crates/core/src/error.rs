//! Structured failure type for the fault-isolated evaluation pipeline.
//!
//! Every way a matrix cell can go wrong — a compile stage that blows up on
//! malformed input, a runtime tester that rejects the program, a
//! verification run that burns through its op budget, a residual panic
//! caught at the driver's isolation boundary — is reported as one
//! [`PipelineError`] carrying the application, configuration, phase, and
//! the underlying cause. The driver records these per cell instead of
//! aborting the suite (ComPar-style per-configuration degradation: a
//! failed cell is reported and skipped, never fatal).

use crate::pipeline::InlineMode;
use fruntime::RtError;
use std::fmt;

/// Where in a cell's lifecycle the failure happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailStage {
    /// MiniF77 source parsing (chaos-harness entry; the driver itself
    /// receives pre-parsed programs).
    Parse,
    /// Annotation-registry parsing.
    Annotations,
    /// The compile pipeline (normalize / inline / parallelize /
    /// reverse-inline / print).
    Compile,
    /// The original program's baseline interpreter run.
    Baseline,
    /// The optimized program's verification runs.
    Verify,
    /// The driver's own bookkeeping (a worker died before finishing the
    /// cell, a report went missing at assembly).
    Driver,
}

impl FailStage {
    /// Stable lowercase label (JSON key / report text).
    pub fn label(self) -> &'static str {
        match self {
            FailStage::Parse => "parse",
            FailStage::Annotations => "annotations",
            FailStage::Compile => "compile",
            FailStage::Baseline => "baseline",
            FailStage::Verify => "verify",
            FailStage::Driver => "driver",
        }
    }
}

/// The underlying cause of a cell failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FailCause {
    /// A located compile-time diagnostic (lexer / parser / semantic pass).
    Diag(fir::diag::Error),
    /// A runtime-tester error (bad extent, undefined unit, subscript out
    /// of range...).
    Runtime(RtError),
    /// A run was cut off by a per-cell deadline — either the op budget
    /// (an interpreter run burned through `max_ops`) or the wall-clock
    /// budget (`wall_ms > 0`: the cell as a whole, compile stages
    /// included, exceeded [`crate::driver::DriverOptions::wall_budget_ms`]).
    /// Either way the program was not proven wrong, it just did not
    /// finish within its budget.
    Timeout {
        /// The op budget the run was given.
        max_ops: u64,
        /// The wall-clock budget that expired, in milliseconds; `0` when
        /// the expiry was the op budget.
        wall_ms: u64,
    },
    /// A panic caught at the driver's last-resort isolation boundary.
    Panic(String),
}

impl FailCause {
    /// Stable machine-readable code for this cause — the wire-protocol
    /// discriminant. Clients dispatch on this, never on `Display`
    /// formatting; the code set is pinned by test and must only ever
    /// grow.
    pub fn code(&self) -> &'static str {
        match self {
            FailCause::Diag(_) => "diag",
            FailCause::Runtime(_) => "runtime",
            FailCause::Timeout { .. } => "timeout",
            FailCause::Panic(_) => "panic",
        }
    }

    /// Every code [`FailCause::code`] can return, in declaration order.
    pub const CODES: [&'static str; 4] = ["diag", "runtime", "timeout", "panic"];
}

/// One failed (application × configuration) cell, with full context.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    /// Application name.
    pub app: String,
    /// Inlining configuration, when the failure is mode-specific (`None`
    /// for pre-pipeline failures such as source/annotation parsing).
    pub mode: Option<InlineMode>,
    /// Which stage failed.
    pub stage: FailStage,
    /// Why.
    pub cause: FailCause,
}

impl PipelineError {
    /// Construct an error for a specific matrix cell.
    pub fn in_cell(
        app: impl Into<String>,
        mode: InlineMode,
        stage: FailStage,
        cause: FailCause,
    ) -> Self {
        PipelineError {
            app: app.into(),
            mode: Some(mode),
            stage,
            cause,
        }
    }

    /// Construct a pre-pipeline (mode-independent) error.
    pub fn pre_pipeline(app: impl Into<String>, stage: FailStage, cause: FailCause) -> Self {
        PipelineError {
            app: app.into(),
            mode: None,
            stage,
            cause,
        }
    }

    /// True when the failure is a deadline, not a hard error.
    pub fn is_timeout(&self) -> bool {
        matches!(self.cause, FailCause::Timeout { .. })
    }

    /// Stable machine-readable cause code (see [`FailCause::code`]).
    pub fn code(&self) -> &'static str {
        self.cause.code()
    }

    /// One-line cause description (without app/mode/stage prefix).
    pub fn cause_message(&self) -> String {
        match &self.cause {
            FailCause::Diag(d) => d.to_string(),
            FailCause::Runtime(e) => e.to_string(),
            FailCause::Timeout { max_ops, wall_ms } => {
                if *wall_ms > 0 {
                    format!("evaluation exceeded the wall-clock deadline ({wall_ms} ms)")
                } else {
                    format!("verification exceeded the op-budget deadline ({max_ops} ops)")
                }
            }
            FailCause::Panic(m) => format!("panic: {m}"),
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.app)?;
        if let Some(m) = self.mode {
            write!(f, " [{}]", m.label())?;
        }
        write!(
            f,
            " {} failed: {}",
            self.stage.label(),
            self.cause_message()
        )
    }
}

impl std::error::Error for PipelineError {}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::loc::Span;

    #[test]
    fn display_carries_full_context() {
        let e = PipelineError::in_cell(
            "ADM",
            InlineMode::Annotation,
            FailStage::Verify,
            FailCause::Runtime(
                fruntime::run(&fir::ast::Program { units: vec![] }, &Default::default())
                    .unwrap_err(),
            ),
        );
        let s = e.to_string();
        assert!(s.contains("ADM"), "{s}");
        assert!(s.contains("annotation"), "{s}");
        assert!(s.contains("verify failed"), "{s}");
    }

    #[test]
    fn cause_codes_are_pinned() {
        // The wire protocol dispatches on these strings; changing one is
        // a protocol break. This test pins the full set.
        let diag = FailCause::Diag(fir::diag::Error::parse("x", Span::new(0, 1, 1)));
        let rt = FailCause::Runtime(RtError {
            message: "boom".into(),
            kind: fruntime::RtErrorKind::General,
            ops: None,
        });
        let op_timeout = FailCause::Timeout {
            max_ops: 100,
            wall_ms: 0,
        };
        let wall_timeout = FailCause::Timeout {
            max_ops: 100,
            wall_ms: 250,
        };
        let panic = FailCause::Panic("p".into());
        assert_eq!(diag.code(), "diag");
        assert_eq!(rt.code(), "runtime");
        assert_eq!(op_timeout.code(), "timeout");
        assert_eq!(wall_timeout.code(), "timeout");
        assert_eq!(panic.code(), "panic");
        assert_eq!(FailCause::CODES, ["diag", "runtime", "timeout", "panic"]);
        // Wall-clock and op-budget expiries share the code but render
        // distinguishable messages.
        let wall = PipelineError::in_cell("A", InlineMode::None, FailStage::Verify, wall_timeout);
        assert!(wall.is_timeout());
        assert!(wall.cause_message().contains("250 ms"), "{wall}");
        let ops = PipelineError::in_cell("A", InlineMode::None, FailStage::Verify, op_timeout);
        assert!(ops.is_timeout());
        assert!(ops.cause_message().contains("100 ops"), "{ops}");
    }

    #[test]
    fn diag_cause_keeps_location() {
        let d = fir::diag::Error::parse("unexpected token", Span::new(0, 1, 7));
        let e = PipelineError::pre_pipeline("Y", FailStage::Parse, FailCause::Diag(d));
        assert!(e.to_string().contains("line 7"), "{e}");
    }
}
