//! The daemon's error taxonomy: every failure a request can hit maps to a
//! stable machine-readable *kind* slug plus a human-readable message.
//!
//! The kinds are part of the wire protocol (golden-tested), so clients can
//! branch on them without parsing prose: `limit` and `parse` mean "your
//! netlist is bad", `budget` means "your deadline expired", `overload` and
//! `shutting-down` mean "retry elsewhere / later", `panic` and
//! `quarantined` mean "this input broke the engine and is now fenced off".

use crate::ops::OpError;
use smo_analyze::AnalyzeError;
use smo_circuit::CircuitError;
use smo_core::TimingError;
use smo_lp::LpError;
use std::fmt;

/// Machine-readable failure category. The wire slug is
/// [`ErrorKind::slug`]; the discriminants are ordered roughly
/// client-fault → server-fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line is not valid JSON, or is missing/has malformed
    /// fields (unknown command, bad types, …).
    BadRequest,
    /// The netlist text failed to parse.
    Parse,
    /// The netlist exceeded an input limit (size, line count, …).
    Limit,
    /// The netlist parsed but describes an invalid circuit (bad phase,
    /// negative delay, combinational cycle, …), or the request's options
    /// are invalid.
    InvalidCircuit,
    /// The timing constraints admit no solution.
    Infeasible,
    /// The LP was unbounded (a modelling error).
    Unbounded,
    /// The request's deadline expired (or its iteration budget ran out)
    /// before the solve finished.
    Budget,
    /// The departure-time fixpoint failed to converge.
    NotConverged,
    /// The handler panicked on this input. The input's fingerprint is
    /// quarantined; resubmitting it returns `quarantined` without
    /// re-running the engine.
    Panic,
    /// This input previously panicked the engine and is fenced off.
    Quarantined,
    /// The server is saturated (active + queued slots full); the request
    /// was shed without being run. Retry with backoff.
    Overload,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// Any other engine failure (numerical breakdown, internal misuse).
    Internal,
}

impl ErrorKind {
    /// The stable wire slug for this kind.
    pub fn slug(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Parse => "parse",
            ErrorKind::Limit => "limit",
            ErrorKind::InvalidCircuit => "invalid-circuit",
            ErrorKind::Infeasible => "infeasible",
            ErrorKind::Unbounded => "unbounded",
            ErrorKind::Budget => "budget",
            ErrorKind::NotConverged => "not-converged",
            ErrorKind::Panic => "panic",
            ErrorKind::Quarantined => "quarantined",
            ErrorKind::Overload => "overload",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        }
    }

    /// Whether the client may usefully retry the same request later
    /// (transient server-side condition rather than a property of the
    /// input).
    pub fn retryable(self) -> bool {
        matches!(self, ErrorKind::Overload | ErrorKind::ShuttingDown)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// A categorized failure: kind slug plus message. This is what turns into
/// the `"error"` object of a response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable explanation.
    pub message: String,
}

impl ApiError {
    /// Builds an error of `kind` with `message`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ApiError {
            kind,
            message: message.into(),
        }
    }

    /// Shorthand for a `bad-request` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(ErrorKind::BadRequest, message)
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<CircuitError> for ApiError {
    fn from(e: CircuitError) -> Self {
        let kind = match &e {
            CircuitError::ParseNetlist { .. } => ErrorKind::Parse,
            CircuitError::InputLimit { .. } => ErrorKind::Limit,
            _ => ErrorKind::InvalidCircuit,
        };
        ApiError::new(kind, e.to_string())
    }
}

impl From<LpError> for ApiError {
    fn from(e: LpError) -> Self {
        let kind = match &e {
            LpError::Budget { .. } => ErrorKind::Budget,
            _ => ErrorKind::Internal,
        };
        ApiError::new(kind, e.to_string())
    }
}

impl From<TimingError> for ApiError {
    fn from(e: TimingError) -> Self {
        match e {
            TimingError::Circuit(c) => c.into(),
            TimingError::Lp(lp) => {
                // Preserve the outer "lp solver error" framing the CLI
                // prints, but classify by the inner error.
                let inner: ApiError = lp.into();
                ApiError::new(inner.kind, format!("lp solver error: {}", inner.message))
            }
            TimingError::Infeasible { ref reason } => {
                ApiError::new(ErrorKind::Infeasible, reason.clone())
            }
            TimingError::Unbounded => ApiError::new(ErrorKind::Unbounded, e.to_string()),
            TimingError::InvalidOptions { ref reason } => {
                ApiError::new(ErrorKind::InvalidCircuit, reason.clone())
            }
            TimingError::NotConverged { .. } => {
                ApiError::new(ErrorKind::NotConverged, e.to_string())
            }
        }
    }
}

impl From<AnalyzeError> for ApiError {
    /// A failed `check` or `analyze` keeps its own message; a timing
    /// failure gets the kind a plain solve's error would.
    fn from(e: AnalyzeError) -> Self {
        let kind = match &e {
            AnalyzeError::Timing(t) => ApiError::from(t.clone()).kind,
            AnalyzeError::BoundsDisagree { .. } => ErrorKind::Internal,
        };
        ApiError::new(kind, e.to_string())
    }
}

impl From<OpError> for ApiError {
    fn from(e: OpError) -> Self {
        match e {
            OpError::Request(message) => ApiError::bad_request(message),
            OpError::Timing(e) => e.into(),
            OpError::Check(e) => e.into(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_lp::BudgetUnit;

    #[test]
    fn slugs_are_stable() {
        // These strings are wire protocol: changing one breaks clients.
        let all = [
            (ErrorKind::BadRequest, "bad-request"),
            (ErrorKind::Parse, "parse"),
            (ErrorKind::Limit, "limit"),
            (ErrorKind::InvalidCircuit, "invalid-circuit"),
            (ErrorKind::Infeasible, "infeasible"),
            (ErrorKind::Unbounded, "unbounded"),
            (ErrorKind::Budget, "budget"),
            (ErrorKind::NotConverged, "not-converged"),
            (ErrorKind::Panic, "panic"),
            (ErrorKind::Quarantined, "quarantined"),
            (ErrorKind::Overload, "overload"),
            (ErrorKind::ShuttingDown, "shutting-down"),
            (ErrorKind::Internal, "internal"),
        ];
        for (kind, slug) in all {
            assert_eq!(kind.slug(), slug);
        }
    }

    #[test]
    fn circuit_errors_classify() {
        let parse = CircuitError::ParseNetlist {
            line: 3,
            message: "bad token".into(),
        };
        assert_eq!(ApiError::from(parse).kind, ErrorKind::Parse);
        let limit = CircuitError::InputLimit {
            what: "input bytes",
            limit: 8,
            actual: 9,
        };
        assert_eq!(ApiError::from(limit).kind, ErrorKind::Limit);
        assert_eq!(
            ApiError::from(CircuitError::EmptyCircuit).kind,
            ErrorKind::InvalidCircuit
        );
    }

    #[test]
    fn timing_errors_classify() {
        let budget = TimingError::Lp(LpError::Budget {
            iterations: 7,
            timed_out: true,
            unit: BudgetUnit::BellmanFordPasses,
        });
        let e = ApiError::from(budget);
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(e.message.contains("lp solver error"));
        assert_eq!(
            ApiError::from(TimingError::Infeasible {
                reason: "no".into()
            })
            .kind,
            ErrorKind::Infeasible
        );
        let e = ApiError::from(TimingError::NotConverged {
            positive_loop: vec!["A".into(), "B".into()],
        });
        assert_eq!(e.kind, ErrorKind::NotConverged);
        assert!(e.message.ends_with("positive-gain loop through A -> B"));
    }

    #[test]
    fn check_errors_classify_like_solve_errors_and_keep_their_text() {
        let infeasible = TimingError::Infeasible {
            reason: "no".into(),
        };
        let e = ApiError::from(AnalyzeError::Timing(infeasible.clone()));
        assert_eq!(e.kind, ErrorKind::Infeasible);
        assert_eq!(e.message, infeasible.to_string());
        let e = ApiError::from(AnalyzeError::BoundsDisagree {
            lower: 1.0,
            upper: 2.0,
            optimum: 3.0,
        });
        assert_eq!(e.kind, ErrorKind::Internal);
    }

    #[test]
    fn only_load_conditions_are_retryable() {
        assert!(ErrorKind::Overload.retryable());
        assert!(ErrorKind::ShuttingDown.retryable());
        assert!(!ErrorKind::Budget.retryable());
        assert!(!ErrorKind::Quarantined.retryable());
    }
}
