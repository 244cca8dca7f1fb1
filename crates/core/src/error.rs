//! Error type for the timing engine.

use smo_circuit::CircuitError;
use smo_lp::LpError;
use std::error::Error;
use std::fmt;

/// Errors reported by the timing engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingError {
    /// The circuit or schedule is structurally invalid.
    Circuit(CircuitError),
    /// The underlying LP solver failed (API misuse or numerical breakdown).
    Lp(LpError),
    /// The timing constraints admit no solution.
    ///
    /// For a plain SMO model this cannot happen (a large enough `T_c` always
    /// exists); it arises when user extras — a fixed cycle time, minimum
    /// phase widths/separations, an upper bound on `T_c` — over-constrain
    /// the model.
    Infeasible {
        /// Human-readable explanation.
        reason: String,
    },
    /// The LP was unbounded. Indicates a modelling error (the objective
    /// `T_c ≥ 0` is always bounded below in a well-formed model).
    Unbounded,
    /// An option value passed to the engine is invalid (NaN, negative, …).
    InvalidOptions {
        /// Human-readable explanation.
        reason: String,
    },
    /// The departure slide (MLP step 2) found no fixpoint: the schedule
    /// leaves a latch loop of positive gain, or the slide's start point
    /// violates the relaxed constraints L2R (should not occur; please
    /// report).
    NotConverged {
        /// Names of the latches on the positive-gain loop, in propagation
        /// order; empty when the start point violates L2R.
        positive_loop: Vec<String>,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::Circuit(e) => write!(f, "circuit error: {e}"),
            TimingError::Lp(e) => write!(f, "lp solver error: {e}"),
            TimingError::Infeasible { reason } => {
                write!(f, "timing constraints are infeasible: {reason}")
            }
            TimingError::Unbounded => write!(f, "cycle-time lp is unbounded"),
            TimingError::InvalidOptions { reason } => {
                write!(f, "invalid options: {reason}")
            }
            TimingError::NotConverged { positive_loop } => {
                write!(f, "departure fixpoint did not converge: ")?;
                if positive_loop.is_empty() {
                    write!(f, "start point violates L2R")
                } else {
                    write!(
                        f,
                        "positive-gain loop through {}",
                        positive_loop.join(" -> ")
                    )
                }
            }
        }
    }
}

impl Error for TimingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TimingError::Circuit(e) => Some(e),
            TimingError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for TimingError {
    fn from(e: CircuitError) -> Self {
        TimingError::Circuit(e)
    }
}

impl From<LpError> for TimingError {
    fn from(e: LpError) -> Self {
        TimingError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e = TimingError::from(LpError::EmptyModel);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("lp solver"));
        let e = TimingError::from(CircuitError::EmptyCircuit);
        assert!(e.source().is_some());
    }

    #[test]
    fn not_converged_names_what_failed() {
        let e = TimingError::NotConverged {
            positive_loop: vec!["L1".into(), "L2".into()],
        };
        assert_eq!(
            e.to_string(),
            "departure fixpoint did not converge: positive-gain loop through L1 -> L2"
        );
        let e = TimingError::NotConverged {
            positive_loop: Vec::new(),
        };
        assert_eq!(
            e.to_string(),
            "departure fixpoint did not converge: start point violates L2R"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimingError>();
    }
}
