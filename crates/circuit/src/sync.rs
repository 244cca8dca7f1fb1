//! Synchronizing elements: level-sensitive latches and edge-triggered
//! flip-flops.

use crate::ids::PhaseId;
use std::fmt;

/// The kind of a synchronizing element.
///
/// The paper's formulation (§III-B) is for level-sensitive D-latches;
/// Example 3 (the GaAs MIPS datapath, Fig. 10) additionally uses
/// edge-triggered flip-flops, which the timing engine models as degenerate
/// synchronizers: the departure time is pinned to the enabling edge and the
/// setup requirement is referenced to that edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Transparent while its phase is active; closes at the trailing edge.
    Latch,
    /// Samples at the leading (rising) edge of its phase.
    FlipFlop,
}

impl fmt::Display for SyncKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncKind::Latch => write!(f, "latch"),
            SyncKind::FlipFlop => write!(f, "flip-flop"),
        }
    }
}

/// A synchronizing element (the paper's "latch i").
///
/// Carries the per-latch parameters of §III-B:
///
/// * `phase` — the controlling clock phase `p_i`;
/// * `setup` — the setup time `Δ_DCi` between the data input and the
///   trailing edge (latch) or leading edge (flip-flop) of the clock;
/// * `dq` — the propagation delay `Δ_DQi` from data input to data output
///   while the clock is high (latch), or the clock-to-Q delay (flip-flop);
/// * `hold` — *extension*: minimum time the input must stay stable after
///   the closing edge (used by the optional short-path analysis; the paper
///   notes the long-path problem only, after Unger's treatment of both).
///
/// The paper assumes `Δ_DQi ≥ Δ_DCi` for latches; the
/// [`CircuitBuilder`](crate::CircuitBuilder) enforces it.
#[derive(Debug, Clone, PartialEq)]
pub struct Synchronizer {
    /// Human-readable instance name (unique within a circuit).
    pub name: String,
    /// Latch or flip-flop.
    pub kind: SyncKind,
    /// Controlling clock phase `p_i`.
    pub phase: PhaseId,
    /// Setup time `Δ_DCi`.
    pub setup: f64,
    /// Propagation delay `Δ_DQi` (clock-to-Q for flip-flops).
    pub dq: f64,
    /// Hold requirement (extension; `0.0` disables the check).
    pub hold: f64,
}

impl Synchronizer {
    /// A level-sensitive latch with zero hold requirement.
    pub fn latch(name: impl Into<String>, phase: PhaseId, setup: f64, dq: f64) -> Self {
        Synchronizer {
            name: name.into(),
            kind: SyncKind::Latch,
            phase,
            setup,
            dq,
            hold: 0.0,
        }
    }

    /// An edge-triggered flip-flop with zero hold requirement.
    pub fn flip_flop(name: impl Into<String>, phase: PhaseId, setup: f64, dq: f64) -> Self {
        Synchronizer {
            name: name.into(),
            kind: SyncKind::FlipFlop,
            phase,
            setup,
            dq,
            hold: 0.0,
        }
    }

    /// Returns `self` with the given hold requirement (builder style).
    pub fn with_hold(mut self, hold: f64) -> Self {
        self.hold = hold;
        self
    }

    /// `true` for level-sensitive latches.
    pub fn is_latch(&self) -> bool {
        self.kind == SyncKind::Latch
    }
}

impl fmt::Display for Synchronizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} `{}` on {} (setup {}, dq {})",
            self.kind, self.name, self.phase, self.setup, self.dq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let l = Synchronizer::latch("a", PhaseId::new(0), 1.0, 2.0);
        assert!(l.is_latch());
        assert_eq!(l.hold, 0.0);
        let ff = Synchronizer::flip_flop("b", PhaseId::new(1), 0.5, 0.7);
        assert_eq!(ff.kind, SyncKind::FlipFlop);
        assert!(!ff.is_latch());
    }

    #[test]
    fn with_hold_is_chainable() {
        let l = Synchronizer::latch("a", PhaseId::new(0), 1.0, 2.0).with_hold(0.3);
        assert_eq!(l.hold, 0.3);
    }

    #[test]
    fn display_mentions_name_and_phase() {
        let l = Synchronizer::latch("rf_out", PhaseId::from_number(3), 1.0, 2.0);
        let s = l.to_string();
        assert!(s.contains("rf_out"));
        assert!(s.contains("φ3"));
        assert!(s.contains("latch"));
    }
}
