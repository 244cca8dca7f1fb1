//! Incremental circuit construction with validation.

use crate::circuit::Circuit;
use crate::clock::ClockSpec;
use crate::error::CircuitError;
use crate::graph::{Edge, EdgeId};
use crate::ids::{LatchId, PhaseId};
use crate::sync::{SyncKind, Synchronizer};
use std::collections::HashSet;

/// Builds a [`Circuit`] incrementally; all validation happens in
/// [`CircuitBuilder::build`].
///
/// ```
/// use smo_circuit::{CircuitBuilder, PhaseId};
/// # fn main() -> Result<(), smo_circuit::CircuitError> {
/// let mut b = CircuitBuilder::new(2);
/// let p1 = PhaseId::from_number(1);
/// let p2 = PhaseId::from_number(2);
/// let a = b.add_latch("A", p1, 10.0, 10.0);
/// let c = b.add_latch("C", p2, 10.0, 10.0);
/// b.connect(a, c, 20.0);
/// let circuit = b.build()?;
/// assert_eq!(circuit.num_edges(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    clock: ClockSpec,
    syncs: Vec<Synchronizer>,
    edges: Vec<Edge>,
}

impl CircuitBuilder {
    /// Starts a circuit controlled by a `num_phases`-phase clock.
    ///
    /// # Panics
    ///
    /// Panics if `num_phases` is zero.
    pub fn new(num_phases: usize) -> Self {
        CircuitBuilder {
            clock: ClockSpec::new(num_phases),
            syncs: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a level-sensitive latch; returns its id.
    pub fn add_latch(
        &mut self,
        name: impl Into<String>,
        phase: PhaseId,
        setup: f64,
        dq: f64,
    ) -> LatchId {
        self.add_sync(Synchronizer::latch(name, phase, setup, dq))
    }

    /// Adds an edge-triggered flip-flop; returns its id.
    pub fn add_flip_flop(
        &mut self,
        name: impl Into<String>,
        phase: PhaseId,
        setup: f64,
        dq: f64,
    ) -> LatchId {
        self.add_sync(Synchronizer::flip_flop(name, phase, setup, dq))
    }

    /// Adds an arbitrary synchronizer; returns its id.
    pub fn add_sync(&mut self, sync: Synchronizer) -> LatchId {
        let id = LatchId::new(self.syncs.len());
        self.syncs.push(sync);
        id
    }

    /// Adds a combinational path with long-path delay `delay` (and a
    /// short-path delay of `0`, the conservative default for hold analysis).
    /// The short-path delay is recorded as *unspecified*, so analyses that
    /// trust measured data ([`Edge::short_delay`]) fall back to `delay`.
    pub fn connect(&mut self, from: LatchId, to: LatchId, delay: f64) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            from,
            to,
            max_delay: delay,
            min_delay: 0.0,
            min_specified: false,
        });
        id
    }

    /// Adds a combinational path with explicit short- and long-path delays.
    pub fn connect_min_max(
        &mut self,
        from: LatchId,
        to: LatchId,
        min_delay: f64,
        max_delay: f64,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            from,
            to,
            max_delay,
            min_delay,
            min_specified: true,
        });
        id
    }

    /// Declares measured short-path delays (the netlist `mindelay`
    /// statements): each `(from, to, δ)` sets the short-path delay of every
    /// existing `from → to` path, in order, so a later declaration for the
    /// same pair wins. The declarations resolve against one index of the
    /// edges, and each path is written once, in `O((E + M) log E)` time
    /// for `E` edges and `M` declarations.
    ///
    /// # Errors
    ///
    /// The position of the first declaration that matches no path; nothing
    /// is applied then.
    pub fn set_min_delays(&mut self, decls: &[(LatchId, LatchId, f64)]) -> Result<(), usize> {
        if decls.is_empty() {
            return Ok(());
        }
        let pair = |e: &Edge| (e.from, e.to);
        let mut by_pair: Vec<usize> = (0..self.edges.len()).collect();
        by_pair.sort_unstable_by_key(|&i| pair(&self.edges[i]));
        // The winning δ of each pair, at the position its edges start.
        let mut latest: Vec<Option<f64>> = vec![None; by_pair.len()];
        for (n, &(from, to, min_delay)) in decls.iter().enumerate() {
            let start = by_pair.partition_point(|&i| pair(&self.edges[i]) < (from, to));
            match by_pair.get(start) {
                Some(&i) if pair(&self.edges[i]) == (from, to) => latest[start] = Some(min_delay),
                _ => return Err(n),
            }
        }
        for (start, winner) in latest.into_iter().enumerate() {
            let Some(min_delay) = winner else { continue };
            let key = pair(&self.edges[by_pair[start]]);
            for &i in &by_pair[start..] {
                let e = &mut self.edges[i];
                if pair(e) != key {
                    break;
                }
                e.min_delay = min_delay;
                e.min_specified = true;
            }
        }
        Ok(())
    }

    /// Number of synchronizers added so far.
    pub fn num_syncs(&self) -> usize {
        self.syncs.len()
    }

    /// Validates the accumulated structure and produces the immutable
    /// [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found; see [`CircuitError`] for
    /// the full catalogue (phase out of range, negative/non-finite delays,
    /// `Δ_DQ < Δ_DC` on a latch, duplicate names, dangling edge endpoints,
    /// empty circuit).
    pub fn build(self) -> Result<Circuit, CircuitError> {
        self.build_checking_names(true)
    }

    /// [`build`](Self::build) for a caller that has already checked every
    /// name: non-empty, free of whitespace and `#`, and unique. The netlist
    /// parser does, since its names are tokens it indexes as it reads them.
    pub(crate) fn build_with_checked_names(self) -> Result<Circuit, CircuitError> {
        self.build_checking_names(false)
    }

    fn build_checking_names(self, check_names: bool) -> Result<Circuit, CircuitError> {
        let CircuitBuilder {
            clock,
            syncs,
            edges,
        } = self;
        if syncs.is_empty() {
            return Err(CircuitError::EmptyCircuit);
        }
        let mut names: HashSet<&str> =
            HashSet::with_capacity(if check_names { syncs.len() } else { 0 });
        for s in &syncs {
            if s.phase.index() >= clock.num_phases() {
                return Err(CircuitError::PhaseOutOfRange {
                    latch: s.name.clone(),
                    phase: s.phase.number(),
                    num_phases: clock.num_phases(),
                });
            }
            for (parameter, value) in [("setup", s.setup), ("dq", s.dq), ("hold", s.hold)] {
                if !value.is_finite() || value < 0.0 {
                    return Err(CircuitError::InvalidLatchParameter {
                        latch: s.name.clone(),
                        parameter,
                        value,
                    });
                }
            }
            if s.kind == SyncKind::Latch && s.dq + 1e-12 < s.setup {
                return Err(CircuitError::DqBelowSetup {
                    latch: s.name.clone(),
                    dq: s.dq,
                    setup: s.setup,
                });
            }
            if !check_names {
                continue;
            }
            if s.name.is_empty() || s.name.chars().any(|c| c.is_whitespace() || c == '#') {
                return Err(CircuitError::InvalidName {
                    name: s.name.clone(),
                });
            }
            if !names.insert(&s.name) {
                return Err(CircuitError::DuplicateName {
                    name: s.name.clone(),
                });
            }
        }
        for e in &edges {
            for l in [e.from, e.to] {
                if l.index() >= syncs.len() {
                    return Err(CircuitError::UnknownLatch { index: l.index() });
                }
            }
            let name = |l: LatchId| syncs[l.index()].name.clone();
            if !e.max_delay.is_finite() || e.max_delay < 0.0 {
                return Err(CircuitError::InvalidEdgeDelay {
                    from: name(e.from),
                    to: name(e.to),
                    reason: format!("max delay {} must be finite and non-negative", e.max_delay),
                });
            }
            if !e.min_delay.is_finite() || e.min_delay < 0.0 {
                return Err(CircuitError::InvalidEdgeDelay {
                    from: name(e.from),
                    to: name(e.to),
                    reason: format!("min delay {} must be finite and non-negative", e.min_delay),
                });
            }
            if e.min_delay > e.max_delay {
                return Err(CircuitError::InvalidEdgeDelay {
                    from: name(e.from),
                    to: name(e.to),
                    reason: format!(
                        "min delay {} exceeds max delay {}",
                        e.min_delay, e.max_delay
                    ),
                });
            }
        }
        Ok(Circuit::from_parts(clock, syncs, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    #[test]
    fn rejects_empty_circuit() {
        assert_eq!(
            CircuitBuilder::new(2).build().unwrap_err(),
            CircuitError::EmptyCircuit
        );
    }

    #[test]
    fn rejects_phase_out_of_range() {
        let mut b = CircuitBuilder::new(2);
        b.add_latch("A", p(3), 1.0, 1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            CircuitError::PhaseOutOfRange { .. }
        ));
    }

    #[test]
    fn rejects_negative_setup() {
        let mut b = CircuitBuilder::new(1);
        b.add_latch("A", p(1), -1.0, 1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            CircuitError::InvalidLatchParameter {
                parameter: "setup",
                ..
            }
        ));
    }

    #[test]
    fn rejects_dq_below_setup_for_latches_only() {
        let mut b = CircuitBuilder::new(1);
        b.add_latch("A", p(1), 5.0, 1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            CircuitError::DqBelowSetup { .. }
        ));
        // flip-flops may have clock-to-Q below setup
        let mut b = CircuitBuilder::new(1);
        b.add_flip_flop("F", p(1), 5.0, 1.0);
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_unroundtrippable_names() {
        for bad in ["", "has space", "tab\there", "hash#mark"] {
            let mut b = CircuitBuilder::new(1);
            b.add_latch(bad, p(1), 1.0, 1.0);
            assert!(
                matches!(b.build().unwrap_err(), CircuitError::InvalidName { .. }),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = CircuitBuilder::new(1);
        b.add_latch("A", p(1), 1.0, 1.0);
        b.add_latch("A", p(1), 1.0, 1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            CircuitError::DuplicateName { .. }
        ));
    }

    #[test]
    fn rejects_dangling_edge() {
        let mut b = CircuitBuilder::new(1);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        b.connect(a, LatchId::new(7), 1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            CircuitError::UnknownLatch { index: 7 }
        ));
    }

    #[test]
    fn rejects_inverted_min_max() {
        let mut b = CircuitBuilder::new(1);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c = b.add_latch("B", p(1), 1.0, 1.0);
        b.connect_min_max(a, c, 5.0, 2.0);
        assert!(matches!(
            b.build().unwrap_err(),
            CircuitError::InvalidEdgeDelay { .. }
        ));
    }

    #[test]
    fn rejects_nan_delay() {
        let mut b = CircuitBuilder::new(1);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c = b.add_latch("B", p(1), 1.0, 1.0);
        b.connect(a, c, f64::NAN);
        assert!(b.build().is_err());
    }

    #[test]
    fn builds_valid_circuit() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 2.0);
        let c = b.add_flip_flop("B", p(2), 0.5, 0.5);
        b.connect_min_max(a, c, 1.0, 4.0);
        let circuit = b.build().unwrap();
        assert_eq!(circuit.num_syncs(), 2);
        assert_eq!(circuit.num_latches(), 1);
        assert_eq!(circuit.num_flip_flops(), 1);
        assert_eq!(circuit.num_edges(), 1);
    }
}
