//! The departure-time propagation system and its fixpoint solvers.
//!
//! With the clock schedule held fixed, the latch propagation constraints L2
//! (eq. 17) become a max-plus fixpoint system over the departure vector `D`:
//!
//! ```text
//! D_i = max(0, max_j (D_j + Δ_DQj + Δ_ji + S_{p_j p_i}))     (latches)
//! D_i = 0                                                     (flip-flops)
//! ```
//!
//! Two iterations are provided:
//!
//! * [`PropagationSystem::jacobi`] — the paper's synchronous update
//!   (Algorithm MLP steps 3–5), kept as the reference iteration. From a
//!   point satisfying the relaxed constraints L2R it is monotone
//!   non-increasing and bounded below by `0`, but it descends a loop of
//!   negative gain `g` by only `|g|` per sweep, so its sweep count has no
//!   bound in `l` alone.
//! * [`PropagationSystem::least_fixpoint`] — in-place upward sweeps from
//!   `D = 0`. When every loop's gain is non-positive they stabilize within
//!   `l` sweeps (a longest-path argument: revisiting a non-positive-gain
//!   cycle never increases a path weight), so a change in sweep `l + 1`
//!   proves a positive-gain loop. Schedule verification runs it, and the
//!   MLP slide runs the same pass from a floor that a linear-time peel of
//!   the tight chains at `D⁰` sets.
//!
//! Each arc carries one weight. [`PropagationSystem::new`] builds it from
//! the max delays for the late (long-path) iterations above;
//! [`PropagationSystem::with_short_delays`] builds it from the effective
//! short-path delays for the early-mode iteration
//! ([`PropagationSystem::early_steady`]) of the race analysis.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smo_circuit::{Circuit, ClockSchedule, LatchId, SyncKind};

/// Convergence tolerance for departure-time fixpoints.
pub const FIXPOINT_TOL: f64 = 1e-9;

/// One resolved fan-in arc: departure of `source` plus `weight` contributes
/// to the arrival at the owning latch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Index of the source synchronizer.
    pub source: usize,
    /// `Δ_DQj + Δ_ji + S_{p_j p_i}` evaluated at the fixed schedule, with
    /// the edge's max delay `Δ_ji` (late mode) or its effective short-path
    /// delay `δ_ji` (early mode).
    pub weight: f64,
}

/// The max-plus propagation system of a circuit at a fixed clock schedule.
///
/// Fan-in arcs and fan-out destinations are stored in compressed sparse
/// rows, one flat array each, in the circuit's fan-in and fan-out order.
#[derive(Debug, Clone)]
pub struct PropagationSystem {
    /// The fan-in arcs of synchronizer `i` are
    /// `arcs[arcs_end[i - 1]..arcs_end[i]]` (from 0 for the first), in
    /// edge-id order.
    arcs: Vec<Arc>,
    arcs_end: Vec<usize>,
    /// The distinct fan-out destinations of synchronizer `j`, ascending,
    /// are `outgoing[outgoing_end[j - 1]..outgoing_end[j]]`.
    outgoing: Vec<usize>,
    outgoing_end: Vec<usize>,
    is_ff: Vec<bool>,
}

/// Result of a fixpoint run.
#[derive(Debug, Clone, PartialEq)]
pub struct FixpointResult {
    /// The departure vector at termination.
    pub departures: Vec<f64>,
    /// Number of full sweeps, the last of which changed nothing when the
    /// run converged.
    pub iterations: usize,
    /// `false` if the sweep bound was hit before stabilizing.
    pub converged: bool,
}

impl PropagationSystem {
    /// Builds the system for `circuit` under `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's phase count differs from the circuit's.
    pub fn new(circuit: &Circuit, schedule: &ClockSchedule) -> Self {
        Self::build(circuit, schedule, false)
    }

    /// Like [`PropagationSystem::new`] but each arc weight uses the
    /// *effective* short-path delay of
    /// [`Edge::short_delay`](smo_circuit::Edge::short_delay): the measured
    /// contamination delay, or the max delay for an edge that has none.
    /// This is the early-mode system of the race detector
    /// ([`race_analysis`](crate::race_analysis)), where an unmeasured
    /// short path must not manufacture a violation.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's phase count differs from the circuit's.
    pub fn with_short_delays(circuit: &Circuit, schedule: &ClockSchedule) -> Self {
        Self::build(circuit, schedule, true)
    }

    fn build(circuit: &Circuit, schedule: &ClockSchedule, short: bool) -> Self {
        assert_eq!(
            circuit.num_phases(),
            schedule.num_phases(),
            "schedule phase count must match the circuit"
        );
        let l = circuit.num_syncs();
        let mut arcs = Vec::with_capacity(circuit.num_edges());
        let mut arcs_end = Vec::with_capacity(l);
        let mut outgoing = Vec::with_capacity(circuit.num_edges());
        let mut outgoing_end = Vec::with_capacity(l);
        for (id, dst) in circuit.syncs() {
            for &eid in circuit.fanin(id) {
                let e = circuit.edge(eid);
                let src = circuit.sync(e.from);
                let shift = schedule.shift(src.phase, dst.phase);
                let delay = if short { e.short_delay() } else { e.max_delay };
                arcs.push(Arc {
                    source: e.from.index(),
                    weight: src.dq + delay + shift,
                });
            }
            arcs_end.push(arcs.len());
            let start = outgoing.len();
            outgoing.extend(
                circuit
                    .fanout(id)
                    .iter()
                    .map(|&e| circuit.edge(e).to.index()),
            );
            outgoing[start..].sort_unstable();
            // Deduplicate this synchronizer's run in place.
            let mut kept = start;
            for k in start..outgoing.len() {
                if kept == start || outgoing[kept - 1] != outgoing[k] {
                    outgoing[kept] = outgoing[k];
                    kept += 1;
                }
            }
            outgoing.truncate(kept);
            outgoing_end.push(kept);
        }
        let is_ff = circuit
            .syncs()
            .map(|(_, s)| s.kind == SyncKind::FlipFlop)
            .collect();
        PropagationSystem {
            arcs,
            arcs_end,
            outgoing,
            outgoing_end,
            is_ff,
        }
    }

    /// Number of synchronizers.
    pub fn len(&self) -> usize {
        self.arcs_end.len()
    }

    /// `true` when the system has no synchronizers.
    pub fn is_empty(&self) -> bool {
        self.arcs_end.is_empty()
    }

    /// The fan-in arcs of synchronizer `i`, in edge-id order.
    fn incoming(&self, i: usize) -> &[Arc] {
        let start = if i == 0 { 0 } else { self.arcs_end[i - 1] };
        &self.arcs[start..self.arcs_end[i]]
    }

    /// The distinct fan-out destinations of synchronizer `j`, ascending.
    fn outgoing(&self, j: usize) -> &[usize] {
        let start = if j == 0 { 0 } else { self.outgoing_end[j - 1] };
        &self.outgoing[start..self.outgoing_end[j]]
    }

    /// The arrival time `A_i` (eq. 14) given departures `d`:
    /// `max_j (d_j + w_ji)`, or `−∞` for synchronizers with no fan-in.
    pub fn arrival(&self, d: &[f64], i: usize) -> f64 {
        self.incoming(i)
            .iter()
            .map(|a| d[a.source] + a.weight)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// All arrival times.
    pub fn arrivals(&self, d: &[f64]) -> Vec<f64> {
        (0..self.len()).map(|i| self.arrival(d, i)).collect()
    }

    /// The update function: `F_i(d) = max(0, A_i(d))` for latches, `0` for
    /// flip-flops (eq. 15 / 17).
    pub fn update(&self, d: &[f64], i: usize) -> f64 {
        if self.is_ff[i] {
            0.0
        } else {
            self.arrival(d, i).max(0.0)
        }
    }

    /// Jacobi iteration from `start` until fixpoint (the paper's Algorithm
    /// MLP steps 3–5), capped at `max_sweeps` full sweeps. The reference
    /// iteration: the oracle that [`slide_limit`](Self::slide_limit) is
    /// tested against, and the ablation baseline.
    pub fn jacobi(&self, start: &[f64], max_sweeps: usize) -> FixpointResult {
        let mut d = start.to_vec();
        let mut next = vec![0.0; d.len()];
        for sweep in 0..max_sweeps {
            let mut delta = 0.0f64;
            for i in 0..d.len() {
                next[i] = self.update(&d, i);
                delta = delta.max((next[i] - d[i]).abs());
            }
            std::mem::swap(&mut d, &mut next);
            if delta <= FIXPOINT_TOL {
                return FixpointResult {
                    departures: d,
                    iterations: sweep + 1,
                    converged: true,
                };
            }
        }
        FixpointResult {
            departures: d,
            iterations: max_sweeps,
            converged: false,
        }
    }

    /// The *early-mode* arrival: `min_j (e_j + w_ji)`, or `+∞` for
    /// synchronizers with no fan-in (their data never changes). The early
    /// methods read a system built by
    /// [`with_short_delays`](Self::with_short_delays).
    pub fn early_arrival(&self, e: &[f64], i: usize) -> f64 {
        self.incoming(i)
            .iter()
            .map(|a| e[a.source] + a.weight)
            .fold(f64::INFINITY, f64::min)
    }

    /// Early-mode update: the earliest instant (relative to its own phase
    /// start) at which a synchronizer's output can start *changing*:
    /// `max(0, min-arrival)` for latches (data arriving while closed
    /// changes the output at the opening edge), `0` for flip-flops.
    pub fn early_update(&self, e: &[f64], i: usize) -> f64 {
        if self.is_ff[i] {
            0.0
        } else {
            self.early_arrival(e, i).max(0.0)
        }
    }

    /// Computes the steady-state early-mode change times by iterating the
    /// early recurrence from the power-on state (every output first changes
    /// at its opening edge, `E = 0`) — exactly the recurrence the wave
    /// simulator executes, so the two agree by construction.
    ///
    /// The iteration is monotone non-decreasing. Divergence (no
    /// stabilization within the sweep budget) means the periodic data
    /// changes die out — the circuit settles to constants and nothing ever
    /// disturbs a captured value; callers should treat every early change
    /// time as `+∞` in that case.
    pub fn early_steady(&self, max_sweeps: usize) -> FixpointResult {
        let mut e = vec![0.0; self.len()];
        let mut next = vec![0.0; self.len()];
        for sweep in 0..max_sweeps {
            let mut changed = false;
            for i in 0..e.len() {
                let v = self.early_update(&e, i);
                // a finite→infinite transition is a change (the output turns
                // out never to change at all), as is any finite movement
                if v.is_finite() != e[i].is_finite()
                    || (v.is_finite() && (v - e[i]).abs() > FIXPOINT_TOL)
                {
                    changed = true;
                }
                next[i] = v;
            }
            std::mem::swap(&mut e, &mut next);
            if !changed {
                return FixpointResult {
                    departures: e,
                    iterations: sweep + 1,
                    converged: true,
                };
            }
        }
        FixpointResult {
            departures: e,
            iterations: max_sweeps,
            converged: false,
        }
    }

    /// Least-fixpoint computation from `D = 0` with positive-loop detection,
    /// used by schedule *verification*.
    ///
    /// Iterates upward in place; with all loop gains ≤ 0 the iteration
    /// stabilizes within `l` sweeps, so a change in sweep `l + 1` proves a
    /// positive-gain loop. On divergence the offending loop (as synchronizer
    /// ids) is returned.
    pub fn least_fixpoint(&self) -> Result<FixpointResult, Vec<LatchId>> {
        self.least_fixpoint_above(&vec![0.0; self.len()])
    }

    /// MLP step 2: the limit of the downward slide from `start` — what
    /// [`PropagationSystem::jacobi`] converges to — computed directly by a
    /// linear-time peel and at most `l + 1` upward sweeps, however slowly
    /// the slide itself would descend.
    ///
    /// `start` must satisfy the relaxed constraints L2R (`F(start) ≤
    /// start`), as Algorithm MLP's LP point does. Summing L2R around a
    /// loop of gain zero shows every arc of that loop is tight at `start`,
    /// so the departures on such a loop — and on every tight chain it
    /// feeds — never move; every other loop has negative gain and slides
    /// away. The limit is therefore the least fixpoint above `start`
    /// restricted to the latches reached by an endless backward chain of
    /// tight arcs. `Err` carries a positive-gain loop, or is empty when
    /// `start` violates L2R and the result is no fixpoint.
    pub fn slide_limit(&self, start: &[f64]) -> Result<FixpointResult, Vec<LatchId>> {
        let limit = self.least_fixpoint_above(&self.tight_floor(start))?;
        let settled = (0..self.len()).all(|i| {
            (self.update(&limit.departures, i) - limit.departures[i]).abs() <= FIXPOINT_TOL
        });
        if settled {
            Ok(limit)
        } else {
            Err(Vec::new())
        }
    }

    /// The floor of [`PropagationSystem::slide_limit`]: `start` on the
    /// latches with an endless backward chain of arcs tight at `start`,
    /// `0` elsewhere. Linear in the arcs (times the fan-in).
    fn tight_floor(&self, start: &[f64]) -> Vec<f64> {
        let l = self.len();
        let tight =
            |i: usize, a: &Arc| (start[a.source] + a.weight - start[i]).abs() <= FIXPOINT_TOL;
        // Peel the latches whose tight predecessors are all peeled: what
        // remains has an endless backward tight chain, i.e. sits on or
        // behind a zero-gain loop.
        let mut live: Vec<usize> = (0..l)
            .map(|i| {
                if self.is_ff[i] {
                    0
                } else {
                    self.incoming(i).iter().filter(|a| tight(i, a)).count()
                }
            })
            .collect();
        let mut queue: Vec<usize> = (0..l).filter(|&i| live[i] == 0).collect();
        let mut floor = start.to_vec();
        while let Some(j) = queue.pop() {
            floor[j] = 0.0;
            for &i in self.outgoing(j) {
                if self.is_ff[i] || live[i] == 0 {
                    continue;
                }
                live[i] -= self
                    .incoming(i)
                    .iter()
                    .filter(|a| a.source == j && tight(i, a))
                    .count();
                if live[i] == 0 {
                    queue.push(i);
                }
            }
        }
        floor
    }

    /// The least fixpoint of `D = max(floor, F(D))`, iterating upward from
    /// `floor` (see [`PropagationSystem::least_fixpoint`]). Each update
    /// sees the sweep's earlier ones, so a rising chain that runs with the
    /// latch order settles in one sweep; the sweep count is the depth of
    /// the longest rising chain against that order, never more than
    /// `l + 1` without a positive-gain loop.
    fn least_fixpoint_above(&self, floor: &[f64]) -> Result<FixpointResult, Vec<LatchId>> {
        let l = self.len();
        let mut d = floor.to_vec();
        let mut pred: Vec<Option<usize>> = vec![None; l];
        let mut witness = None;
        for sweep in 0..=l {
            let mut changed = false;
            for i in 0..l {
                if self.is_ff[i] {
                    continue; // pinned at 0
                }
                let mut best = floor[i];
                let mut best_pred = None;
                for a in self.incoming(i) {
                    let v = d[a.source] + a.weight;
                    if v > best {
                        best = v;
                        best_pred = Some(a.source);
                    }
                }
                if (best - d[i]).abs() > FIXPOINT_TOL {
                    changed = true;
                    d[i] = best;
                    pred[i] = best_pred;
                    witness = Some(i);
                }
            }
            if !changed {
                return Ok(FixpointResult {
                    departures: d,
                    iterations: sweep + 1,
                    converged: true,
                });
            }
        }
        // Still changing after l + 1 sweeps: trace the positive loop through
        // the predecessor chain of a node that changed last.
        let start = witness.unwrap_or(0);
        let mut seen = vec![false; l];
        let mut cursor = start;
        let mut chain = Vec::new();
        while !seen[cursor] {
            seen[cursor] = true;
            chain.push(cursor);
            match pred[cursor] {
                Some(p) => cursor = p,
                None => break,
            }
        }
        // `cursor` is the first repeated node (if the chain closed).
        let loop_ids = if let Some(pos) = chain.iter().position(|&x| x == cursor) {
            chain[pos..]
                .iter()
                .rev()
                .map(|&i| LatchId::new(i))
                .collect()
        } else {
            chain.into_iter().map(LatchId::new).collect()
        };
        Err(loop_ids)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    use smo_gen::paper::example1;

    /// The paper's Fig. 6(c) data point: Δ41 = 120, Tc = 140, symmetric
    /// 70/70 split; departures are 60/90/140+? — with the paper's schedule
    /// (s1 = 0, s2 = 70, T1 = T2 = 70) the steady state departures are
    /// L1: 60, L2: 20, L3: 0, L4: 70 relative to their own phases… we only
    /// check the fixpoint property itself here; the paper's exact numbers
    /// are asserted in the MLP tests where the LP picks the schedule.
    fn symmetric_system(d41: f64, tc: f64) -> PropagationSystem {
        let sched = ClockSchedule::symmetric(2, tc, 0.0).unwrap();
        PropagationSystem::new(&example1(d41), &sched)
    }

    #[test]
    fn least_fixpoint_converges_when_loop_gain_nonpositive() {
        let sys = symmetric_system(60.0, 100.0);
        let fp = sys.least_fixpoint().unwrap();
        assert!(fp.converged);
        // fixpoint property
        for i in 0..sys.len() {
            assert!((sys.update(&fp.departures, i) - fp.departures[i]).abs() < 1e-9);
        }
        // known values from the §V discussion (Tc = 100 balanced case):
        assert_eq!(fp.departures, vec![40.0, 20.0, 0.0, 20.0]);
    }

    #[test]
    fn least_fixpoint_detects_positive_loop() {
        // Tc = 80 is below the loop's average delay (100): gain > 0.
        let sys = symmetric_system(60.0, 80.0);
        let loop_ids = sys.least_fixpoint().unwrap_err();
        assert!(!loop_ids.is_empty());
        assert!(loop_ids.len() <= 4);
    }

    /// Raises `start` to the least point above it that satisfies L2R
    /// (`F(d) ≤ d`), the precondition of the slide.
    fn lift_to_l2r(sys: &PropagationSystem, mut start: Vec<f64>) -> Vec<f64> {
        loop {
            let lifted: Vec<f64> = (0..sys.len())
                .map(|i| start[i].max(sys.update(&start, i)))
                .collect();
            if lifted == start {
                return start;
            }
            start = lifted;
        }
    }

    #[test]
    fn slide_limit_matches_jacobi_from_above() {
        let sys = symmetric_system(60.0, 110.0);
        let start = lift_to_l2r(&sys, vec![50.0; 4]);
        let j = sys.jacobi(&start, 10_000);
        let s = sys.slide_limit(&start).unwrap();
        assert!(j.converged && s.converged);
        assert!(s.iterations <= sys.len() + 1);
        for i in 0..4 {
            assert!((j.departures[i] - s.departures[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn flip_flops_stay_pinned_at_zero() {
        let mut b = CircuitBuilder::new(2);
        let f = b.add_flip_flop("F", p(1), 1.0, 2.0);
        let l = b.add_latch("L", p(2), 1.0, 2.0);
        b.connect(f, l, 5.0);
        b.connect(l, f, 5.0);
        let c = b.build().unwrap();
        let sched = ClockSchedule::symmetric(2, 40.0, 0.0).unwrap();
        let sys = PropagationSystem::new(&c, &sched);
        let fp = sys.least_fixpoint().unwrap();
        assert_eq!(fp.departures[0], 0.0);
        // L sees F depart at 0 + dq 2 + Δ 5 + S_{12} = -20 → waits: D = 0
        assert_eq!(fp.departures[1], 0.0);
        assert_eq!(sys.arrival(&fp.departures, 1), 2.0 + 5.0 - 20.0);
    }

    #[test]
    fn arrivals_match_definition() {
        let sys = symmetric_system(60.0, 100.0);
        let fp = sys.least_fixpoint().unwrap();
        let arr = sys.arrivals(&fp.departures);
        // A_1 = D4 + 10 + 60 + S_21 = 20 + 70 + (50 - 100) = 40
        assert!((arr[0] - 40.0).abs() < 1e-9);
        // no-fanin case
        let mut b = CircuitBuilder::new(1);
        b.add_latch("solo", p(1), 0.0, 1.0);
        let c = b.build().unwrap();
        let sched = ClockSchedule::symmetric(1, 10.0, 0.0).unwrap();
        let sys = PropagationSystem::new(&c, &sched);
        assert_eq!(sys.arrival(&[0.0], 0), f64::NEG_INFINITY);
        assert_eq!(sys.update(&[0.0], 0), 0.0);
    }

    #[test]
    fn slide_limit_matches_jacobi_on_random_starts() {
        let sys = symmetric_system(80.0, 120.0);
        for seed in 0..20u64 {
            // cheap deterministic pseudo-random start
            let start: Vec<f64> = (0..4)
                .map(|i| ((seed * 37 + i * 101) % 97) as f64)
                .collect();
            let start = lift_to_l2r(&sys, start);
            let j = sys.jacobi(&start, 100_000);
            let s = sys.slide_limit(&start).unwrap();
            assert!(j.converged);
            for i in 0..4 {
                assert!(
                    (j.departures[i] - s.departures[i]).abs() < 1e-6,
                    "seed {seed}: {:?} vs {:?}",
                    j.departures,
                    s.departures
                );
            }
        }
    }

    #[test]
    fn early_steady_converges_with_ff_sources() {
        // FF(φ1) → latch(φ2) → FF loop: changes originate at the FF edge.
        let mut b = CircuitBuilder::new(2);
        let f = b.add_flip_flop("F", p(1), 1.0, 2.0);
        let l = b.add_latch("L", p(2), 1.0, 2.0);
        b.connect_min_max(f, l, 3.0, 5.0);
        b.connect_min_max(l, f, 3.0, 5.0);
        let c = b.build().unwrap();
        let sched = ClockSchedule::symmetric(2, 40.0, 0.0).unwrap();
        let sys = PropagationSystem::with_short_delays(&c, &sched);
        let fp = sys.early_steady(10);
        assert!(fp.converged);
        // F changes at its edge; L's earliest change = max(0, 0+2+3-20) = 0
        assert_eq!(fp.departures, vec![0.0, 0.0]);
        // early arrivals use min weights: at L: 2+3-20 = -15
        assert!((sys.early_arrival(&fp.departures, 1) + 15.0).abs() < 1e-9);
    }

    #[test]
    fn early_steady_diverges_when_changes_die_out() {
        // all-latch ring whose early gains are positive: each wave the
        // change happens later — the data settles and stops changing.
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 2.0);
        let c2 = b.add_latch("B", p(2), 1.0, 2.0);
        // min delays so large the early loop gain is positive
        b.connect_min_max(a, c2, 30.0, 30.0);
        b.connect_min_max(c2, a, 30.0, 30.0);
        let c = b.build().unwrap();
        let sched = ClockSchedule::symmetric(2, 50.0, 0.0).unwrap();
        let sys = PropagationSystem::with_short_delays(&c, &sched);
        let fp = sys.early_steady(sys.len() + 1);
        assert!(!fp.converged, "{fp:?}");
    }

    #[test]
    fn early_arrival_is_infinite_without_fanin() {
        let mut b = CircuitBuilder::new(1);
        b.add_latch("solo", p(1), 0.0, 1.0);
        let c = b.build().unwrap();
        let sched = ClockSchedule::symmetric(1, 10.0, 0.0).unwrap();
        let sys = PropagationSystem::with_short_delays(&c, &sched);
        assert_eq!(sys.early_arrival(&[0.0], 0), f64::INFINITY);
        assert_eq!(sys.early_update(&[0.0], 0), f64::INFINITY);
        let fp = sys.early_steady(5);
        assert!(fp.converged);
        assert_eq!(fp.departures[0], f64::INFINITY);
    }

    #[test]
    fn an_arc_keeps_one_weight() {
        assert_eq!(std::mem::size_of::<Arc>(), 16);
    }

    #[test]
    #[should_panic(expected = "phase count")]
    fn mismatched_schedule_panics() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(3, 90.0, 0.0).unwrap();
        let _ = PropagationSystem::new(&c, &sched);
    }
}
