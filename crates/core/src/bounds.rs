//! Purely combinatorial cycle-time bounds: a certified bracket
//! `lower ≤ Tc* ≤ upper` computed from the latch-to-latch delay graph alone,
//! without solving the LP.
//!
//! **Lower bound.** Summing the relaxed propagation rows (L2R, eq. 19 — and
//! the flip-flop setup rows, which have the same shape with the destination
//! setup folded in) around any cycle of synchronizers telescopes the phase
//! starts and departures away and leaves
//!
//! ```text
//!     Tc · Σ C_{p_j p_i}  ≥  Σ (Δ_DQj + Δ_ji [+ Δ_DCi for FF dest]) ,
//! ```
//!
//! i.e. the cycle time is at least the maximum over all cycles of the cycle
//! *ratio* total-delay / wrap-count, where the wrap count `Σ C` (eq. 1)
//! counts how often the cycle crosses a clock-period boundary — every cycle
//! wraps at least once. This is the paper's "average delay around the loop"
//! bound (§V, Example 1), and the generalization of Karp's minimum-mean
//! cycle to 0/1 arc lengths in the denominator; we compute it exactly per
//! SCC with Lawler's parametric scheme (binary-search-free: each round runs
//! a Bellman–Ford negative-cycle search at the current ratio λ — the same
//! label-correcting [`ParamGraph`] search the graph backend solves P2 with —
//! and jumps to the exact ratio of the witness cycle). A handful of
//! single-constraint floors (latch setups, per-edge stage delays) are
//! folded in as well.
//!
//! **Upper bound.** The flip-flop-style schedule `s_p = (p−1)·W`,
//! `T_p = W`, `Tc = k·W` — where `W` is the worst single-stage delay
//! `max(max_edges (Δ_DQj + Δ_ji [+ Δ_DCi for FF dest]), max_latches Δ_DCi)`
//! as if every synchronizer were an edge-triggered flip-flop — with all
//! departures at zero satisfies every row family of problem P2 with
//! default [`ConstraintOptions`](crate::ConstraintOptions) (it is a feasible
//! witness, checked family by family in the docs of
//! [`cycle_time_bounds`]), so `Tc* ≤ k·W`.
//!
//! The bracket is valid for the **default** constraint options: extras such
//! as `min_separation`, `min_phase_width`, `fixed_cycle`/`max_cycle`,
//! `symmetric_clock`, `setup_margin` and departure pinning can push the
//! optimum outside it.

use smo_circuit::{Circuit, ClockSpec, Cycle, LatchId, SyncKind};
use smo_lp::{ParamArc, ParamGraph, SearchOutcome, SolveBudget};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A critical (maximum-ratio) cycle of one strongly connected component.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalCycle {
    /// The synchronizers on the cycle, in traversal order, rotated so the
    /// smallest id comes first.
    pub cycle: Cycle,
    /// Total delay around the cycle:
    /// `Σ (Δ_DQj + Δ_ji [+ Δ_DCi for flip-flop destinations])`.
    pub weight: f64,
    /// Number of clock-period wraps `Σ C_{p_j p_i}` around the cycle
    /// (always ≥ 1).
    pub wraps: usize,
    /// The bound this cycle certifies: `weight / wraps ≤ Tc*`.
    pub ratio: f64,
}

impl fmt::Display for CriticalCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}  (delay {} over {} wrap(s): Tc >= {})",
            self.cycle, self.weight, self.wraps, self.ratio
        )
    }
}

/// A certified combinatorial bracket on the optimal cycle time, from
/// [`cycle_time_bounds`].
#[derive(Debug, Clone, PartialEq)]
pub struct CycleTimeBounds {
    /// Certified lower bound: no feasible schedule has `Tc` below this.
    pub lower: f64,
    /// Certified upper bound: the flip-flop-style schedule `Tc = k·W` is
    /// feasible, so the optimum is at most this.
    pub upper: f64,
    /// The worst single-stage (flip-flop-style) delay `W`; `upper = k·W`.
    pub stage_bound: f64,
    /// `max Δ_DCi` over latches — a floor from L1 + C1.
    pub setup_floor: f64,
    /// One maximum-ratio cycle per cyclic SCC, sorted by decreasing ratio.
    pub critical: Vec<CriticalCycle>,
}

impl CycleTimeBounds {
    /// The overall critical cycle (largest ratio), if the circuit has
    /// feedback.
    pub fn critical_cycle(&self) -> Option<&CriticalCycle> {
        self.critical.first()
    }

    /// `true` when `tc` lies inside the bracket, up to a relative `1e-6`
    /// tolerance.
    pub fn brackets(&self, tc: f64) -> bool {
        let tol = 1e-6 * (1.0 + tc.abs());
        tc >= self.lower - tol && tc <= self.upper + tol
    }
}

impl fmt::Display for CycleTimeBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycle-time bracket: {} <= Tc* <= {}",
            self.lower, self.upper
        )?;
        writeln!(
            f,
            "  upper = k x W with worst flip-flop stage W = {}",
            self.stage_bound
        )?;
        if self.critical.is_empty() {
            writeln!(
                f,
                "  no feedback cycles; lower bound from single-row floors"
            )?;
        }
        for c in &self.critical {
            writeln!(f, "  critical cycle: {c}")?;
        }
        Ok(())
    }
}

/// Edge weight and wrap flag used by both bounds: the delay a signal
/// leaving `from` spends before it is committed at `to`, and whether the
/// `p_from → p_to` hop crosses a period boundary (eq. 1).
fn edge_weight(circuit: &Circuit, from: LatchId, to: LatchId, delay: f64) -> (f64, usize) {
    let src = circuit.sync(from);
    let dst = circuit.sync(to);
    let setup = if dst.kind == SyncKind::FlipFlop {
        dst.setup
    } else {
        0.0
    };
    let wraps = usize::from(ClockSpec::c_flag(src.phase, dst.phase));
    (src.dq + delay + setup, wraps)
}

/// Computes the combinatorial cycle-time bracket of `circuit` under default
/// [`ConstraintOptions`](crate::ConstraintOptions).
///
/// The upper bound is witnessed by the flip-flop-style schedule
/// `s_p = (p−1)·W, T_p = W, Tc = k·W, D_i = 0` with
/// `W = max(max_edges (Δ_DQj + Δ_ji [+ Δ_DCi for FF dest]), max_latches Δ_DCi)`:
/// C1/C2 hold since `0 ≤ (p−1)·W ≤ k·W`; a C3 row for source phase `i`,
/// destination phase `j` reads `(i−j−1)·W ≥ 0` when `i > j` and
/// `(k−1−(j−i))·W ≥ 0` otherwise; L1 holds since `W ≥ Δ_DCi`; and every
/// L2R/flip-flop-setup row reduces to `stage ≤ m·W` for some hop distance
/// `m ≥ 1`.
pub fn cycle_time_bounds(circuit: &Circuit) -> CycleTimeBounds {
    let k = circuit.num_phases();

    // Single-row floors and the stage bound W.
    let mut setup_floor: f64 = 0.0;
    for (_, s) in circuit.syncs() {
        if s.kind == SyncKind::Latch {
            setup_floor = setup_floor.max(s.setup);
        }
    }
    let mut stage_bound = setup_floor;
    let mut lower = setup_floor;
    for e in circuit.edges() {
        let (stage, wraps) = edge_weight(circuit, e.from, e.to, e.max_delay);
        stage_bound = stage_bound.max(stage);
        // FF-destination forward hops pin `s_dst ≥ stage` and C1 gives
        // `s_dst ≤ Tc`; every other edge still forces `2·Tc ≥ stage`
        // through L1/C1.
        let dst_is_ff = circuit.sync(e.to).kind == SyncKind::FlipFlop;
        let floor = if dst_is_ff && wraps == 0 {
            stage
        } else {
            stage / 2.0
        };
        lower = lower.max(floor);
    }

    // Maximum-ratio cycles, one per cyclic SCC.
    let mut critical = Vec::new();
    for comp in circuit.sccs() {
        if let Some(c) = scc_critical_cycle(circuit, &comp) {
            lower = lower.max(c.ratio);
            critical.push(c);
        }
    }
    critical.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));

    CycleTimeBounds {
        lower,
        upper: k as f64 * stage_bound,
        stage_bound,
        setup_floor,
        critical,
    }
}

/// Finds the maximum-ratio cycle of one SCC via Lawler's parametric
/// iteration, or `None` if the component is acyclic (a singleton without a
/// self-loop).
fn scc_critical_cycle(circuit: &Circuit, comp: &[LatchId]) -> Option<CriticalCycle> {
    let index: HashMap<LatchId, usize> = comp.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    // Parallel edges collapse to their worst weight: each parallel edge
    // yields its own L2R row, so the largest delay certifies the largest
    // ratio while remaining a genuine cycle of rows. A `BTreeMap` keeps
    // the arc order, and so the witness cycle, the same on every run.
    // Only the members' fan-out is read, so all components together cost
    // one pass over the edges.
    let mut dedup: BTreeMap<(usize, usize), (f64, usize)> = BTreeMap::new();
    for (f, &l) in comp.iter().enumerate() {
        for &id in circuit.fanout(l) {
            let e = circuit.edge(id);
            if let Some(&t) = index.get(&e.to) {
                let (w, c) = edge_weight(circuit, e.from, e.to, e.max_delay);
                let entry = dedup.entry((f, t)).or_insert((w, c));
                if w > entry.0 {
                    entry.0 = w;
                }
            }
        }
    }
    if dedup.is_empty() || comp.len() == 1 && !dedup.contains_key(&(0, 0)) {
        return None;
    }
    // Arc cost `λ·wraps − weight`: a negative cycle at λ has a ratio
    // above λ. The tag keeps the arc's delay and wrap count exact.
    let graph = ParamGraph::build(comp.len(), |add| {
        for (&(from, to), &(weight, wraps)) in &dedup {
            add(ParamArc {
                from,
                to,
                base: -weight,
                slope: wraps as f64,
                tag: (weight, wraps),
            });
        }
    })
    .ok()?; // fails only past `u32` node or arc indices
    let totals = |cyc: &[usize]| {
        cyc.iter().fold((0.0, 0usize), |(w, c), &k| {
            let (weight, wraps) = graph.arc(k).tag;
            (w + weight, c + wraps)
        })
    };

    // Start below every possible ratio (weights ≥ 0, wraps ≥ 1 on cycles);
    // each round either proves no cycle beats λ or jumps λ to the exact
    // ratio of a strictly better witness, so the loop terminates. A search
    // that ends in a numerical error keeps the best witness so far.
    let mut lambda = -1.0;
    let mut best: Option<Vec<usize>> = None;
    let mut passes = 0;
    while let Ok(SearchOutcome::Cycle(cyc)) =
        graph.bellman_ford(lambda, &SolveBudget::UNLIMITED, &mut passes)
    {
        let (weight, wraps) = totals(&cyc);
        debug_assert!(wraps >= 1, "every synchronizer cycle wraps at least once");
        if wraps == 0 {
            break;
        }
        let ratio = weight / wraps as f64;
        if ratio <= lambda {
            break;
        }
        lambda = ratio;
        best = Some(cyc);
    }

    best.map(|mut cyc| {
        // Walk the cycle's edges forward, rotated so the smallest latch id
        // leads, and sum in that order: the report and its last bits do
        // not depend on where the search entered the cycle.
        let lead = cyc
            .iter()
            .enumerate()
            .min_by_key(|(_, &k)| comp[graph.arc(k).from].index())
            .map(|(i, _)| i)
            .unwrap_or(0);
        cyc.rotate_left(lead);
        let latches: Vec<LatchId> = cyc.iter().map(|&k| comp[graph.arc(k).from]).collect();
        let (weight, wraps) = totals(&cyc);
        CriticalCycle {
            cycle: Cycle { latches },
            weight,
            wraps,
            ratio: weight / wraps as f64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TimingModel;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    /// The paper's Example 1: four latches on two phases, loop
    /// L1→L2→L3→L4→L1 with stage delays 20/20/60/80 and Δ_DQ = 10
    /// everywhere. Critical ratio = (30+30+70+90)/2 = 110 = Tc*.
    fn example1() -> smo_circuit::Circuit {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 10.0, 10.0);
        let l2 = b.add_latch("L2", p(2), 10.0, 10.0);
        let l3 = b.add_latch("L3", p(1), 10.0, 10.0);
        let l4 = b.add_latch("L4", p(2), 10.0, 10.0);
        b.connect(l1, l2, 20.0);
        b.connect(l2, l3, 20.0);
        b.connect(l3, l4, 60.0);
        b.connect(l4, l1, 80.0);
        b.build().unwrap()
    }

    #[test]
    fn example1_critical_loop_is_exact() {
        let c = example1();
        let bounds = cycle_time_bounds(&c);
        assert_eq!(bounds.lower, 110.0);
        let crit = bounds.critical_cycle().expect("feedback loop");
        assert_eq!(crit.weight, 220.0);
        assert_eq!(crit.wraps, 2);
        assert_eq!(crit.ratio, 110.0);
        assert_eq!(crit.cycle.to_string(), "L1 → L2 → L3 → L4 → L1");
        // Upper bound: worst stage is dq+Δ = 10+80 = 90 (latch destination,
        // so its setup rides on the L1 floor instead), two phases.
        assert_eq!(bounds.stage_bound, 90.0);
        assert_eq!(bounds.upper, 180.0);
        // The LP agrees and sits exactly on the lower bound.
        let tc = TimingModel::build(&c)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert_eq!(tc, 110.0);
        assert!(bounds.brackets(tc));
    }

    #[test]
    fn acyclic_pipeline_has_floor_only_lower_bound() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("A", p(1), 5.0, 6.0);
        let l2 = b.add_latch("B", p(2), 5.0, 6.0);
        b.connect(l1, l2, 40.0);
        let c = b.build().unwrap();
        let bounds = cycle_time_bounds(&c);
        assert!(bounds.critical.is_empty());
        // Floors: latch setup 5, edge stage (6+40+0)/2 = 23.
        assert_eq!(bounds.setup_floor, 5.0);
        assert_eq!(bounds.lower, 23.0);
        assert_eq!(bounds.upper, 2.0 * 46.0);
        let tc = TimingModel::build(&c)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert!(bounds.brackets(tc), "{} not in {:?}", tc, bounds);
    }

    #[test]
    fn flip_flop_self_loop_matches_ff_recurrence() {
        // A single-phase flip-flop feeding itself: Tc ≥ dq + Δ + setup
        // exactly (the textbook FF recurrence), and the upper bound agrees.
        let mut b = CircuitBuilder::new(1);
        let f = b.add_flip_flop("F", p(1), 3.0, 2.0);
        b.connect(f, f, 10.0);
        let c = b.build().unwrap();
        let bounds = cycle_time_bounds(&c);
        assert_eq!(bounds.lower, 15.0);
        assert_eq!(bounds.upper, 15.0);
        let crit = bounds.critical_cycle().unwrap();
        assert_eq!(crit.wraps, 1);
        assert_eq!(crit.ratio, 15.0);
        let tc = TimingModel::build(&c)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert_eq!(tc, 15.0);
    }

    #[test]
    fn parallel_edges_use_worst_delay() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("A", p(1), 0.0, 0.0);
        let l2 = b.add_latch("B", p(2), 0.0, 0.0);
        b.connect(l1, l2, 10.0);
        b.connect(l1, l2, 30.0); // worst parallel path
        b.connect(l2, l1, 10.0);
        let c = b.build().unwrap();
        let bounds = cycle_time_bounds(&c);
        let crit = bounds.critical_cycle().unwrap();
        assert_eq!(crit.weight, 40.0);
        assert_eq!(crit.wraps, 1);
        assert_eq!(bounds.lower, 40.0);
    }

    #[test]
    fn multiple_sccs_each_get_a_critical_cycle() {
        let mut b = CircuitBuilder::new(2);
        let a1 = b.add_latch("A1", p(1), 0.0, 1.0);
        let a2 = b.add_latch("A2", p(2), 0.0, 1.0);
        let b1 = b.add_latch("B1", p(1), 0.0, 1.0);
        let b2 = b.add_latch("B2", p(2), 0.0, 1.0);
        b.connect(a1, a2, 10.0);
        b.connect(a2, a1, 10.0);
        b.connect(a2, b1, 5.0); // bridge: not on any cycle
        b.connect(b1, b2, 50.0);
        b.connect(b2, b1, 50.0);
        let c = b.build().unwrap();
        let bounds = cycle_time_bounds(&c);
        assert_eq!(bounds.critical.len(), 2);
        // Sorted by decreasing ratio: the B loop (102/1) dominates.
        assert!(bounds.critical[0].ratio > bounds.critical[1].ratio);
        assert_eq!(bounds.lower, bounds.critical[0].ratio);
        let tc = TimingModel::build(&c)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert!(bounds.brackets(tc), "{} not in {:?}", tc, bounds);
    }

    #[test]
    fn bracket_holds_on_mixed_latch_ff_loop() {
        let mut b = CircuitBuilder::new(2);
        let l = b.add_latch("L", p(1), 2.0, 3.0);
        let f = b.add_flip_flop("F", p(2), 4.0, 5.0);
        b.connect(l, f, 20.0);
        b.connect(f, l, 30.0);
        let c = b.build().unwrap();
        let bounds = cycle_time_bounds(&c);
        // Loop weight: (3+20+4 setup at FF) + (5+30) = 62, one wrap... the
        // hop φ1→φ2 does not wrap, φ2→φ1 does.
        let crit = bounds.critical_cycle().unwrap();
        assert_eq!(crit.weight, 62.0);
        assert_eq!(crit.wraps, 1);
        let tc = TimingModel::build(&c)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert!(bounds.brackets(tc), "{} not in {:?}", tc, bounds);
        assert!(tc >= 62.0 - 1e-9);
    }
}
