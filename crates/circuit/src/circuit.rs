//! The immutable, validated circuit.

use crate::clock::ClockSpec;
use crate::graph::{Cycle, Digraph, Edge, EdgeId};
use crate::ids::{LatchId, PhaseId};
use crate::matrix::BoolMatrix;
use crate::sync::{SyncKind, Synchronizer};
use std::fmt;

/// A validated latch-controlled synchronous circuit (§III, Fig. 1): a set of
/// synchronizers interconnected by combinational delay edges, under a
/// k-phase clock.
///
/// Construct through [`CircuitBuilder`](crate::CircuitBuilder) or
/// [`netlist::parse`](crate::netlist::parse). The structure is immutable
/// after construction, so derived data (fan-in/fan-out adjacency) is computed
/// once and shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    clock: ClockSpec,
    syncs: Vec<Synchronizer>,
    edges: Vec<Edge>,
    fanin: Adjacency,
    fanout: Adjacency,
}

/// Compressed sparse rows of edge ids per synchronizer: the edges of
/// synchronizer `i` are `edges[offsets[i]..offsets[i + 1]]`, in edge-id
/// order.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    offsets: Vec<usize>,
    edges: Vec<EdgeId>,
}

impl Adjacency {
    /// Groups the edges by `end(edge)`, one of `n` synchronizers.
    fn new(n: usize, all: &[Edge], end: impl Fn(&Edge) -> LatchId) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for e in all {
            offsets[end(e).index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut edges = vec![EdgeId(0); all.len()];
        for (i, e) in all.iter().enumerate() {
            let slot = &mut next[end(e).index()];
            edges[*slot] = EdgeId(i);
            *slot += 1;
        }
        Adjacency { offsets, edges }
    }

    fn of(&self, id: LatchId) -> &[EdgeId] {
        &self.edges[self.offsets[id.index()]..self.offsets[id.index() + 1]]
    }

    fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

impl Circuit {
    pub(crate) fn from_parts(clock: ClockSpec, syncs: Vec<Synchronizer>, edges: Vec<Edge>) -> Self {
        let fanin = Adjacency::new(syncs.len(), &edges, |e| e.to);
        let fanout = Adjacency::new(syncs.len(), &edges, |e| e.from);
        Circuit {
            clock,
            syncs,
            edges,
            fanin,
            fanout,
        }
    }

    /// The clock specification.
    pub fn clock(&self) -> ClockSpec {
        self.clock
    }

    /// Number of clock phases `k`.
    pub fn num_phases(&self) -> usize {
        self.clock.num_phases()
    }

    /// Total number of synchronizers `l` (latches plus flip-flops).
    pub fn num_syncs(&self) -> usize {
        self.syncs.len()
    }

    /// Number of level-sensitive latches.
    pub fn num_latches(&self) -> usize {
        self.syncs.iter().filter(|s| s.is_latch()).count()
    }

    /// Number of edge-triggered flip-flops.
    pub fn num_flip_flops(&self) -> usize {
        self.syncs.iter().filter(|s| !s.is_latch()).count()
    }

    /// Number of combinational edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The synchronizer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn sync(&self, id: LatchId) -> &Synchronizer {
        &self.syncs[id.index()]
    }

    /// Iterates over `(id, synchronizer)` pairs in id order.
    pub fn syncs(&self) -> impl Iterator<Item = (LatchId, &Synchronizer)> {
        self.syncs
            .iter()
            .enumerate()
            .map(|(i, s)| (LatchId::new(i), s))
    }

    /// Iterates over the synchronizer ids.
    pub fn latch_ids(&self) -> impl Iterator<Item = LatchId> {
        (0..self.syncs.len()).map(LatchId::new)
    }

    /// Looks a synchronizer up by name.
    pub fn find(&self, name: &str) -> Option<LatchId> {
        self.syncs
            .iter()
            .position(|s| s.name == name)
            .map(LatchId::new)
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All combinational edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Ids of the edges arriving at `id`'s data input.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanin(&self, id: LatchId) -> &[EdgeId] {
        self.fanin.of(id)
    }

    /// Ids of the edges departing from `id`'s data output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanout(&self, id: LatchId) -> &[EdgeId] {
        self.fanout.of(id)
    }

    /// The largest fan-in of any synchronizer — `F` in the paper's
    /// constraint-count bound `4k + (F+1)·l` (§IV).
    pub fn max_fanin(&self) -> usize {
        self.fanin.max_degree()
    }

    /// The paper's `K` matrix (eq. 2): `K[i][j]` is `true` iff `φ_i/φ_j` is
    /// an input/output phase pair of some combinational block, i.e. some edge
    /// runs from a synchronizer on `φ_i` to one on `φ_j`.
    pub fn k_matrix(&self) -> BoolMatrix {
        let mut k = BoolMatrix::new(self.num_phases());
        for e in &self.edges {
            let pi = self.sync(e.from).phase.index();
            let pj = self.sync(e.to).phase.index();
            k.set(pi, pj, true);
        }
        k
    }

    /// The distinct input/output phase pairs `(φ_i, φ_j)` (source, dest).
    pub fn io_phase_pairs(&self) -> Vec<(PhaseId, PhaseId)> {
        self.k_matrix()
            .ones()
            .map(|(i, j)| (PhaseId::new(i), PhaseId::new(j)))
            .collect()
    }

    /// `true` if any directed cycle passes through the synchronizer graph.
    pub fn has_feedback(&self) -> bool {
        let adj = self.adjacency();
        adj.sccs()
            .iter()
            .any(|c| c.len() > 1 || (c.len() == 1 && adj.has_self_loop(c[0])))
    }

    /// One witness cycle per feedback core of the subgraph whose hops
    /// `keep(from, to)` accepts, in time linear in synchronizers plus
    /// hops.
    ///
    /// A feedback core is a strongly connected component with more than
    /// one synchronizer, or one with a self-hop. Each witness is a
    /// shortest cycle through the core's lowest-numbered synchronizer and
    /// starts there. Pass `|_, _| true` for the cores of the whole graph.
    pub fn loop_witnesses(&self, keep: impl Fn(LatchId, LatchId) -> bool) -> Vec<Cycle> {
        self.adjacency()
            .filter(|f, t| keep(LatchId::new(f), LatchId::new(t)))
            .loop_witnesses()
            .into_iter()
            .map(|cyc| Cycle {
                latches: cyc.into_iter().map(LatchId::new).collect(),
            })
            .collect()
    }

    /// Strongly connected components of the synchronizer graph, in reverse
    /// topological order (each component's members are in discovery order).
    ///
    /// Singleton components without a self-loop are returned too; use
    /// [`Circuit::has_feedback`] or check for a self-edge to distinguish
    /// cyclic components.
    pub fn sccs(&self) -> Vec<Vec<LatchId>> {
        self.adjacency()
            .sccs()
            .into_iter()
            .map(|comp| comp.into_iter().map(LatchId::new).collect())
            .collect()
    }

    /// The synchronizer graph with parallel edges merged: the successors
    /// of each synchronizer in the order of their first edge.
    fn adjacency(&self) -> Digraph {
        let to = |e: &EdgeId| self.edges[e.index()].to.index();
        Digraph::from_fn(self.syncs.len(), |f| {
            let out = self.fanout(LatchId::new(f));
            out.iter()
                .enumerate()
                .filter(move |&(i, e)| !out[..i].iter().any(|p| to(p) == to(e)))
                .map(move |(_, e)| to(e))
        })
    }

    /// Sum of all long-path delays around a cycle, including latch
    /// propagation delays — the numerator of the paper's "average delay
    /// around the loop" bound (§V, Example 1 discussion).
    ///
    /// Uses, for each hop, the *maximum* delay among parallel edges.
    ///
    /// # Panics
    ///
    /// Panics if the cycle's consecutive synchronizers are not connected.
    pub fn cycle_delay(&self, cycle: &Cycle) -> f64 {
        let n = cycle.latches.len();
        let mut total = 0.0;
        for i in 0..n {
            let from = cycle.latches[i];
            let to = cycle.latches[(i + 1) % n];
            let delay = self
                .fanout(from)
                .iter()
                .map(|&e| self.edge(e))
                .filter(|e| e.to == to)
                .map(|e| e.max_delay)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                delay.is_finite(),
                "cycle hop {from} → {to} has no edge in the circuit"
            );
            total += delay + self.sync(from).dq;
        }
        total
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} phases, {} latches, {} flip-flops, {} edges",
            self.num_phases(),
            self.num_latches(),
            self.num_flip_flops(),
            self.num_edges()
        )?;
        for (id, s) in self.syncs() {
            writeln!(f, "  {id}: {s}")?;
        }
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// Returns the number of synchronizers of each kind, used by reports.
impl Circuit {
    /// `(latches, flip_flops)` counts.
    pub fn kind_counts(&self) -> (usize, usize) {
        let l = self.num_latches();
        (l, self.num_syncs() - l)
    }

    /// Iterates over synchronizers controlled by `phase`.
    pub fn syncs_on_phase(&self, phase: PhaseId) -> impl Iterator<Item = LatchId> + '_ {
        self.syncs()
            .filter(move |(_, s)| s.phase == phase)
            .map(|(id, _)| id)
    }

    /// `true` when some synchronizer of kind `kind` exists.
    pub fn has_kind(&self, kind: SyncKind) -> bool {
        self.syncs.iter().any(|s| s.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    /// The paper's Example 1 topology (Fig. 5): four latches alternating
    /// between two phases, in a single loop.
    fn example1_like() -> Circuit {
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
    fn k_matrix_captures_io_pairs() {
        let c = example1_like();
        let k = c.k_matrix();
        assert!(k.get(0, 1)); // φ1 → φ2 (L1→L2, L3→L4)
        assert!(k.get(1, 0)); // φ2 → φ1 (L2→L3, L4→L1)
        assert!(!k.get(0, 0));
        assert!(!k.get(1, 1));
        assert_eq!(c.io_phase_pairs().len(), 2);
    }

    #[test]
    fn fanin_fanout_are_consistent() {
        let c = example1_like();
        for id in c.latch_ids() {
            assert_eq!(c.fanin(id).len(), 1);
            assert_eq!(c.fanout(id).len(), 1);
        }
        assert_eq!(c.max_fanin(), 1);
        let e = c.edge(c.fanout(LatchId::new(3))[0]);
        assert_eq!(e.to, LatchId::new(0));
        assert_eq!(e.max_delay, 80.0);
    }

    #[test]
    fn fanin_and_fanout_list_edges_in_id_order() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c = b.add_latch("B", p(2), 1.0, 1.0);
        let idle = b.add_latch("C", p(1), 1.0, 1.0);
        b.connect(c, a, 1.0);
        b.connect(a, c, 2.0);
        b.connect(c, a, 3.0);
        b.connect(a, a, 4.0);
        let circuit = b.build().unwrap();
        let ids = |es: &[EdgeId]| es.iter().map(|e| e.index()).collect::<Vec<_>>();
        assert_eq!(ids(circuit.fanin(a)), vec![0, 2, 3]);
        assert_eq!(ids(circuit.fanout(a)), vec![1, 3]);
        assert_eq!(ids(circuit.fanin(c)), vec![1]);
        assert_eq!(ids(circuit.fanout(c)), vec![0, 2]);
        assert!(circuit.fanin(idle).is_empty() && circuit.fanout(idle).is_empty());
        assert_eq!(circuit.max_fanin(), 3);
    }

    #[test]
    fn feedback_and_cycles_detected() {
        let c = example1_like();
        assert!(c.has_feedback());
        let cycles = c.loop_witnesses(|_, _| true);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].latches.len(), 4);
        // loop delay: 20+20+60+80 combinational + 4×10 latch = 220
        assert_eq!(c.cycle_delay(&cycles[0]), 220.0);
    }

    #[test]
    fn pipeline_has_no_feedback() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c2 = b.add_latch("B", p(2), 1.0, 1.0);
        b.connect(a, c2, 5.0);
        let c = b.build().unwrap();
        assert!(!c.has_feedback());
        assert!(c.loop_witnesses(|_, _| true).is_empty());
    }

    #[test]
    fn find_by_name() {
        let c = example1_like();
        assert_eq!(c.find("L3"), Some(LatchId::new(2)));
        assert_eq!(c.find("nope"), None);
    }

    #[test]
    fn syncs_on_phase_filters() {
        let c = example1_like();
        let on1: Vec<_> = c.syncs_on_phase(p(1)).collect();
        assert_eq!(on1, vec![LatchId::new(0), LatchId::new(2)]);
    }

    #[test]
    fn parallel_edges_use_max_in_cycle_delay() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c2 = b.add_latch("B", p(2), 1.0, 1.0);
        b.connect(a, c2, 5.0);
        b.connect(a, c2, 9.0);
        b.connect(c2, a, 2.0);
        let c = b.build().unwrap();
        let cycles = c.loop_witnesses(|_, _| true);
        assert_eq!(cycles.len(), 1);
        // 9 (max of 5,9) + 2 + two latch dq of 1
        assert_eq!(c.cycle_delay(&cycles[0]), 13.0);
    }

    #[test]
    fn self_loop_counts_as_feedback() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        b.connect(a, a, 5.0);
        let c = b.build().unwrap();
        assert!(c.has_feedback());
        assert_eq!(
            c.loop_witnesses(|_, _| true),
            vec![Cycle { latches: vec![a] }]
        );
        // Filtering the self-hop away leaves no feedback core.
        assert!(c.loop_witnesses(|f, t| f != t).is_empty());
    }

    #[test]
    fn display_summarizes() {
        let c = example1_like();
        let s = c.to_string();
        assert!(s.contains("2 phases"));
        assert!(s.contains("4 latches"));
    }
}
