//! Shared analysis facts, computed once per circuit.
//!
//! Every lint pass used to recompute its own graph facts (SCCs,
//! reachability, connectivity) inline; [`AnalysisContext`] hoists them so
//! the pass framework computes each fact exactly once and every
//! [`Pass`](crate::passes::Pass) reads the same data.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smo_circuit::{Circuit, Cycle, Digraph, LatchId, PhaseId, SyncKind};
use std::ops::Range;

/// Shared facts about one circuit: the graph decompositions and delay
/// summaries every pass may consult.
pub struct AnalysisContext<'c> {
    circuit: &'c Circuit,
    /// One witness cycle per zero-delay latch core.
    cycles: Vec<Cycle>,
    /// Per-synchronizer: member of a cyclic SCC (feedback core).
    in_cyclic: Vec<bool>,
    /// Per-synchronizer: reachable *from* some cyclic core.
    downstream: Vec<bool>,
    /// Per-synchronizer: reaches some cyclic core.
    upstream: Vec<bool>,
    /// Union-find root per synchronizer (weak connectivity).
    component: Vec<usize>,
    /// Deduplicated roots of components containing at least one edge.
    component_roots: Vec<usize>,
    /// Per-phase: controls at least one synchronizer.
    phase_used: Vec<bool>,
    /// Delay closure over parallel paths: one entry per ordered
    /// `(from, to)` pair with an edge, sorted by `(from, to)`.
    pairs: Vec<PairDelays>,
    /// Indices into [`Circuit::edges`], sorted by `(from, to)` and then
    /// in declaration order; each pair owns one range of it.
    pair_edges: Vec<usize>,
}

/// The delay envelope of all parallel `from → to` edges.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDelays {
    /// Source synchronizer index.
    pub from: usize,
    /// Destination synchronizer index.
    pub to: usize,
    /// The parallel edges, as a range of
    /// [`AnalysisContext::pair_edges`].
    pub edges: Range<usize>,
    /// Smallest effective short-path delay across the parallel edges.
    pub short_delay: f64,
    /// Largest long-path delay across the parallel edges.
    pub max_delay: f64,
}

impl<'c> AnalysisContext<'c> {
    /// Computes every shared fact for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        let n = circuit.num_syncs();

        // Parallel-path delay closure: each synchronizer's fan-out, in
        // declaration order, stably sorted by destination and merged per
        // destination. `pair_start[v]..pair_start[v + 1]` are the pairs
        // leaving `v`.
        let edges = circuit.edges();
        let mut pair_edges: Vec<usize> = Vec::with_capacity(edges.len());
        let mut pairs: Vec<PairDelays> = Vec::new();
        let mut pair_start = Vec::with_capacity(n + 1);
        for from in 0..n {
            pair_start.push(pairs.len());
            let begin = pair_edges.len();
            pair_edges.extend(circuit.fanout(LatchId::new(from)).iter().map(|e| e.index()));
            pair_edges[begin..].sort_by_key(|&e| edges[e].to.index());
            for k in begin..pair_edges.len() {
                let e = &edges[pair_edges[k]];
                match pairs.last_mut() {
                    Some(p) if p.from == from && p.to == e.to.index() => {
                        p.edges.end = k + 1;
                        p.short_delay = p.short_delay.min(e.short_delay());
                        p.max_delay = p.max_delay.max(e.max_delay);
                    }
                    _ => pairs.push(PairDelays {
                        from,
                        to: e.to.index(),
                        edges: k..k + 1,
                        short_delay: e.short_delay(),
                        max_delay: e.max_delay,
                    }),
                }
            }
        }
        pair_start.push(pairs.len());
        let hops = |keep: &dyn Fn(&PairDelays) -> bool| {
            Digraph::from_fn(n, |v| {
                pairs[pair_start[v]..pair_start[v + 1]]
                    .iter()
                    .filter(move |p| keep(p))
                    .map(|p| p.to)
            })
        };

        // Feedback cores: SCCs of size > 1, or singletons with a self-edge.
        let graph = hops(&|_| true);
        let mut in_cyclic = vec![false; n];
        for comp in graph.sccs() {
            if comp.len() > 1 || graph.has_self_loop(comp[0]) {
                for v in comp {
                    in_cyclic[v] = true;
                }
            }
        }

        // Forward/backward reachability from the cyclic cores.
        let reach = |forward: bool| -> Vec<bool> {
            let mut seen = in_cyclic.clone();
            let mut stack: Vec<usize> = (0..n).filter(|&i| in_cyclic[i]).collect();
            while let Some(i) = stack.pop() {
                let id = LatchId::new(i);
                let edges = if forward {
                    circuit.fanout(id)
                } else {
                    circuit.fanin(id)
                };
                for &e in edges {
                    let edge = &circuit.edges()[e.index()];
                    let next = if forward { edge.to } else { edge.from };
                    if !seen[next.index()] {
                        seen[next.index()] = true;
                        stack.push(next.index());
                    }
                }
            }
            seen
        };
        let downstream = reach(true);
        let upstream = reach(false);

        // Weak connectivity by union-find with path halving.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for e in circuit.edges() {
            let (a, b) = (
                find(&mut parent, e.from.index()),
                find(&mut parent, e.to.index()),
            );
            parent[a] = b;
        }
        let component: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
        let mut component_roots: Vec<usize> = (0..n)
            .filter(|&i| {
                let id = LatchId::new(i);
                !(circuit.fanin(id).is_empty() && circuit.fanout(id).is_empty())
            })
            .map(|i| component[i])
            .collect();
        component_roots.sort_unstable();
        component_roots.dedup();

        // Phase usage.
        let phase_used = (0..circuit.num_phases())
            .map(|i| circuit.syncs_on_phase(PhaseId::new(i)).next().is_some())
            .collect();

        // Zero-delay latch cores. Δ and Δ_DQ are validated non-negative,
        // so a loop has zero total delay exactly when every hop does: the
        // cores are the cyclic SCCs of the latch-only zero-delay hops.
        let is_latch = |v: usize| circuit.sync(LatchId::new(v)).kind == SyncKind::Latch;
        let cycles = hops(&|p| {
            is_latch(p.from)
                && is_latch(p.to)
                && p.max_delay + circuit.sync(LatchId::new(p.from)).dq <= 0.0
        })
        .loop_witnesses()
        .into_iter()
        .map(|cyc| Cycle {
            latches: cyc.into_iter().map(LatchId::new).collect(),
        })
        .collect();

        AnalysisContext {
            circuit,
            cycles,
            in_cyclic,
            downstream,
            upstream,
            component,
            component_roots,
            phase_used,
            pairs,
            pair_edges,
        }
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// One witness cycle per zero-delay latch core: a cyclic SCC of the
    /// subgraph of latch-to-latch hops whose worst parallel Δ plus the
    /// source's Δ_DQ is zero.
    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// `true` when the synchronizer belongs to a cyclic SCC.
    pub fn in_cyclic_core(&self, id: LatchId) -> bool {
        self.in_cyclic[id.index()]
    }

    /// `true` when any cyclic SCC exists.
    pub fn has_cyclic_core(&self) -> bool {
        self.in_cyclic.iter().any(|&c| c)
    }

    /// `true` when the synchronizer is reachable from some cyclic core.
    pub fn downstream_of_core(&self, id: LatchId) -> bool {
        self.downstream[id.index()]
    }

    /// `true` when the synchronizer reaches some cyclic core.
    pub fn upstream_of_core(&self, id: LatchId) -> bool {
        self.upstream[id.index()]
    }

    /// `true` when the synchronizer has neither fan-in nor fan-out.
    pub fn is_isolated(&self, id: LatchId) -> bool {
        self.circuit.fanin(id).is_empty() && self.circuit.fanout(id).is_empty()
    }

    /// Union-find root of the synchronizer's weakly connected component.
    pub fn component_root(&self, id: LatchId) -> usize {
        self.component[id.index()]
    }

    /// Deduplicated, sorted roots of components containing at least one
    /// edge (isolated synchronizers are excluded — they are
    /// `unconstrained-sync` territory).
    pub fn component_roots(&self) -> &[usize] {
        &self.component_roots
    }

    /// `true` when the phase controls at least one synchronizer.
    pub fn phase_used(&self, index: usize) -> bool {
        self.phase_used[index]
    }

    /// The parallel-path delay closure, one entry per `(from, to)` pair
    /// with an edge, sorted by `(from.index(), to.index())`.
    pub fn pair_delays(&self) -> &[PairDelays] {
        &self.pairs
    }

    /// Edge indices grouped by pair: `pair_edges()[p.edges.clone()]` are
    /// the indices into [`Circuit::edges`] of pair `p`'s parallel edges,
    /// in declaration order.
    pub fn pair_edges(&self) -> &[usize] {
        &self.pair_edges
    }
}
