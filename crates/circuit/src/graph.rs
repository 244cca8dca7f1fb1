//! Combinational delay edges and graph utilities (cycles, SCCs).

use crate::ids::LatchId;
use std::fmt;

/// Opaque handle to a combinational edge of a [`Circuit`](crate::Circuit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Creates an edge id from a zero-based index.
    pub fn new(index: usize) -> Self {
        EdgeId(index)
    }

    /// Zero-based index of this edge.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A combinational path from the output of one synchronizer to the input of
/// another, annotated with its propagation delay `Δ_ji` (§III-B).
///
/// `min_delay` is the *extension* short-path (contamination) delay used by
/// the optional hold analysis; it defaults to `0.0` (most conservative).
/// `min_specified` records whether that short-path delay was actually
/// measured/declared (`connect_min_max`, a netlist `min=`/`mindelay`) or is
/// just the conservative default — the race detector substitutes the max
/// delay for unspecified mins via [`Edge::short_delay`], so circuits without
/// short-path data are never flagged on the strength of the `0.0` filler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source synchronizer `j` (the signal departs from its output).
    pub from: LatchId,
    /// Destination synchronizer `i` (the signal arrives at its input).
    pub to: LatchId,
    /// Worst-case (long-path) propagation delay `Δ_ji`.
    pub max_delay: f64,
    /// Best-case (short-path) propagation delay; `≤ max_delay`.
    pub min_delay: f64,
    /// `true` iff `min_delay` carries real short-path data.
    pub min_specified: bool,
}

impl Edge {
    /// The short-path delay the race analysis should trust: the declared
    /// `min_delay` when one was specified, otherwise the `max_delay` (a path
    /// whose spread is unknown is assumed raceless rather than instantaneous).
    pub fn short_delay(&self) -> f64 {
        if self.min_specified {
            self.min_delay
        } else {
            self.max_delay
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {} (Δ = {})", self.from, self.to, self.max_delay)
    }
}

/// A directed cycle through synchronizers, reported by
/// [`Circuit::loop_witnesses`](crate::Circuit::loop_witnesses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// The synchronizers on the cycle, in traversal order; the last feeds
    /// back to the first.
    pub latches: Vec<LatchId>,
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.latches.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{l}")?;
        }
        if let Some(first) = self.latches.first() {
            write!(f, " → {first}")?;
        }
        Ok(())
    }
}

/// A directed graph over synchronizer indices without parallel arcs, in
/// compressed adjacency form: the successors of node `v` are
/// `targets[offsets[v]..offsets[v + 1]]`.
///
/// Analyses that already hold a circuit's deduplicated hops build one with
/// [`Digraph::from_fn`] and share it between [`Digraph::sccs`] and
/// [`Digraph::loop_witnesses`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digraph {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Digraph {
    /// The graph over nodes `0..n` in which `successors(v)` lists the
    /// successors of `v`, each once.
    pub fn from_fn<I: IntoIterator<Item = usize>>(
        n: usize,
        mut successors: impl FnMut(usize) -> I,
    ) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for v in 0..n {
            targets.extend(successors(v));
            offsets.push(targets.len());
        }
        Digraph { offsets, targets }
    }

    /// Number of nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The successors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node.
    pub(crate) fn successors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The subgraph of the arcs `keep(from, to)` accepts.
    pub(crate) fn filter(&self, keep: impl Fn(usize, usize) -> bool) -> Digraph {
        let keep = &keep;
        Digraph::from_fn(self.num_nodes(), |v| {
            self.successors(v)
                .iter()
                .copied()
                .filter(move |&t| keep(v, t))
        })
    }

    /// `true` when `v` has an arc to itself.
    pub fn has_self_loop(&self, v: usize) -> bool {
        self.successors(v).contains(&v)
    }

    /// Strongly connected components, in reverse topological order.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        strongly_connected_components(self)
    }

    /// One witness cycle per cyclic component.
    pub fn loop_witnesses(&self) -> Vec<Vec<usize>> {
        loop_witnesses(self)
    }
}

/// Tarjan strongly-connected components of a [`Digraph`].
///
/// Returns components in reverse topological order; every synchronizer
/// appears in exactly one component. Components of size > 1, and singleton
/// components with a self-edge, contain feedback.
fn strongly_connected_components(adj: &Digraph) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let n = adj.num_nodes();
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Iterative Tarjan to avoid recursion depth limits on long pipelines.
    enum Frame {
        Enter(usize),
        Resume(usize, usize), // (node, child already processed)
    }
    for start in 0..n {
        if state[start].visited {
            continue;
        }
        let mut call_stack = vec![Frame::Enter(start)];
        while let Some(frame) = call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    state[v].visited = true;
                    state[v].index = next_index;
                    state[v].lowlink = next_index;
                    next_index += 1;
                    stack.push(v);
                    state[v].on_stack = true;
                    call_stack.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, child_pos) => {
                    let mut advanced = false;
                    for (pos, &w) in adj.successors(v).iter().enumerate().skip(child_pos) {
                        if !state[w].visited {
                            call_stack.push(Frame::Resume(v, pos + 1));
                            call_stack.push(Frame::Enter(w));
                            advanced = true;
                            break;
                        } else if state[w].on_stack {
                            state[v].lowlink = state[v].lowlink.min(state[w].index);
                        }
                    }
                    if advanced {
                        continue;
                    }
                    if state[v].lowlink == state[v].index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            state[w].on_stack = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        components.push(comp);
                    }
                    // propagate lowlink to parent
                    if let Some(Frame::Resume(parent, _)) = call_stack.last() {
                        let parent = *parent;
                        state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                    }
                }
            }
        }
    }
    components
}

/// One witness cycle per cyclic strongly connected component of `adj`,
/// each as a node list starting at the component's smallest node; the
/// last node feeds back to the first.
///
/// A component is cyclic when it has more than one node or a self-edge.
/// The witness is a shortest cycle through the smallest node, found by a
/// breadth-first search confined to the component, so the whole pass is
/// linear in nodes plus edges.
fn loop_witnesses(adj: &Digraph) -> Vec<Vec<usize>> {
    let n = adj.num_nodes();
    let mut comp_of = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut witnesses = Vec::new();
    for (c, comp) in strongly_connected_components(adj).into_iter().enumerate() {
        for &v in &comp {
            comp_of[v] = c;
        }
        let Some(&start) = comp.iter().min() else {
            continue;
        };
        if comp.len() == 1 && !adj.has_self_loop(start) {
            continue;
        }
        // BFS from `start` inside the component until an edge closes the
        // loop back to it; the component is strongly connected, so one does.
        let mut queue = std::collections::VecDeque::from([start]);
        parent[start] = start;
        let mut last = None;
        'bfs: while let Some(v) = queue.pop_front() {
            for &w in adj.successors(v) {
                if w == start {
                    last = Some(v);
                    break 'bfs;
                }
                if comp_of[w] == c && parent[w] == usize::MAX {
                    parent[w] = v;
                    queue.push_back(w);
                }
            }
        }
        let Some(mut v) = last else {
            continue;
        };
        let mut cycle = vec![v];
        while v != start {
            v = parent[v];
            cycle.push(v);
        }
        cycle.reverse();
        witnesses.push(cycle);
    }
    witnesses
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph(adj: &[Vec<usize>]) -> Digraph {
        Digraph::from_fn(adj.len(), |v| adj[v].clone())
    }

    #[test]
    fn scc_splits_dag() {
        // 0 -> 1 -> 2 (no cycles): three singleton components.
        let adj = vec![vec![1], vec![2], vec![]];
        let comps = strongly_connected_components(&digraph(&adj));
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn scc_finds_loop() {
        // 0 -> 1 -> 2 -> 0 plus a tail 2 -> 3.
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let comps = strongly_connected_components(&digraph(&adj));
        let big: Vec<_> = comps.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(big.len(), 1);
        let mut nodes = big[0].clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn scc_handles_two_disjoint_loops() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let comps = strongly_connected_components(&digraph(&adj));
        assert_eq!(comps.iter().filter(|c| c.len() == 2).count(), 2);
    }

    #[test]
    fn one_witness_per_cyclic_component() {
        // 0 <-> 1 and triangle 0 -> 1 -> 2 -> 0 form one component: one
        // witness, the shortest cycle through node 0. Node 3 hangs off it.
        let adj = vec![vec![1], vec![2, 0], vec![0, 3], vec![]];
        assert_eq!(loop_witnesses(&digraph(&adj)), vec![vec![0, 1]]);
    }

    #[test]
    fn disjoint_loops_and_self_loops_each_get_a_witness() {
        let adj = vec![vec![1], vec![0], vec![3], vec![4], vec![2], vec![5], vec![]];
        let mut w = loop_witnesses(&digraph(&adj));
        w.sort();
        assert_eq!(w, vec![vec![0, 1], vec![2, 3, 4], vec![5]]);
    }

    #[test]
    fn acyclic_graphs_have_no_witness() {
        let adj = vec![vec![1, 2], vec![2], vec![]];
        assert!(loop_witnesses(&digraph(&adj)).is_empty());
    }

    #[test]
    fn cycle_display_closes_the_loop() {
        let c = Cycle {
            latches: vec![LatchId::new(0), LatchId::new(1)],
        };
        assert_eq!(c.to_string(), "L1 → L2 → L1");
    }

    #[test]
    fn deep_pipeline_does_not_overflow_stack() {
        // 50_000-node path: recursion-free Tarjan must cope.
        let n = 50_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let comps = strongly_connected_components(&digraph(&adj));
        assert_eq!(comps.len(), n);
    }
}
