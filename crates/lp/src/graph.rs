//! Difference-constraint classification and a shortest-path fast path.
//!
//! The SMO constraint matrices are `0, ±1` valued (§VI of the paper), and
//! under the variable recombination performed by the timing layer (phase
//! ends `E_p = s_p + T_p`, global departures `u_i = s_{p_i} + D_i`) every
//! generated row becomes a *two-variable difference constraint*
//! `x_i − x_j ≤ base + slope·λ`, affine in the cycle time `λ = T_c`. Such
//! systems are exactly the shortest-path / DBM fragment of linear
//! programming:
//!
//! * feasibility at a fixed `λ` is the absence of a negative cycle in the
//!   constraint graph ([`ParamGraph::bellman_ford`]: a FIFO
//!   label-correcting search that scans only nodes whose labels dropped
//!   and stops at the first predecessor-graph cycle rather than running
//!   all `V` passes),
//! * the minimal feasible `λ` is a minimum cycle-ratio problem, solved
//!   here by Lawler's parametric iteration (repeatedly jump `λ` to the
//!   ratio of the current negative-cycle witness),
//! * infeasibility yields a *negative-cycle certificate*: `±1` multipliers
//!   on the cycle's rows whose sum telescopes to an absurd inequality —
//!   precisely a Farkas vector, independently checkable by
//!   [`certifies_infeasibility`](crate::certifies_infeasibility) with no
//!   reference to the graph solver.
//!
//! The entry points are [`classify`] (map every row of a [`Problem`] to a
//! [`RowClass`] under a caller-provided [`VarImage`] substitution) and
//! [`DifferenceSystem::build`] (assemble the classified difference subset
//! into a graph). Rows that do not fit ([`RowClass::General`]) are simply
//! absent from the graph; callers decide whether the system is exact
//! ([`Classification::is_pure`]) or a relaxation that routes to the
//! simplex fallback. [`ParamGraph`] is the search kernel underneath, shared
//! with callers that build λ-affine graphs of their own.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::BudgetUnit;
use crate::expr::VarId;
use crate::problem::{ConstraintId, Problem, Sense};
use crate::recover::SolveBudget;

/// Absolute tolerance for coefficient recognition and cycle negativity,
/// matching the solver-wide [`EPS`](crate::EPS) on the `0, ±1` matrices
/// this module targets.
const TOL: f64 = 1e-9;

/// How one problem variable maps into difference-graph node space.
///
/// The caller supplies one image per variable (see [`classify`]); node
/// indices are the caller's, dense from `0`. Values are interpreted as
/// potentials relative to an implicit *origin* node pinned at `0`, which
/// the [`DifferenceSystem`] appends itself (single-variable rows and
/// finite variable bounds become arcs to or from the origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarImage {
    /// The variable *is* the potential of node `i`.
    Node(usize),
    /// The variable equals the potential difference `x_a − x_b`.
    Diff(usize, usize),
    /// The variable is the parameter `λ` (the cycle time).
    Param,
}

/// An affine bound `base + slope·λ` on a difference of potentials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineBound {
    /// Constant part.
    pub base: f64,
    /// Coefficient of the parameter `λ`.
    pub slope: f64,
}

impl AffineBound {
    /// The bound's value at a fixed parameter.
    pub fn at(&self, lambda: f64) -> f64 {
        self.base + self.slope * lambda
    }
}

/// Classification of one constraint row under a [`VarImage`] substitution,
/// normalized to `≤` form (a `≥` row is negated first; an `=` row
/// classifies by its `≤` direction and contributes both directions to the
/// graph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowClass {
    /// `x_i − x_j ≤ base + slope·λ` — a pure difference constraint.
    Difference {
        /// Node with coefficient `+1`.
        i: usize,
        /// Node with coefficient `−1`.
        j: usize,
        /// The affine right-hand side.
        bound: AffineBound,
    },
    /// `±x_i ≤ base + slope·λ` — one node against the origin.
    SingleVar {
        /// The single node.
        i: usize,
        /// `true` when the node's coefficient is `−1` (a lower bound on
        /// `x_i`).
        negated: bool,
        /// The affine right-hand side.
        bound: AffineBound,
    },
    /// `coef·λ ≤ rhs` — a bound on the parameter alone (`coef` may be
    /// zero: a constant row).
    ParamBound {
        /// Coefficient of `λ`.
        coef: f64,
        /// Right-hand side.
        rhs: f64,
    },
    /// Anything else — outside the difference fragment; handled by the
    /// simplex fallback.
    General,
}

impl RowClass {
    /// `true` for every class except [`RowClass::General`].
    pub fn is_difference_fragment(&self) -> bool {
        !matches!(self, RowClass::General)
    }
}

/// One normalized `≤`-form atom of a row, with the Farkas multiplier that
/// "using this atom once" contributes to the row (`−1` for the stated
/// direction of a `≤`/`=` row, `+1` for the negated direction of a `≥`/`=`
/// row).
#[derive(Debug, Clone, Copy)]
struct Atom {
    row: ConstraintId,
    class: RowClass,
    sign: f64,
}

/// The per-row result of [`classify`].
#[derive(Debug, Clone)]
pub struct Classification {
    /// Every row's atoms in row order: one per `≤`/`≥` row, two per `=`
    /// row (its `≤` direction first).
    atoms: Vec<Atom>,
    /// `first[r]` indexes row `r`'s first atom in `atoms`.
    first: Vec<usize>,
}

impl Classification {
    /// The normalized classification of a row (for `=` rows, of its `≤`
    /// direction).
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the classified problem.
    pub fn class(&self, c: ConstraintId) -> RowClass {
        self.atoms[self.first[c.index()]].class
    }

    /// Number of classified rows.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// `true` when the problem had no rows.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// `true` when every row lies in the difference fragment — the graph
    /// backend is then *exact*, not a relaxation.
    pub fn is_pure(&self) -> bool {
        self.atoms.iter().all(|a| a.class.is_difference_fragment())
    }

    /// The rows classified [`RowClass::General`], in ascending id order.
    pub fn general_rows(&self) -> Vec<ConstraintId> {
        (0..self.len())
            .map(ConstraintId)
            .filter(|&c| !self.class(c).is_difference_fragment())
            .collect()
    }

    /// Count of rows classified as pure differences.
    pub fn num_difference(&self) -> usize {
        self.count(|c| matches!(c, RowClass::Difference { .. }))
    }

    /// Count of single-variable rows.
    pub fn num_single_var(&self) -> usize {
        self.count(|c| matches!(c, RowClass::SingleVar { .. }))
    }

    /// Count of parameter-only rows.
    pub fn num_param_bound(&self) -> usize {
        self.count(|c| matches!(c, RowClass::ParamBound { .. }))
    }

    /// Count of rows outside the difference fragment.
    pub fn num_general(&self) -> usize {
        self.count(|c| matches!(c, RowClass::General))
    }

    fn count(&self, f: impl Fn(&RowClass) -> bool) -> usize {
        self.first
            .iter()
            .filter(|&&k| f(&self.atoms[k].class))
            .count()
    }
}

/// Classifies every row of `p` under the image map, one [`VarImage`] per
/// variable (in [`VarId`] order).
///
/// # Errors
///
/// Returns [`LpError::Numerical`](crate::LpError) when `images` does not
/// cover every variable of `p`.
pub fn classify(p: &Problem, images: &[VarImage]) -> Result<Classification, crate::LpError> {
    if images.len() != p.num_vars() {
        return Err(crate::LpError::Numerical {
            context: format!(
                "classify: {} variable images for {} variables",
                images.len(),
                p.num_vars()
            ),
        });
    }
    let m = p.num_constraints();
    let mut atoms = Vec::with_capacity(m);
    let mut first = Vec::with_capacity(m);
    // Net coefficient per node, reused by every row: rows touch at most a
    // handful of nodes, so a small association list beats a map.
    let mut nodes: Vec<(usize, f64)> = Vec::with_capacity(4);
    for r in 0..m {
        let row = ConstraintId(r);
        let (terms, sense, rhs) = p.constraint(row);
        first.push(atoms.len());
        let mut push = |negate: bool, sign: f64| {
            let class = classify_le(terms, rhs, images, negate, &mut nodes);
            atoms.push(Atom { row, class, sign });
        };
        match sense {
            Sense::Le => push(false, -1.0),
            Sense::Ge => push(true, 1.0),
            Sense::Eq => {
                push(false, -1.0);
                push(true, 1.0);
            }
        }
    }
    Ok(Classification { atoms, first })
}

/// Classifies one `≤`-form inequality `Σ c_v·x_v ≤ rhs` (negated first
/// when `negate` is set) by substituting variable images and collecting
/// net node coefficients in the caller's scratch list `nodes`.
fn classify_le(
    terms: &[(VarId, f64)],
    rhs: f64,
    images: &[VarImage],
    negate: bool,
    nodes: &mut Vec<(usize, f64)>,
) -> RowClass {
    let flip = if negate { -1.0 } else { 1.0 };
    nodes.clear();
    let mut add = |n: usize, c: f64| {
        if let Some(e) = nodes.iter_mut().find(|(i, _)| *i == n) {
            e.1 += c;
        } else {
            nodes.push((n, c));
        }
    };
    let mut param = 0.0;
    for &(v, c) in terms {
        let c = c * flip;
        match images[v.index()] {
            VarImage::Node(i) => add(i, c),
            VarImage::Diff(a, b) => {
                add(a, c);
                add(b, -c);
            }
            VarImage::Param => param += c,
        }
    }
    nodes.retain(|(_, c)| c.abs() > TOL);
    let rhs = rhs * flip;
    let bound = AffineBound {
        base: rhs,
        slope: -param,
    };
    let unit = |c: f64| (c - 1.0).abs() <= TOL || (c + 1.0).abs() <= TOL;
    match nodes.as_slice() {
        [] => RowClass::ParamBound { coef: param, rhs },
        [(i, c)] if unit(*c) => RowClass::SingleVar {
            i: *i,
            negated: *c < 0.0,
            bound,
        },
        [(a, ca), (b, cb)] if unit(*ca) && unit(*cb) && (ca * cb) < 0.0 => {
            let (i, j) = if *ca > 0.0 { (*a, *b) } else { (*b, *a) };
            RowClass::Difference { i, j, bound }
        }
        _ => RowClass::General,
    }
}

/// Where an arc of the constraint graph came from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ArcSource {
    /// A constraint row; `sign` is the Farkas multiplier one use of the
    /// arc contributes to the row.
    Row { c: ConstraintId, sign: f64 },
    /// A finite variable bound — absent from Farkas vectors (the
    /// certificate checker's supremum over the variable box absorbs it).
    Bound,
}

/// One arc `from → to` of a [`ParamGraph`], weighing `base + slope·λ`,
/// with the caller's `tag`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamArc<T> {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Weight at `λ = 0`.
    pub base: f64,
    /// Weight per unit of `λ`.
    pub slope: f64,
    /// Caller data carried with the arc.
    pub tag: T,
}

/// Marks "no predecessor arc" in the search's `pred` array.
const NO_ARC: u32 = u32::MAX;

/// A digraph whose arc weights are affine in a parameter `λ`, with the
/// label-correcting Bellman–Ford search behind every graph verdict.
///
/// The arcs are stored once, in CSR order by source (stable, so arcs of
/// one source keep the order they were listed in). The search's inner loop
/// reads only the parallel `to`, `base` and `slope` arrays; `from` serves
/// the predecessor walks and the caller's tags sit in an array of their
/// own.
#[derive(Debug, Clone)]
pub struct ParamGraph<T> {
    /// `first[u]..first[u + 1]` are the arcs leaving node `u`.
    first: Vec<u32>,
    from: Vec<u32>,
    to: Vec<u32>,
    base: Vec<f64>,
    slope: Vec<f64>,
    tags: Vec<T>,
}

/// Outcome of one [`ParamGraph::bellman_ford`] search.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOutcome {
    /// No negative cycle: one label per node, the weight of a walk from a
    /// virtual source joined to every node by a zero-weight arc. No arc
    /// improves any label by more than the relaxation tolerance.
    Labels(Vec<f64>),
    /// A strictly negative cycle, as arc indices in traversal order.
    Cycle(Vec<usize>),
}

impl<T: Copy> ParamGraph<T> {
    /// Stores the arcs that `each_arc` lists over nodes `0..num_nodes`.
    ///
    /// `each_arc` is called twice, once to count out-degrees and once to
    /// place the arcs, and must list the same arcs in the same order both
    /// times; nothing else is allocated for them.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Numerical`](crate::LpError) when an arc names a
    /// node outside `0..num_nodes`, or when the node or arc count does not
    /// fit the `u32` indices.
    pub fn build(
        num_nodes: usize,
        each_arc: impl Fn(&mut dyn FnMut(ParamArc<T>)),
    ) -> Result<Self, crate::LpError> {
        let overflow = |what: &str| crate::LpError::Numerical {
            context: format!("parametric graph: {what}"),
        };
        if num_nodes >= NO_ARC as usize {
            return Err(overflow("too many nodes"));
        }
        let mut degree = vec![0u32; num_nodes + 1];
        let mut arcs = 0usize;
        let mut some_tag = None;
        each_arc(&mut |a| {
            if a.from < num_nodes && a.to < num_nodes {
                degree[a.from + 1] = degree[a.from + 1].saturating_add(1);
                arcs += 1;
                some_tag.get_or_insert(a.tag);
            } else {
                arcs = usize::MAX;
            }
        });
        if arcs >= NO_ARC as usize {
            return Err(overflow("arc endpoint out of range, or too many arcs"));
        }
        let mut first = degree;
        for u in 0..num_nodes {
            first[u + 1] += first[u];
        }
        let mut slot: Vec<u32> = first[..num_nodes].to_vec();
        let (mut from, mut to) = (vec![0u32; arcs], vec![0u32; arcs]);
        let (mut base, mut slope) = (vec![0.0; arcs], vec![0.0; arcs]);
        let mut tags = some_tag.map_or_else(Vec::new, |t| vec![t; arcs]);
        let mut placed = 0usize;
        each_arc(&mut |a| {
            let Some(k) = slot.get_mut(a.from) else {
                return;
            };
            let i = *k as usize;
            if i < first[a.from + 1] as usize && a.to < num_nodes {
                *k += 1;
                placed += 1;
                from[i] = a.from as u32;
                to[i] = a.to as u32;
                base[i] = a.base;
                slope[i] = a.slope;
                tags[i] = a.tag;
            }
        });
        if placed != arcs {
            return Err(overflow("the arc listing changed between calls"));
        }
        Ok(ParamGraph {
            first,
            from,
            to,
            base,
            slope,
            tags,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.to.len()
    }

    /// Arc `k` in CSR order, the order [`SearchOutcome::Cycle`] indexes.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn arc(&self, k: usize) -> ParamArc<T> {
        ParamArc {
            from: self.from[k] as usize,
            to: self.to[k] as usize,
            base: self.base[k],
            slope: self.slope[k],
            tag: self.tags[k],
        }
    }

    /// `true` when the arcs form no directed cycle (Kahn's algorithm).
    pub(crate) fn is_acyclic(&self) -> bool {
        let n = self.num_nodes();
        let mut indegree = vec![0u32; n];
        for &v in &self.to {
            indegree[v as usize] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut removed = 0;
        while let Some(u) = ready.pop() {
            removed += 1;
            for &v in &self.to[self.first[u] as usize..self.first[u + 1] as usize] {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    ready.push(v as usize);
                }
            }
        }
        removed == n
    }

    /// Label-correcting Bellman–Ford at a fixed `λ`, from a virtual source
    /// joined to every node by a zero-weight arc (all labels start at 0).
    ///
    /// The search keeps a FIFO queue of nodes whose labels dropped, and a
    /// *pass* is one generation of it: pass 1 scans every node, and pass
    /// `k + 1` scans the nodes whose labels dropped during pass `k`. A node
    /// that drops again before its scan is scanned once, with its newest
    /// label. So each pass is at most one `O(E)` scan, and a feasible
    /// search ends as soon as no label drops.
    ///
    /// After every pass that dropped a label, the predecessor graph is
    /// searched for a cycle by walking `pred` links from each node that
    /// dropped in that pass. Walks are stamped, so a walk that meets its
    /// own stamp has closed a cycle, and one that meets another walk of
    /// the same pass stops. A new cycle must contain the node whose `pred`
    /// closed it, which dropped in that pass, so the first cycle is found
    /// in the pass it forms, in `O(V)` per pass at worst.
    ///
    /// Every predecessor-graph cycle is strictly negative, whatever order
    /// the relaxations ran in. While `pred[y] = (x, y)`, `d[y]` keeps the
    /// value `d[x] + w(x, y)` it was given, and `d[x]` can only have
    /// decreased since, so `d[y] ≥ d[x] + w(x, y)`. Let `(u, v)` be the
    /// arc whose assignment closes a cycle `C`. The rest of `C` is a
    /// predecessor path from `v` to `u`, and summing its arc inequalities
    /// gives `d[u] ≥ d[v] + w(v ⇝ u)`. The relaxation of `(u, v)` passed
    /// the strict-improvement test `d[u] + w(u, v) < d[v] − τ` with
    /// `τ = TOL·(1 + max(|d[v]|, |w(u, v)|)) > 0`. Adding the two gives
    /// `w(C) = w(v ⇝ u) + w(u, v) < −τ < 0`. So a graph without a
    /// negative cycle never forms one, and its labels are those of the
    /// textbook `V`-pass algorithm up to the tolerance each relaxation
    /// skips. Conversely, in exact arithmetic the queue empties within `V`
    /// passes unless a negative cycle exists, so running past `V` passes
    /// with an acyclic predecessor graph is reachable only through
    /// floating-point rounding.
    ///
    /// The `budget` is checked once per pass, counting into `passes`, so an
    /// expired deadline surfaces within one `O(E)` pass; `passes`
    /// accumulates across calls so a parametric search reports its total.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Budget`](crate::LpError) when the budget expires
    /// mid-search, in [`BudgetUnit::BellmanFordPasses`](crate::BudgetUnit),
    /// and [`LpError::Numerical`](crate::LpError) when the search is still
    /// relaxing after `V` passes with no predecessor cycle.
    pub fn bellman_ford(
        &self,
        lambda: f64,
        budget: &SolveBudget,
        passes: &mut usize,
    ) -> Result<SearchOutcome, crate::LpError> {
        Search::new(self.num_nodes()).run(self, lambda, budget, passes)
    }
}

/// Working state of one [`ParamGraph::bellman_ford`] search.
struct Search {
    dist: Vec<f64>,
    /// Arc that last lowered each label, or [`NO_ARC`].
    pred: Vec<u32>,
    /// Waiting to be scanned, in this pass or the next.
    queued: Vec<bool>,
    /// Pass (from 1) in which each label last dropped; 0 for never.
    dropped_in: Vec<u32>,
    /// Id of the last predecessor walk through each node; 0 for none.
    walked: Vec<usize>,
    /// Walk ids handed out so far, across passes.
    walks: usize,
    /// Arcs scanned so far: the search's work, pinned by the tests.
    scanned: usize,
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            dist: vec![0.0; n],
            pred: vec![NO_ARC; n],
            queued: vec![true; n],
            dropped_in: vec![0; n],
            walked: vec![0; n],
            walks: 0,
            scanned: 0,
        }
    }

    fn run<T>(
        &mut self,
        g: &ParamGraph<T>,
        lambda: f64,
        budget: &SolveBudget,
        passes: &mut usize,
    ) -> Result<SearchOutcome, crate::LpError> {
        let n = self.dist.len();
        let mut current: Vec<u32> = (0..n as u32).collect();
        let mut next: Vec<u32> = Vec::new();
        let mut dropped: Vec<u32> = Vec::new();
        for pass in 1..=n.max(1) as u32 {
            budget.check_work(*passes, BudgetUnit::BellmanFordPasses)?;
            *passes += 1;
            for &u in &current {
                let u = u as usize;
                self.queued[u] = false;
                let du = self.dist[u];
                let arcs = g.first[u] as usize..g.first[u + 1] as usize;
                self.scanned += arcs.len();
                for k in arcs {
                    let v = g.to[k] as usize;
                    let w = g.base[k] + g.slope[k] * lambda;
                    let cand = du + w;
                    let dv = self.dist[v];
                    if cand < dv - TOL * (1.0 + dv.abs().max(w.abs())) {
                        self.dist[v] = cand;
                        self.pred[v] = k as u32;
                        if self.dropped_in[v] != pass {
                            self.dropped_in[v] = pass;
                            dropped.push(v as u32);
                        }
                        if !self.queued[v] {
                            self.queued[v] = true;
                            next.push(v as u32);
                        }
                    }
                }
            }
            if let Some(cycle) = self.walk_for_cycle(g, &dropped) {
                return Ok(SearchOutcome::Cycle(cycle));
            }
            if next.is_empty() {
                return Ok(SearchOutcome::Labels(std::mem::take(&mut self.dist)));
            }
            std::mem::swap(&mut current, &mut next);
            next.clear();
            dropped.clear();
        }
        Err(crate::LpError::Numerical {
            context: format!(
                "Bellman–Ford at λ = {lambda}: still relaxing after {n} passes with an acyclic \
                 predecessor graph"
            ),
        })
    }

    /// The first predecessor-graph cycle reached by walking `pred` links
    /// from `starts`, as arc indices in traversal order.
    fn walk_for_cycle<T>(&mut self, g: &ParamGraph<T>, starts: &[u32]) -> Option<Vec<usize>> {
        let floor = self.walks;
        for &start in starts {
            self.walks += 1;
            let id = self.walks;
            let mut v = start as usize;
            loop {
                if self.walked[v] == id {
                    return Some(self.trace_cycle(g, v));
                }
                if self.walked[v] > floor {
                    break; // joins a walk of this pass, which found no cycle
                }
                self.walked[v] = id;
                match self.pred[v] {
                    NO_ARC => break,
                    k => v = g.from[k as usize] as usize,
                }
            }
        }
        None
    }

    /// The predecessor cycle through `on_cycle`, starting with the arc
    /// that leaves it.
    fn trace_cycle<T>(&self, g: &ParamGraph<T>, on_cycle: usize) -> Vec<usize> {
        let mut cycle = Vec::new();
        let mut v = on_cycle;
        loop {
            let k = self.pred[v] as usize;
            cycle.push(k);
            v = g.from[k] as usize;
            if v == on_cycle {
                break;
            }
        }
        cycle.reverse();
        cycle
    }
}

/// Provenance of one side of the parameter interval `λ ∈ [lower, upper]`.
#[derive(Debug, Clone, Copy)]
enum ParamBoundSrc {
    /// The parameter variable's own bound (or no bound at all) — absorbed
    /// by the certificate checker's box supremum.
    VarBound,
    /// A [`RowClass::ParamBound`] row `coef·λ ≤ rhs` with its Farkas
    /// direction sign.
    Row {
        c: ConstraintId,
        sign: f64,
        coef: f64,
    },
}

/// The difference-constraint subset of a [`Problem`], as a weighted graph
/// with arc weights affine in the parameter `λ`.
///
/// Built by [`DifferenceSystem::build`]; solves the subset *exactly* when
/// the classification [`is_pure`](Classification::is_pure), and a
/// relaxation (useful for early infeasibility detection — an infeasible
/// subset proves the full problem infeasible) otherwise.
#[derive(Debug, Clone)]
pub struct DifferenceSystem {
    /// Caller node space; the origin is appended at index `num_nodes`.
    num_nodes: usize,
    /// The arcs over the caller's nodes plus the origin, each tagged with
    /// its provenance.
    graph: ParamGraph<ArcSource>,
    lambda_lower: f64,
    lambda_lower_src: ParamBoundSrc,
    lambda_upper: f64,
    lambda_upper_src: ParamBoundSrc,
    /// A constant row that is infeasible on its own (`0 ≤ rhs < 0`).
    constant_conflict: Option<(ConstraintId, f64)>,
    num_rows: usize,
}

/// Outcome of a fixed-parameter feasibility check
/// ([`DifferenceSystem::feasible_at`]).
#[derive(Debug, Clone)]
pub enum FixedParamOutcome {
    /// A feasible potential assignment exists; `potentials[i]` is the
    /// value of node `i` relative to the origin (pinned at `0`).
    Feasible {
        /// Node potentials, caller node space.
        potentials: Vec<f64>,
    },
    /// A negative cycle at this `λ`: no potentials exist.
    NegativeCycle(NegativeCycle),
}

/// A negative cycle of the constraint graph — the graph analogue of a
/// Farkas certificate.
#[derive(Debug, Clone)]
pub struct NegativeCycle {
    /// `(row, multiplier)` support: summing `multiplier ×` each row
    /// telescopes the node potentials away.
    rows: Vec<(ConstraintId, f64)>,
    /// Σ base over the cycle's arcs.
    base: f64,
    /// Σ slope over the cycle's arcs.
    slope: f64,
}

impl NegativeCycle {
    /// The `(row, Farkas multiplier)` support of the cycle, in traversal
    /// order. Variable-bound arcs do not appear (the certificate checker's
    /// box supremum covers them).
    pub fn rows(&self) -> &[(ConstraintId, f64)] {
        &self.rows
    }

    /// The cycle's weight `Σ base + λ·Σ slope` at a given parameter;
    /// negative means infeasible at that `λ`.
    pub fn weight_at(&self, lambda: f64) -> f64 {
        self.base + self.slope * lambda
    }

    /// The smallest `λ` at which the cycle stops being negative
    /// (`−Σbase / Σslope`), or `None` when the cycle is negative for every
    /// larger `λ` (`Σ slope ≤ 0`).
    pub fn min_feasible_lambda(&self) -> Option<f64> {
        (self.slope > TOL).then(|| -self.base / self.slope)
    }
}

/// Proof that `λ*` returned by [`DifferenceSystem::minimize_param`] is
/// minimal: `(row, multiplier)` pairs whose sum implies `λ ≥ implied_lower`
/// by pure row arithmetic — the critical cycle's rows, or the
/// [`RowClass::ParamBound`] row when `λ*` sits on a lower bound that a row
/// declares.
#[derive(Debug, Clone)]
pub struct ParamLowerWitness {
    rows: Vec<(ConstraintId, f64)>,
    implied_lower: f64,
    /// Σ slope of the witness cycle — needed to combine this witness with
    /// a later slope-free negative cycle into a standalone certificate.
    slope: f64,
}

impl ParamLowerWitness {
    /// The `(row, multiplier)` support of the witness cycle.
    pub fn rows(&self) -> &[(ConstraintId, f64)] {
        &self.rows
    }

    /// The lower bound on `λ` the witness implies.
    pub fn implied_lower(&self) -> f64 {
        self.implied_lower
    }

    /// `Σ slope` of the witness cycle (positive): the coefficient of `λ`
    /// that its rows aggregate to. Moving the right-hand side of a
    /// witness row with multiplier `m` by `ε` moves the implied lower
    /// bound by `m·ε / Σ slope`.
    pub fn slope(&self) -> f64 {
        self.slope
    }
}

/// A graph-derived Farkas certificate of infeasibility for the *problem*
/// (not just one fixed `λ`): a negative cycle whose weight stays negative
/// over the parameter's entire admissible range.
#[derive(Debug, Clone)]
pub struct GraphInfeasibility {
    y: Vec<f64>,
    rows: Vec<(ConstraintId, f64)>,
}

impl GraphInfeasibility {
    /// The full Farkas vector, one multiplier per row of the source
    /// problem (zeros off the cycle).
    pub fn farkas(&self) -> &[f64] {
        &self.y
    }

    /// The non-zero `(row, multiplier)` support.
    pub fn rows(&self) -> &[(ConstraintId, f64)] {
        &self.rows
    }

    /// Independently verifies the certificate against `p` via
    /// [`certifies_infeasibility`](crate::certifies_infeasibility) — the
    /// same machine check an LP Farkas vector gets, with no reference to
    /// the graph solver that produced it.
    pub fn check(&self, p: &Problem) -> bool {
        crate::iis::certifies_infeasibility(p, &self.y)
    }
}

/// Outcome of [`DifferenceSystem::minimize_param`].
#[derive(Debug, Clone)]
pub enum MinParamOutcome {
    /// The exact minimal feasible parameter, a witness schedule, and (when
    /// a critical cycle binds `λ*`) an arithmetic lower-bound witness.
    Optimal {
        /// The minimal feasible `λ`.
        lambda: f64,
        /// Node potentials feasible at `lambda`, caller node space,
        /// relative to the origin.
        potentials: Vec<f64>,
        /// Row-arithmetic proof of minimality; `None` when `λ*` sits on
        /// the parameter variable's own lower bound.
        witness: Option<ParamLowerWitness>,
    },
    /// No parameter value is feasible.
    Infeasible(GraphInfeasibility),
}

impl DifferenceSystem {
    /// Assembles the difference-fragment rows of `p` (under `cls`, from
    /// [`classify`] with the same `images`) plus every finite variable
    /// bound into a constraint graph. [`RowClass::General`] rows are
    /// skipped — check [`Classification::is_pure`] to know whether the
    /// system is exact.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Numerical`](crate::LpError) when `images` and
    /// `cls` do not match `p`'s dimensions.
    pub fn build(
        p: &Problem,
        images: &[VarImage],
        cls: &Classification,
    ) -> Result<Self, crate::LpError> {
        Self::build_rows(p, images, cls, None)
    }

    /// [`DifferenceSystem::build`] over the rows `r` with `keep[r]` only
    /// (every row when `keep` is `None`); the variable box stays whole.
    pub(crate) fn build_rows(
        p: &Problem,
        images: &[VarImage],
        cls: &Classification,
        keep: Option<&[bool]>,
    ) -> Result<Self, crate::LpError> {
        let dropped = |c: ConstraintId| keep.is_some_and(|k| !k[c.index()]);
        if images.len() != p.num_vars() || cls.len() != p.num_constraints() {
            return Err(crate::LpError::Numerical {
                context: "difference system: image or classification dimension mismatch".into(),
            });
        }
        let num_nodes = images
            .iter()
            .map(|im| match *im {
                VarImage::Node(i) => i + 1,
                VarImage::Diff(a, b) => a.max(b) + 1,
                VarImage::Param => 0,
            })
            .max()
            .unwrap_or(0);
        let origin = num_nodes;
        let mut lambda_lower = f64::NEG_INFINITY;
        let mut lambda_lower_src = ParamBoundSrc::VarBound;
        let mut lambda_upper = f64::INFINITY;
        let mut lambda_upper_src = ParamBoundSrc::VarBound;
        let mut constant_conflict = None;

        // Parameter bounds from the parameter variable's own box (if any
        // variable maps to Param); tightened by ParamBound rows below.
        for (v, im) in images.iter().enumerate() {
            if matches!(im, VarImage::Param) {
                let (lo, up) = p.var_bounds(VarId(v));
                lambda_lower = lambda_lower.max(lo);
                lambda_upper = lambda_upper.min(up);
            }
        }
        if lambda_lower == f64::NEG_INFINITY
            && !images.iter().any(|im| matches!(im, VarImage::Param))
        {
            // No parameter at all: weights are constant, pin λ = 0.
            lambda_lower = 0.0;
            lambda_upper = 0.0;
        }
        for atom in cls.atoms.iter().filter(|a| !dropped(a.row)) {
            let RowClass::ParamBound { coef, rhs } = atom.class else {
                continue;
            };
            let src = ParamBoundSrc::Row {
                c: atom.row,
                sign: atom.sign,
                coef,
            };
            if coef > TOL {
                let cand = rhs / coef;
                if cand < lambda_upper {
                    lambda_upper = cand;
                    lambda_upper_src = src;
                }
            } else if coef < -TOL {
                let cand = rhs / coef;
                if cand > lambda_lower {
                    lambda_lower = cand;
                    lambda_lower_src = src;
                }
            } else if rhs < -TOL && constant_conflict.is_none() {
                // 0 ≤ rhs < 0: the row is infeasible alone.
                constant_conflict = Some((atom.row, atom.sign));
            }
        }

        let graph = ParamGraph::build(num_nodes + 1, |add| {
            // Constraint-row arcs.
            for atom in cls.atoms.iter().filter(|a| !dropped(a.row)) {
                let tag = ArcSource::Row {
                    c: atom.row,
                    sign: atom.sign,
                };
                let (from, to, bound) = match atom.class {
                    RowClass::Difference { i, j, bound } => (j, i, bound),
                    // +x_i ≤ b: origin→i; −x_i ≤ b: i→origin.
                    RowClass::SingleVar { i, negated, bound } if negated => (i, origin, bound),
                    RowClass::SingleVar { i, bound, .. } => (origin, i, bound),
                    RowClass::ParamBound { .. } | RowClass::General => continue,
                };
                add(ParamArc {
                    from,
                    to,
                    base: bound.base,
                    slope: bound.slope,
                    tag,
                });
            }
            // Variable-bound arcs (the ambient box, structural in the SMO
            // models: non-negativity of widths, starts and departures).
            for (v, im) in images.iter().enumerate() {
                let (lo, up) = p.var_bounds(VarId(v));
                let (a, b) = match *im {
                    VarImage::Node(i) => (i, origin),
                    VarImage::Diff(i, j) => (i, j),
                    VarImage::Param => continue,
                };
                // lo ≤ x_a − x_b ≤ up
                let bound_arc = |from, to, base| ParamArc {
                    from,
                    to,
                    base,
                    slope: 0.0,
                    tag: ArcSource::Bound,
                };
                if lo.is_finite() {
                    add(bound_arc(a, b, -lo));
                }
                if up.is_finite() {
                    add(bound_arc(b, a, up));
                }
            }
        })?;
        Ok(DifferenceSystem {
            num_nodes,
            graph,
            lambda_lower,
            lambda_lower_src,
            lambda_upper,
            lambda_upper_src,
            constant_conflict,
            num_rows: p.num_constraints(),
        })
    }

    /// Number of nodes in the caller's node space (the internal origin is
    /// not counted).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of arcs, including variable-bound arcs.
    pub fn num_arcs(&self) -> usize {
        self.graph.num_arcs()
    }

    /// The admissible parameter interval `[lower, upper]` implied by the
    /// parameter variable's box and the `ParamBound` rows.
    pub fn param_range(&self) -> (f64, f64) {
        (self.lambda_lower, self.lambda_upper)
    }

    /// Whether some `λ` in [`param_range`](Self::param_range) admits
    /// feasible potentials: at once for an acyclic graph, otherwise by
    /// [`minimize_param`](Self::minimize_param).
    pub(crate) fn admits_param(&self, budget: &SolveBudget) -> Result<bool, crate::LpError> {
        if self.graph.is_acyclic() {
            return Ok(
                self.constant_conflict.is_none() && self.lambda_lower <= self.lambda_upper + TOL
            );
        }
        Ok(matches!(
            self.minimize_param(budget)?,
            MinParamOutcome::Optimal { .. }
        ))
    }

    /// Bellman–Ford feasibility at a fixed parameter: either a feasible
    /// potential assignment (the DBM closure relative to the origin) or a
    /// negative-cycle witness.
    ///
    /// One [`ParamGraph::bellman_ford`] search: each pass scans only the
    /// nodes whose labels dropped in the previous one. A feasible system
    /// converges once no label drops; an infeasible one stops at the first
    /// predecessor-graph cycle, which forms within a few passes of the
    /// negative cycle being reached, not after `V`.
    ///
    /// The `budget` is checked once per pass, so an expired deadline
    /// surfaces as [`LpError::Budget`](crate::LpError) within one pass of
    /// at most `O(E)` work — the graph backend honors `--time-limit`
    /// exactly like the simplex does.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Budget`](crate::LpError) when the budget expires
    /// mid-search, counting completed passes in
    /// [`BudgetUnit::BellmanFordPasses`](crate::BudgetUnit), and
    /// [`LpError::Numerical`](crate::LpError) if rounding leaves the
    /// search relaxing after `V` passes with no predecessor cycle.
    pub fn feasible_at(
        &self,
        lambda: f64,
        budget: &SolveBudget,
    ) -> Result<FixedParamOutcome, crate::LpError> {
        let mut passes = 0usize;
        Ok(match self.bellman_ford(lambda, budget, &mut passes)? {
            Ok(potentials) => FixedParamOutcome::Feasible { potentials },
            Err(cycle) => FixedParamOutcome::NegativeCycle(self.summarize(&cycle)),
        })
    }

    /// Lawler's parametric search for the exact minimal feasible `λ`.
    ///
    /// Starting from the parameter's lower bound, each round either proves
    /// feasibility (done — the current `λ` is optimal, since every prior
    /// round's witness cycle forces `λ` at least this high) or produces a
    /// negative-cycle witness whose ratio `−Σbase/Σslope` is the next
    /// candidate. A witness with `Σslope ≤ 0` stays negative for every
    /// admissible `λ` — infeasibility, certified through the cycle's rows.
    ///
    /// Each round is one [`feasible_at`](Self::feasible_at) search, so an
    /// infeasible round stops at the first predecessor-graph cycle, and
    /// every pass after the first scans only the nodes whose labels
    /// dropped; on the generated datapaths the search takes a handful of
    /// rounds of a few dozen passes each.
    ///
    /// The `budget` is threaded into every Bellman–Ford round and checked
    /// once per pass; the cumulative pass count across rounds plays the
    /// role simplex pivots play in [`LpError::Budget`](crate::LpError).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Numerical`](crate::LpError) if the parameter is
    /// unbounded below (no minimum exists) or the iteration stalls on
    /// floating-point noise instead of making progress, and
    /// [`LpError::Budget`](crate::LpError) when the budget expires before
    /// the search terminates.
    pub fn minimize_param(&self, budget: &SolveBudget) -> Result<MinParamOutcome, crate::LpError> {
        if let Some((c, sign)) = self.constant_conflict {
            return Ok(MinParamOutcome::Infeasible(
                self.certificate(&[(c, sign)], &[]),
            ));
        }
        if self.lambda_lower == f64::NEG_INFINITY {
            return Err(crate::LpError::Numerical {
                context: "minimize_param: parameter is unbounded below".into(),
            });
        }
        if self.lambda_lower > self.lambda_upper + TOL {
            // The parameter interval itself is empty.
            return Ok(MinParamOutcome::Infeasible(
                self.empty_interval_certificate(),
            ));
        }
        let mut lambda = self.lambda_lower;
        // A row-backed lower bound is the first witness: the row alone
        // implies `λ ≥ lambda_lower`.
        let mut witness = match self.lambda_lower_src {
            ParamBoundSrc::Row { c, sign, coef } => Some(ParamLowerWitness {
                rows: vec![(c, sign)],
                implied_lower: self.lambda_lower,
                slope: -coef,
            }),
            ParamBoundSrc::VarBound => None,
        };
        let mut stalls = 0usize;
        let mut passes = 0usize;
        // Lawler terminates after at most one round per distinct simple-
        // cycle ratio; the cap is a generous safety net over that.
        for _ in 0..(1000 + 10 * self.graph.num_arcs()) {
            let cycle = match self.bellman_ford(lambda, budget, &mut passes)? {
                Ok(potentials) => {
                    return Ok(MinParamOutcome::Optimal {
                        lambda,
                        potentials,
                        witness,
                    })
                }
                Err(cycle) => self.summarize(&cycle),
            };
            match cycle.min_feasible_lambda() {
                None => {
                    // Negative at every λ' ≥ lambda. A standalone Farkas
                    // vector must also rule out λ' < lambda: combine with
                    // the witness that forced λ this high (scaled so the λ
                    // terms cancel); a parameter box needs nothing, the
                    // checker's box supremum covers it.
                    let extra = match &witness {
                        Some(w) if cycle.slope < -TOL => {
                            let t = -cycle.slope / w.slope;
                            w.rows.iter().map(|&(c, m)| (c, t * m)).collect()
                        }
                        _ => Vec::new(),
                    };
                    return Ok(MinParamOutcome::Infeasible(
                        self.certificate(&cycle.rows, &extra),
                    ));
                }
                Some(next) => {
                    if next > self.lambda_upper + TOL * (1.0 + self.lambda_upper.abs()) {
                        // The cycle forces λ beyond its admissible maximum.
                        // A search at that maximum usually closes a far
                        // shorter cycle: the smaller certificate.
                        let cycle =
                            match self.bellman_ford(self.lambda_upper, budget, &mut passes)? {
                                Err(arcs) => {
                                    let top = self.summarize(&arcs);
                                    if top.slope > TOL && top.rows.len() < cycle.rows.len() {
                                        top
                                    } else {
                                        cycle
                                    }
                                }
                                Ok(_) => cycle,
                            };
                        let extra = self.upper_bound_multiplier(cycle.slope);
                        return Ok(MinParamOutcome::Infeasible(
                            self.certificate(&cycle.rows, &extra),
                        ));
                    }
                    if next <= lambda + TOL * (1.0 + lambda.abs()) {
                        // No numeric progress: nudge once, then give up.
                        stalls += 1;
                        if stalls > 3 {
                            return Err(crate::LpError::Numerical {
                                context: format!(
                                    "minimize_param stalled at λ = {lambda} (cycle ratio {next})"
                                ),
                            });
                        }
                        lambda += TOL * (1.0 + lambda.abs());
                    } else {
                        stalls = 0;
                        lambda = next;
                    }
                    witness = Some(ParamLowerWitness {
                        rows: cycle.rows.clone(),
                        implied_lower: next,
                        slope: cycle.slope,
                    });
                }
            }
        }
        Err(crate::LpError::Numerical {
            context: "minimize_param failed to converge".into(),
        })
    }

    /// One [`ParamGraph::bellman_ford`] search at `λ`: origin-normalized
    /// potentials in caller node space, or the arc indices of a negative
    /// cycle. The outer `Result` is the budget verdict; `passes`
    /// accumulates across calls so [`minimize_param`](Self::minimize_param)
    /// reports total work.
    fn bellman_ford(
        &self,
        lambda: f64,
        budget: &SolveBudget,
        passes: &mut usize,
    ) -> Result<Result<Vec<f64>, Vec<usize>>, crate::LpError> {
        Ok(match self.graph.bellman_ford(lambda, budget, passes)? {
            SearchOutcome::Labels(dist) => {
                let o = dist[self.num_nodes];
                Ok(dist[..self.num_nodes].iter().map(|d| d - o).collect())
            }
            SearchOutcome::Cycle(cycle) => Err(cycle),
        })
    }

    /// Aggregates a cycle's arcs into its row support and affine weight.
    /// Rows keep their first-occurrence order, and each row's multiplier
    /// sums its arcs in cycle order.
    fn summarize(&self, cycle: &[usize]) -> NegativeCycle {
        let mut rows: Vec<(ConstraintId, f64)> = Vec::new();
        // `slot[c]` is row `c`'s position in `rows`, so each arc costs one
        // lookup: a Lawler cycle through every stage of a deep pipeline
        // has one arc per stage, and searching `rows` per arc made it
        // quadratic.
        let mut slot: Vec<usize> = Vec::new();
        let (mut base, mut slope) = (0.0, 0.0);
        for &idx in cycle {
            let a = self.graph.arc(idx);
            base += a.base;
            slope += a.slope;
            if let ArcSource::Row { c, sign } = a.tag {
                let i = c.index();
                if i >= slot.len() {
                    slot.resize(i + 1, usize::MAX);
                }
                match slot[i] {
                    usize::MAX => {
                        slot[i] = rows.len();
                        rows.push((c, sign));
                    }
                    p => rows[p].1 += sign,
                }
            }
        }
        rows.retain(|(_, m)| m.abs() > TOL);
        NegativeCycle { base, slope, rows }
    }

    /// The extra `(row, multiplier)` needed when a `Σslope > 0` cycle's
    /// residual `λ` term must be cancelled by the parameter's *upper*
    /// bound row (nothing when the bound is the variable's own box).
    fn upper_bound_multiplier(&self, cycle_slope: f64) -> Vec<(ConstraintId, f64)> {
        match self.lambda_upper_src {
            ParamBoundSrc::Row { c, sign, coef } => {
                vec![(c, (cycle_slope / coef) * sign)]
            }
            ParamBoundSrc::VarBound => Vec::new(),
        }
    }

    /// Certificate for an empty parameter interval (`λ_lo > λ_hi`).
    ///
    /// With both sides row-backed, `t_lo = q_hi` copies of the lower
    /// `≤`-atom (`q_lo·λ ≤ r_lo`, `q_lo < 0`) plus `t_hi = −q_lo` copies
    /// of the upper one cancel the λ terms exactly; a side backed by the
    /// variable box instead uses one copy of the remaining row and lets
    /// the checker's box supremum absorb the residual λ coefficient.
    fn empty_interval_certificate(&self) -> GraphInfeasibility {
        let mut support: Vec<(ConstraintId, f64)> = Vec::new();
        let row_coef = |src: &ParamBoundSrc| match *src {
            ParamBoundSrc::Row { coef, .. } => coef,
            ParamBoundSrc::VarBound => 0.0,
        };
        let lo_coef = row_coef(&self.lambda_lower_src);
        let hi_coef = row_coef(&self.lambda_upper_src);
        if let ParamBoundSrc::Row { c, sign, .. } = self.lambda_lower_src {
            let t = if hi_coef.abs() > TOL { hi_coef } else { 1.0 };
            support.push((c, t * sign));
        }
        if let ParamBoundSrc::Row { c, sign, .. } = self.lambda_upper_src {
            let t = if lo_coef.abs() > TOL { -lo_coef } else { 1.0 };
            support.push((c, t * sign));
        }
        self.certificate(&support, &[])
    }

    /// Assembles a [`GraphInfeasibility`] from row-multiplier support.
    fn certificate(
        &self,
        rows: &[(ConstraintId, f64)],
        extra: &[(ConstraintId, f64)],
    ) -> GraphInfeasibility {
        let mut y = vec![0.0; self.num_rows];
        for &(c, m) in rows.iter().chain(extra) {
            y[c.index()] += m;
        }
        let support: Vec<(ConstraintId, f64)> = (0..self.num_rows)
            .filter(|&r| y[r].abs() > TOL)
            .map(|r| (ConstraintId(r), y[r]))
            .collect();
        GraphInfeasibility { y, rows: support }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{LinExpr, Problem, Status};
    use proptest::prelude::*;

    impl DifferenceSystem {
        /// Test oracle: textbook Bellman–Ford with the production labels
        /// and strict-improvement test, which scans every arc in CSR order
        /// on each of up to `V` passes and reports a negative cycle only
        /// when an arc still relaxes on the last one. `None` means a
        /// negative cycle.
        fn bellman_ford_plain(&self, lambda: f64) -> Option<Vec<f64>> {
            let n = self.num_nodes + 1;
            let mut dist = vec![0.0f64; n];
            for _ in 0..n {
                let mut relaxed = false;
                for a in (0..self.graph.num_arcs()).map(|k| self.graph.arc(k)) {
                    let w = a.base + a.slope * lambda;
                    let cand = dist[a.from] + w;
                    if cand < dist[a.to] - TOL * (1.0 + dist[a.to].abs().max(w.abs())) {
                        dist[a.to] = cand;
                        relaxed = true;
                    }
                }
                if !relaxed {
                    let o = dist[self.num_nodes];
                    return Some(dist[..self.num_nodes].iter().map(|d| d - o).collect());
                }
            }
            None
        }

        /// Test oracle for [`DifferenceSystem::summarize`]: the quadratic
        /// merge, which searches the rows found so far for each arc's row.
        fn summarize_quadratic(&self, cycle: &[usize]) -> NegativeCycle {
            let mut rows: Vec<(ConstraintId, f64)> = Vec::new();
            let (mut base, mut slope) = (0.0, 0.0);
            for &idx in cycle {
                let a = self.graph.arc(idx);
                base += a.base;
                slope += a.slope;
                if let ArcSource::Row { c, sign } = a.tag {
                    if let Some(e) = rows.iter_mut().find(|(rc, _)| *rc == c) {
                        e.1 += sign;
                    } else {
                        rows.push((c, sign));
                    }
                }
            }
            rows.retain(|(_, m)| m.abs() > TOL);
            NegativeCycle { base, slope, rows }
        }
    }

    /// A random difference system over `nodes` free variables and a
    /// parameter: rows `x_i − x_j ≤ base / denom + slope·λ` with integer
    /// `base` and `slope ∈ {0, 1}`. With `denom = 1` every cycle weight at
    /// an integer `λ` is an integer; with `denom = 10` it is a multiple of
    /// 0.1 up to rounding. Either way no verdict sits within the
    /// tolerance of zero.
    fn random_system(
        nodes: usize,
        rows: &[(usize, usize, i32, bool)],
        denom: i32,
    ) -> DifferenceSystem {
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        let x: Vec<VarId> = (0..nodes)
            .map(|i| p.add_free_var(format!("x{i}")))
            .collect();
        for &(i, j, base, sloped) in rows {
            let (i, j) = (i % nodes, j % nodes);
            if i == j {
                continue;
            }
            let mut expr = x[i] - x[j];
            if sloped {
                expr = expr - LinExpr::from(tc);
            }
            p.constrain(expr, Sense::Le, f64::from(base) / f64::from(denom));
        }
        p.minimize(tc.into());
        let mut images = vec![VarImage::Param];
        images.extend((0..nodes).map(VarImage::Node));
        let cls = classify(&p, &images).unwrap();
        DifferenceSystem::build(&p, &images, &cls).unwrap()
    }

    /// Compares the search with the textbook oracle at `λ`: the verdicts
    /// match and every reported cycle is negative. Feasible labels match
    /// bit for bit when `exact`, and otherwise within the slack the
    /// strict-improvement test allows along a shortest path: at most `V`
    /// skipped improvements of `TOL·(1 + M)` each, `M` bounding every
    /// label and arc weight.
    fn check_against_oracle(
        sys: &DifferenceSystem,
        lambda: f64,
        exact: bool,
    ) -> Result<(), TestCaseError> {
        let fast = sys.feasible_at(lambda, &SolveBudget::UNLIMITED).unwrap();
        match (fast, sys.bellman_ford_plain(lambda)) {
            (FixedParamOutcome::Feasible { potentials }, Some(oracle)) => {
                if exact {
                    prop_assert_eq!(potentials, oracle);
                } else {
                    let g = &sys.graph;
                    let m = (0..g.num_arcs())
                        .map(|k| g.arc(k))
                        .map(|a| (a.base + a.slope * lambda).abs())
                        .chain(potentials.iter().chain(&oracle).map(|d| d.abs()))
                        .fold(0.0, f64::max);
                    let bound = g.num_nodes() as f64 * TOL * (1.0 + m);
                    for (i, (d, o)) in potentials.iter().zip(&oracle).enumerate() {
                        prop_assert!((d - o).abs() <= bound, "node {i}: {d} vs oracle {o}");
                    }
                }
            }
            (FixedParamOutcome::NegativeCycle(cycle), None) => {
                prop_assert!(cycle.weight_at(lambda) < 0.0, "cycle is not negative");
            }
            (fast, oracle) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts differ at λ = {lambda}: {fast:?} vs oracle {oracle:?}"
                )));
            }
        }
        Ok(())
    }

    proptest! {
        /// The label-correcting search reaches the textbook verdict: on
        /// small integer-weighted systems its feasible labels equal the
        /// plain `V`-pass oracle's bit for bit, and every reported cycle is
        /// negative.
        #[test]
        fn prop_early_exit_matches_plain_bellman_ford(
            nodes in 2usize..12,
            rows in proptest::collection::vec(
                (0usize..12, 0usize..12, -20i32..30, proptest::bool::ANY),
                1..40,
            ),
            lambda in 0i32..40,
        ) {
            let sys = random_system(nodes, &rows, 1);
            check_against_oracle(&sys, f64::from(lambda), true)?;
        }

        /// The same on systems of 100–160 nodes with fractional weights
        /// (tenths), where the two relaxation orders may round labels
        /// differently: verdicts match, labels agree within the
        /// tolerance-scaled bound, and every reported cycle is negative.
        #[test]
        fn prop_early_exit_matches_plain_bellman_ford_on_large_fractional_systems(
            nodes in 100usize..160,
            rows in proptest::collection::vec(
                (0usize..160, 0usize..160, -80i32..300, proptest::bool::ANY),
                100..400,
            ),
            lambda in 0i32..40,
        ) {
            let sys = random_system(nodes, &rows, 10);
            check_against_oracle(&sys, f64::from(lambda), false)?;
        }

        /// `summarize` merges rows exactly as the quadratic oracle does:
        /// the same rows in the same order, bit-identical multipliers and
        /// weights, on arc walks that revisit rows many times (a few rows,
        /// long walks) and on walks over many rows.
        #[test]
        fn prop_summarize_matches_the_quadratic_merge(
            nodes in 2usize..40,
            rows in proptest::collection::vec(
                (0usize..40, 0usize..40, -20i32..30, proptest::bool::ANY),
                1..60,
            ),
            walk in proptest::collection::vec(0usize..10_000, 0..300),
        ) {
            let sys = random_system(nodes, &rows, 10);
            let arcs = sys.graph.num_arcs();
            prop_assume!(arcs > 0);
            let cycle: Vec<usize> = walk.iter().map(|k| k % arcs).collect();
            let (fast, slow) = (sys.summarize(&cycle), sys.summarize_quadratic(&cycle));
            prop_assert_eq!(fast.rows, slow.rows);
            prop_assert_eq!(fast.base.to_bits(), slow.base.to_bits());
            prop_assert_eq!(fast.slope.to_bits(), slow.slope.to_bits());
        }
    }

    /// A 2000-node chain whose arcs are listed against its direction. A
    /// search that passes over the arc list in order lowers one more
    /// label per pass, so it needs `V` passes of `E` arc scans each; the
    /// FIFO search scans each node once per drop of its label.
    #[test]
    fn reversed_chain_scans_each_arc_a_bounded_number_of_times() {
        let n = 2000;
        let rows: Vec<_> = (0..n - 1).rev().map(|i| (i + 1, i, -1, false)).collect();
        let sys = random_system(n, &rows, 1);
        let e = sys.num_arcs();
        assert_eq!(e, n - 1);
        let mut search = Search::new(sys.graph.num_nodes());
        let mut passes = 0;
        let outcome = search
            .run(&sys.graph, 0.0, &SolveBudget::UNLIMITED, &mut passes)
            .unwrap();
        let SearchOutcome::Labels(labels) = outcome else {
            panic!("a chain has no cycle");
        };
        assert!(
            search.scanned <= 4 * e,
            "{} arc scans for {e} arcs in {passes} passes",
            search.scanned
        );
        for (i, &d) in labels[..n].iter().enumerate() {
            assert_eq!(d, -(i as f64), "node {i}");
        }
    }

    /// A 2-node ring with one λ-dependent arc: x_b − x_a ≤ −150 + λ and
    /// x_a − x_b ≤ 50 force λ ≥ 100.
    fn ring() -> (Problem, Vec<VarImage>) {
        let mut p = Problem::new();
        let tc = p.add_var("Tc"); // [0, ∞)
        let a = p.add_free_var("a");
        let b = p.add_free_var("b");
        p.constrain(b - a - LinExpr::from(tc), Sense::Le, -150.0);
        p.constrain(a - b, Sense::Le, 50.0);
        p.minimize(tc.into());
        let images = vec![VarImage::Param, VarImage::Node(0), VarImage::Node(1)];
        (p, images)
    }

    #[test]
    fn classifier_recognizes_shapes() {
        let (p, images) = ring();
        let cls = classify(&p, &images).unwrap();
        assert!(cls.is_pure());
        assert_eq!(cls.num_difference(), 2);
        match cls.class(ConstraintId(0)) {
            RowClass::Difference { i, j, bound } => {
                assert_eq!((i, j), (1, 0));
                assert_eq!(bound.base, -150.0);
                assert_eq!(bound.slope, 1.0);
            }
            other => panic!("unexpected class {other:?}"),
        }
    }

    #[test]
    fn classifier_flags_general_rows() {
        let (mut p, images) = ring();
        let a = VarId(1);
        p.constrain(2.0 * a, Sense::Le, 3.0);
        let cls = classify(&p, &images).unwrap();
        assert!(!cls.is_pure());
        assert_eq!(cls.num_general(), 1);
        assert_eq!(cls.general_rows(), vec![ConstraintId(2)]);
    }

    #[test]
    fn minimize_param_finds_exact_ratio() {
        let (p, images) = ring();
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Optimal {
                lambda,
                potentials,
                witness,
            } => {
                assert!((lambda - 100.0).abs() < 1e-6, "λ* = {lambda}");
                // Potentials satisfy both difference rows at λ*.
                let (a, b) = (potentials[0], potentials[1]);
                assert!(b - a <= -150.0 + lambda + 1e-6);
                assert!(a - b <= 50.0 + 1e-6);
                let w = witness.expect("cycle-bound optimum carries a witness");
                assert!((w.implied_lower() - 100.0).abs() < 1e-6);
                assert_eq!(w.rows().len(), 2);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // Agreement with the simplex on the same problem.
        let lp = p.solve().unwrap().into_optimal().unwrap();
        assert!((lp.objective() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn feasible_at_separates_the_threshold() {
        let (p, images) = ring();
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        assert!(matches!(
            sys.feasible_at(120.0, &SolveBudget::UNLIMITED).unwrap(),
            FixedParamOutcome::Feasible { .. }
        ));
        match sys.feasible_at(90.0, &SolveBudget::UNLIMITED).unwrap() {
            FixedParamOutcome::NegativeCycle(cyc) => {
                assert!(cyc.weight_at(90.0) < 0.0);
                assert_eq!(cyc.min_feasible_lambda().map(f64::round), Some(100.0));
            }
            FixedParamOutcome::Feasible { .. } => panic!("λ = 90 must be infeasible"),
        }
    }

    #[test]
    fn upper_bound_row_conflict_yields_checkable_certificate() {
        let (mut p, images) = ring();
        let tc = VarId(0);
        p.constrain(tc.into(), Sense::Le, 80.0); // λ ≤ 80 < λ* = 100
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Infeasible(cert) => {
                assert!(cert.check(&p), "certificate must verify independently");
                assert!(cert.rows().iter().any(|(c, _)| c.index() == 2));
                // The simplex agrees the model is infeasible.
                assert_eq!(p.solve().unwrap().status(), Status::Infeasible);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn slope_free_negative_cycle_is_infeasible_forever() {
        // x − y ≤ −1, y − x ≤ −1: classic 2-cycle with no parameter.
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        let x = p.add_free_var("x");
        let y = p.add_free_var("y");
        p.constrain(x - y, Sense::Le, -1.0);
        p.constrain(y - x, Sense::Le, -1.0);
        p.minimize(tc.into());
        let images = vec![VarImage::Param, VarImage::Node(0), VarImage::Node(1)];
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Infeasible(cert) => {
                assert!(cert.check(&p));
                assert_eq!(cert.rows().len(), 2);
                assert_eq!(p.solve().unwrap().status(), Status::Infeasible);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn row_lower_bound_witnesses_the_optimum_and_the_conflict() {
        // Tc ≥ 10 by a row. Feasible: the row is the witness. Add a cycle
        // whose weight 5 − Tc is negative above 5: the Farkas vector must
        // combine it with the bound row to cancel Tc.
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        let x = p.add_free_var("x");
        let y = p.add_free_var("y");
        p.constrain(tc.into(), Sense::Ge, 10.0);
        p.minimize(tc.into());
        let images = vec![VarImage::Param, VarImage::Node(0), VarImage::Node(1)];
        let solve = |p: &Problem| {
            let cls = classify(p, &images).unwrap();
            let sys = DifferenceSystem::build(p, &images, &cls).unwrap();
            sys.minimize_param(&SolveBudget::UNLIMITED).unwrap()
        };
        match solve(&p) {
            MinParamOutcome::Optimal {
                lambda, witness, ..
            } => {
                assert_eq!(lambda, 10.0);
                let w = witness.expect("the bound row witnesses Tc* = 10");
                assert_eq!(w.rows(), &[(ConstraintId(0), 1.0)]);
                assert_eq!((w.implied_lower(), w.slope()), (10.0, 1.0));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        p.constrain(LinExpr::from(x) - y + tc, Sense::Le, 5.0);
        p.constrain(LinExpr::from(y) - x, Sense::Le, 0.0);
        match solve(&p) {
            MinParamOutcome::Infeasible(cert) => {
                assert!(cert.check(&p));
                assert_eq!(cert.rows().len(), 3);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn eq_rows_and_bound_arcs_compose() {
        // A Diff-imaged variable w = x_1 − x_0 pinned by an Eq row, plus a
        // SingleVar cap on s; non-negativity enters as bound arcs.
        let mut p = Problem::new();
        let _tc = p.add_var("Tc");
        let w = p.add_var("w"); // [0, ∞), image Diff(1, 0)
        let s = p.add_var("s"); // [0, ∞), image Node(0)
        p.constrain(w.into(), Sense::Eq, 5.0);
        p.constrain(s.into(), Sense::Le, 3.0);
        p.minimize(LinExpr::from(VarId(0)));
        let images = vec![VarImage::Param, VarImage::Diff(1, 0), VarImage::Node(0)];
        let cls = classify(&p, &images).unwrap();
        assert_eq!(cls.num_difference(), 1); // the Eq row, via w's image
        assert_eq!(cls.num_single_var(), 1);
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.feasible_at(0.0, &SolveBudget::UNLIMITED).unwrap() {
            FixedParamOutcome::Feasible { potentials } => {
                let wv = potentials[1] - potentials[0];
                assert!((wv - 5.0).abs() < 1e-6, "w = {wv}");
                assert!(potentials[0] <= 3.0 + 1e-6);
                assert!(potentials[0] >= -1e-6, "s ≥ 0 bound arc");
            }
            FixedParamOutcome::NegativeCycle(_) => panic!("system is feasible"),
        }
    }

    #[test]
    fn param_only_interval_conflict_certifies() {
        // Tc ≥ 10 and Tc ≤ 4 as rows: empty interval.
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        p.constrain(tc.into(), Sense::Ge, 10.0);
        p.constrain(tc.into(), Sense::Le, 4.0);
        p.minimize(tc.into());
        let images = vec![VarImage::Param];
        let cls = classify(&p, &images).unwrap();
        assert_eq!(cls.num_param_bound(), 2);
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Infeasible(cert) => assert!(cert.check(&p)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
