//! Critical-segment analysis.
//!
//! The paper observes (§V, Example 2 discussion) that in latch-controlled
//! circuits "the notion of a critical path is clearly inadequate … the
//! circuit has several critical combinational delay *segments* which may be
//! disjoint. The criticality of these segments … [is] directly related to
//! associated slack variables in the inequality constraints."
//!
//! This module reads exactly that off the solve that proves `T_c*` (the
//! oracle behind [`delay_sensitivities`](crate::delay_sensitivities)): an
//! edge (or setup requirement) is *critical* when its row moves `T_c*`,
//! and the rate is its sensitivity `dT_c*/dΔ`. On a pure difference model
//! those rows are the critical cycle that certifies the graph optimum, so
//! the critical edges are that cycle's edges; where several loops tie,
//! it names one of them. On a mixed model they are the rows with a
//! non-zero simplex dual (binding rows, by complementary slackness), and
//! a tie can show up as several disjoint segments at once. Maximal chains
//! of consecutive critical edges are grouped into segments.

use crate::error::TimingError;
use crate::model::{ConstraintKind, TimingModel};
use crate::sensitivity::Support;
use smo_circuit::{Circuit, EdgeId, LatchId};
use std::fmt;

/// One critical combinational edge with its sensitivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalEdge {
    /// The edge.
    pub edge: EdgeId,
    /// `d T_c / d Δ` for this edge's delay; `0 < sensitivity ≤ 1`.
    pub sensitivity: f64,
}

/// A maximal chain of consecutive critical edges.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalSegment {
    /// The edges of the segment, in signal-flow order.
    pub edges: Vec<EdgeId>,
}

/// Result of [`critical_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalReport {
    /// All critical edges with sensitivities, sorted by decreasing
    /// sensitivity.
    pub edges: Vec<CriticalEdge>,
    /// Synchronizers whose setup constraint moves `T_c*`, in row order.
    pub setup_critical: Vec<LatchId>,
    /// Maximal chains of consecutive critical edges.
    pub segments: Vec<CriticalSegment>,
}

impl CriticalReport {
    /// `true` iff `edge` appears among the critical edges.
    pub fn is_edge_critical(&self, edge: EdgeId) -> bool {
        self.edges.iter().any(|c| c.edge == edge)
    }
}

impl fmt::Display for CriticalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "critical edges ({}):", self.edges.len())?;
        for c in &self.edges {
            writeln!(
                f,
                "  edge #{}  dTc/dΔ = {:.4}",
                c.edge.index(),
                c.sensitivity
            )?;
        }
        writeln!(f, "setup-critical synchronizers:")?;
        for l in &self.setup_critical {
            writeln!(f, "  {l}")?;
        }
        writeln!(f, "segments ({}):", self.segments.len())?;
        for (i, s) in self.segments.iter().enumerate() {
            write!(f, "  segment {i}:")?;
            for e in &s.edges {
                write!(f, " #{}", e.index())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Solves the model the way the `auto` backend does and classifies
/// critical edges, setup constraints and segments.
///
/// # Errors
///
/// Propagates solver failures, and [`TimingError::Infeasible`] when no
/// schedule exists.
pub fn critical_report(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<CriticalReport, TimingError> {
    let support = Support::solve(circuit, model)?;
    let mut edges: Vec<CriticalEdge> = support
        .edge_slopes(model, circuit.num_edges())
        .into_iter()
        .enumerate()
        .filter(|&(_, sensitivity)| sensitivity != 0.0)
        .map(|(i, sensitivity)| CriticalEdge {
            edge: EdgeId::new(i),
            sensitivity,
        })
        .collect();
    edges.sort_by(|a, b| {
        b.sensitivity
            .total_cmp(&a.sensitivity)
            .then(a.edge.cmp(&b.edge))
    });
    let mut setup = support.rows.clone();
    setup.sort_by_key(|&(row, _)| row);
    let setup_critical = setup
        .iter()
        // Rows a caller added to the model carry no provenance.
        .filter_map(|&(row, v)| Some((model.constraints().get(row.index())?, v)))
        .filter(|&(info, v)| v != 0.0 && info.kind == ConstraintKind::Setup)
        .filter_map(|(info, _)| info.latch)
        .collect();

    let segments = chain_segments(circuit, &edges);
    Ok(CriticalReport {
        edges,
        setup_critical,
        segments,
    })
}

/// Groups critical edges into maximal head-to-tail chains.
fn chain_segments(circuit: &Circuit, critical: &[CriticalEdge]) -> Vec<CriticalSegment> {
    use std::collections::{HashMap, HashSet};
    let set: HashSet<EdgeId> = critical.iter().map(|c| c.edge).collect();
    // successor map: edge -> a critical edge starting where it ends
    let mut by_source: HashMap<LatchId, Vec<EdgeId>> = HashMap::new();
    for &e in &set {
        by_source.entry(circuit.edge(e).from).or_default().push(e);
    }
    // heads: critical edges whose source latch has no incoming critical edge
    let targets: HashSet<LatchId> = set.iter().map(|&e| circuit.edge(e).to).collect();
    let mut heads: Vec<EdgeId> = set
        .iter()
        .copied()
        .filter(|&e| !targets.contains(&circuit.edge(e).from))
        .collect();
    heads.sort();

    let mut segments = Vec::new();
    let mut used: HashSet<EdgeId> = HashSet::new();
    let grow = |start: EdgeId, used: &mut HashSet<EdgeId>| {
        let mut chain = vec![start];
        used.insert(start);
        let mut cursor = circuit.edge(start).to;
        while let Some(nexts) = by_source.get(&cursor) {
            // follow an unused successor; stop at branches deterministically
            let Some(&next) = nexts.iter().find(|e| !used.contains(e)) else {
                break;
            };
            chain.push(next);
            used.insert(next);
            cursor = circuit.edge(next).to;
        }
        CriticalSegment { edges: chain }
    };
    for h in heads {
        if !used.contains(&h) {
            segments.push(grow(h, &mut used));
        }
    }
    // edges on pure cycles (no head) — start anywhere deterministic
    let mut rest: Vec<EdgeId> = set.difference(&used).copied().collect();
    rest.sort();
    for e in rest {
        if !used.contains(&e) {
            segments.push(grow(e, &mut used));
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TimingModel;
    use smo_gen::paper::example1;

    #[test]
    fn borrowing_region_has_half_sensitivity() {
        // On Fig. 7's middle segment (20 ≤ Δ41 ≤ 100) the slope is ½: the
        // added delay is shared between the two cycles.
        let c = example1(60.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let eid = c.fanout(c.find("L4").unwrap())[0];
        let ce = report
            .edges
            .iter()
            .find(|e| e.edge == eid)
            .expect("Δ41 edge should be critical in the borrowing region");
        assert!(
            (ce.sensitivity - 0.5).abs() < 1e-6,
            "sensitivity = {}",
            ce.sensitivity
        );
    }

    #[test]
    fn direct_region_has_unit_sensitivity() {
        // Beyond Δ41 = 100 the slope is 1 (no more sharing).
        let c = example1(120.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let eid = c.fanout(c.find("L4").unwrap())[0];
        let ce = report.edges.iter().find(|e| e.edge == eid).unwrap();
        assert!(
            (ce.sensitivity - 1.0).abs() < 1e-6,
            "sensitivity = {}",
            ce.sensitivity
        );
    }

    #[test]
    fn flat_region_leaves_delta41_noncritical() {
        // For Δ41 < 20 the optimum is set elsewhere (Fig. 7 flat part).
        let c = example1(10.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let eid = c.fanout(c.find("L4").unwrap())[0];
        assert!(!report.is_edge_critical(eid), "report: {report}");
    }

    #[test]
    fn segments_chain_consecutive_edges() {
        // In the borrowing region the whole loop is critical → one segment
        // containing all four edges (a cycle).
        let c = example1(60.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let total: usize = report.segments.iter().map(|s| s.edges.len()).sum();
        assert_eq!(
            total,
            report.edges.len(),
            "every critical edge lies in exactly one segment"
        );
        assert!(!report.segments.is_empty());
    }

    #[test]
    fn display_is_informative() {
        let c = example1(60.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let s = report.to_string();
        assert!(s.contains("critical edges"));
        assert!(s.contains("segments"));
    }
}
