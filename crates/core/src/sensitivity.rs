//! Delay-sensitivity analysis at the timing level.
//!
//! §VI of the paper: "We also intend to use parametric programming
//! techniques to quantify the notion of critical path segments and to study
//! the effects on the optimal cycle time of varying the circuit delays."
//! This module packages both:
//!
//! * [`delay_sensitivities`] — `dT_c*/dΔ` for *every* edge at once, from
//!   one solve (zero for non-critical edges);
//! * [`cycle_time_curve`] — the exact piecewise-linear `T_c*(Δ_e)` for one
//!   edge over a delay range (this is how `fig7_sweep` recovers the
//!   breakpoints of Fig. 7 exactly).
//!
//! Both, and [`critical_report`](crate::critical_report), stand on one
//! oracle: solve the model the way the `auto` backend
//! does, and read off `T_c*` together with a supporting line per edge.
//! On a pure difference model the line comes from the critical cycle
//! that proves the graph optimum ([`smo_lp::ParamLowerWitness`]): `T_c*` is that
//! cycle's ratio, so a witness row with multiplier `m` on a cycle of
//! `Σ slope` moves `T_c*` by `m/Σ slope` per unit of its right-hand side.
//! On a mixed model the line is the simplex dual of the edge's row.
//!
//! `T_c*(Δ_e)` is the maximum of the critical-cycle lines in `Δ_e` (or, on
//! a mixed model, an LP optimum as a function of one right-hand side), so
//! it is convex and piecewise linear, and every oracle line supports it.
//! [`cycle_time_curve`] recovers it with the Eisner–Severance scheme:
//! solve at both ends of an interval, solve again where their lines
//! cross; if `T_c*` there lies on the lines the crossing is a breakpoint,
//! otherwise the new line splits the interval. `k` breakpoints cost
//! `2k + 1` solves.

use crate::error::TimingError;
use crate::fastpath;
use crate::model::{ConstraintKind, TimingModel};
use smo_circuit::{Circuit, EdgeId};
use smo_lp::{ConstraintId, Tol, EPS};

/// `T_c*` of one model and `dT_c*/db_r` for the rows `r` whose right-hand
/// side `b_r` moves it (every other row's is zero).
pub(crate) struct Support {
    pub(crate) tc: f64,
    pub(crate) rows: Vec<(ConstraintId, f64)>,
}

impl Support {
    /// Solves `model` the way `auto` does: the graph min-ratio solve on a
    /// pure difference model, the sparse-LU simplex otherwise.
    pub(crate) fn solve(circuit: &Circuit, model: &TimingModel) -> Result<Support, TimingError> {
        if let Some((tc, witness)) = fastpath::min_cycle_ratio(circuit, model, false)? {
            let rows = witness.map_or_else(Vec::new, |w| {
                w.rows().iter().map(|&(c, m)| (c, m / w.slope())).collect()
            });
            return Ok(Support { tc, rows });
        }
        let sol = model.solve_lp()?;
        let rows = model
            .constraints()
            .iter()
            .map(|info| (info.row, sol.dual(info.row)))
            .filter(|&(_, y)| y != 0.0)
            .collect();
        Ok(Support {
            tc: sol.value(model.vars().tc()),
            rows,
        })
    }

    /// `dT_c*/dΔ` per edge, indexed by edge index (`num_edges` entries).
    pub(crate) fn edge_slopes(&self, model: &TimingModel, num_edges: usize) -> Vec<f64> {
        let mut out = vec![0.0; num_edges];
        for &(row, v) in &self.rows {
            let Some(info) = model.constraints().get(row.index()) else {
                continue;
            };
            if let (Some(edge), ConstraintKind::Propagation | ConstraintKind::FlipFlopSetup) =
                (info.edge, info.kind)
            {
                out[edge.index()] += model.delay_sign(row) * v;
            }
        }
        out
    }
}

/// `dT_c*/dΔ` per edge (indexed by edge index), from one solve.
///
/// Entries are in `[0, 1]` for circuits whose optimum is achieved (the
/// delay of an edge can be shared among at most one cycle's worth of
/// schedule per unit). Zero means the edge is not on the critical cycle
/// (on a mixed model: not on any binding segment). Where several loops
/// are critical at once the derivative does not exist, and the entries
/// are the slopes of one critical loop.
///
/// # Errors
///
/// Propagates solver failures, and [`TimingError::Infeasible`] when no
/// schedule exists.
///
/// # Examples
///
/// ```
/// use smo_core::{delay_sensitivities, TimingModel};
/// # fn main() -> Result<(), smo_core::TimingError> {
/// let circuit = smo_test_circuit();
/// let model = TimingModel::build(&circuit)?;
/// let sens = delay_sensitivities(&circuit, &model)?;
/// assert_eq!(sens.len(), circuit.num_edges());
/// # Ok(())
/// # }
/// # fn smo_test_circuit() -> smo_circuit::Circuit {
/// #     let mut b = smo_circuit::CircuitBuilder::new(2);
/// #     let p = smo_circuit::PhaseId::from_number;
/// #     let a = b.add_latch("A", p(1), 1.0, 1.0);
/// #     let c = b.add_latch("B", p(2), 1.0, 1.0);
/// #     b.connect(a, c, 5.0);
/// #     b.connect(c, a, 5.0);
/// #     b.build().unwrap()
/// # }
/// ```
pub fn delay_sensitivities(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Vec<f64>, TimingError> {
    Ok(Support::solve(circuit, model)?.edge_slopes(model, circuit.num_edges()))
}

/// One linear piece of a [`CycleTimeCurve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveSegment {
    /// Delay at the segment's start.
    pub lo: f64,
    /// Delay at the segment's end.
    pub hi: f64,
    /// `T_c*` at `lo`.
    pub tc_lo: f64,
    /// `dT_c*/dΔ` on the segment.
    pub slope: f64,
}

/// The exact `T_c*(Δ)` of one edge over `[0, max_delay]`: consecutive
/// linear pieces, each boundary between two of them a breakpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleTimeCurve {
    /// The pieces, in increasing delay, covering `[0, max_delay]`.
    pub segments: Vec<CurveSegment>,
}

impl CycleTimeCurve {
    /// `T_c*` at delay `delta`, or `None` outside the analysed range.
    pub fn objective_at(&self, delta: f64) -> Option<f64> {
        self.segments
            .iter()
            .find(|s| delta >= s.lo - EPS && delta <= s.hi + EPS)
            .map(|s| s.tc_lo + (delta - s.lo) * s.slope)
    }

    /// The interior breakpoints, where the slope changes.
    pub fn breakpoints(&self) -> Vec<f64> {
        self.segments.windows(2).map(|w| w[0].hi).collect()
    }

    /// Appends the piece of `line` over `[lo, hi]`: a zero-length last
    /// piece gives way to it, and a last piece of the same slope absorbs
    /// it.
    fn push(&mut self, line: &Line, lo: f64, hi: f64) {
        if self.segments.last().is_some_and(|last| last.hi <= last.lo) {
            self.segments.pop();
        }
        match self.segments.last_mut() {
            Some(last) if same_slope(last.slope, line.slope) => last.hi = hi,
            _ => self.segments.push(CurveSegment {
                lo,
                hi,
                tc_lo: line.value_at(lo),
                slope: line.slope,
            }),
        }
    }
}

fn same_slope(a: f64, b: f64) -> bool {
    Tol::TIGHT.eq(a, b)
}

/// A supporting line of `T_c*(Δ)`: its value and slope at one delay.
#[derive(Debug, Clone, Copy)]
struct Line {
    at: f64,
    tc: f64,
    slope: f64,
}

impl Line {
    fn value_at(&self, delta: f64) -> f64 {
        self.tc + self.slope * (delta - self.at)
    }

    fn intercept(&self) -> f64 {
        self.tc - self.slope * self.at
    }
}

/// The exact optimal cycle time `T_c*` as a piecewise-linear function of
/// one edge's delay, for delay ∈ `[0, max_delay]`.
///
/// The curve's parameter *is the edge delay itself* (not an offset from
/// the circuit's value). The model is solved the way `auto` solves it,
/// `2k + 1` times for `k` breakpoints (see the module docs).
///
/// # Errors
///
/// [`TimingError::InvalidOptions`] if the edge has no delay row or
/// `max_delay` is negative or not finite; otherwise propagates solver
/// failures, including [`TimingError::Infeasible`] at either end.
///
/// # Panics
///
/// Panics if `edge` does not belong to `circuit`.
pub fn cycle_time_curve(
    circuit: &Circuit,
    model: &TimingModel,
    edge: EdgeId,
    max_delay: f64,
) -> Result<CycleTimeCurve, TimingError> {
    if !max_delay.is_finite() || max_delay < 0.0 {
        return Err(TimingError::InvalidOptions {
            reason: format!("curve range must be finite and non-negative, got {max_delay}"),
        });
    }
    let mut model = model.clone();
    let row = model
        .edge_constraint(edge)
        .ok_or_else(|| TimingError::InvalidOptions {
            reason: format!("edge {edge:?} has no propagation or FF-setup row in this model"),
        })?;
    let sign = model.delay_sign(row);
    // The row's right-hand side with the edge's own delay taken out.
    let rhs0 = model.problem().constraint(row).2 - sign * circuit.edge(edge).max_delay;
    let mut probe = |delta: f64| -> Result<Line, TimingError> {
        model.problem_mut().set_rhs(row, rhs0 + sign * delta);
        let support = Support::solve(circuit, &model)?;
        Ok(Line {
            at: delta,
            tc: support.tc,
            slope: support.edge_slopes(&model, circuit.num_edges())[edge.index()],
        })
    };

    let mut curve = CycleTimeCurve {
        segments: Vec::new(),
    };
    let mut pending = vec![(probe(0.0)?, probe(max_delay)?)];
    while let Some((l, r)) = pending.pop() {
        if same_slope(l.slope, r.slope) {
            curve.push(&l, l.at, r.at);
            continue;
        }
        let x = ((l.intercept() - r.intercept()) / (r.slope - l.slope)).clamp(l.at, r.at);
        let mid = probe(x)?;
        // On the lines (or, numerically, sharing a slope with one of
        // them), the crossing is a breakpoint; above them, `mid` is a
        // third line strictly between the two.
        if Tol::TIGHT.le(mid.tc, l.value_at(x))
            || same_slope(mid.slope, l.slope)
            || same_slope(mid.slope, r.slope)
        {
            curve.push(&l, l.at, x);
            curve.push(&r, x, r.at);
        } else {
            // Left half first: pieces come out in increasing delay.
            pending.push((mid, r));
            pending.push((l, mid));
        }
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    use smo_gen::paper::example1;

    #[test]
    fn sensitivities_match_figure7_slopes() {
        for (d41, expect) in [(10.0, 0.0), (60.0, 0.5), (120.0, 1.0)] {
            let c = example1(d41);
            let m = TimingModel::build(&c).unwrap();
            let sens = delay_sensitivities(&c, &m).unwrap();
            assert!(
                (sens[3] - expect).abs() < 1e-6,
                "Δ41 = {d41}: dTc/dΔ = {}, expected {expect}",
                sens[3]
            );
        }
    }

    #[test]
    fn curve_recovers_figure7_exactly() {
        let c = example1(50.0); // base value irrelevant: the curve resets it
        let m = TimingModel::build(&c).unwrap();
        let curve = cycle_time_curve(&c, &m, smo_circuit::EdgeId::new(3), 140.0).unwrap();
        let bps = curve.breakpoints();
        assert_eq!(bps.len(), 2, "{curve:?}");
        assert!((bps[0] - 20.0).abs() < 1e-6);
        assert!((bps[1] - 100.0).abs() < 1e-6);
        // probe against direct solves
        for d in [0.0, 35.0, 100.0, 139.0] {
            let direct = crate::min_cycle_time(&example1(d)).unwrap().cycle_time();
            let para = curve.objective_at(d).unwrap();
            assert!((direct - para).abs() < 1e-6, "Δ = {d}: {para} vs {direct}");
        }
    }

    #[test]
    fn curve_works_for_flip_flop_setup_edges() {
        // FF pipeline: Tc = dq + Δ + setup, so the curve is the identity
        // plus the constant dq + setup = 3.
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(1), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        b.connect(f2, f1, 1.0);
        let c = b.build().unwrap();
        let m = TimingModel::build(&c).unwrap();
        let curve = cycle_time_curve(&c, &m, smo_circuit::EdgeId::new(0), 50.0).unwrap();
        for d in [5.0_f64, 20.0, 45.0] {
            let expect = (d + 3.0).max(1.0 + 3.0); // other edge floor
            assert!(
                (curve.objective_at(d).unwrap() - expect).abs() < 1e-6,
                "Δ = {d}"
            );
        }
    }

    #[test]
    fn all_sensitivities_lie_in_unit_interval() {
        let c = example1(75.0);
        let m = TimingModel::build(&c).unwrap();
        for s in delay_sensitivities(&c, &m).unwrap() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&s), "sensitivity {s}");
        }
    }
}
