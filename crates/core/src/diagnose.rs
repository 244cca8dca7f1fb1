//! Infeasibility diagnosis: *why* is there no feasible clock schedule?
//!
//! A plain SMO model (problem **P2**) is always feasible — a large enough
//! `T_c` satisfies everything — so infeasibility only arises when extras
//! over-constrain it: a fixed or capped cycle time, minimum phase widths,
//! separations, pinned departures (§III-A extras). When that happens this
//! module turns the solver's answer into an explanation in the paper's
//! own vocabulary:
//!
//! 1. the solver's Farkas certificate is re-verified against the model
//!    ([`smo_lp::certifies_infeasibility`]), giving a machine-checked proof
//!    that no schedule exists. On a pure difference model it is the
//!    graph's negative constraint cycle (with the cap, or the cycle that
//!    forced `T_c` up, where one is needed), otherwise the simplex's
//!    phase-1 duals;
//! 2. an irreducible infeasible subsystem is extracted — a minimal set of
//!    rows that conflict — by the deletion filter over the certificate's
//!    rows ([`smo_lp::extract_graph_iis`] on the graph,
//!    [`smo_lp::extract_iis`] on the simplex);
//! 3. each IIS row is mapped back through the [`TimingModel`]'s provenance
//!    records ([`ConstraintInfo`]) to the C1–C3 / L1 / L2R constraint of
//!    the paper it encodes, named after the latches and phases involved.
//!
//! The result is a [`Diagnosis`]: the optimum when a schedule exists,
//! otherwise an [`InfeasibilityReport`] that renders both as prose
//! (`Display`) and as JSON ([`InfeasibilityReport::to_json`]).

use crate::error::TimingError;
use crate::fastpath::{self, Graph, Route};
use crate::model::{ConstraintInfo, ConstraintKind, TimingModel};
use smo_circuit::json::Json;
use smo_circuit::{Circuit, SyncKind};
use smo_lp::{
    certifies_infeasibility, extract_graph_iis, extract_iis, ConstraintId, Iis, Problem, Sense,
    Status,
};
use std::fmt;

/// The outcome of [`diagnose_model`].
#[derive(Debug, Clone, PartialEq)]
pub enum Diagnosis {
    /// A schedule exists; `min_cycle` is the optimal cycle time under the
    /// options used (i.e. the smallest feasible `T_c`).
    Feasible {
        /// Optimal cycle time.
        min_cycle: f64,
    },
    /// No schedule exists; the report names the conflicting constraints.
    Infeasible(InfeasibilityReport),
}

impl Diagnosis {
    /// `true` for the [`Diagnosis::Feasible`] arm.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Diagnosis::Feasible { .. })
    }

    /// The infeasibility report, if any.
    pub fn report(&self) -> Option<&InfeasibilityReport> {
        match self {
            Diagnosis::Feasible { .. } => None,
            Diagnosis::Infeasible(r) => Some(r),
        }
    }

    /// The diagnosis as JSON: the minimum cycle time when feasible,
    /// otherwise [`InfeasibilityReport::json`].
    pub fn json(&self) -> Json {
        match self {
            Diagnosis::Feasible { min_cycle } => Json::obj([
                ("feasible", true.into()),
                ("min_cycle", Json::six_decimals(*min_cycle)),
            ]),
            Diagnosis::Infeasible(r) => r.json(),
        }
    }

    /// [`Diagnosis::json`], spaced (see [`Json::render_spaced`]).
    pub fn to_json(&self) -> String {
        self.json().render_spaced()
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnosis::Feasible { min_cycle } => {
                write!(f, "feasible: minimum cycle time {min_cycle:.6}")
            }
            Diagnosis::Infeasible(r) => write!(f, "{r}"),
        }
    }
}

/// One member of an irreducible infeasible subsystem, mapped back to the
/// SMO constraint it encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosedConstraint {
    /// The LP row (index into the model's constraint registry).
    pub row: ConstraintId,
    /// Constraint category.
    pub kind: ConstraintKind,
    /// The paper's label for the constraint family, e.g. `"C3 (eq. 6)"`,
    /// `"L1 (eq. 16)"`, or `"extra"` for rows beyond the paper's minimum
    /// set (cycle bounds, minimum widths, …).
    pub label: String,
    /// Circuit-level description naming the latches/phases involved, e.g.
    /// `` "setup of latch `L2` on φ2" ``.
    pub detail: String,
    /// The LP row itself, rendered with variable names, e.g.
    /// `"D2 - T2 <= -10"`.
    pub relation: String,
}

impl fmt::Display for DiagnosedConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.label, self.detail, self.relation)
    }
}

/// The answer to "why is there no feasible schedule?": an irreducible
/// infeasible subsystem of the timing constraints, in paper vocabulary.
///
/// Produced by [`diagnose_model`]. The member list is minimal by
/// construction of the deletion filter: the members are jointly
/// infeasible, and removing any single one leaves a feasible remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct InfeasibilityReport {
    /// The conflicting constraints (the IIS), in row order.
    pub constraints: Vec<DiagnosedConstraint>,
    /// `true` when the solver's Farkas certificate was independently
    /// re-verified against the model, making the infeasibility a
    /// machine-checked proof rather than a solver claim.
    pub certified: bool,
    /// Total rows in the model the conflict was extracted from.
    pub total_rows: usize,
    /// The cycle-time restriction in force when the model was built
    /// (`fixed_cycle` or `max_cycle`), if any.
    pub cycle_limit: Option<f64>,
}

impl InfeasibilityReport {
    /// The IIS member rows, for cross-checking against
    /// [`TimingModel::constraints`].
    pub fn rows(&self) -> Vec<ConstraintId> {
        self.constraints.iter().map(|c| c.row).collect()
    }

    /// `true` if the IIS involves a constraint of the given kind.
    pub fn involves(&self, kind: ConstraintKind) -> bool {
        self.constraints.iter().any(|c| c.kind == kind)
    }

    /// The report as JSON.
    ///
    /// Shape:
    ///
    /// ```json
    /// {
    ///   "feasible": false,
    ///   "certified": true,
    ///   "cycle_limit": 100,
    ///   "total_rows": 24,
    ///   "iis": [
    ///     {"row": 7, "kind": "latch setup", "label": "L1 (eq. 16)",
    ///      "detail": "setup of latch `L2` on φ2", "relation": "D2 - T2 <= -10"}
    ///   ]
    /// }
    /// ```
    pub fn json(&self) -> Json {
        let iis = self.constraints.iter().map(|c| {
            Json::obj([
                ("row", c.row.index().into()),
                ("kind", c.kind.to_string().into()),
                ("label", c.label.as_str().into()),
                ("detail", c.detail.as_str().into()),
                ("relation", c.relation.as_str().into()),
            ])
        });
        Json::obj([
            ("feasible", false.into()),
            ("certified", self.certified.into()),
            ("cycle_limit", self.cycle_limit.into()),
            ("total_rows", self.total_rows.into()),
            ("iis", iis.collect()),
        ])
    }

    /// [`InfeasibilityReport::json`], spaced (see [`Json::render_spaced`]).
    pub fn to_json(&self) -> String {
        self.json().render_spaced()
    }
}

impl fmt::Display for InfeasibilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cycle_limit {
            Some(t) => writeln!(f, "no feasible clock schedule at cycle time {t}")?,
            None => writeln!(f, "no feasible clock schedule exists")?,
        }
        writeln!(
            f,
            "the conflict reduces to {} of {} constraint(s){}:",
            self.constraints.len(),
            self.total_rows,
            if self.certified {
                " (Farkas-certified)"
            } else {
                ""
            }
        )?;
        for (i, c) in self.constraints.iter().enumerate() {
            writeln!(f, "  {}. {c}", i + 1)?;
        }
        write!(
            f,
            "relaxing any single constraint above makes the rest feasible"
        )
    }
}

/// Renders one LP row with its variable names: `"D2 - T2 <= -10"`.
fn render_row(p: &Problem, row: ConstraintId) -> String {
    let (expr, sense, rhs) = p.constraint(row);
    let mut s = String::new();
    for &(v, c) in expr {
        if s.is_empty() {
            if c < 0.0 {
                s.push('-');
            }
        } else if c < 0.0 {
            s.push_str(" - ");
        } else {
            s.push_str(" + ");
        }
        let mag = c.abs();
        if (mag - 1.0).abs() > 1e-12 {
            s.push_str(&format!("{mag}·"));
        }
        s.push_str(p.var_name(v));
    }
    if s.is_empty() {
        s.push('0');
    }
    format!("{s} {sense} {rhs}")
}

/// Maps one provenance record to its paper-level description.
pub(crate) fn describe(
    circuit: &Circuit,
    model: &TimingModel,
    info: &ConstraintInfo,
) -> DiagnosedConstraint {
    let p = model.problem();
    let name = |id| format!("`{}`", circuit.sync(id).name);
    let phase = |i| {
        info.phase(i)
            .expect("clock, latch and edge rows carry their phases")
    };
    let (label, detail) = match info.kind() {
        ConstraintKind::PeriodicityWidth => (
            "C1 (eq. 3)".to_string(),
            format!("phase width of {} fits in the cycle", phase(0)),
        ),
        ConstraintKind::PeriodicityStart => (
            "C1 (eq. 4)".to_string(),
            format!("phase start of {} fits in the cycle", phase(0)),
        ),
        ConstraintKind::PhaseOrder => (
            "C2 (eq. 5)".to_string(),
            format!("{} starts no later than {}", phase(0), phase(1)),
        ),
        ConstraintKind::PhaseNonoverlap => (
            "C3 (eq. 6)".to_string(),
            format!("{} closes before {} opens", phase(1), phase(0)),
        ),
        ConstraintKind::Setup => {
            let id = info.latch().expect("setup rows carry a latch");
            (
                "L1 (eq. 16)".to_string(),
                format!("setup of latch {} ({}) on {}", name(id), id, phase(0)),
            )
        }
        ConstraintKind::FlipFlopSetup => {
            let id = info.latch().expect("ff-setup rows carry a latch");
            let e = circuit.edge(info.edge().expect("ff-setup rows carry an edge"));
            (
                "L1/FF".to_string(),
                format!(
                    "setup at flip-flop {} for path {} → {} ({} → {})",
                    name(id),
                    name(e.from),
                    name(e.to),
                    phase(0),
                    phase(1),
                ),
            )
        }
        ConstraintKind::Propagation => {
            let e = circuit.edge(info.edge().expect("propagation rows carry an edge"));
            (
                "L2R (eq. 19)".to_string(),
                format!(
                    "propagation {} → {} (Δ = {}) across {} → {}",
                    name(e.from),
                    name(e.to),
                    e.max_delay,
                    phase(0),
                    phase(1),
                ),
            )
        }
        ConstraintKind::FlipFlopDeparture => {
            let id = info.latch().expect("ff-departure rows carry a latch");
            (
                "FF departure".to_string(),
                format!(
                    "departure of flip-flop {} pinned to the {} edge",
                    name(id),
                    phase(0)
                ),
            )
        }
        ConstraintKind::MinWidth => {
            let (_, _, rhs) = p.constraint(info.row());
            (
                "extra".to_string(),
                format!("minimum width of {} (≥ {rhs})", phase(0)),
            )
        }
        ConstraintKind::CycleBound => {
            let (_, sense, rhs) = p.constraint(info.row());
            let what = match sense {
                Sense::Eq => format!("cycle time fixed at {rhs}"),
                _ => format!("cycle time capped at {rhs}"),
            };
            ("extra".to_string(), what)
        }
        ConstraintKind::SymmetricClock => (
            "extra".to_string(),
            format!("symmetric-clock shape of {}", phase(0)),
        ),
        ConstraintKind::PinnedDeparture => {
            let id = info.latch().expect("pinned rows carry a latch");
            let s = circuit.sync(id);
            let kind = if s.kind == SyncKind::Latch {
                "latch"
            } else {
                "flip-flop"
            };
            (
                "extra".to_string(),
                format!("departure of {kind} {} pinned (no borrowing)", name(id)),
            )
        }
    };
    DiagnosedConstraint {
        row: info.row(),
        kind: info.kind(),
        label,
        detail,
        relation: render_row(p, info.row()),
    }
}

/// Diagnoses `model`: its optimal cycle time, or why it admits no
/// feasible clock schedule.
///
/// A pure difference model takes one graph solve; any other model, or a
/// graph answer that fails its checks, one simplex solve: the rule of the
/// `auto` backend. Every IIS row
/// is mapped back through the model's provenance records to the paper's
/// constraint names.
///
/// `circuit` must be the circuit `model` was built from (it supplies the
/// latch names for the descriptions).
///
/// # Errors
///
/// Propagates LP solver failures ([`TimingError::Lp`]) and maps an
/// unbounded LP to [`TimingError::Unbounded`] (a modelling error: the
/// cycle-time objective is bounded below in every well-formed model).
pub fn diagnose_model(circuit: &Circuit, model: &TimingModel) -> Result<Diagnosis, TimingError> {
    let p = model.problem();
    let graph = fastpath::auto(circuit, model, &Route::auto(false), |o| Ok(o.tc))?;
    match graph {
        Graph::Optimal(min_cycle) => return Ok(Diagnosis::Feasible { min_cycle }),
        Graph::Infeasible(cert) => {
            let images = fastpath::variable_images(circuit, model);
            if let Ok(Some(iis)) = extract_graph_iis(p, &images, &cert) {
                return Ok(Diagnosis::Infeasible(report(circuit, model, &iis, true)));
            }
        }
        Graph::Undecided => {}
    }
    let sol = p.solve()?;
    match sol.status() {
        Status::Optimal => {
            let min_cycle = sol.into_optimal()?.objective();
            return Ok(Diagnosis::Feasible { min_cycle });
        }
        Status::Unbounded => return Err(TimingError::Unbounded),
        Status::Infeasible => {}
    }
    let certified = sol.farkas().is_some_and(|y| certifies_infeasibility(p, y));
    let Some(iis) = extract_iis(p)? else {
        // The deletion filter re-solves reduced models; on a marginally
        // infeasible system round-off can flip one of them feasible and
        // leave no IIS even though the full solve said Infeasible.
        return Err(TimingError::Lp(smo_lp::LpError::Numerical {
            context: "infeasible model yielded no irreducible subsystem".into(),
        }));
    };
    Ok(Diagnosis::Infeasible(report(
        circuit, model, &iis, certified,
    )))
}

/// The report for an IIS of `model`.
fn report(
    circuit: &Circuit,
    model: &TimingModel,
    iis: &Iis,
    certified: bool,
) -> InfeasibilityReport {
    let constraints = iis
        .rows()
        .iter()
        .map(|&row| {
            let info = &model.constraints()[row.index()];
            debug_assert_eq!(info.row(), row, "provenance registry is in row order");
            describe(circuit, model, info)
        })
        .collect();
    InfeasibilityReport {
        constraints,
        certified,
        total_rows: model.problem().num_constraints(),
        cycle_limit: model.options().fixed_cycle.or(model.options().max_cycle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ConstraintOptions;
    use smo_circuit::{CircuitBuilder, PhaseId};

    /// Two latches on a 2-phase clock with a long path between them.
    fn two_latch_loop() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", PhaseId::from_number(1), 2.0, 3.0);
        let l2 = b.add_latch("L2", PhaseId::from_number(2), 2.0, 3.0);
        b.connect(l1, l2, 20.0);
        b.connect(l2, l1, 20.0);
        b.build().unwrap()
    }

    #[test]
    fn feasible_models_yield_no_report() {
        let ckt = two_latch_loop();
        let model = TimingModel::build(&ckt).unwrap();
        assert!(diagnose_model(&ckt, &model).unwrap().is_feasible());
    }

    #[test]
    fn capped_cycle_is_diagnosed_with_paper_names() {
        let ckt = two_latch_loop();
        // The free optimum is > 40 (two 20-unit paths per cycle plus
        // overheads); cap far below it.
        let free = TimingModel::build(&ckt)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        let opts = ConstraintOptions {
            max_cycle: Some(0.5 * free),
            ..Default::default()
        };
        let model = TimingModel::build_with(&ckt, &opts).unwrap();
        let diagnosis = diagnose_model(&ckt, &model).unwrap();
        let report = diagnosis.report().expect("capped model is infeasible");
        assert!(report.certified, "Farkas certificate must verify");
        assert_eq!(report.cycle_limit, Some(0.5 * free));
        // The cap itself must be part of the conflict…
        assert!(report.involves(ConstraintKind::CycleBound));
        // …together with at least one latch-level constraint.
        assert!(
            report.involves(ConstraintKind::Setup) || report.involves(ConstraintKind::Propagation)
        );
        let text = report.to_string();
        assert!(text.contains("no feasible clock schedule at cycle time"));
        assert!(text.contains("cycle time capped at"));
        assert!(text.contains("`L1`") || text.contains("`L2`"));
        assert!(text.contains('φ'));
        // IIS minimality: drop any member, remainder is feasible.
        let p = model.problem();
        let rows = report.rows();
        assert_eq!(
            p.restricted(&rows).solve().unwrap().status(),
            Status::Infeasible
        );
        for i in 0..rows.len() {
            let mut rest = rows.clone();
            rest.remove(i);
            assert_ne!(
                p.restricted(&rest).solve().unwrap().status(),
                Status::Infeasible,
                "IIS member {i} is redundant"
            );
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let ckt = two_latch_loop();
        let opts = ConstraintOptions {
            fixed_cycle: Some(1.0),
            ..Default::default()
        };
        let model = TimingModel::build_with(&ckt, &opts).unwrap();
        let diagnosis = diagnose_model(&ckt, &model).unwrap();
        let report = diagnosis.report().unwrap();
        // The spaced text parses back to the value the daemon renders.
        let json = Json::parse(&report.to_json()).unwrap();
        assert_eq!(json, report.json());
        assert_eq!(json.get("feasible"), Some(&Json::Bool(false)));
        assert_eq!(json.get("cycle_limit"), Some(&Json::Num(1.0)));
        let iis = json.get("iis").and_then(Json::as_arr).unwrap();
        assert_eq!(iis.len(), report.constraints.len());
        assert!(!iis.is_empty());
    }
}
