//! # smo-core — the SMO timing engine
//!
//! Reproduction of the core contribution of Sakallah, Mudge & Olukotun,
//! *"Analysis and Design of Latch-Controlled Synchronous Digital Circuits"*:
//!
//! * **Constraint generation** ([`TimingModel`]) — the clock constraints
//!   C1–C4 and latch constraints L1/L2R/L3 of §III, built "almost by
//!   inspection" from a [`Circuit`](smo_circuit::Circuit), with provenance
//!   on every LP row.
//! * **The design problem** ([`min_cycle_time`]) — Algorithm MLP (§IV):
//!   solve the relaxed linear program P2, then slide the departure times to
//!   the nonlinear fixpoint. By Theorem 1 the resulting cycle time is the
//!   exact optimum of the nonlinear problem P1.
//! * **The analysis problem** ([`verify`]) — check a concrete clock schedule
//!   against the long-path constraints, with per-latch slack and
//!   positive-loop diagnosis.
//! * **Baselines** ([`baseline`]) — edge-triggered, symmetric-clock
//!   (NRIP-like) and single-borrow heuristics for the paper's comparisons.
//! * **Critical segments** ([`critical_report`]) — which combinational
//!   delays set the cycle time (§V), and at what rate: the rows of the
//!   critical cycle that proves `T_c*` (simplex duals on a mixed model).
//! * **Combinatorial bounds** ([`cycle_time_bounds`]) — a certified bracket
//!   `lower ≤ Tc* ≤ upper` from the latch graph alone: maximum-ratio
//!   critical cycles per SCC (the paper's "average delay around the loop",
//!   §V) against a feasible flip-flop-style schedule, no LP required.
//! * **Infeasibility diagnosis** ([`diagnose_model`]) — when extras
//!   (a capped cycle time, minimum widths, …) over-constrain the model, a
//!   Farkas-certified irreducible infeasible subsystem, seeded by the
//!   graph's negative cycle, names the exact C1–C3 / L1 / L2R constraints
//!   in conflict.
//! * **Timing diagrams** ([`render_schedule`], [`render_solution`]) — ASCII
//!   renderings in the style of Figs. 6 and 11.
//! * **Parallel sweeps** ([`sweep_cycle_time`]) — batch re-solves on the
//!   graph, cold simplex where it cannot settle: parametric clock sweeps and Monte-Carlo delay
//!   perturbations fanned over a work-claiming thread pool, deterministic
//!   for any thread count.
//! * **Difference-constraint fast path** ([`Backend`], [`classify_model`])
//!   — a static row classifier maps the SMO model onto a
//!   difference-constraint graph as it builds the graph from the rows,
//!   storing nothing per row; pure models solve by Bellman–Ford plus
//!   Lawler's exact min-cycle-ratio iteration (no simplex at all) with the
//!   same KKT [`Certificate`](smo_lp::Certificate) as the simplex path,
//!   built from the critical cycle's duals, mixed models go to
//!   the cold certified simplex, and infeasibility
//!   surfaces as a machine-checked negative-cycle Farkas certificate named
//!   in paper vocabulary.
//! * **Short-path race detection** ([`race_analysis`]) — the dual hazard
//!   the long-path constraints cannot see: per-edge/per-latch hold slacks
//!   at the canonical schedule for the solved cycle time
//!   (backend-independent by construction), double-clocking races with an
//!   arithmetically re-checkable [`ShortPathWitness`], and the
//!   clock-separation increase that would retire each one.
//!
//! ## Quickstart
//!
//! ```
//! use smo_circuit::{CircuitBuilder, PhaseId};
//! use smo_core::{min_cycle_time, verify};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Example 1 (Fig. 5) at Δ41 = 80 ns.
//! let mut b = CircuitBuilder::new(2);
//! let p1 = PhaseId::from_number(1);
//! let p2 = PhaseId::from_number(2);
//! let l1 = b.add_latch("L1", p1, 10.0, 10.0);
//! let l2 = b.add_latch("L2", p2, 10.0, 10.0);
//! let l3 = b.add_latch("L3", p1, 10.0, 10.0);
//! let l4 = b.add_latch("L4", p2, 10.0, 10.0);
//! b.connect(l1, l2, 20.0);
//! b.connect(l2, l3, 20.0);
//! b.connect(l3, l4, 60.0);
//! b.connect(l4, l1, 80.0);
//! let circuit = b.build()?;
//!
//! let solution = min_cycle_time(&circuit)?;
//! assert!((solution.cycle_time() - 110.0).abs() < 1e-6); // Fig. 6(a)
//!
//! // The optimal schedule verifies cleanly; a 1%-shrunk one does not.
//! assert!(verify(&circuit, solution.schedule()).is_feasible());
//! assert!(!verify(&circuit, &solution.schedule().scaled(0.99)).is_feasible());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod baseline;
mod bounds;
mod critical;
mod diagnose;
mod diagram;
mod error;
mod fastpath;
mod mlp;
mod model;
mod propagation;
mod race;
mod report;
mod sensitivity;
mod solution;
mod sweep;

pub use analysis::{
    min_cycle_for_shape, verify, verify_with, AnalysisOptions, AnalysisReport, Violation,
};
pub use bounds::{cycle_time_bounds, CriticalCycle, CycleTimeBounds};
pub use critical::{critical_report, CriticalEdge, CriticalReport, CriticalSegment};
pub use diagnose::{diagnose_model, DiagnosedConstraint, Diagnosis, InfeasibilityReport};
pub use diagram::{render_schedule, render_solution};
pub use error::TimingError;
pub use fastpath::{
    classify_model, graph_feasible_at, graph_feasible_at_within, variable_images, Backend,
};
pub use mlp::{
    min_cycle_time, min_cycle_time_with, solve_model, solve_model_canonical, solve_model_with,
    MlpOptions,
};
pub use model::{
    shift_expr, ConstraintInfo, ConstraintKind, ConstraintOptions, DeparturePinning,
    NonoverlapScope, TimingModel, VarMap,
};
pub use propagation::{Arc, FixpointResult, PropagationSystem, FIXPOINT_TOL};
pub use race::{race_analysis, race_analysis_at, RaceOptions, RaceReport, ShortPathWitness};
pub use report::{render_report, timing_report};
pub use sensitivity::{cycle_time_curve, delay_sensitivities, CurveSegment, CycleTimeCurve};
pub use solution::TimingSolution;
pub use sweep::{sweep_cycle_time, SweepOptions, SweepParam, SweepReport, SweepRun};

// Re-export the schedule type: it is the natural currency between the
// circuit model and the timing engine.
pub use smo_circuit::ClockSchedule;
