//! Shared helpers for the integration-test suites.
//!
//! The solve helpers here are deliberately *differential*: the sparse-LU
//! solve is checked against the dense reference tableau, and whenever a
//! caller hands them a basis snapshot the model is also re-solved warm
//! from it, with the verdicts asserted to agree within [`Tol::TIGHT`].
//! Every suite that routes its re-solve loops through this module
//! therefore doubles as a warm-start regression test.
#![allow(dead_code)]

use smo::circuit::Circuit;
use smo::lp::{Basis, Problem, Solution, SolveBudget, Status, Tol};
use smo::timing::TimingModel;

/// Solves `p` cold, asserts the dense reference agrees, and with a
/// snapshot also re-solves warm from it and asserts status and objective
/// agree with the cold verdict. Returns the cold solution.
pub fn solve_checked(p: &Problem, warm_from: Option<&Basis>) -> Solution {
    let cold = p.solve().expect("cold solve runs");
    let reference = p
        .solve_reference(SolveBudget::UNLIMITED)
        .expect("reference solve runs");
    let mut others = vec![("dense reference", reference)];
    if let Some(basis) = warm_from {
        others.push(("warm", p.solve_from_basis(basis).expect("warm solve runs")));
    }
    for (what, other) in others {
        assert_eq!(
            other.status(),
            cold.status(),
            "{what} and cold disagree on status"
        );
        if cold.status() == Status::Optimal {
            let (w, c) = (other.objective().unwrap(), cold.objective().unwrap());
            assert!(
                Tol::TIGHT.is_zero(w - c, c),
                "{what} objective {w} vs cold {c}"
            );
            assert!(
                other.certify(p).is_valid(),
                "{what} optimum fails certification: {}",
                other.certify(p)
            );
        }
        if cold.status() == Status::Infeasible {
            // A repaired basis must never smuggle in an uncertified
            // verdict: infeasibility always arrives Farkas-backed.
            let y = other.farkas().expect("infeasible carries Farkas");
            assert!(smo::lp::certifies_infeasibility(p, y));
        }
    }
    cold
}

/// LP-level minimum cycle time of `circuit`, solved cold; with a snapshot,
/// also solved warm from it (objectives asserted equal). Returns the cycle
/// time and the cold solve's own basis for chaining.
pub fn min_tc_checked(circuit: &Circuit, warm_from: Option<&Basis>) -> (f64, Basis) {
    let model = TimingModel::build(circuit).expect("model builds");
    let cold = model.solve_lp().expect("plain SMO models are feasible");
    let tc = cold.objective();
    if let Some(basis) = warm_from {
        let warm = model.solve_lp_from_basis(basis).expect("warm solve runs");
        let w = warm.objective();
        assert!(Tol::TIGHT.is_zero(w - tc, tc), "warm Tc {w} vs cold {tc}");
    }
    let basis = cold
        .basis()
        .cloned()
        .expect("optimal solve captures a basis");
    (tc, basis)
}

/// Loads a shipped netlist (relative to the repository root),
/// auto-detecting the gate-level dialect like the `smo` binary does.
pub fn load_circuit(path: &str) -> Circuit {
    let full = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let src = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let gate_level = src.lines().any(|l| {
        let t = l.split('#').next().unwrap_or("").trim_start();
        t.starts_with("gate ") || t.starts_with("wire ")
    });
    if gate_level {
        smo::circuit::netlist::parse_gates(&src)
    } else {
        smo::circuit::netlist::parse(&src)
    }
    .unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// The netlists shipped in `circuits/`.
pub const SHIPPED_NETLISTS: [&str; 5] = [
    "circuits/example1.ckt",
    "circuits/example2.ckt",
    "circuits/gaas_mips.ckt",
    "circuits/appendix_fig1.ckt",
    "circuits/alu_bypass.ckt",
];
