//! The operations shared by the `smo` CLI and the `smo serve` daemon.
//!
//! Both frontends funnel through this module so there is exactly one
//! implementation of each query and one JSON rendering of each result:
//! the CLI prints the pretty multi-line form directly, the daemon
//! re-renders it compactly (see [`crate::json`]) — same structure, same
//! numbers, byte-deterministic either way.

use crate::error::ApiError;
use smo_circuit::{netlist, Circuit, CircuitError, ClockSchedule, EdgeId};
use smo_core::{
    graph_feasible_at_within, min_cycle_time_with, sweep_cycle_time, verify, Backend, MlpOptions,
    SweepOptions, SweepParam, SweepReport, TimingSolution,
};
use smo_lp::SolveBudget;

pub use smo_circuit::netlist::ParseLimits;

/// Parses netlist text, auto-detecting the gate-level dialect (the
/// file-reading half of the CLI's loader lives in the binary; the daemon
/// receives netlists inline and never touches the filesystem). See
/// [`netlist::parse_auto`].
pub fn parse_netlist(src: &str, limits: &ParseLimits) -> Result<Circuit, CircuitError> {
    netlist::parse_auto(src, limits)
}

/// Renders a solve result as a JSON object (hand-rolled, matching the
/// other subcommands' `to_json` style).
pub fn solve_json(sol: &TimingSolution) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cycle_time\": {:.6},\n", sol.cycle_time()));
    out.push_str(&format!("  \"certified\": {},\n", sol.certified()));
    out.push_str(&format!("  \"backend\": \"{}\",\n", sol.backend()));
    if let Some(gc) = sol.graph_certificate() {
        out.push_str(&format!(
            "  \"graph_certificate\": {{\"valid\": {}, \"implied_lower\": {:.6}, \
             \"witness_rows\": {}, \"max_violation\": {:e}}},\n",
            gc.is_valid(),
            gc.implied_lower(),
            gc.witness_rows(),
            gc.max_violation()
        ));
    }
    out.push_str(&format!(
        "  \"lp_iterations\": {},\n  \"update_iterations\": {},\n  \"num_constraints\": {},\n",
        sol.lp_iterations(),
        sol.update_iterations(),
        sol.num_constraints()
    ));
    out.push_str("  \"certificates\": [");
    for (i, cert) in sol.certificates().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"valid\": {},\n", cert.is_valid()));
        out.push_str(&format!("      \"tolerance\": {:e},\n", cert.tol()));
        out.push_str(&format!("      \"worst_residual\": {:e},\n", cert.worst()));
        out.push_str("      \"residuals\": {");
        for (j, (name, value)) in cert.residuals().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {value:e}"));
        }
        out.push_str("}\n    }");
    }
    if !sol.certificates().is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

/// Renders a sweep report as JSON. Deliberately excludes anything
/// wall-clock-dependent so the bytes are identical for any `--jobs` value.
pub fn sweep_json(report: &SweepReport, options: &SweepOptions) -> String {
    let mut out = String::from("{\n");
    match &options.param {
        SweepParam::Tc { edge, max_delay } => {
            out.push_str(&format!(
                "  \"param\": \"tc\",\n  \"edge\": {},\n  \"max_delay\": {:.6},\n",
                edge.index(),
                max_delay
            ));
        }
        SweepParam::Delay { spread } => {
            out.push_str(&format!(
                "  \"param\": \"delay\",\n  \"spread\": {spread:.6},\n  \"seed\": {},\n",
                options.seed
            ));
        }
    }
    out.push_str(&format!(
        "  \"certified\": {},\n  \"base_cycle_time\": {:.6},\n  \"base_iterations\": {},\n",
        options.certify, report.base_cycle_time, report.base_iterations
    ));
    out.push_str(&format!(
        "  \"min_cycle_time\": {:.6},\n  \"max_cycle_time\": {:.6},\n  \"mean_cycle_time\": {:.6},\n  \"warm_iterations\": {},\n",
        report.min_cycle_time, report.max_cycle_time, report.mean_cycle_time, report.warm_iterations
    ));
    out.push_str("  \"breakpoints\": [");
    for (i, b) in report.breakpoints.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{b:.6}"));
    }
    out.push_str("],\n  \"runs\": [");
    for (i, run) in report.runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"index\": {}, \"value\": {:.6}, \"cycle_time\": {:.6}, \"iterations\": {}}}",
            run.index, run.value, run.cycle_time, run.iterations
        ));
    }
    out.push_str("\n  ]\n}");
    out
}

/// Solves for the minimum cycle time and returns the pretty JSON.
pub fn run_solve(circuit: &Circuit, options: &MlpOptions) -> Result<String, ApiError> {
    Ok(solve_json(&min_cycle_time_with(circuit, options)?))
}

/// Checks a concrete schedule row by row and (except on the pure-LP
/// backend) cross-checks existence on the difference graph, under
/// `budget`.
pub fn run_verify(
    circuit: &Circuit,
    cycle_time: f64,
    phases: &[(f64, f64)],
    backend: Backend,
    budget: &SolveBudget,
) -> Result<String, ApiError> {
    if phases.len() != circuit.num_phases() {
        return Err(ApiError::bad_request(format!(
            "{} phase(s) given but the circuit has {}",
            phases.len(),
            circuit.num_phases()
        )));
    }
    let starts: Vec<f64> = phases.iter().map(|p| p.0).collect();
    let widths: Vec<f64> = phases.iter().map(|p| p.1).collect();
    let sched = ClockSchedule::new(cycle_time, starts, widths)?;
    let report = verify(circuit, &sched);
    let exists = if backend == Backend::Lp {
        None
    } else {
        graph_feasible_at_within(circuit, cycle_time, budget)?
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cycle_time\": {cycle_time:.6},\n"));
    out.push_str(&format!("  \"feasible\": {},\n", report.is_feasible()));
    let worst = report.worst_slack();
    if worst.is_finite() {
        out.push_str(&format!("  \"worst_slack\": {worst:.6},\n"));
    } else {
        out.push_str("  \"worst_slack\": null,\n");
    }
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&crate::json::escape(&v.to_string()));
    }
    out.push_str("],\n");
    match exists {
        Some(e) => out.push_str(&format!("  \"exists_at_tc\": {e}\n")),
        None => out.push_str("  \"exists_at_tc\": null\n"),
    }
    out.push('}');
    Ok(out)
}

/// Lint + solve + race analysis; returns the report's own JSON.
pub fn run_check(
    circuit: &Circuit,
    options: &smo_analyze::CheckOptions,
) -> Result<String, ApiError> {
    let report = smo_analyze::check(circuit, options)
        .map_err(|e| ApiError::new(crate::error::ErrorKind::Internal, e.to_string()))?;
    Ok(report.to_json())
}

/// Feasibility diagnosis; returns the report's own JSON.
pub fn run_diagnose(circuit: &Circuit, cycle_time: Option<f64>) -> Result<String, ApiError> {
    let d = smo_analyze::diagnose(circuit, cycle_time)?;
    Ok(d.to_json())
}

/// Parameter sweep. The daemon always runs sweeps
/// single-threaded (`jobs = 1`): concurrency belongs to the connection
/// layer, and the report bytes are identical for any jobs value anyway.
#[allow(clippy::too_many_arguments)]
pub fn run_sweep(
    circuit: &Circuit,
    param: &str,
    runs: usize,
    edge: usize,
    max_delay: Option<f64>,
    spread: f64,
    seed: u64,
    certify: bool,
) -> Result<String, ApiError> {
    let param = match param {
        "tc" => {
            if edge >= circuit.num_edges() {
                return Err(ApiError::bad_request(format!(
                    "`edge` {edge} out of range ({} edges)",
                    circuit.num_edges()
                )));
            }
            let max_delay = max_delay.unwrap_or(2.0 * circuit.edge(EdgeId::new(edge)).max_delay);
            SweepParam::Tc {
                edge: EdgeId::new(edge),
                max_delay,
            }
        }
        _ => SweepParam::Delay { spread },
    };
    let options = SweepOptions {
        param,
        runs,
        seed,
        jobs: 1,
        certify,
    };
    let reports = sweep_cycle_time(std::slice::from_ref(circuit), &options)?;
    Ok(sweep_json(&reports[0], &options))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_gen::paper;

    #[test]
    fn parse_netlist_detects_dialects() {
        let latch = netlist::write(&paper::example2());
        assert!(parse_netlist(&latch, &ParseLimits::default()).is_ok());
        // A gate-level line flips the parser.
        let bad_gate = "clock 2 10\ngate g1 = misparsed";
        let e = parse_netlist(bad_gate, &ParseLimits::default()).unwrap_err();
        assert!(matches!(e, CircuitError::ParseNetlist { .. }));
    }

    #[test]
    fn run_solve_matches_plain_solve() {
        let circuit = paper::example2();
        let options = MlpOptions::default();
        let json = run_solve(&circuit, &options).unwrap();
        let direct = smo_core::min_cycle_time_with(&circuit, &options).unwrap();
        assert_eq!(json, solve_json(&direct));
    }

    #[test]
    fn run_verify_reports_both_verdicts() {
        let circuit = paper::example2();
        let sol = smo_core::min_cycle_time(&circuit).unwrap();
        let sched = sol.schedule();
        let phases: Vec<(f64, f64)> = (0..circuit.num_phases())
            .map(|i| {
                let p = smo_circuit::PhaseId::new(i);
                (sched.start(p), sched.width(p))
            })
            .collect();
        let json = run_verify(
            &circuit,
            sched.cycle(),
            &phases,
            Backend::Auto,
            &SolveBudget::UNLIMITED,
        )
        .unwrap();
        assert!(json.contains("\"feasible\": true"));
        assert!(json.contains("\"exists_at_tc\": true"));
        // Wrong phase count is a bad request, not a panic.
        let e =
            run_verify(&circuit, 10.0, &[], Backend::Auto, &SolveBudget::UNLIMITED).unwrap_err();
        assert_eq!(e.kind, crate::error::ErrorKind::BadRequest);
    }

    #[test]
    fn run_sweep_rejects_out_of_range_edges() {
        let circuit = paper::example2();
        let e = run_sweep(&circuit, "tc", 4, 10_000, None, 0.1, 0, false).unwrap_err();
        assert_eq!(e.kind, crate::error::ErrorKind::BadRequest);
        let json = run_sweep(&circuit, "delay", 3, 0, None, 0.05, 7, false).unwrap();
        assert!(json.contains("\"param\": \"delay\""));
    }
}
