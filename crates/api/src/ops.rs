//! The operations shared by the `smo` CLI and the `smo serve` daemon.
//!
//! Both frontends run a work [`Command`] through one typed dispatch,
//! [`run`], which returns what the command produced as an [`Outcome`].
//! The daemon renders it with [`Outcome::to_json`] and compacts the JSON
//! onto its reply line (see [`crate::json`]); the CLI prints the same
//! pretty JSON under `--json`, or renders the outcome as text. Either
//! way the structure and the numbers are the same, byte for byte.

use crate::engine::Degradation;
use crate::request::Command;
use smo_analyze::{check, diagnose, AnalyzeError, CheckOptions, CheckReport, PassConfig};
use smo_circuit::{netlist, Circuit, CircuitError, ClockSchedule, EdgeId};
use smo_core::{
    graph_feasible_at_within, min_cycle_time_with, sweep_cycle_time, verify, AnalysisReport,
    Backend, Diagnosis, MlpOptions, SweepOptions, SweepParam, SweepReport, TimingError,
    TimingSolution,
};
use smo_lp::SolveBudget;
use std::time::Duration;

pub use smo_circuit::netlist::ParseLimits;

/// Parses netlist text, auto-detecting the gate-level dialect (the
/// file-reading half of the CLI's loader lives in the binary; the daemon
/// receives netlists inline and never touches the filesystem). See
/// [`netlist::parse_auto`].
pub fn parse_netlist(src: &str, limits: &ParseLimits) -> Result<Circuit, CircuitError> {
    netlist::parse_auto(src, limits)
}

/// Parse limits for the CLI's `--max-input-mb` value: the daemon's strict
/// defaults when absent; otherwise the byte, line and element caps scale
/// together with the megabytes (the per-line caps stay put: bigger
/// circuits mean more lines, not longer ones). The daemon itself always
/// keeps the defaults: inline requests from untrusted clients get no knob.
pub fn input_limits(max_mb: Option<usize>) -> Result<ParseLimits, String> {
    match max_mb {
        None => Ok(ParseLimits::default()),
        Some(0) => Err("--max-input-mb must be at least 1".into()),
        Some(mb) => Ok(ParseLimits {
            max_bytes: mb.saturating_mul(1 << 20),
            max_lines: mb.saturating_mul(50_000),
            max_elements: mb.saturating_mul(25_000),
            ..ParseLimits::default()
        }),
    }
}

/// Renders a solve result as a JSON object (hand-rolled, matching the
/// other subcommands' `to_json` style).
pub fn solve_json(sol: &TimingSolution) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cycle_time\": {:.6},\n", sol.cycle_time()));
    out.push_str(&format!("  \"certified\": {},\n", sol.certified()));
    out.push_str(&format!("  \"backend\": \"{}\",\n", sol.backend()));
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

/// What a run takes beside its wire command. The CLI sets it from its own
/// flags, the engine from the request's deadline and its load.
#[derive(Debug, Clone, Default)]
pub struct Settings {
    /// Wall-clock limit: `smo solve --time-limit`, or a request's
    /// `deadline_ms`. Bounds the solve and verify's existence probe.
    pub time_limit: Option<Duration>,
    /// The rung of the degradation ladder; the CLI always runs `Full`.
    pub degradation: Degradation,
    /// Lint suppressions and overrides for `check` (`--allow`, `--deny`).
    pub lint: PassConfig,
    /// Sweep worker threads (`--jobs`); 0 and 1 both run one. The report
    /// bytes are the same for any value.
    pub jobs: usize,
}

/// What a work command produced, before either frontend renders it.
#[derive(Debug)]
pub enum Outcome {
    /// `solve`: the certified optimum.
    Solve(TimingSolution),
    /// `verify`: the row-by-row verdict on the schedule at `cycle_time`,
    /// and whether the difference graph finds any schedule there (`None`
    /// on the LP backend, or when the model is not a difference system).
    Verify {
        /// The cycle time checked.
        cycle_time: f64,
        /// The row-by-row verdict.
        report: AnalysisReport,
        /// The graph's existence verdict.
        exists: Option<bool>,
    },
    /// `check`: lint findings plus the race analysis.
    Check(CheckReport),
    /// `diagnose`: the optimum, or why the cycle time is unachievable.
    Diagnose(Diagnosis),
    /// `sweep`: the report and the options it ran with.
    Sweep(SweepReport, SweepOptions),
}

impl Outcome {
    /// The pretty JSON the CLI prints under `--json` and the daemon
    /// compacts onto its reply line.
    pub fn to_json(&self) -> String {
        match self {
            Outcome::Solve(sol) => solve_json(sol),
            Outcome::Verify {
                cycle_time,
                report,
                exists,
            } => verify_json(*cycle_time, report, *exists),
            Outcome::Check(report) => report.to_json(),
            Outcome::Diagnose(d) => d.to_json(),
            Outcome::Sweep(report, options) => sweep_json(report, options),
        }
    }
}

/// Why a work command failed. The engine's own errors are kept whole:
/// the daemon classifies them into wire kinds (`From<OpError> for
/// ApiError`), the CLI prints their text as it is.
#[derive(Debug)]
pub enum OpError {
    /// The command does not fit the circuit (its phase count or edge
    /// count): `bad-request` on the wire, a usage error on the command line.
    Request(String),
    /// The timing engine failed.
    Timing(TimingError),
    /// `check` failed before its race analysis ran.
    Check(AnalyzeError),
}

impl From<TimingError> for OpError {
    fn from(e: TimingError) -> Self {
        OpError::Timing(e)
    }
}

/// Runs a work command on its parsed circuit. Control commands are not
/// work: they get an [`OpError::Request`].
pub fn run(circuit: &Circuit, command: &Command, settings: &Settings) -> Result<Outcome, OpError> {
    Ok(match command {
        Command::Solve {
            backend, certify, ..
        } => {
            let mut options = MlpOptions {
                backend: *backend,
                certify: *certify,
                time_limit: settings.time_limit,
                ..Default::default()
            };
            settings.degradation.shape(&mut options);
            Outcome::Solve(min_cycle_time_with(circuit, &options)?)
        }
        Command::Verify {
            cycle_time,
            phases,
            backend,
            ..
        } => {
            if phases.len() != circuit.num_phases() {
                return Err(OpError::Request(format!(
                    "{} phase(s) given but the circuit has {}",
                    phases.len(),
                    circuit.num_phases()
                )));
            }
            let (starts, widths) = phases.iter().copied().unzip();
            let schedule = ClockSchedule::new(*cycle_time, starts, widths)
                .map_err(|e| OpError::Request(e.to_string()))?;
            let budget = settings
                .time_limit
                .map_or(SolveBudget::UNLIMITED, SolveBudget::with_time_limit);
            Outcome::Verify {
                cycle_time: *cycle_time,
                report: verify(circuit, &schedule),
                exists: match backend {
                    Backend::Lp => None,
                    _ => graph_feasible_at_within(circuit, *cycle_time, &budget)?,
                },
            }
        }
        Command::Check {
            cycle_time,
            backend,
            ..
        } => {
            let options = CheckOptions {
                config: settings.lint.clone(),
                backend: *backend,
                cycle_time: *cycle_time,
            };
            Outcome::Check(check(circuit, &options).map_err(OpError::Check)?)
        }
        Command::Diagnose { cycle_time, .. } => Outcome::Diagnose(diagnose(circuit, *cycle_time)?),
        Command::Sweep {
            param,
            runs,
            edge,
            max_delay,
            spread,
            seed,
            certify,
            ..
        } => {
            let param = if param == "tc" {
                if *edge >= circuit.num_edges() {
                    return Err(OpError::Request(format!(
                        "`edge` {edge} out of range ({} edges)",
                        circuit.num_edges()
                    )));
                }
                let edge = EdgeId::new(*edge);
                // Default range: up to twice the edge's present delay.
                let max_delay = max_delay.unwrap_or(2.0 * circuit.edge(edge).max_delay);
                SweepParam::Tc { edge, max_delay }
            } else {
                SweepParam::Delay { spread: *spread }
            };
            let options = SweepOptions {
                param,
                runs: *runs,
                seed: *seed,
                jobs: settings.jobs,
                certify: *certify && settings.degradation < Degradation::Uncertified,
            };
            let report = sweep_cycle_time(std::slice::from_ref(circuit), &options)?
                .pop()
                .ok_or_else(|| OpError::Request("the sweep returned no report".into()))?;
            Outcome::Sweep(report, options)
        }
        _ => {
            return Err(OpError::Request(format!(
                "`{}` is not a work command",
                command.name()
            )))
        }
    })
}

/// Renders a verify verdict as a JSON object.
fn verify_json(cycle_time: f64, report: &AnalysisReport, exists: Option<bool>) -> String {
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
    out
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

    /// The `--max-input-mb` mapping: per MB, 1 MiB of bytes, 50,000 lines
    /// and 25,000 elements; the per-line caps never move. The e2e
    /// benchmark's trace keeps a copy of these constants.
    #[test]
    fn input_limits_scale_per_megabyte() {
        let base = ParseLimits::default();
        assert_eq!(input_limits(None).unwrap(), base);
        assert!(input_limits(Some(0)).is_err());
        for mb in [1usize, 4, 64] {
            let l = input_limits(Some(mb)).unwrap();
            assert_eq!(l.max_bytes, mb << 20);
            assert_eq!(l.max_lines, mb * 50_000);
            assert_eq!(l.max_elements, mb * 25_000);
            assert_eq!(
                ParseLimits {
                    max_bytes: base.max_bytes,
                    max_lines: base.max_lines,
                    max_elements: base.max_elements,
                    ..l
                },
                base
            );
        }
        assert_eq!(
            input_limits(Some(usize::MAX)).unwrap().max_bytes,
            usize::MAX
        );
    }

    fn solve(backend: Backend) -> Command {
        Command::Solve {
            netlist: String::new(),
            backend,
            certify: true,
        }
    }

    #[test]
    fn solve_matches_plain_solve() {
        let circuit = paper::example2();
        let outcome = run(&circuit, &solve(Backend::Auto), &Settings::default()).unwrap();
        let direct = smo_core::min_cycle_time_with(&circuit, &MlpOptions::default()).unwrap();
        assert_eq!(outcome.to_json(), solve_json(&direct));
    }

    #[test]
    fn verify_reports_both_verdicts() {
        let circuit = paper::example2();
        let sol = smo_core::min_cycle_time(&circuit).unwrap();
        let sched = sol.schedule();
        let phases: Vec<(f64, f64)> = (0..circuit.num_phases())
            .map(|i| {
                let p = smo_circuit::PhaseId::new(i);
                (sched.start(p), sched.width(p))
            })
            .collect();
        let verify = |cycle_time, phases| Command::Verify {
            netlist: String::new(),
            cycle_time,
            phases,
            backend: Backend::Auto,
        };
        let settings = Settings::default();
        let json = run(&circuit, &verify(sched.cycle(), phases), &settings)
            .unwrap()
            .to_json();
        assert!(json.contains("\"feasible\": true"));
        assert!(json.contains("\"exists_at_tc\": true"));
        // Wrong phase count is a request error, not a panic.
        let e = run(&circuit, &verify(10.0, vec![]), &settings).unwrap_err();
        assert!(matches!(e, OpError::Request(_)), "{e:?}");
    }

    #[test]
    fn sweep_rejects_out_of_range_edges() {
        let circuit = paper::example2();
        let sweep = |param: &str, edge| Command::Sweep {
            netlist: String::new(),
            param: param.into(),
            runs: 3,
            edge,
            max_delay: None,
            spread: 0.05,
            seed: 7,
            certify: false,
        };
        let settings = Settings::default();
        let e = run(&circuit, &sweep("tc", 10_000), &settings).unwrap_err();
        assert!(matches!(e, OpError::Request(_)), "{e:?}");
        let json = run(&circuit, &sweep("delay", 0), &settings)
            .unwrap()
            .to_json();
        assert!(json.contains("\"param\": \"delay\""));
    }

    #[test]
    fn control_commands_are_not_work() {
        let e = run(&paper::example2(), &Command::Ping, &Settings::default()).unwrap_err();
        assert!(matches!(e, OpError::Request(_)), "{e:?}");
    }
}
