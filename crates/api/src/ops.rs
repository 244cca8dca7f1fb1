//! The operations shared by the `smo` CLI and the `smo serve` daemon.
//!
//! Both frontends run a work [`Command`] through one typed dispatch,
//! [`run`], which returns what the command produced as an [`Outcome`].
//! [`Outcome::json`] builds its one JSON value. The daemon renders it
//! compactly into its reply's `result`, and the CLI prints the same
//! compact bytes under `--json`, or renders the outcome as text.

use crate::engine::Degradation;
use crate::json::Json;
use crate::request::{Command, Swept};
use smo_analyze::{
    certificate_json, check, diagnose, AnalyzeError, CheckOptions, CheckReport, PassConfig,
};
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

/// A solve result as JSON: [`Outcome::json`] of a solve, rendered spaced
/// like the reports' `to_json` strings (see
/// [`Json::render_spaced`](crate::json::Json::render_spaced)).
pub fn solve_json(sol: &TimingSolution) -> String {
    solve_value(sol).render_spaced()
}

/// A sweep report as JSON: [`Outcome::json`] of a sweep, rendered spaced.
pub fn sweep_json(report: &SweepReport, options: &SweepOptions) -> String {
    sweep_value(report, options).render_spaced()
}

fn solve_value(sol: &TimingSolution) -> Json {
    Json::obj([
        ("cycle_time", Json::six_decimals(sol.cycle_time())),
        ("certified", sol.certified().into()),
        ("backend", sol.backend().to_string().into()),
        ("lp_iterations", sol.lp_iterations().into()),
        ("update_iterations", sol.update_iterations().into()),
        ("num_constraints", sol.num_constraints().into()),
        (
            "certificates",
            sol.certificates().iter().map(certificate_json).collect(),
        ),
    ])
}

/// Excludes anything wall-clock-dependent, so the bytes are the same for
/// any `--jobs` value.
fn sweep_value(report: &SweepReport, options: &SweepOptions) -> Json {
    let six = Json::six_decimals;
    let mut fields: Vec<(&str, Json)> = match options.param {
        SweepParam::Tc { edge, max_delay } => vec![
            ("param", "tc".into()),
            ("edge", edge.index().into()),
            ("max_delay", six(max_delay)),
        ],
        SweepParam::Delay { spread } => vec![
            ("param", "delay".into()),
            ("spread", six(spread)),
            ("seed", Json::Num(options.seed as f64)),
        ],
    };
    let runs = report.runs.iter().map(|run| {
        Json::obj([
            ("index", run.index.into()),
            ("value", six(run.value)),
            ("cycle_time", six(run.cycle_time)),
            ("iterations", run.iterations.into()),
        ])
    });
    fields.extend([
        ("certified", options.certify.into()),
        ("base_cycle_time", six(report.base_cycle_time)),
        ("base_iterations", report.base_iterations.into()),
        ("min_cycle_time", six(report.min_cycle_time)),
        ("max_cycle_time", six(report.max_cycle_time)),
        ("mean_cycle_time", six(report.mean_cycle_time)),
        ("warm_iterations", report.warm_iterations.into()),
        (
            "breakpoints",
            report.breakpoints.iter().map(|&b| six(b)).collect(),
        ),
        ("runs", runs.collect()),
    ]);
    Json::obj(fields)
}

/// A verify verdict as JSON, naming synchronizers as `circuit` does.
fn verify_value(
    circuit: &Circuit,
    cycle_time: f64,
    report: &AnalysisReport,
    exists: Option<bool>,
) -> Json {
    Json::obj([
        ("cycle_time", Json::six_decimals(cycle_time)),
        ("feasible", report.is_feasible().into()),
        ("worst_slack", Json::six_decimals(report.worst_slack())),
        (
            "violations",
            report
                .violations()
                .iter()
                .map(|v| v.describe(circuit))
                .collect(),
        ),
        ("exists_at_tc", exists.into()),
    ])
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
    /// The outcome as JSON: the daemon's `result`, and what the CLI
    /// prints under `--json`, both rendered compactly. `circuit` is the
    /// one the command ran on; verify names its synchronizers.
    pub fn json(&self, circuit: &Circuit) -> Json {
        match self {
            Outcome::Solve(sol) => solve_value(sol),
            Outcome::Verify {
                cycle_time,
                report,
                exists,
            } => verify_value(circuit, *cycle_time, report, *exists),
            Outcome::Check(report) => report.json(),
            Outcome::Diagnose(d) => d.json(),
            Outcome::Sweep(report, options) => sweep_value(report, options),
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
            certify,
            ..
        } => {
            let (param, seed) = match *param {
                Swept::Tc { edge, max_delay } => {
                    if edge >= circuit.num_edges() {
                        return Err(OpError::Request(format!(
                            "`edge` {edge} out of range ({} edges)",
                            circuit.num_edges()
                        )));
                    }
                    let edge = EdgeId::new(edge);
                    // Default range: up to twice the edge's present delay.
                    let max_delay = max_delay.unwrap_or(2.0 * circuit.edge(edge).max_delay);
                    (SweepParam::Tc { edge, max_delay }, 0)
                }
                Swept::Delay { spread, seed } => (SweepParam::Delay { spread }, seed),
            };
            let options = SweepOptions {
                param,
                runs: *runs,
                seed,
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
        assert_eq!(outcome.json(&circuit), solve_value(&direct));
        assert_eq!(solve_json(&direct), outcome.json(&circuit).render_spaced());
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
            .json(&circuit);
        assert_eq!(json.get("feasible"), Some(&Json::Bool(true)));
        assert_eq!(json.get("exists_at_tc"), Some(&Json::Bool(true)));
        // Wrong phase count is a request error, not a panic.
        let e = run(&circuit, &verify(10.0, vec![]), &settings).unwrap_err();
        assert!(matches!(e, OpError::Request(_)), "{e:?}");
        // Violations name synchronizers as the netlist does.
        let gaas = paper::gaas_mips();
        let tight = verify(3.0, vec![(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        let json = run(&gaas, &tight, &settings).unwrap().json(&gaas);
        assert_eq!(
            json.get("violations"),
            Some(&Json::Arr(vec![Json::Str(
                "cycle time too small for loop: imd_in imd_out".into()
            )]))
        );
    }

    #[test]
    fn sweep_rejects_out_of_range_edges() {
        let circuit = paper::example2();
        let sweep = |param| Command::Sweep {
            netlist: String::new(),
            param,
            runs: 3,
            certify: false,
        };
        let settings = Settings::default();
        let tc = Swept::Tc {
            edge: 10_000,
            max_delay: None,
        };
        let e = run(&circuit, &sweep(tc), &settings).unwrap_err();
        assert!(matches!(e, OpError::Request(_)), "{e:?}");
        let delay = Swept::Delay {
            spread: 0.05,
            seed: 7,
        };
        let json = run(&circuit, &sweep(delay), &settings)
            .unwrap()
            .json(&circuit);
        assert_eq!(json.get("param"), Some(&Json::Str("delay".into())));
        assert_eq!(json.get("seed"), Some(&Json::Num(7.0)));
    }

    #[test]
    fn control_commands_are_not_work() {
        let e = run(&paper::example2(), &Command::Ping, &Settings::default()).unwrap_err();
        assert!(matches!(e, OpError::Request(_)), "{e:?}");
    }
}
