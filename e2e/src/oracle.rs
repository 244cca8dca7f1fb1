//! The answer oracle. It runs outside the timed window; each check that
//! does not hold is one failed operation, and none aborts the run.
//!
//! Cycle times are checked against fixed-λ Bellman–Ford
//! ([`smo_core::graph_feasible_at`]), a different algorithm from both the
//! min-ratio solve and the simplex: a reported `Tc` is right when a
//! schedule exists just above it and none exists just below it.

use smo_api::Json;
use smo_circuit::Circuit;

/// Relative step above `Tc` at which a schedule must exist.
pub const ABOVE: f64 = 1e-7;
/// Relative step below `Tc` at which no schedule may exist.
pub const BELOW: f64 = 1e-6;
/// Relative tolerance between two reports of one input's `Tc`.
pub const AGREE: f64 = 1e-6;

/// Checks that `tc` is the minimum cycle time of `circuit`.
///
/// # Errors
///
/// Why the bracket does not hold.
pub fn bracket(circuit: &Circuit, tc: f64) -> Result<(), String> {
    if !(tc.is_finite() && tc > 0.0) {
        return Err(format!("cycle time {tc} is not a positive number"));
    }
    let probe = |t: f64| smo_core::graph_feasible_at(circuit, t).map_err(|e| e.to_string());
    match (probe(tc * (1.0 + ABOVE))?, probe(tc * (1.0 - BELOW))?) {
        (Some(true), Some(false)) => Ok(()),
        (Some(above), Some(below)) => Err(format!(
            "Tc = {tc} is not the minimum: schedule exists {above} at +{ABOVE:e}, {below} at -{BELOW:e}"
        )),
        _ => Err("model has non-difference rows; Bellman-Ford cannot bracket Tc".into()),
    }
}

/// Checks that two reports of one input's cycle time agree.
///
/// # Errors
///
/// Both values when they differ by more than [`AGREE`] relative.
pub fn agree(a: f64, b: f64) -> Result<(), String> {
    if (a - b).abs() <= AGREE * a.abs().max(b.abs()) {
        Ok(())
    } else {
        Err(format!("cycle times disagree: {a} vs {b}"))
    }
}

fn parse(text: &str) -> Result<Json, String> {
    Json::parse(text.trim()).map_err(|e| format!("output is not JSON: {e}"))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn number(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn boolean(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a boolean"))
}

/// The cycle time of a `solve --json` report, which must be certified.
///
/// # Errors
///
/// Unparseable or uncertified output.
pub fn solve_tc(v: &Json) -> Result<f64, String> {
    if !boolean(v, "certified")? {
        return Err("solve reports certified: false".into());
    }
    number(v, "cycle_time")
}

/// What a `check --json` report says.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSummary {
    /// The cycle time the race analysis ran at.
    pub tc: f64,
    /// Number of double-clocking races.
    pub races: usize,
    /// Worst hold slack (`None` when the report has `null`).
    pub worst_hold_slack: Option<f64>,
    /// Locations of the race findings.
    pub race_locations: Vec<String>,
}

/// Reads a `check --json` report.
///
/// # Errors
///
/// Missing or mistyped fields.
pub fn check_summary(v: &Json) -> Result<CheckSummary, String> {
    let findings = field(v, "findings")?
        .as_arr()
        .ok_or("`findings` is not an array")?;
    let race_locations = findings
        .iter()
        .filter(|f| f.get("rule").and_then(Json::as_str) == Some("double-clocking-race"))
        .map(|f| {
            f.get("location")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "race finding without a location".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CheckSummary {
        tc: number(v, "cycle_time")?,
        races: number(v, "races")? as usize,
        worst_hold_slack: field(v, "worst_hold_slack")?.as_f64(),
        race_locations,
    })
}

/// What a `sweep --json` report says.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Cycle time of the unperturbed circuit.
    pub base_tc: f64,
    /// Exact `Tc*(Δ)` breakpoints (tc sweeps only).
    pub breakpoints: Vec<f64>,
}

/// Reads a `sweep --json` report.
///
/// # Errors
///
/// Missing or mistyped fields.
pub fn sweep_summary(v: &Json) -> Result<SweepSummary, String> {
    let breakpoints = field(v, "breakpoints")?
        .as_arr()
        .ok_or("`breakpoints` is not an array")?
        .iter()
        .map(|b| {
            b.as_f64()
                .ok_or_else(|| "non-numeric breakpoint".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SweepSummary {
        base_tc: number(v, "base_cycle_time")?,
        breakpoints,
    })
}

/// The `clean` verdict of a `lint --json` report.
///
/// # Errors
///
/// Missing or mistyped field.
pub fn lint_clean(v: &Json) -> Result<bool, String> {
    boolean(v, "clean")
}

/// A CLI command, as the oracle checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// `smo solve <f> --json`.
    Solve,
    /// `smo lint <f> --json`.
    Lint,
    /// `smo check <f> --json`.
    Check,
    /// `smo sweep <f> --json` (delay sweep).
    Sweep,
    /// The Fig. 7 tc sweep of Example 1.
    SweepFig7,
    /// `smo verify` of Example 1 at its optimal schedule.
    Verify,
}

impl Cmd {
    /// The subcommand, which is also the command's latency class.
    pub fn name(self) -> &'static str {
        match self {
            Cmd::Solve => "solve",
            Cmd::Lint => "lint",
            Cmd::Check => "check",
            Cmd::Sweep | Cmd::SweepFig7 => "sweep",
            Cmd::Verify => "verify",
        }
    }
}

/// Checks one command's exit code and output; returns the cycle time it
/// reports, if any, for cross-checks.
///
/// `name` is the netlist's stem (`example1`, `dp4000-s7`, …) and selects
/// the paper anchors and the one shipped netlist with a measured race.
/// Elsewhere `check` may report races under the max-delay assumption as
/// warnings; only error findings (exit code 2) are wrong.
///
/// # Errors
///
/// Why the output is wrong.
pub fn check_cli(
    cmd: Cmd,
    name: &str,
    code: Option<i32>,
    stdout: &str,
) -> Result<Option<f64>, String> {
    let racy = name == "race_demo";
    let expected_code = if cmd == Cmd::Check && racy { 2 } else { 0 };
    if code != Some(expected_code) {
        return Err(format!("exit code {code:?}, expected {expected_code}"));
    }
    if cmd == Cmd::Verify {
        return if stdout.starts_with("FEASIBLE") {
            Ok(None)
        } else {
            Err(format!("verify printed {:?}", stdout.lines().next()))
        };
    }
    let v = parse(stdout)?;
    match cmd {
        Cmd::Solve => {
            let tc = solve_tc(&v)?;
            if let Some(anchor) = paper_tc(name) {
                if (tc - anchor).abs() > 1e-6 {
                    return Err(format!("{name}: Tc = {tc}, the paper reports {anchor}"));
                }
            }
            Ok(Some(tc))
        }
        Cmd::Lint => {
            // The race demo carries a deliberate hold-margin warning.
            if !racy && !lint_clean(&v)? {
                return Err("lint reports findings on a clean netlist".into());
            }
            Ok(None)
        }
        Cmd::Check => {
            let s = check_summary(&v)?;
            if racy {
                let slack_ok = s.worst_hold_slack.is_some_and(|w| (w + 0.15).abs() <= 1e-9);
                if s.races != 1 || s.race_locations != ["result→status#3"] || !slack_ok {
                    return Err(format!(
                        "race_demo: expected one result→status race at slack -0.15, got {} at {:?} (worst slack {:?})",
                        s.races, s.race_locations, s.worst_hold_slack
                    ));
                }
            }
            Ok(Some(s.tc))
        }
        Cmd::Sweep | Cmd::SweepFig7 => {
            let s = sweep_summary(&v)?;
            if cmd == Cmd::SweepFig7 && s.breakpoints != [20.0, 100.0] {
                return Err(format!(
                    "Fig. 7 breakpoints are {:?}, the paper reports [20, 100]",
                    s.breakpoints
                ));
            }
            Ok(Some(s.base_tc))
        }
        Cmd::Verify => Ok(None),
    }
}

/// The cycle time the paper reports for a shipped netlist.
pub fn paper_tc(name: &str) -> Option<f64> {
    match name {
        "example1" => Some(110.0),
        "example2" => Some(31.0),
        "gaas_mips" => Some(4.4),
        _ => None,
    }
}

/// The `result` of a daemon response line, which must be `ok` on the
/// `full` rung.
///
/// # Errors
///
/// Error envelopes, shed or degraded answers, unparseable lines.
pub fn response_result(line: &str) -> Result<Json, String> {
    let v = parse(line)?;
    let status = field(&v, "status")?.as_str().unwrap_or("?");
    if status != "ok" {
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        return Err(format!("status {status} ({kind})"));
    }
    let rung = field(&v, "degradation")?.as_str().unwrap_or("?");
    if rung != "full" {
        return Err(format!("answered on the {rung} rung, expected full"));
    }
    field(&v, "result").cloned()
}

/// The cycle time inside a daemon `result`: `cycle_time` for solve and
/// check, `base_cycle_time` for sweep.
///
/// # Errors
///
/// A result with neither field, or an uncertified solve.
pub fn result_tc(result: &Json) -> Result<f64, String> {
    if result.get("base_cycle_time").is_some() {
        return number(result, "base_cycle_time");
    }
    if result.get("certified").is_some() {
        return solve_tc(result);
    }
    number(result, "cycle_time")
}
