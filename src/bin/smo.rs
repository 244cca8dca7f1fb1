//! `smo` — command-line optimal-clocking tool.
//!
//! The 1990 implementation was "a simple parser, a dense-matrix LP solver
//! … and graphical output routines"; this binary is the same package around
//! the library. Run `smo` without arguments for the usage banner.
//!
//! The commands the daemon also serves (`solve`, `verify`, `check`,
//! `diagnose`, `sweep`) parse their arguments into the daemon's own
//! [`Request`](smo::api::Request) and run through the same
//! [`ops::run`](smo::api::ops::run) dispatch: same defaults, same checks,
//! and under `--json` the bytes of the daemon's `result`. `smo call` sends
//! that request to a daemon instead.
//!
//! Netlists use the `smo_circuit::netlist` text format; files containing
//! `gate`/`wire` lines are parsed gate-level and extracted automatically.

use smo::analyze::{analyze, lint, AnalyzeError, Rule};
use smo::api::ops::{self, OpError, Outcome, Settings};
use smo::api::{input_limits, Command, Json, Request};
use smo::circuit::{lump_equivalent_latches, netlist, to_dot, Circuit};
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};
use smo::sim::{monte_carlo, simulate, MonteCarloOptions, SimOptions};
use smo::timing::{
    min_cycle_time, render_solution, timing_report, Backend, MlpOptions, TimingModel,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Commands write into a buffer that goes to stdout once they are
    // done. A reader that stops early (`smo … | head -1`) closes the
    // pipe: the rest of the output is dropped quietly, and the exit code
    // still reports the command's verdict.
    let mut out = String::new();
    let result = run(&args, &mut out);
    if let Err(e) = std::io::stdout().write_all(out.as_bytes()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            to_stderr(format_args!("error: cannot write output: {e}"));
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            to_stderr(format_args!("error: {message}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
        Err(CliError::Failed(message)) => {
            to_stderr(format_args!("error: {message}"));
            ExitCode::FAILURE
        }
    }
}

/// Writes one message line to stderr. A reader that closed stderr drops
/// the message quietly, as `main` drops stdout, so the exit code still
/// reports the command's verdict.
fn to_stderr(message: std::fmt::Arguments) {
    let _ = writeln!(std::io::stderr(), "{message}");
}

/// Why a command stopped. Only argument errors print the usage banner.
enum CliError {
    /// A missing subcommand, unknown flag or bad value.
    Usage(String),
    /// The arguments were fine but the work failed: an unreadable
    /// netlist, a solver error, an I/O or network failure.
    Failed(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

impl From<std::fmt::Error> for CliError {
    fn from(e: std::fmt::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

/// An argument error, as the `Err` of any result.
fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(message.into()))
}

/// Wraps a runtime error (see [`CliError::Failed`]).
fn failed(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

const USAGE: &str = "usage:
  smo solve    <netlist> [--backend B] [--no-certify] [--time-limit SECS] [--json]
                          certified minimum cycle time and optimal schedule:
                          every solver verdict is checked independently (exit
                          1 if a check fails; --no-certify skips them)
  smo verify   <netlist> <Tc> <s,w> [<s,w> ...] [--backend B]
                          check a concrete schedule, one start,width pair per
                          phase; the graph also says whether ANY schedule
                          exists at Tc (exit 2 if that contradicts the rows)
  smo check    <netlist> [--cycle-time T] [--backend B] [--allow RULE]
               [--deny RULE] [--json]
                          lint + solve + short-path race analysis, each race
                          with its witness and clock-separation fix; --allow
                          suppresses a rule, --deny escalates it to error;
                          exit 2 on any error finding
  smo diagnose <netlist> [--cycle-time T] [--json]
                          minimum cycle time, or a Farkas-certified
                          explanation of why T is unachievable
  smo sweep    <netlist> [--param tc [--edge E] [--max-delay D] | --param delay
               [--spread S] [--seed S]] [--runs N] [--certify] [--jobs N] [--json]
                          cycle-time sweep: `tc` grids edge E's delay up to D
                          (default twice it), exact breakpoints included;
                          `delay` (default) jitters every delay by ±S; each
                          refuses the other's flags; the output is the same
                          for any --jobs
  smo lint     <netlist> [--json]          structural checks (exit 1 on errors)
  smo analyze  <netlist> [--json]          cycle-time bracket + certified
                                           optimum (exit 2 if they disagree)
  smo report   <netlist>                   full timing report
  smo simulate <netlist> [waves]           behavioural simulation
  smo montecarlo <netlist> <scale> [runs]  jittered-margin campaign at
                                           scale × the optimal schedule
  smo dot | lp | lump <netlist>            Graphviz, LP-format problem P2,
                                           bus-lumped netlist
  smo gen      [--latches N | --stages S --width W] [--phases K] [--fanin F]
               [--delay-min A] [--delay-max B] [--seed S] [--out FILE]
                          seeded pipelined datapath (stdout or FILE), the
                          same bytes for the same flags, lint-clean
  smo serve    [--addr A] [--workers N] [--queue N]
                          timing daemon: JSON lines over TCP (see DESIGN.md)
  smo call     <addr> <cmd> [arguments of `smo <cmd>`] [--id I] [--deadline-ms N]
                          send one request (ping, stats, shutdown, solve,
                          verify, check, diagnose, sweep) to a daemon and
                          print the reply; exit 1 on an error reply
  smo bench-serve [--quick] [--out FILE]   daemon load test

every command that reads a netlist also takes
  --max-input-mb N        raise the 4 MiB netlist input limit to N MiB (the
                          line and element limits scale with it)
--backend B is auto (default: the graph on difference models, the simplex
otherwise), graph or lp. `smo call` sends the netlist inline and takes none
of --json, --max-input-mb, --time-limit, --jobs, --allow, --deny.";

/// How a flag's value is read.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag sets its field to this boolean.
    Switch(bool),
    /// A number (`f64`).
    Number,
    /// A non-negative integer.
    Integer,
    /// Text.
    Text,
}

/// The commands the daemon also serves.
const DAEMON_COMMANDS: &[&str] = &["solve", "verify", "check", "diagnose", "sweep"];
#[rustfmt::skip]
const NETLIST_COMMANDS: &[&str] = &[
    "solve", "verify", "check", "diagnose", "sweep",
    "lint", "analyze", "report", "simulate", "montecarlo", "dot", "lp", "lump",
];
const SWEEP: &[&str] = &["sweep"];

/// A flag: its name, the request field it sets (empty for a setting of
/// the CLI's own, which has no wire field), how its value is read, and
/// the subcommands that take it.
type Flag = (&'static str, &'static str, Kind, &'static [&'static str]);

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--backend", "backend", Kind::Text, &["solve", "verify", "check"]),
    ("--no-certify", "certify", Kind::Switch(false), &["solve"]),
    ("--cycle-time", "cycle_time", Kind::Number, &["check", "diagnose"]),
    ("--param", "param", Kind::Text, SWEEP),
    ("--runs", "runs", Kind::Integer, SWEEP),
    ("--edge", "edge", Kind::Integer, SWEEP),
    ("--max-delay", "max_delay", Kind::Number, SWEEP),
    ("--spread", "spread", Kind::Number, SWEEP),
    ("--seed", "seed", Kind::Integer, SWEEP),
    ("--certify", "certify", Kind::Switch(true), SWEEP),
    ("--id", "id", Kind::Text, &["call"]),
    ("--deadline-ms", "deadline_ms", Kind::Integer, &["call"]),
    ("--max-input-mb", "", Kind::Integer, NETLIST_COMMANDS),
    ("--json", "", Kind::Switch(true), &["solve", "check", "diagnose", "sweep", "lint", "analyze"]),
    ("--time-limit", "", Kind::Number, &["solve"]),
    ("--jobs", "", Kind::Integer, SWEEP),
    ("--allow", "", Kind::Text, &["check"]),
    ("--deny", "", Kind::Text, &["check"]),
    ("--latches", "", Kind::Integer, &["gen"]),
    ("--stages", "", Kind::Integer, &["gen"]),
    ("--width", "", Kind::Integer, &["gen"]),
    ("--phases", "", Kind::Integer, &["gen"]),
    ("--fanin", "", Kind::Integer, &["gen"]),
    ("--delay-min", "", Kind::Number, &["gen"]),
    ("--delay-max", "", Kind::Number, &["gen"]),
    ("--seed", "", Kind::Integer, &["gen"]),
    ("--out", "", Kind::Text, &["gen", "bench-serve"]),
    ("--addr", "", Kind::Text, &["serve"]),
    ("--workers", "", Kind::Integer, &["serve"]),
    ("--queue", "", Kind::Integer, &["serve"]),
    ("--quick", "", Kind::Switch(true), &["bench-serve"]),
];

/// A command line split by [`FLAGS`]: each flag given, with its value, in
/// order, and the positional arguments.
struct Args {
    flags: Vec<(&'static Flag, String)>,
    positional: std::collections::VecDeque<String>,
}

impl Args {
    /// Splits `rest`, the arguments of subcommand `cmd`. Under `smo call`
    /// (`call`), only the flags that set a request field are taken.
    fn parse(cmd: &str, rest: &[String], call: bool) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Default::default(),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let flag = FLAGS.iter().find(|(name, field, _, cmds)| {
                name == arg
                    && ((cmds.contains(&cmd) && !(call && field.is_empty()))
                        || (call && *cmds == ["call"]))
            });
            match flag {
                Some(flag @ (name, _, kind, _)) => {
                    let value = match kind {
                        Kind::Switch(_) => String::new(),
                        _ => it
                            .next()
                            .ok_or_else(|| format!("{name} needs a value"))?
                            .clone(),
                    };
                    args.flags.push((flag, value));
                }
                None if arg.starts_with('-') => return Err(format!("unexpected argument `{arg}`")),
                None => args.positional.push_back(arg.clone()),
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.0 == name)
    }

    /// The value of the last `name` flag given, if any.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.iter().rev().find(|(f, _)| f.0 == name) {
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("bad {name} value: {e}")),
            None => Ok(None),
        }
    }

    /// The next positional argument, or `missing` as a usage error.
    fn next(&mut self, missing: &str) -> Result<String, String> {
        self.positional.pop_front().ok_or_else(|| missing.into())
    }

    /// Fails on a positional argument nothing took.
    fn done(&self) -> Result<(), String> {
        match self.positional.front() {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }

    /// The request fields the flags set, typed as on the wire; a repeated
    /// flag counts once, with its last value.
    fn fields(&self) -> Result<Vec<(String, Json)>, String> {
        let mut fields: Vec<(String, Json)> = Vec::new();
        for ((name, field, kind, _), v) in &self.flags {
            if field.is_empty() {
                continue;
            }
            let bad = |e: &dyn std::fmt::Display| format!("bad {name} value: {e}");
            let value = match kind {
                Kind::Switch(b) => Json::Bool(*b),
                Kind::Number => Json::Num(v.parse().map_err(|e| bad(&e))?),
                Kind::Integer => Json::Num(v.parse::<u64>().map_err(|e| bad(&e))? as f64),
                Kind::Text => Json::Str(v.clone()),
            };
            fields.retain(|(k, _)| k != field);
            fields.push((field.to_string(), value));
        }
        Ok(fields)
    }

    /// The request `smo <cmd>` makes of its arguments and the netlist text,
    /// built by the daemon's own [`Request::from_json`]. `verify`'s
    /// positional arguments are its cycle time and schedule.
    fn request(&mut self, cmd: &str, netlist: Option<String>) -> Result<Request, String> {
        let mut fields = vec![("cmd".to_string(), Json::Str(cmd.into()))];
        fields.extend(self.fields()?);
        if cmd == "verify" {
            let tc: f64 = self
                .next("missing cycle time")?
                .parse()
                .map_err(|e| format!("bad cycle time: {e}"))?;
            let mut phases = Vec::new();
            while let Some(pair) = self.positional.pop_front() {
                let (s, w) = pair
                    .split_once(',')
                    .ok_or_else(|| format!("expected start,width but got `{pair}`"))?;
                let s: f64 = s.parse().map_err(|e| format!("bad start: {e}"))?;
                let w: f64 = w.parse().map_err(|e| format!("bad width: {e}"))?;
                phases.push(Json::Arr(vec![Json::Num(s), Json::Num(w)]));
            }
            fields.push(("cycle_time".into(), Json::Num(tc)));
            fields.push(("phases".into(), Json::Arr(phases)));
        }
        self.done()?;
        fields.extend(netlist.map(|n| ("netlist".to_string(), Json::Str(n))));
        Request::from_json(Json::Obj(fields)).map_err(|e| e.message)
    }
}

fn run(args: &[String], out: &mut String) -> Result<ExitCode, CliError> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let cmd = if cmd == "optimize" { "solve" } else { cmd };
    match cmd {
        "gen" => return gen(&Args::parse(cmd, rest, false)?, out),
        "serve" => return serve(&Args::parse(cmd, rest, false)?),
        "bench-serve" => return bench_serve(&Args::parse(cmd, rest, false)?, out),
        "call" => return call(rest, out),
        _ if !NETLIST_COMMANDS.contains(&cmd) => {
            return usage(format!("unknown subcommand `{cmd}`"))
        }
        _ => {}
    }
    let mut args = Args::parse(cmd, rest, false)?;
    let path = args.next("missing netlist path")?;
    let limits = input_limits(args.get("--max-input-mb")?)?;
    let mut settings = Settings {
        jobs: args.get("--jobs")?.unwrap_or(1),
        ..Settings::default()
    };
    if let Some(secs) = args.get::<f64>("--time-limit")? {
        if !secs.is_finite() || secs <= 0.0 {
            return usage(format!(
                "time limit must be a positive number of seconds, got {secs}"
            ));
        }
        settings.time_limit = Some(std::time::Duration::from_secs_f64(secs));
    }
    for ((name, ..), rule) in &args.flags {
        settings.lint = match *name {
            "--allow" => settings.lint.allow(parse_rule(rule, name)?),
            "--deny" => settings.lint.deny(parse_rule(rule, name)?),
            _ => continue,
        };
    }
    // The request is checked before the netlist is read. Its netlist text
    // stays empty: the CLI parses the file itself and frees the text
    // before the command runs.
    let request = DAEMON_COMMANDS
        .contains(&cmd)
        .then(|| args.request(cmd, Some(String::new())))
        .transpose()?;
    let circuit = smo::api::parse_netlist(&read(&path)?, &limits)
        .map_err(|e| failed(format!("{path}: {e}")))?;
    let Some(request) = request else {
        return local(cmd, &mut args, &circuit, out);
    };
    match ops::run(&circuit, &request.command, &settings) {
        Ok(outcome) => print(
            &circuit,
            &request.command,
            &outcome,
            args.has("--json"),
            out,
        ),
        Err(OpError::Request(message)) => usage(message),
        Err(OpError::Timing(e)) => Err(failed(e)),
        // A failed check means the race analysis never ran, not that the
        // circuit is clean: report it without the usage banner.
        Err(OpError::Check(e)) => {
            to_stderr(format_args!("check error: {e}"));
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Prints a daemon command's outcome as text, or as its JSON under
/// `--json`; returns the command's exit code.
fn print(
    circuit: &Circuit,
    command: &Command,
    outcome: &Outcome,
    json: bool,
    out: &mut String,
) -> Result<ExitCode, CliError> {
    if json {
        writeln!(out, "{}", outcome.json(circuit).render_compact())?;
    }
    let code = match outcome {
        Outcome::Solve(sol) => {
            if !json {
                writeln!(out, "optimal cycle time: {:.6}", sol.cycle_time())?;
                let graph = sol.backend() == Backend::Graph;
                if graph {
                    writeln!(out, "backend: graph (exact min-cycle-ratio)")?;
                } else {
                    writeln!(out, "backend: lp (simplex)")?;
                }
                writeln!(out, "certified: {}", sol.certified())?;
                for (i, cert) in sol.certificates().iter().enumerate() {
                    if graph {
                        writeln!(out, "  graph: {cert}")?;
                    } else {
                        writeln!(out, "  lp {}: {cert}", i + 1)?;
                    }
                }
                write!(out, "{}", render_solution(circuit, sol))?;
            }
            // With certification on, a returned solution whose verdicts
            // did not all pass their independent checks is unproven.
            let certify = matches!(command, Command::Solve { certify: true, .. });
            u8::from(certify && !sol.certified())
        }
        Outcome::Verify {
            cycle_time: tc,
            report,
            exists,
        } => {
            if report.is_feasible() {
                let slack = report.worst_slack();
                writeln!(out, "FEASIBLE (worst setup slack {slack:.4})")?;
                // A feasible schedule is itself a witness that one exists:
                // a graph that finds none is an internal soundness bug.
                match exists {
                    Some(true) => writeln!(out, "graph: confirmed, Tc = {tc} is achievable")?,
                    Some(false) => {
                        to_stderr(format_args!(
                            "verify error: the schedule passes the row checks but the \
                             difference graph reports no feasible schedule at Tc = {tc}"
                        ));
                        return Ok(ExitCode::from(2));
                    }
                    None => {}
                }
                0
            } else {
                for v in report.violations() {
                    writeln!(out, "VIOLATION: {}", v.describe(circuit))?;
                }
                writeln!(out, "INFEASIBLE")?;
                match exists {
                    Some(true) => writeln!(
                        out,
                        "graph: a different schedule IS feasible at Tc = {tc} \
                         (try `smo solve`)"
                    )?,
                    Some(false) => writeln!(out, "graph: no schedule at all exists at Tc = {tc}")?,
                    None => {}
                }
                1
            }
        }
        Outcome::Check(report) => {
            if !json {
                writeln!(out, "{report}")?;
            }
            if report.has_errors() {
                2
            } else {
                0
            }
        }
        Outcome::Diagnose(d) => {
            if !json {
                writeln!(out, "{d}")?;
            }
            u8::from(!d.is_feasible())
        }
        Outcome::Sweep(report, _) => {
            if !json {
                writeln!(
                    out,
                    "base: Tc = {:.6} ({} cold pivots)",
                    report.base_cycle_time, report.base_iterations
                )?;
                writeln!(
                    out,
                    "{} re-solve(s): Tc in [{:.6}, {:.6}], mean {:.6}, {} total pivots",
                    report.runs.len(),
                    report.min_cycle_time,
                    report.max_cycle_time,
                    report.mean_cycle_time,
                    report.warm_iterations
                )?;
                if !report.breakpoints.is_empty() {
                    let bps: Vec<String> = report
                        .breakpoints
                        .iter()
                        .map(|b| format!("{b:.6}"))
                        .collect();
                    writeln!(out, "exact Tc*(Δ) breakpoints: {}", bps.join(", "))?;
                }
                for run in &report.runs {
                    writeln!(
                        out,
                        "  run {:4}  param {:>12.6}  Tc {:>12.6}  pivots {:4}",
                        run.index, run.value, run.cycle_time, run.iterations
                    )?;
                }
            }
            0
        }
    };
    Ok(ExitCode::from(code))
}

/// The commands only the CLI runs: reports, exports and simulations.
fn local(
    cmd: &str,
    args: &mut Args,
    circuit: &Circuit,
    out: &mut String,
) -> Result<ExitCode, CliError> {
    // `simulate` and `montecarlo` take counts after the netlist.
    let count = |args: &mut Args, what: &str, default: usize| -> Result<usize, CliError> {
        let n = match args.positional.pop_front() {
            Some(n) => n.parse().map_err(|e| format!("bad {what} count: {e}"))?,
            None => default,
        };
        match n {
            0 => usage(format!("{what} count must be at least 1")),
            n => Ok(n),
        }
    };
    let json = args.has("--json");
    let code = match cmd {
        "report" => {
            args.done()?;
            let text = timing_report(circuit, &MlpOptions::default()).map_err(failed)?;
            write!(out, "{text}")?;
            ExitCode::SUCCESS
        }
        "simulate" => {
            let waves = count(args, "wave", 64)?;
            args.done()?;
            let sol = min_cycle_time(circuit).map_err(failed)?;
            let options = SimOptions {
                max_waves: waves,
                ..Default::default()
            };
            let trace = simulate(circuit, sol.schedule(), &options);
            writeln!(
                out,
                "simulated {} wave(s) at Tc = {:.4}: converged at {:?}, {} violation(s)",
                trace.waves(),
                sol.cycle_time(),
                trace.converged_at(),
                trace.violations().len()
            )?;
            for (id, s) in circuit.syncs() {
                writeln!(
                    out,
                    "  {:16} D = {:8.4}  (analysis: {:8.4})",
                    s.name,
                    trace.steady_departures()[id.index()],
                    sol.departure(id)
                )?;
            }
            ExitCode::SUCCESS
        }
        "montecarlo" => {
            let scale: f64 = args
                .next("missing schedule scale (e.g. 0.95)")?
                .parse()
                .map_err(|e| format!("bad scale: {e}"))?;
            if !scale.is_finite() || scale <= 0.0 {
                return usage(format!(
                    "scale must be a positive finite number, got {scale}"
                ));
            }
            let runs = count(args, "run", 200)?;
            args.done()?;
            let sol = min_cycle_time(circuit).map_err(failed)?;
            let sched = sol.schedule().scaled(scale);
            let options = MonteCarloOptions {
                runs,
                threads: std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                ..Default::default()
            };
            let report = monte_carlo(circuit, &sched, &options);
            writeln!(out,
                "Tc = {:.4} ({}× optimum): {}/{} runs failed ({:.1}%), {} setup violations, worst shortfall {:.4}",
                sched.cycle(),
                scale,
                report.failing_runs,
                report.runs,
                report.failure_rate() * 100.0,
                report.setup_violations,
                report.worst_shortfall
            )?;
            ExitCode::SUCCESS
        }
        "dot" => {
            args.done()?;
            write!(out, "{}", to_dot(circuit))?;
            ExitCode::SUCCESS
        }
        "lp" => {
            args.done()?;
            let model = TimingModel::build(circuit).map_err(failed)?;
            write!(out, "{}", smo::lp::write_lp(model.problem()))?;
            ExitCode::SUCCESS
        }
        "lump" => {
            args.done()?;
            let (reduced, _) = lump_equivalent_latches(circuit);
            to_stderr(format_args!(
                "lumped {} → {} synchronizers, {} → {} paths",
                circuit.num_syncs(),
                reduced.num_syncs(),
                circuit.num_edges(),
                reduced.num_edges()
            ));
            write!(out, "{}", netlist::write(&reduced))?;
            ExitCode::SUCCESS
        }
        "lint" => {
            args.done()?;
            let report = lint(circuit);
            if json {
                writeln!(out, "{}", report.json().render_compact())?;
            } else {
                writeln!(out, "{report}")?;
            }
            ExitCode::from(u8::from(report.has_errors()))
        }
        // `analyze`
        _ => {
            args.done()?;
            match analyze(circuit) {
                Ok(report) => {
                    if json {
                        writeln!(out, "{}", report.json().render_compact())?;
                    } else {
                        write!(out, "{report}")?;
                    }
                    // An optimum without a valid certificate is unproven:
                    // the same exit code as a failed cross-check.
                    if report.certificate.as_ref().is_some_and(|c| c.is_valid()) {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(2)
                    }
                }
                // A failed cross-check is not a usage error: report it on
                // stderr with a distinct exit code and no usage banner.
                Err(e @ AnalyzeError::BoundsDisagree { .. }) => {
                    to_stderr(format_args!("analyze error: {e}"));
                    ExitCode::from(2)
                }
                Err(e) => return Err(failed(e)),
            }
        }
    };
    Ok(code)
}

/// `smo gen`: a seeded pipelined datapath.
fn gen(args: &Args, out: &mut String) -> Result<ExitCode, CliError> {
    args.done()?;
    let mut config = DatapathConfig::default();
    let (stages, width) = (args.get("--stages")?, args.get("--width")?);
    if let Some(n) = args.get("--latches")? {
        if stages.is_some() || width.is_some() {
            return usage("--latches is exclusive with --stages/--width");
        }
        let sized = DatapathConfig::with_latches(n);
        config.stages = sized.stages;
        config.width = sized.width;
    }
    config.stages = stages.unwrap_or(config.stages);
    config.width = width.unwrap_or(config.width);
    config.phases = args.get("--phases")?.unwrap_or(config.phases);
    config.fanin = args.get("--fanin")?.unwrap_or(config.fanin);
    config.delay_range.0 = args.get("--delay-min")?.unwrap_or(config.delay_range.0);
    config.delay_range.1 = args.get("--delay-max")?.unwrap_or(config.delay_range.1);
    let seed: u64 = args.get("--seed")?.unwrap_or(0);
    // Validate up front so bad flags are CLI errors, not panics.
    if !(2..=4).contains(&config.phases) {
        return usage(format!("--phases must be 2..=4, got {}", config.phases));
    }
    if config.stages < config.phases {
        return usage(format!(
            "need --stages >= --phases so every phase clocks a rank ({} < {})",
            config.stages, config.phases
        ));
    }
    if config.width < 2 {
        return usage("need --width >= 2");
    }
    if !(1..=config.width).contains(&config.fanin) {
        return usage(format!(
            "--fanin must be in 1..={}, got {}",
            config.width, config.fanin
        ));
    }
    if !(config.delay_range.0 > 0.0 && config.delay_range.0 <= config.delay_range.1) {
        return usage(format!(
            "delay range must be positive and non-empty, got {:?}",
            config.delay_range
        ));
    }
    let circuit = pipelined_datapath(&config, seed);
    let text = netlist::write(&circuit);
    to_stderr(format_args!(
        "generated {} latches ({} stages x {} wide), {} edges, {} phases, seed {seed}",
        circuit.num_latches(),
        config.stages,
        config.width,
        circuit.num_edges(),
        circuit.num_phases()
    ));
    match args.get::<String>("--out")? {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| failed(format!("cannot write {path}: {e}")))?
        }
        None => out.push_str(&text),
    }
    Ok(ExitCode::SUCCESS)
}

/// `smo serve`: the daemon, until a `shutdown` request drains it.
fn serve(args: &Args) -> Result<ExitCode, CliError> {
    args.done()?;
    let mut config = smo::api::ServerConfig::default();
    config.addr = args.get("--addr")?.unwrap_or(config.addr);
    config.max_active = args.get("--workers")?.unwrap_or(config.max_active);
    config.max_queue = args.get("--queue")?.unwrap_or(config.max_queue);
    if config.max_active == 0 {
        return usage("--workers must be at least 1");
    }
    let server = smo::api::serve(config).map_err(|e| failed(format!("serve: {e}")))?;
    // The first line of output is machine-readable so scripts can
    // scrape the bound port (`--addr 127.0.0.1:0` picks one).
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "listening on {}", server.addr());
    let _ = stdout.flush();
    server.wait();
    let _ = writeln!(stdout, "drained, exiting");
    Ok(ExitCode::SUCCESS)
}

/// `smo call <addr> <cmd> …`: the request `smo <cmd> …` would run, sent
/// to a daemon with the netlist inline. The netlist is not parsed here.
fn call(rest: &[String], out: &mut String) -> Result<ExitCode, CliError> {
    let (addr, rest) = rest
        .split_first()
        .ok_or("missing daemon address (host:port)")?;
    let (cmd, rest) = rest
        .split_first()
        .ok_or("missing command (ping, stats, shutdown, solve, verify, check, diagnose, sweep)")?;
    let cmd = if cmd == "optimize" { "solve" } else { cmd };
    let control = matches!(cmd, "ping" | "stats" | "shutdown" | "debug-panic");
    if !control && !DAEMON_COMMANDS.contains(&cmd) {
        return usage(format!("`{cmd}` is not a daemon command"));
    }
    let mut args = Args::parse(cmd, rest, true)?;
    let netlist = if control {
        None
    } else {
        Some(read(&args.next("missing netlist path")?)?)
    };
    let request = args.request(cmd, netlist)?;
    let mut client =
        smo::api::Client::connect(addr).map_err(|e| failed(format!("connect {addr}: {e}")))?;
    let response = client
        .call(&request.to_json())
        .map_err(|e| failed(format!("call: {e}")))?;
    writeln!(out, "{response}")?;
    Ok(ExitCode::from(u8::from(
        !response.contains("\"status\":\"ok\""),
    )))
}

/// `smo bench-serve`: the daemon load test.
fn bench_serve(args: &Args, out: &mut String) -> Result<ExitCode, CliError> {
    args.done()?;
    let out_path = args
        .get("--out")?
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let json = smo::api::bench::run_bench(args.has("--quick"))
        .map_err(|e| failed(format!("bench-serve: {e}")))?;
    std::fs::write(&out_path, &json)
        .map_err(|e| failed(format!("cannot write {out_path}: {e}")))?;
    write!(out, "{json}")?;
    to_stderr(format_args!("wrote {out_path}"));
    Ok(ExitCode::SUCCESS)
}

/// Parses the rule name given to `--allow` / `--deny`.
fn parse_rule(name: &str, flag: &str) -> Result<Rule, String> {
    Rule::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        format!(
            "unknown rule `{name}` for {flag}; known rules: {}",
            known.join(", ")
        )
    })
}

/// Reads a netlist file.
fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {path}: {e}")))
}
