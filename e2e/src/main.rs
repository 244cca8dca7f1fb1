//! `smo-e2e`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! smo-e2e run <workload> [--seed S] [--seconds N]     untraced, end-to-end metrics
//! smo-e2e trace <workload> [--seed S] [--seconds N]   traced, per-layer metrics
//! smo-e2e --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! Run from the checkout root; the `smo` binary is expected next to this
//! one (`e2e/run.sh` builds both). The last line of standard output is
//! the result object: `correct`, `attempted`, `failed` and `metrics`.
//! `smo-e2e --spawner` is the helper process a run starts its `smo`
//! processes from (see `smo_e2e::exec`).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smo_e2e::{run, Env, RunConfig, Sizes, Workload};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: smo-e2e run|trace <workload> [--seed S] [--seconds N]
       smo-e2e --workload <workload> --seed S --seconds N --trace 0|1
workloads: datapath-large, lp-mid, paper-suite, serve-mix";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut config = RunConfig {
        workload: Workload::PaperSuite,
        seed: 7,
        seconds: 25.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            mode @ ("run" | "trace") if workload.is_none() => {
                config.trace = mode == "trace";
                workload = Some(value(mode)?.clone());
            }
            "--workload" => workload = Some(value(arg)?.clone()),
            "--seed" => {
                config.seed = value(arg)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                config.seconds = value(arg)?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(config.seconds.is_finite() && config.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                config.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let name = workload.ok_or("missing workload")?;
    config.workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok(config)
}

/// The first line of a command's output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--spawner"] {
        return smo_e2e::exec::spawner_main();
    }
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = match (std::env::current_exe(), std::env::current_dir()) {
        (Ok(exe), Ok(root)) => Env {
            smo: exe.with_file_name("smo"),
            bench: exe,
            work: root.join("target").join("e2e"),
            root,
        },
        _ => {
            eprintln!("error: cannot locate this executable or the working directory");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match run(&env, &config, &Sizes::full()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "smo-e2e {} workload={} seed={} seconds={} commit={} available_parallelism={} rustc=\"{}\"",
        if config.trace { "trace" } else { "run" },
        config.workload.name(),
        config.seed,
        config.seconds,
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        first_line("rustc", &["-V"]),
    );
    for line in &outcome.info {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
