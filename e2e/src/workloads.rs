//! The untraced runs: set up, time the workload through the real `smo`
//! binary or daemon, then check every answer.

use crate::exec::{self, CmdOutput, LineClient, Spawner};
use crate::inputs::{self, Netlist, Plan, ReqClass, ServePools};
use crate::oracle::{self, Cmd};
use crate::stats;
use crate::{Env, Metric, Outcome, RunConfig, Sizes, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run before the timed phase, and after it; `setup_s` is the
/// median of all of them. Set-up takes milliseconds, and the host has slow
/// phases of a second or more, so the set-ups are split between both ends
/// of the run rather than run back to back.
const SETUPS: (usize, usize) = (10, 11);

/// Share of `--seconds` for which the workload runs untimed before the
/// clock starts, so the daemon's caches and lazy state fill and the host
/// settles after set-up. Warm-up answers are checked like the others.
const WARMUP_SHARE: f64 = 0.1;

/// One CLI command of a workload round.
#[derive(Debug, Clone)]
pub(crate) struct CliOp {
    /// The command, as the oracle checks it; its name is the latency class.
    pub cmd: Cmd,
    /// Index of the netlist in the workload's input list.
    pub input: usize,
    /// Arguments after `smo`.
    pub args: Vec<String>,
}

fn op(cmd: Cmd, input: usize, args: &[&str]) -> CliOp {
    CliOp {
        cmd,
        input,
        args: args.iter().map(|a| a.to_string()).collect(),
    }
}

/// A CLI workload: its netlists and one round of commands over them.
pub(crate) struct CliWorkload {
    pub inputs: Vec<Netlist>,
    pub round: Vec<CliOp>,
}

/// The netlists and command round of a CLI workload, with default flags
/// throughout (`--max-input-mb` only lifts the input-size cap).
pub(crate) fn cli_workload(
    workload: Workload,
    env: &Env,
    seed: u64,
    sizes: &Sizes,
) -> Result<CliWorkload, String> {
    let mut round = Vec::new();
    let inputs = match workload {
        Workload::DatapathLarge => {
            let inputs = inputs::datapaths(sizes.datapath.0, sizes.datapath.1, seed);
            for (i, n) in inputs.iter().enumerate() {
                let f = n.name.as_str();
                round.push(op(
                    Cmd::Solve,
                    i,
                    &["solve", f, "--json", "--max-input-mb", "64"],
                ));
                round.push(op(Cmd::Lint, i, &["lint", f, "--json"]));
            }
            inputs
        }
        Workload::LpMid => {
            let inputs = inputs::datapaths(sizes.mid.0, sizes.mid.1, seed);
            for (i, n) in inputs.iter().enumerate() {
                let f = n.name.as_str();
                round.push(op(Cmd::Check, i, &["check", f, "--json"]));
                round.push(op(Cmd::Sweep, i, &["sweep", f, "--json"]));
            }
            inputs
        }
        Workload::PaperSuite => {
            let inputs = inputs::paper_circuits(&env.root)?;
            for (i, n) in inputs.iter().enumerate() {
                let f = n.name.as_str();
                round.push(op(Cmd::Solve, i, &["solve", f, "--json"]));
                round.push(op(Cmd::Lint, i, &["lint", f, "--json"]));
                round.push(op(Cmd::Check, i, &["check", f, "--json"]));
                round.push(op(Cmd::Sweep, i, &["sweep", f, "--json"]));
            }
            // Example 1 is input 0: the Fig. 7 sweep of Δ41 (edge 3) and a
            // schedule check at the optimum.
            let fig7 = "sweep example1.ckt --param tc --edge 3 --max-delay 140 --runs 8 --json";
            round.push(op(Cmd::SweepFig7, 0, &fig7.split(' ').collect::<Vec<_>>()));
            round.push(op(
                Cmd::Verify,
                0,
                &["verify", "example1.ckt", "110", "0,60", "60,30"],
            ));
            inputs
        }
        Workload::ServeMix => return Err("serve-mix is not a CLI workload".into()),
    };
    Ok(CliWorkload { inputs, round })
}

/// Writes the netlists into `dir`.
pub(crate) fn write_inputs(dir: &Path, inputs: &[Netlist]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for n in inputs {
        let path = dir.join(&n.name);
        std::fs::write(&path, &n.text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs `setup` `count` times (at least once) and returns the last
/// product with every set-up's time in seconds. Each earlier product is
/// passed to `teardown` before the next set-up, outside the timing.
fn timed_setups<T>(
    count: usize,
    spawner: &mut Spawner,
    mut setup: impl FnMut(&mut Spawner) -> Result<T, String>,
    mut teardown: impl FnMut(&mut Spawner, T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count.max(1) {
        if let Some(product) = last.take() {
            teardown(spawner, product)?;
        }
        let t = Instant::now();
        last = Some(setup(spawner)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let product = last.ok_or("no set-up ran")?;
    Ok((product, times))
}

/// One timed operation: its latency class and latency.
struct Sample {
    class: &'static str,
    latency_ms: f64,
}

/// What a workload run measured.
struct Timed {
    /// The operations of the timed phase.
    samples: Vec<Sample>,
    /// Length of the timed phase.
    wall: Duration,
    /// Every set-up's time in seconds.
    setup_times: Vec<f64>,
    /// Operations checked: the timed ones and the warm-up.
    attempted: usize,
    /// Largest resident set, in MiB, of any `smo` process started up to
    /// the end of the timed phase.
    peak_rss_mib: f64,
}

pub(crate) fn run(env: &Env, config: &RunConfig, sizes: &Sizes) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut spawner = Spawner::start(&env.bench)?;
    let timed = match config.workload {
        Workload::ServeMix => run_serve(env, config, sizes, &mut spawner, &mut outcome)?,
        w => run_cli(env, config, sizes, w, &mut spawner, &mut outcome)?,
    };
    let Timed {
        samples,
        wall,
        setup_times,
        attempted,
        peak_rss_mib,
    } = timed;

    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        by_class.entry(s.class).or_default().push(s.latency_ms);
    }
    let n = samples.len();
    // Each class's median, weighted by its share of the operations.
    let mut op_ms = 0.0;
    for (class, lat) in by_class {
        let sorted = stats::sorted(lat);
        let p50 = stats::median(&sorted).unwrap_or(f64::NAN);
        op_ms += p50 * sorted.len() as f64 / n as f64;
        let tail = match stats::tail(&sorted) {
            Some((p, v)) => format!("p{p}={v:.3} ms"),
            None => "no tail (too few samples)".into(),
        };
        outcome.info.push(format!(
            "class {class}: n={} p50={p50:.3} ms {tail}",
            sorted.len()
        ));
    }
    let setups = setup_times.len();
    let setup = stats::median(&stats::sorted(setup_times)).unwrap_or(f64::NAN);
    outcome.attempted = attempted;
    outcome.metrics = vec![
        Metric {
            name: "setup_s",
            value: setup,
            unit: "s",
            samples: setups,
        },
        Metric {
            name: "op_ms",
            value: op_ms,
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "ops_per_s",
            value: n as f64 / wall.as_secs_f64(),
            unit: "1/s",
            samples: n,
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss_mib,
            unit: "MiB",
            samples: attempted,
        },
    ];
    Ok(outcome)
}

/// Runs the round's commands untimed for the warm-up, then rounds of
/// commands until the clock runs out (at least one full round), then
/// checks every distinct output once and every repeat for identical
/// bytes.
fn run_cli(
    env: &Env,
    config: &RunConfig,
    sizes: &Sizes,
    workload: Workload,
    spawner: &mut Spawner,
    outcome: &mut Outcome,
) -> Result<Timed, String> {
    let dir = env.work.join(workload.name());
    // Set-up ends with one trivial command, so it includes starting `smo`.
    let probe = ["gen", "--latches", "4", "--out", "probe.ckt"].map(String::from);
    let mut setup = |spawner: &mut Spawner| {
        let wl = cli_workload(workload, env, config.seed, sizes)?;
        write_inputs(&dir, &wl.inputs)?;
        let out = spawner.run(&env.smo, &dir, &probe);
        if out.code != Some(0) {
            return Err(format!(
                "`smo gen` probe failed: {:?} {:?}",
                out.code, out.error
            ));
        }
        Ok(wl)
    };
    let (wl, mut setup_times) = timed_setups(SETUPS.0, spawner, &mut setup, |_, _| Ok(()))?;

    let mut results: Vec<(usize, CmdOutput)> = Vec::new();
    let warmup = Duration::from_secs_f64(config.seconds * WARMUP_SHARE);
    let clock = Instant::now();
    for (i, op) in wl.round.iter().enumerate().cycle() {
        if clock.elapsed() >= warmup {
            break;
        }
        results.push((i, spawner.run(&env.smo, &dir, &op.args)));
    }
    let warm = results.len();

    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    for (i, op) in wl.round.iter().enumerate().cycle() {
        if results.len() - warm >= wl.round.len() && start.elapsed() >= budget {
            break;
        }
        results.push((i, spawner.run(&env.smo, &dir, &op.args)));
    }
    let wall = start.elapsed();
    let peak_rss_mib = spawner.peak_rss_mib()?;
    setup_times.extend(timed_setups(SETUPS.1, spawner, &mut setup, |_, _| Ok(()))?.1);

    // Oracle: the first output of each command is checked in depth;
    // repeats must reproduce it byte for byte.
    let mut first: BTreeMap<usize, &CmdOutput> = BTreeMap::new();
    let mut tcs: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (i, out) in &results {
        let op = &wl.round[*i];
        let verdict = match (out.error.as_ref(), first.get(i)) {
            (Some(e), _) => Err(e.clone()),
            (None, Some(f)) if f.code != out.code || f.stdout != out.stdout => {
                Err("output differs from the first run of the same command".into())
            }
            (None, Some(_)) => Ok(()),
            (None, None) => {
                first.insert(*i, out);
                let stem = wl.inputs[op.input].name.trim_end_matches(".ckt");
                oracle::check_cli(op.cmd, stem, out.code, &out.stdout).map(|tc| {
                    if let Some(tc) = tc {
                        tcs.entry(op.input).or_default().push(tc);
                    }
                })
            }
        };
        if let Err(e) = verdict {
            outcome
                .failures
                .push(format!("smo {}: {e}", op.args.join(" ")));
        }
    }
    // Every cycle time reported for one input must agree, and the first
    // must pass the Bellman-Ford bracket.
    for (input, list) in &tcs {
        let name = &wl.inputs[*input].name;
        for tc in &list[1..] {
            if let Err(e) = oracle::agree(list[0], *tc) {
                outcome.failures.push(format!("{name}: {e}"));
            }
        }
        let bracketed =
            smo_api::parse_netlist(&wl.inputs[*input].text, &smo_api::ParseLimits::UNLIMITED)
                .map_err(|e| e.to_string())
                .and_then(|c| oracle::bracket(&c, list[0]));
        if let Err(e) = bracketed {
            outcome.failures.push(format!("{name}: {e}"));
        }
    }

    let samples = results[warm..]
        .iter()
        .map(|(i, out)| Sample {
            class: wl.round[*i].cmd.name(),
            latency_ms: out.latency.as_secs_f64() * 1e3,
        })
        .collect();
    Ok(Timed {
        samples,
        wall,
        setup_times,
        attempted: results.len(),
        peak_rss_mib,
    })
}

/// One `serve-mix` request as sent and answered.
struct Exchange {
    client: usize,
    seq: usize,
    req: inputs::PlannedRequest,
    /// Sent after the warm-up, so it is part of the timed phase.
    timed: bool,
    latency: Duration,
    response: Result<String, String>,
}

/// Sends one client's request sequence over one connection: untimed until
/// `start`, then until `budget` has passed since `start` (and at least
/// `min_requests` timed ones). A failed exchange reconnects.
fn client_loop(
    client: usize,
    addr: &str,
    pools: &ServePools,
    sizes: &Sizes,
    seed: u64,
    start: Instant,
    budget: Duration,
) -> (Vec<Exchange>, Instant) {
    let mut out = Vec::new();
    let mut timed_count = 0;
    let mut conn = LineClient::connect(addr);
    for (seq, req) in Plan::new(&sizes.serve, seed, client as u64).enumerate() {
        let now = Instant::now();
        if timed_count >= sizes.serve.min_requests && now >= start + budget {
            break;
        }
        let timed = now >= start;
        timed_count += usize::from(timed);
        let tag = format!("c{client}-{seq}");
        let line = pools.request_line(&req, &tag);
        let t = Instant::now();
        let response = match conn.as_mut() {
            Ok(c) => c.call(&line).map_err(|e| e.to_string()),
            Err(e) => Err(format!("connect: {e}")),
        };
        let latency = t.elapsed();
        if response.is_err() {
            conn = LineClient::connect(addr);
        }
        out.push(Exchange {
            client,
            seq,
            req,
            timed,
            latency,
            response,
        });
    }
    (out, Instant::now())
}

fn run_serve(
    env: &Env,
    config: &RunConfig,
    sizes: &Sizes,
    spawner: &mut Spawner,
    outcome: &mut Outcome,
) -> Result<Timed, String> {
    // Each set-up starts a fresh daemon; the previous one is shut down
    // outside the timing.
    let setup = |spawner: &mut Spawner| {
        let pools = ServePools::generate(&sizes.serve, config.seed);
        Ok((pools, spawner.serve(&env.smo)?))
    };
    let teardown = |spawner: &mut Spawner, (_, addr): (ServePools, String)| spawner.shutdown(&addr);
    let ((pools, addr), mut setup_times) = timed_setups(SETUPS.0, spawner, setup, teardown)?;

    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now() + Duration::from_secs_f64(config.seconds * WARMUP_SHARE);
    let (exchanges, end) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|client| {
                let (addr, pools) = (&addr, &pools);
                s.spawn(move || client_loop(client, addr, pools, sizes, config.seed, start, budget))
            })
            .collect();
        let mut all = Vec::new();
        let mut end = start;
        for h in handles {
            match h.join() {
                Ok((ex, e)) => {
                    all.extend(ex);
                    end = end.max(e);
                }
                Err(_) => outcome.failures.push("a client thread panicked".into()),
            }
        }
        (all, end)
    });
    let wall = end - start;
    let stats = exec::request(&addr, "{\"cmd\":\"stats\"}\n");
    spawner.shutdown(&addr)?;
    let peak_rss_mib = spawner.peak_rss_mib()?;
    let (last, after) = timed_setups(SETUPS.1, spawner, setup, teardown)?;
    teardown(spawner, last)?;
    setup_times.extend(after);

    // Oracle: every answer ok on the full rung; per pool netlist, one
    // bracketed Tc that every answer for it must match.
    let mut known: BTreeMap<(ReqClass, usize), f64> = BTreeMap::new();
    for ex in &exchanges {
        let key = (ex.req.class, ex.req.index);
        let verdict = ex.response.as_ref().map_err(Clone::clone).and_then(|line| {
            let tc = oracle::response_result(line).and_then(|r| oracle::result_tc(&r))?;
            match known.get(&key) {
                Some(&k) => oracle::agree(k, tc),
                None => {
                    let netlist = &pools.pool(ex.req.class)[ex.req.index];
                    smo_api::parse_netlist(&netlist.text, &smo_api::ParseLimits::UNLIMITED)
                        .map_err(|e| e.to_string())
                        .and_then(|c| oracle::bracket(&c, tc))?;
                    known.insert(key, tc);
                    Ok(())
                }
            }
        });
        if let Err(e) = verdict {
            outcome.failures.push(format!(
                "request c{}-{} ({}): {e}",
                ex.client,
                ex.seq,
                ex.req.class.name()
            ));
        }
    }
    match stats {
        Ok(line) => outcome.info.push(format!("daemon stats: {line}")),
        Err(e) => outcome.failures.push(e),
    }

    let samples = exchanges
        .iter()
        .filter(|ex| ex.timed)
        .map(|ex| Sample {
            class: ex.req.class.name(),
            latency_ms: ex.latency.as_secs_f64() * 1e3,
        })
        .collect();
    Ok(Timed {
        samples,
        wall,
        setup_times,
        attempted: exchanges.len(),
        peak_rss_mib,
    })
}
