//! The traced run: the same inputs, replayed in-process, with a span
//! around each layer's public function.
//!
//! Each operation first replays its command the way the binary or the
//! daemon runs it (parse, main call, render — the *command time*), then
//! calls the layers that main call is built from one by one (model build,
//! classify, graph build, min-ratio or simplex, …). The layer spans
//! therefore repeat work the command spans hold; they are attributed,
//! never summed with them. Spans (name, input, start, end, parent) stay in
//! memory and are written to `trace-<workload>.json` in the work
//! directory when the run ends.
//!
//! The run starts with a fixed prefix of the workload's operations, sent
//! untraced through the real frontend (a `smo` process per command, or
//! one daemon connection), then replayed traced. Count metrics come from
//! that prefix, so they repeat exactly for a seed; the frontend overhead
//! pairs each prefix operation's frontend latency with its in-process
//! command time. The traced replay then continues through the workload
//! until the clock runs out.

use crate::exec::{self, LineClient, Spawner};
use crate::inputs::{Plan, ReqClass, ServePools};
use crate::oracle::{self, Cmd};
use crate::stats;
use crate::workloads::{cli_workload, write_inputs, CliOp};
use crate::{Env, Metric, Outcome, RunConfig, Sizes, Workload};
use smo_analyze::{check, lint_with, passes, AnalysisContext, CheckOptions, PassConfig};
use smo_api::{
    parse_netlist, solve_json, sweep_json, Engine, EngineConfig, Load, ParseLimits, Request,
};
use smo_circuit::{Circuit, ClockSchedule, EdgeId};
use smo_core::{
    graph_feasible_at, min_cycle_time_with, race_analysis, sweep_cycle_time, variable_images,
    verify, Backend, MlpOptions, RaceOptions, SweepOptions, SweepParam, TimingModel,
};
use smo_lp::{classify, DifferenceSystem, RecoveryPolicy, SolveBudget};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Upper bound on traced operations, which keeps the span file small on
/// workloads of sub-millisecond operations.
const MAX_TRACED_OPS: usize = 2000;

/// The independently timed parts of a cycle-time solve may exceed the
/// call they replicate by at most this factor (timer noise); more would
/// mean a layer is counted twice. Judged on the median per-call ratio over
/// calls of at least [`PARTS_MIN_MS`], when there are three or more: one
/// call's ratio swings by ±10% on a busy host, and below a millisecond the
/// span bookkeeping between the parts is a visible share.
const PARTS_SLACK: f64 = 1.05;

/// Shortest `core.mlp` call the parts check considers.
const PARTS_MIN_MS: f64 = 1.0;

/// One timed call.
struct Span {
    /// Layer (or `op.*` for an operation's root span).
    name: &'static str,
    /// Index of the operation's input.
    input: usize,
    /// Start, microseconds since the trace began.
    start_us: f64,
    /// End, microseconds since the trace began.
    end_us: f64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// What a traced operation replays.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `smo solve` / a daemon `solve`: `min_cycle_time_with`, backend auto.
    Solve,
    /// `smo lint`.
    Lint,
    /// `smo check` on the given backend (`lp` on the CLI, `auto` on the
    /// daemon).
    Check(Backend),
    /// `smo sweep` with these options.
    Sweep(SweepKind),
    /// `smo verify` at a fixed schedule.
    Verify { tc: f64, phases: [(f64, f64); 2] },
}

#[derive(Debug, Clone, Copy)]
enum SweepKind {
    /// The CLI's defaults (16 delay runs).
    Cli,
    /// The Fig. 7 sweep of Example 1's Δ41.
    Fig7,
    /// A daemon sweep with `"runs": 8`.
    Serve,
}

impl SweepKind {
    fn options(self) -> SweepOptions {
        match self {
            SweepKind::Cli => SweepOptions::default(),
            SweepKind::Fig7 => SweepOptions {
                param: SweepParam::Tc {
                    edge: EdgeId::new(3),
                    max_delay: 140.0,
                },
                runs: 8,
                ..SweepOptions::default()
            },
            SweepKind::Serve => SweepOptions {
                runs: 8,
                ..SweepOptions::default()
            },
        }
    }
}

/// The recorder plus everything measured alongside the spans.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Count metrics, accumulated only while `counting`.
    counts: BTreeMap<&'static str, f64>,
    counting: bool,
    /// Per `core.mlp` call: its time and the sum of its separately timed
    /// parts.
    mlp_vs_parts: Vec<(f64, f64)>,
    /// Sum of command times: the denominator of layer shares.
    command_total_ms: f64,
}

type Timed<T> = (T, f64);

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            counting: true,
            mlp_vs_parts: Vec::new(),
            command_total_ms: 0.0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, input: usize) -> usize {
        let t = self.now_us();
        self.spans.push(Span {
            name,
            input,
            start_us: t,
            end_us: t,
            parent: None,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let t = self.now_us();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_us = t;
        }
    }

    /// Times `f` as a child span of `root`; returns its value and
    /// milliseconds.
    fn time<T>(&mut self, root: usize, name: &'static str, f: impl FnOnce() -> T) -> Timed<T> {
        let input = self.spans.get(root).map_or(0, |s| s.input);
        let start = self.now_us();
        let out = black_box(f());
        let end = self.now_us();
        self.spans.push(Span {
            name,
            input,
            start_us: start,
            end_us: end,
            parent: Some(root),
        });
        (out, (end - start) / 1e3)
    }

    fn count(&mut self, name: &'static str, value: f64) {
        if self.counting {
            *self.counts.entry(name).or_default() += value;
        }
    }

    fn command(&mut self, ms: f64) -> f64 {
        self.command_total_ms += ms;
        ms
    }

    fn parse(
        &mut self,
        root: usize,
        src: &str,
        limits: &ParseLimits,
    ) -> Result<Timed<Circuit>, String> {
        let (c, ms) = self.time(root, "circuit.netlist.parse", || parse_netlist(src, limits));
        self.count("circuit.netlist.kb", src.len() as f64 / 1024.0);
        Ok((c.map_err(|e| e.to_string())?, ms))
    }

    fn model(&mut self, root: usize, c: &Circuit) -> Result<Timed<TimingModel>, String> {
        let (m, ms) = self.time(root, "core.model.build", || TimingModel::build(c));
        let m = m.map_err(|e| e.to_string())?;
        self.count("core.model.rows", m.num_constraints() as f64);
        Ok((m, ms))
    }

    /// `variable_images` + `classify`, then `DifferenceSystem::build`.
    fn graph(
        &mut self,
        root: usize,
        c: &Circuit,
        m: &TimingModel,
    ) -> Result<Timed<DifferenceSystem>, String> {
        let ((images, cls), classify_ms) = self.time(root, "lp.graph.classify", || {
            let images = variable_images(c, m);
            let cls = classify(m.problem(), &images);
            (images, cls)
        });
        let cls = cls.map_err(|e| e.to_string())?;
        let (sys, build_ms) = self.time(root, "lp.graph.build", || {
            DifferenceSystem::build(m.problem(), &images, &cls)
        });
        let sys = sys.map_err(|e| e.to_string())?;
        self.count("lp.graph.nodes", sys.num_nodes() as f64);
        self.count("lp.graph.arcs", sys.num_arcs() as f64);
        Ok((sys, classify_ms + build_ms))
    }

    /// `min_cycle_time_with` on `backend` (`core.mlp`).
    fn mlp(
        &mut self,
        root: usize,
        c: &Circuit,
        backend: Backend,
    ) -> Result<Timed<smo_core::TimingSolution>, String> {
        let options = MlpOptions {
            backend,
            ..MlpOptions::default()
        };
        let (sol, ms) = self.time(root, "core.mlp", || min_cycle_time_with(c, &options));
        let sol = sol.map_err(|e| e.to_string())?;
        self.count("core.mlp.update_iterations", sol.update_iterations() as f64);
        self.count("core.mlp.lp_pivots", sol.lp_iterations() as f64);
        Ok((sol, ms))
    }

    /// The parts of a `core.mlp` call that took `mlp_ms`, each timed on
    /// its own after it: the model, then the min-ratio solve on the graph
    /// path or the first certified LP on the LP path. Returns the model
    /// and, on the graph path, its difference system.
    fn mlp_parts(
        &mut self,
        root: usize,
        c: &Circuit,
        backend: Backend,
        mlp_ms: f64,
    ) -> Result<(TimingModel, Option<DifferenceSystem>), String> {
        let (model, model_ms) = self.model(root, c)?;
        let (sys, solver_ms) = if backend == Backend::Lp {
            let (cold, ms) = self.time(root, "lp.simplex.cold", || {
                model.solve_lp_certified(&RecoveryPolicy::default())
            });
            let (sol, _cert) = cold.map_err(|e| e.to_string())?;
            self.count("lp.simplex.pivots", sol.iterations() as f64);
            (None, ms)
        } else {
            let (sys, graph_ms) = self.graph(root, c, &model)?;
            let (outcome, ms) = self.time(root, "lp.graph.min_ratio", || {
                sys.minimize_param(&SolveBudget::UNLIMITED)
            });
            outcome.map_err(|e| e.to_string())?;
            (Some(sys), graph_ms + ms)
        };
        self.mlp_vs_parts.push((mlp_ms, model_ms + solver_ms));
        Ok((model, sys))
    }

    /// Replays one operation; returns its in-process command time.
    fn op(&mut self, op: Op, input: usize, src: &str, limits: &ParseLimits) -> Result<f64, String> {
        let root = self.open(
            match op {
                Op::Solve => "op.solve",
                Op::Lint => "op.lint",
                Op::Check(_) => "op.check",
                Op::Sweep(_) => "op.sweep",
                Op::Verify { .. } => "op.verify",
            },
            input,
        );
        let ms = self.op_body(root, op, src, limits);
        self.close(root);
        ms.map(|ms| self.command(ms))
    }

    /// The command first, as a fresh process runs it, then its layers.
    fn op_body(
        &mut self,
        root: usize,
        op: Op,
        src: &str,
        limits: &ParseLimits,
    ) -> Result<f64, String> {
        let (c, parse_ms) = self.parse(root, src, limits)?;
        let (main_ms, render_ms) = match op {
            Op::Solve => {
                let (sol, mlp_ms) = self.mlp(root, &c, Backend::Auto)?;
                let (_, render_ms) = self.time(root, "api.render", || solve_json(&sol));
                self.mlp_parts(root, &c, Backend::Auto, mlp_ms)?;
                (mlp_ms, render_ms)
            }
            Op::Lint => {
                let (report, lint_ms) = self.time(root, "analyze.lint", || {
                    lint_with(&c, &PassConfig::default())
                });
                let (_, render_ms) = self.time(root, "api.render", || report.to_json());
                self.context_and_passes(root, &c);
                (lint_ms, render_ms)
            }
            Op::Check(backend) => {
                let options = CheckOptions {
                    backend,
                    ..CheckOptions::default()
                };
                let (report, check_ms) = self.time(root, "analyze.check", || check(&c, &options));
                let report = report.map_err(|e| e.to_string())?;
                let (_, render_ms) = self.time(root, "api.render", || report.to_json());
                self.context_and_passes(root, &c);
                let (sol, mlp_ms) = self.mlp(root, &c, backend)?;
                let (model, sys) = self.mlp_parts(root, &c, backend, mlp_ms)?;
                let tc = sol.cycle_time();
                let sys = match sys {
                    Some(sys) => sys,
                    // On the LP path the race analysis still builds the
                    // difference graph, for its schedule at `Tc`.
                    None => self.graph(root, &c, &model)?.0,
                };
                let (feasible, _) = self.time(root, "lp.graph.feasible", || {
                    sys.feasible_at(tc, &SolveBudget::UNLIMITED)
                });
                feasible.map_err(|e| e.to_string())?;
                let race_options = RaceOptions {
                    backend,
                    cycle_time: Some(tc),
                    ..RaceOptions::default()
                };
                let (race, _) = self.time(root, "core.race", || race_analysis(&c, &race_options));
                self.count(
                    "core.race.races",
                    race.map_err(|e| e.to_string())?.races().len() as f64,
                );
                (check_ms, render_ms)
            }
            Op::Sweep(kind) => {
                let options = kind.options();
                let (reports, sweep_ms) = self.time(root, "core.sweep", || {
                    sweep_cycle_time(std::slice::from_ref(&c), &options)
                });
                let reports = reports.map_err(|e| e.to_string())?;
                let report = reports.first().ok_or("sweep returned no report")?;
                self.count("core.sweep.base_pivots", report.base_iterations as f64);
                self.count("core.sweep.warm_pivots", report.warm_iterations as f64);
                let (_, render_ms) = self.time(root, "api.render", || sweep_json(report, &options));
                (sweep_ms, render_ms)
            }
            Op::Verify { tc, phases } => {
                let (exists, verify_ms) = self.time(root, "core.verify", || {
                    let starts = phases.iter().map(|p| p.0).collect();
                    let widths = phases.iter().map(|p| p.1).collect();
                    let sched =
                        ClockSchedule::new(tc, starts, widths).map_err(|e| e.to_string())?;
                    let feasible = verify(&c, &sched).is_feasible();
                    let exists = graph_feasible_at(&c, tc).map_err(|e| e.to_string())?;
                    Ok::<_, String>(feasible && exists == Some(true))
                });
                if !exists? {
                    return Err("verify: the schedule is not feasible".into());
                }
                (verify_ms, 0.0)
            }
        };
        Ok(parse_ms + main_ms + render_ms)
    }

    /// `AnalysisContext::new`, then every registered lint pass over it.
    fn context_and_passes(&mut self, root: usize, c: &Circuit) {
        let (ctx, _) = self.time(root, "analyze.context", || AnalysisContext::new(c));
        self.count("analyze.context.cycles", ctx.cycles().len() as f64);
        let (findings, _) = self.time(root, "analyze.passes", || {
            let mut findings = Vec::new();
            for pass in passes::registry() {
                pass.run(&ctx, &mut findings);
            }
            findings
        });
        self.count("analyze.findings", findings.len() as f64);
    }

    /// Replays one daemon request: `Request::parse`, the layers of its
    /// command (except for hot-set repeats, which the daemon answers from
    /// its result cache), then `Engine::handle_line` as a whole. Returns
    /// the engine time.
    fn request(
        &mut self,
        engine: &Engine,
        class: ReqClass,
        input: usize,
        line: &str,
    ) -> Result<f64, String> {
        let root = self.open("op.request", input);
        let ms = self.request_body(root, engine, class, line.trim_end());
        self.close(root);
        ms.map(|ms| self.command(ms))
    }

    fn request_body(
        &mut self,
        root: usize,
        engine: &Engine,
        class: ReqClass,
        line: &str,
    ) -> Result<f64, String> {
        let (parsed, _) = self.time(root, "api.request.parse", || Request::parse(line));
        let parsed = parsed.map_err(|e| e.message)?;
        let netlist = parsed
            .command
            .netlist()
            .ok_or("request without a netlist")?;
        let op = match class {
            ReqClass::Small | ReqClass::Large => Some(Op::Solve),
            ReqClass::Check => Some(Op::Check(Backend::Auto)),
            ReqClass::Sweep => Some(Op::Sweep(SweepKind::Serve)),
            ReqClass::Hot => None,
        };
        if let Some(op) = op {
            self.op_body(root, op, netlist, &ParseLimits::default())?;
        }
        let name = match class {
            ReqClass::Small => "api.engine.small",
            ReqClass::Hot => "api.engine.hot",
            ReqClass::Check => "api.engine.check",
            ReqClass::Large => "api.engine.large",
            ReqClass::Sweep => "api.engine.sweep",
        };
        let (reply, engine_ms) = self.time(root, name, || engine.handle_line(line, Load::IDLE));
        oracle::response_result(&reply.line)?;
        Ok(engine_ms)
    }
}

/// The traced op of a CLI command, and the parse limits its flags set.
fn cli_op(op: &CliOp) -> Result<(Op, ParseLimits), String> {
    let traced = match op.cmd {
        Cmd::Solve => Op::Solve,
        Cmd::Lint => Op::Lint,
        Cmd::Check => Op::Check(CheckOptions::default().backend),
        Cmd::Sweep => Op::Sweep(SweepKind::Cli),
        Cmd::SweepFig7 => Op::Sweep(SweepKind::Fig7),
        Cmd::Verify => {
            // `verify <netlist> <Tc> <s1,w1> <s2,w2>`
            let nums = op
                .args
                .get(2..)
                .unwrap_or_default()
                .iter()
                .flat_map(|a| a.split(','))
                .map(str::parse)
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|e| format!("bad verify arguments: {e}"))?;
            let [tc, s1, w1, s2, w2] = nums[..] else {
                return Err(format!("verify needs Tc and two phases, got {nums:?}"));
            };
            Op::Verify {
                tc,
                phases: [(s1, w1), (s2, w2)],
            }
        }
    };
    // A copy of the CLI's `--max-input-mb N` scaling, `input_limits` in
    // `src/bin/smo.rs`; keep the two in step until the mapping moves into
    // `smo_api`, where both can call it.
    let limits = match op.args.iter().position(|a| a == "--max-input-mb") {
        Some(i) => {
            let mb: usize = op
                .args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or("bad --max-input-mb")?;
            ParseLimits {
                max_bytes: mb << 20,
                max_lines: mb * 50_000,
                max_elements: mb * 25_000,
                ..ParseLimits::default()
            }
        }
        None => ParseLimits::default(),
    };
    Ok((traced, limits))
}

/// Operations in the counted, frontend-paired prefix.
fn prefix_len(workload: Workload, round: usize) -> usize {
    match workload {
        Workload::DatapathLarge | Workload::LpMid => 2,
        Workload::PaperSuite => round,
        Workload::ServeMix => 100,
    }
}

pub(crate) fn run(env: &Env, config: &RunConfig, sizes: &Sizes) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut spawner = Spawner::start(&env.bench)?;
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    // Frontend latency and in-process command time of each prefix op.
    let mut paired: Vec<(f64, f64)> = Vec::new();
    let mut cache = [0.0; 3];
    let mut sheds = 0.0;
    let mut traced_ops = 0usize;

    if config.workload == Workload::ServeMix {
        let pools = ServePools::generate(&sizes.serve, config.seed);
        let plan: Vec<_> = Plan::new(&sizes.serve, config.seed, 0)
            .take(MAX_TRACED_OPS)
            .collect();
        let prefix = prefix_len(config.workload, 0);
        let lines: Vec<String> = plan
            .iter()
            .enumerate()
            .map(|(k, req)| pools.request_line(req, &format!("c0-{k}")))
            .collect();
        // Untraced: one connection, the prefix in order.
        let addr = spawner.serve(&env.smo)?;
        let mut frontend = Vec::new();
        {
            let mut client = LineClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            for (line, req) in lines.iter().zip(&plan).take(prefix) {
                let t = Instant::now();
                let reply = client.call(line).map_err(|e| e.to_string());
                frontend.push(t.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = reply.and_then(|r| oracle::response_result(&r).map(|_| ())) {
                    outcome
                        .failures
                        .push(format!("{} request: {e}", req.class.name()));
                }
            }
        }
        let stats_line = exec::request(&addr, "{\"cmd\":\"stats\"}\n")?;
        spawner.shutdown(&addr)?;
        let stat = |key: &str| -> f64 {
            smo_api::Json::parse(&stats_line)
                .ok()
                .and_then(|v| {
                    let r = v.get("result")?.clone();
                    r.get(key)
                        .or_else(|| r.get("cache")?.get(key))
                        .and_then(smo_api::Json::as_f64)
                })
                .unwrap_or(f64::NAN)
        };
        cache = [
            stat("result_hits") / prefix as f64,
            stat("circuit_hits") / prefix as f64,
            stat("basis_hits") / prefix as f64,
        ];
        sheds = stat("sheds");
        outcome.info.push(format!(
            "daemon stats after the {prefix}-request prefix: {stats_line}"
        ));

        // Traced: a fresh in-process engine replays the same sequence.
        let engine = Engine::new(EngineConfig::default());
        for (k, (line, req)) in lines.iter().zip(&plan).enumerate() {
            if k >= prefix && start.elapsed() >= budget {
                break;
            }
            tracer.counting = k < prefix;
            match tracer.request(&engine, req.class, req.index, line) {
                Ok(ms) if k < prefix => paired.push((frontend[k], ms)),
                Ok(_) => {}
                Err(e) => outcome
                    .failures
                    .push(format!("traced {} request: {e}", req.class.name())),
            }
            traced_ops += 1;
        }
        outcome.attempted = prefix + traced_ops;
    } else {
        let wl = cli_workload(config.workload, env, config.seed, sizes)?;
        let dir = env.work.join(config.workload.name());
        write_inputs(&dir, &wl.inputs)?;
        let prefix = prefix_len(config.workload, wl.round.len()).min(wl.round.len());
        let mut frontend = Vec::new();
        for op in &wl.round[..prefix] {
            let out = spawner.run(&env.smo, &dir, &op.args);
            let stem = wl.inputs[op.input].name.trim_end_matches(".ckt");
            let verdict = match &out.error {
                Some(e) => Err(e.clone()),
                None => oracle::check_cli(op.cmd, stem, out.code, &out.stdout).map(|_| ()),
            };
            if let Err(e) = verdict {
                outcome
                    .failures
                    .push(format!("smo {}: {e}", op.args.join(" ")));
            }
            frontend.push(out.latency.as_secs_f64() * 1e3);
        }
        for (k, op) in wl.round.iter().cycle().enumerate().take(MAX_TRACED_OPS) {
            if k >= prefix && start.elapsed() >= budget {
                break;
            }
            tracer.counting = k < prefix;
            let replayed = cli_op(op).and_then(|(traced, limits)| {
                tracer.op(traced, op.input, &wl.inputs[op.input].text, &limits)
            });
            match replayed {
                Ok(ms) if k < prefix => paired.push((frontend[k], ms)),
                Ok(_) => {}
                Err(e) => outcome
                    .failures
                    .push(format!("traced {}: {e}", op.args.join(" "))),
            }
            traced_ops += 1;
        }
        outcome.attempted = prefix + traced_ops;
    }

    let ratios: Vec<f64> = tracer
        .mlp_vs_parts
        .iter()
        .filter(|(mlp, _)| *mlp >= PARTS_MIN_MS)
        .map(|(mlp, parts)| parts / mlp)
        .collect();
    if ratios.len() >= 3 {
        let ratio = stats::median(&stats::sorted(ratios)).unwrap_or(f64::NAN);
        if ratio > PARTS_SLACK {
            outcome.failures.push(format!(
                "the timed parts of a cycle-time solve take {ratio:.3} x the call they replicate (median), more than {PARTS_SLACK}"
            ));
        }
    }
    layer_report(&tracer, &paired, cache, sheds, traced_ops, &mut outcome);
    let path = env
        .work
        .join(format!("trace-{}.json", config.workload.name()));
    std::fs::write(&path, spans_json(config, &tracer.spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outcome
        .info
        .push(format!("spans written to {}", path.display()));
    Ok(outcome)
}

fn layer_report(
    tracer: &Tracer,
    paired: &[(f64, f64)],
    cache: [f64; 3],
    sheds: f64,
    traced_ops: usize,
    outcome: &mut Outcome,
) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &tracer.spans {
        by_name.entry(s.name).or_default().push(s.ms());
    }
    let command = tracer.command_total_ms;
    for (name, durations) in &by_name {
        let total: f64 = durations.iter().sum();
        let med = stats::median(&stats::sorted(durations.clone())).unwrap_or(f64::NAN);
        // An `op.*` span encloses its command and the separately timed
        // layers, so it has no share of command time.
        let share = if name.starts_with("op.") {
            String::new()
        } else {
            format!(" share={:>6.2}%", 100.0 * total / command)
        };
        outcome.info.push(format!(
            "layer {name:<24} calls={:<6} p50={med:>10.4} ms total={total:>11.3} ms{share}",
            durations.len()
        ));
    }
    let median_of = |v: Vec<f64>| stats::median(&stats::sorted(v)).unwrap_or(f64::NAN);
    let span_ms = |name: &str| median_of(by_name.get(name).cloned().unwrap_or_default());
    let calls = |name: &str| by_name.get(name).map_or(0, Vec::len);
    let share =
        |name: &str| 100.0 * by_name.get(name).map_or(0.0, |d| d.iter().sum::<f64>()) / command;
    let count = |name: &str| tracer.counts.get(name).copied().unwrap_or(0.0);
    let overhead = median_of(paired.iter().map(|(f, c)| f - c).collect());

    let ms = |name, span: &str| Metric {
        name,
        value: span_ms(span),
        unit: "ms",
        samples: calls(span),
    };
    let pct = |name, span: &str| Metric {
        name,
        value: share(span),
        unit: "%",
        samples: calls(span),
    };
    let n = |name, unit| Metric {
        name,
        value: count(name),
        unit,
        samples: paired.len(),
    };
    let ratio = |name, value| Metric {
        name,
        value,
        unit: "ratio",
        samples: paired.len(),
    };
    outcome.metrics = vec![
        ms("circuit.netlist.parse_ms", "circuit.netlist.parse"),
        ms("analyze.context.ms", "analyze.context"),
        ms("analyze.passes.ms", "analyze.passes"),
        ms("core.model.build_ms", "core.model.build"),
        ms("lp.graph.classify_ms", "lp.graph.classify"),
        ms("lp.graph.build_ms", "lp.graph.build"),
        ms("core.mlp.ms", "core.mlp"),
        Metric {
            name: "core.mlp.rest_ms",
            value: median_of(tracer.mlp_vs_parts.iter().map(|(m, p)| m - p).collect()),
            unit: "ms",
            samples: tracer.mlp_vs_parts.len(),
        },
        ms("api.render_ms", "api.render"),
        Metric {
            name: "frontend.overhead_ms",
            value: overhead,
            unit: "ms",
            samples: paired.len(),
        },
        pct("lp.graph.min_ratio.pct", "lp.graph.min_ratio"),
        pct("lp.graph.feasible.pct", "lp.graph.feasible"),
        pct("lp.simplex.cold.pct", "lp.simplex.cold"),
        pct("core.race.pct", "core.race"),
        pct("core.sweep.pct", "core.sweep"),
        pct("api.request.parse.pct", "api.request.parse"),
        n("circuit.netlist.kb", "KiB"),
        n("analyze.context.cycles", "count"),
        n("analyze.findings", "count"),
        n("core.model.rows", "count"),
        n("lp.graph.nodes", "count"),
        n("lp.graph.arcs", "count"),
        n("core.mlp.update_iterations", "count"),
        n("core.mlp.lp_pivots", "count"),
        n("lp.simplex.pivots", "count"),
        n("core.race.races", "count"),
        n("core.sweep.base_pivots", "count"),
        n("core.sweep.warm_pivots", "count"),
        ratio("api.cache.result_hit_ratio", cache[0]),
        ratio("api.cache.circuit_hit_ratio", cache[1]),
        ratio("api.cache.basis_hit_ratio", cache[2]),
        Metric {
            name: "api.server.sheds",
            value: sheds,
            unit: "count",
            samples: paired.len(),
        },
    ];
    outcome.info.push(format!(
        "traced {traced_ops} operations; counts over the first {} (frontend-paired)",
        paired.len()
    ));
}

fn spans_json(config: &RunConfig, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": [\n",
        config.workload.name(),
        config.seed
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"input\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{}",
            s.name,
            s.input,
            s.start_us,
            s.end_us,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}
