//! End-to-end benchmark of the `smo` tool as a user runs it: the release
//! binary with default flags, one process per command, and the daemon
//! as a `smo serve` subprocess driven over TCP.
//!
//! A run generates its inputs from a seed, times one workload for a fixed
//! number of seconds, then checks every answer outside the timed window
//! (see [`oracle`]). The traced mode (`src/trace.rs`) replays the same inputs
//! in-process and times each layer's public function, which gives the
//! per-layer split the untraced numbers cannot.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod exec;
pub mod inputs;
pub mod oracle;
pub mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

/// The four workloads; see `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `smo solve` + `smo lint` on large generated datapaths.
    DatapathLarge,
    /// `smo check` + `smo sweep` on mid-size generated datapaths.
    LpMid,
    /// Every command on the six shipped paper netlists.
    PaperSuite,
    /// A closed-loop request mix against one `smo serve` daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::DatapathLarge,
        Workload::LpMid,
        Workload::PaperSuite,
        Workload::ServeMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DatapathLarge => "datapath-large",
            Workload::LpMid => "lp-mid",
            Workload::PaperSuite => "paper-suite",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; smaller sizes run the
/// same code paths in tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `datapath-large`: latches per datapath and datapaths per round.
    pub datapath: (usize, usize),
    /// `lp-mid`: latches per datapath and datapaths per round.
    pub mid: (usize, usize),
    /// `serve-mix` input pools.
    pub serve: ServeSizes,
}

/// Circuit sizes and pool lengths of the `serve-mix` request classes.
#[derive(Debug, Clone)]
pub struct ServeSizes {
    /// Latches of the random circuits behind `small` and `hot` solves.
    pub small_latches: usize,
    /// Latches of the datapaths behind `check` requests.
    pub check_latches: usize,
    /// Latches of the datapaths behind `large` solves.
    pub large_latches: usize,
    /// Latches of the random circuits behind `sweep` requests.
    pub sweep_latches: usize,
    /// Netlists per pool for the `small`, `check`, `large` and `sweep`
    /// classes. Requests draw from a pool and carry a unique comment line,
    /// so every request is distinct to the daemon's caches.
    pub pool: usize,
    /// Netlists in the hot set, repeated verbatim (cache hits).
    pub hot: usize,
    /// Requests each client sends before the clock may stop the run.
    pub min_requests: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            datapath: (4000, 24),
            mid: (128, 72),
            serve: ServeSizes {
                small_latches: 24,
                check_latches: 216,
                large_latches: 1000,
                sweep_latches: 50,
                pool: 128,
                hot: 16,
                min_requests: 100,
            },
        }
    }
}

/// Where a run finds the program and keeps its files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The release `smo` binary.
    pub smo: PathBuf,
    /// This benchmark's binary, which starts every `smo` process when
    /// run as `smo-e2e --spawner` (see [`exec`]).
    pub bench: PathBuf,
    /// The checkout root (holds the shipped `circuits/`).
    pub root: PathBuf,
    /// Scratch directory for inputs and the trace file.
    pub work: PathBuf,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Input seed: input `i` of a list is generated with `seed + i`.
    pub seed: u64,
    /// Length of the timed phase. An untimed warm-up of a tenth of it
    /// comes first, and every run completes at least one round of its
    /// inputs, so `0` means exactly one round and no warm-up.
    pub seconds: f64,
    /// Run the traced in-process replay instead of the untraced run.
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, unrounded.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Human-readable detail lines (per-class latencies, layer tables).
    pub info: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Operations attempted in the measured phase.
    pub attempted: usize,
    /// One entry per failed operation: why it failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` carries; non-finite values (which
/// JSON cannot hold) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the run cannot produce a result at all: inputs that
/// cannot be written, a `smo` binary that does not start, a daemon that
/// never listens. Wrong answers are not errors; they land in
/// [`Outcome::failures`].
pub fn run(env: &Env, config: &RunConfig, sizes: &Sizes) -> Result<Outcome, String> {
    std::fs::create_dir_all(&env.work)
        .map_err(|e| format!("cannot create {}: {e}", env.work.display()))?;
    if config.trace {
        trace::run(env, config, sizes)
    } else {
        workloads::run(env, config, sizes)
    }
}
