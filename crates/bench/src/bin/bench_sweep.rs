//! Warm-start benchmark: cold sparse-LU phase-1 solves versus
//! basis-repaired re-solves, and sweep-engine throughput at 1/2/8 threads
//! (graph min-ratio re-solves on this pure difference model), on a
//! ~650-row random-circuit model (the scale of the paper's GaAs MIPS
//! example, ×10).
//!
//! Writes `BENCH_sweep.json` at the repository root (checked in as the
//! reference measurement; regenerated by `ci.sh`). The run aborts if the
//! warm path fails to deliver at least a 2× solves/sec advantage over the
//! cold path — the sweep engine's whole reason to exist.

use std::time::Instant;

use smo_core::{sweep_cycle_time, SweepOptions, SweepParam, TimingModel};
use smo_gen::random::{perturbed_delays, random_circuit, GenConfig};

/// Delay jitter for the perturbed re-solves.
const SPREAD: f64 = 0.05;
/// Re-solves per cold/warm measurement.
const RUNS: usize = 32;
/// Re-solves per sweep-engine measurement (larger, so the one-off base
/// solve does not drown out the thread scaling).
const SWEEP_RUNS: usize = 256;
/// The warm-over-cold throughput gate. This constant is the single source
/// of truth: it is interpolated into the `_schema` string of
/// `BENCH_sweep.json` and enforced by the assert at the end of the run.
/// It is deliberately far below the measured speedup (~26× on the
/// reference machine; see the checked-in JSON) so the gate flags a broken
/// warm-start path, not machine-to-machine noise. `bench_scale` follows
/// the same convention for its dense-over-sparse gate.
const MIN_SPEEDUP: f64 = 2.0;

fn main() {
    smo_bench::header("Warm-started re-solves and sweep throughput (~650-row model)");

    let cfg = GenConfig {
        latches: 215,
        edges: 430,
        ..Default::default()
    };
    let circuit = random_circuit(&cfg, 7);
    let model = TimingModel::build(&circuit).expect("model builds");
    let rows = model.num_constraints();
    println!(
        "circuit: {} latches, {} edges -> {} constraint rows",
        circuit.num_syncs(),
        circuit.num_edges(),
        rows
    );

    // Perturbed copies of the model, one per run (RHS edits only). Built
    // outside the timed sections so both paths solve identical problems.
    let perturbed: Vec<TimingModel> = (0..RUNS)
        .map(|i| {
            let mut m = model.clone();
            for (e, (edge, &d)) in circuit
                .edges()
                .iter()
                .zip(&perturbed_delays(&circuit, SPREAD, i as u64))
                .enumerate()
            {
                if d != edge.max_delay {
                    m.set_edge_delay(smo_circuit::EdgeId::new(e), edge.max_delay, d);
                }
            }
            m
        })
        .collect();

    // Cold: every solve pays phase 1 from scratch.
    let cold_start = Instant::now();
    let mut cold_iters = 0usize;
    for m in &perturbed {
        let sol = m.solve_lp().expect("solves");
        cold_iters += sol.iterations();
    }
    let cold_secs = cold_start.elapsed().as_secs_f64();
    let cold_rate = RUNS as f64 / cold_secs;

    // Warm: one base solve captures the basis; every re-solve repairs it.
    let base = model.solve_lp().expect("base solves");
    let basis = base.basis().cloned().expect("optimal solve has a basis");
    let warm_start = Instant::now();
    let mut warm_iters = 0usize;
    for m in &perturbed {
        let sol = m.solve_lp_from_basis(&basis).expect("warm solves");
        warm_iters += sol.iterations();
    }
    let warm_secs = warm_start.elapsed().as_secs_f64();
    let warm_rate = RUNS as f64 / warm_secs;
    let speedup = warm_rate / cold_rate;

    println!(
        "{}",
        smo_bench::row(
            &["path", "iters/solve", "solves/sec", "speedup"],
            &[6, 12, 12, 8]
        )
    );
    println!(
        "{}",
        smo_bench::row(
            &[
                "cold",
                &format!("{:.1}", cold_iters as f64 / RUNS as f64),
                &format!("{cold_rate:.2}"),
                "1.00",
            ],
            &[6, 12, 12, 8]
        )
    );
    println!(
        "{}",
        smo_bench::row(
            &[
                "warm",
                &format!("{:.1}", warm_iters as f64 / RUNS as f64),
                &format!("{warm_rate:.2}"),
                &format!("{speedup:.2}"),
            ],
            &[6, 12, 12, 8]
        )
    );

    // Sweep-engine throughput at 1/2/8 worker threads (same workload).
    let mut thread_rates = Vec::new();
    for jobs in [1usize, 2, 8] {
        let opts = SweepOptions {
            param: SweepParam::Delay { spread: SPREAD },
            runs: SWEEP_RUNS,
            seed: 0,
            jobs,
            ..SweepOptions::default()
        };
        let t = Instant::now();
        let reports =
            sweep_cycle_time(std::slice::from_ref(&circuit), &opts).expect("sweep succeeds");
        let secs = t.elapsed().as_secs_f64();
        let rate = SWEEP_RUNS as f64 / secs;
        println!(
            "sweep --jobs {jobs}: {SWEEP_RUNS} runs in {:.3} s ({rate:.2} solves/sec, {} pivots)",
            secs, reports[0].warm_iterations
        );
        thread_rates.push((jobs, rate));
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"_schema\": \"cold/warm: {RUNS} RHS-perturbed re-solves of one ~650-row model \
         (sparse-LU simplex); iterations_per_solve is mean simplex pivots; solves_per_sec is \
         wall-clock throughput; sweep_solves_per_sec measures sweep_cycle_time() end to end \
         at N worker threads ({SWEEP_RUNS} runs incl. base solve, graph min-ratio re-solves \
         on this pure difference model; interpret against available_cores); gate (single source of truth, mirrored by BENCH_scale.json): \
         speedup = warm/cold solves_per_sec and must stay >= {MIN_SPEEDUP}\",\n  \
         \"rows\": {rows},\n  \"runs\": {RUNS},\n  \"sweep_runs\": {SWEEP_RUNS},\n  \
         \"spread\": {SPREAD},\n  \"available_cores\": {cores},\n  \
         \"cold\": {{\"iterations_per_solve\": {:.2}, \"solves_per_sec\": {:.2}}},\n  \
         \"warm\": {{\"iterations_per_solve\": {:.2}, \"solves_per_sec\": {:.2}}},\n  \
         \"speedup\": {:.2},\n  \"sweep_solves_per_sec\": {{{}}}\n}}",
        cold_iters as f64 / RUNS as f64,
        cold_rate,
        warm_iters as f64 / RUNS as f64,
        warm_rate,
        speedup,
        thread_rates
            .iter()
            .map(|(j, r)| format!("\"{j}\": {r:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, json + "\n").expect("write BENCH_sweep.json");
    println!("wrote {path}");

    assert!(
        speedup >= MIN_SPEEDUP,
        "warm starts must be at least {MIN_SPEEDUP}x cold throughput, measured {speedup:.2}x"
    );
}
