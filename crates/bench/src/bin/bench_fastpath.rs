//! Fast-path benchmark: the difference-constraint graph backend (exact
//! Bellman–Ford + min-cycle-ratio, zero simplex pivots) against the
//! certified sparse-LU simplex baseline on a ~650-row random-circuit model.
//!
//! Writes `BENCH_fastpath.json` at the repository root (checked in as the
//! reference measurement; regenerated by `ci.sh`). The run aborts unless
//! the graph backend delivers at least a 10× median end-to-end speedup —
//! the fast path's reason to exist — or if the two backends disagree on
//! the optimum.

use std::time::Instant;

use smo_core::{classify_model, min_cycle_time_with, Backend, MlpOptions, TimingModel};
use smo_gen::random::{random_circuit, GenConfig};

/// End-to-end solves per backend; the medians below are over these.
const RUNS: usize = 15;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn main() {
    smo_bench::header("Difference-constraint fast path vs certified simplex (~650-row model)");

    let cfg = GenConfig {
        latches: 215,
        edges: 430,
        ..Default::default()
    };
    let circuit = random_circuit(&cfg, 7);
    let model = TimingModel::build(&circuit).expect("model builds");
    let rows = model.num_constraints();
    let cls = classify_model(&circuit, &model).expect("classifies");
    println!(
        "circuit: {} latches, {} edges -> {} constraint rows ({} difference, {} general)",
        circuit.num_syncs(),
        circuit.num_edges(),
        rows,
        cls.num_difference() + cls.num_single_var() + cls.num_param_bound(),
        cls.num_general()
    );
    assert!(
        cls.is_pure(),
        "benchmark model must be a pure difference system"
    );

    let run = |backend: Backend| -> (Vec<f64>, f64) {
        let mut times = Vec::with_capacity(RUNS);
        let mut tc = f64::NAN;
        for _ in 0..RUNS {
            let t = Instant::now();
            let sol = min_cycle_time_with(
                &circuit,
                &MlpOptions {
                    backend,
                    ..Default::default()
                },
            )
            .expect("solves");
            times.push(t.elapsed().as_secs_f64());
            tc = sol.cycle_time();
            assert!(sol.certified(), "{backend} solution must be certified");
        }
        (times, tc)
    };

    let (mut lp_times, lp_tc) = run(Backend::Lp);
    let (mut graph_times, graph_tc) = run(Backend::Graph);
    assert!(
        (graph_tc - lp_tc).abs() <= 1e-6 * (1.0 + lp_tc.abs()),
        "backends disagree: graph Tc* = {graph_tc}, simplex Tc* = {lp_tc}"
    );

    let lp_median = median(&mut lp_times);
    let graph_median = median(&mut graph_times);
    let speedup = lp_median / graph_median;

    println!(
        "{}",
        smo_bench::row(
            &["backend", "median ms", "solves/sec", "speedup"],
            &[8, 12, 12, 8]
        )
    );
    println!(
        "{}",
        smo_bench::row(
            &[
                "lp",
                &format!("{:.2}", lp_median * 1e3),
                &format!("{:.2}", 1.0 / lp_median),
                "1.00",
            ],
            &[8, 12, 12, 8]
        )
    );
    println!(
        "{}",
        smo_bench::row(
            &[
                "graph",
                &format!("{:.2}", graph_median * 1e3),
                &format!("{:.2}", 1.0 / graph_median),
                &format!("{speedup:.2}"),
            ],
            &[8, 12, 12, 8]
        )
    );

    let json = format!(
        "{{\n  \"_schema\": \"median of {RUNS} end-to-end min_cycle_time_with() solves of one \
         ~650-row pure difference model per backend; lp = certified sparse-LU simplex, graph = \
         Bellman-Ford + exact min-cycle-ratio (0 pivots); speedup = lp_median_ms / \
         graph_median_ms and must stay >= 10; both backends must agree on tc\",\n  \
         \"rows\": {rows},\n  \"runs\": {RUNS},\n  \"tc\": {:.6},\n  \
         \"lp\": {{\"median_ms\": {:.3}, \"solves_per_sec\": {:.2}}},\n  \
         \"graph\": {{\"median_ms\": {:.3}, \"solves_per_sec\": {:.2}}},\n  \
         \"speedup\": {:.2}\n}}",
        graph_tc,
        lp_median * 1e3,
        1.0 / lp_median,
        graph_median * 1e3,
        1.0 / graph_median,
        speedup,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fastpath.json");
    std::fs::write(path, json + "\n").expect("write BENCH_fastpath.json");
    println!("wrote {path}");

    assert!(
        speedup >= 10.0,
        "graph backend must be at least 10x the simplex end to end, measured {speedup:.2}x"
    );
}
