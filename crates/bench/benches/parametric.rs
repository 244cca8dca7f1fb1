//! Exact curve vs re-solve sweep: the §VI payoff quantified.
//!
//! To chart `T_c(Δ41)` over a range, the naive approach re-solves at every
//! sample; the exact curve needs `2k + 1` critical-cycle solves for `k`
//! breakpoints and returns the whole piecewise-linear function.

use criterion::{criterion_group, criterion_main, Criterion};
use smo_core::{cycle_time_curve, min_cycle_time, TimingModel};
use smo_gen::paper::example1;

fn bench_parametric_vs_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parametric");
    let circuit = example1(0.0);
    let model = TimingModel::build(&circuit).expect("model");
    group.bench_function("exact_curve", |b| {
        b.iter(|| {
            cycle_time_curve(&circuit, &model, smo_circuit::EdgeId::new(3), 140.0)
                .expect("curve")
                .segments
                .len()
        })
    });
    group.bench_function("resolve_sweep_15pts", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut d41 = 0.0;
            while d41 <= 140.0 {
                acc += min_cycle_time(&example1(d41)).expect("solves").cycle_time();
                d41 += 10.0;
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_parametric_vs_sweep);
criterion_main!(benches);
