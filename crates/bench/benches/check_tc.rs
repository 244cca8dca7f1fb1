//! Schedule verification throughput, and the §IV ablation: the paper's
//! Jacobi departure update versus the shipped slide (a linear peel plus an
//! in-place upward pass) from the same LP point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smo_core::{min_cycle_time, verify, PropagationSystem, TimingModel};
use smo_gen::random::{random_circuit, GenConfig};

fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_tc/verify");
    for l in [16usize, 64, 256] {
        let cfg = GenConfig {
            latches: l,
            edges: l * 3 / 2,
            phases: 2,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, 3);
        let sched = min_cycle_time(&circuit).expect("solves").schedule().clone();
        group.bench_with_input(
            BenchmarkId::new("latches", l),
            &(circuit, sched),
            |b, (ci, s)| b.iter(|| verify(ci, s).is_feasible()),
        );
    }
    group.finish();
}

fn bench_slide(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_tc/slide");
    let cfg = GenConfig {
        latches: 128,
        edges: 192,
        phases: 2,
        ..Default::default()
    };
    let circuit = random_circuit(&cfg, 5);
    let model = TimingModel::build(&circuit).expect("model");
    let lp = model.solve_lp().expect("optimal");
    let schedule = model.extract_schedule(&lp).expect("schedule");
    let d0 = model.extract_departures(&lp);
    let system = PropagationSystem::new(&circuit, &schedule);
    group.bench_function("jacobi", |b| {
        b.iter(|| system.jacobi(&d0, usize::MAX).iterations)
    });
    group.bench_function("slide_limit", |b| {
        b.iter(|| system.slide_limit(&d0).expect("slides").iterations)
    });
    group.finish();
}

criterion_group!(benches, bench_verify, bench_slide);
criterion_main!(benches);
