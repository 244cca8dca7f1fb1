//! Simplex scaling on SMO-shaped LPs (§IV: cost of Algorithm MLP step 1).
//!
//! Solves the P2 model of random circuits of increasing size; the paper
//! argues the constraint count — and hence the simplex cost — grows only
//! linearly with the number of latches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smo_core::TimingModel;
use smo_gen::random::{random_circuit, GenConfig};
use smo_lp::SolveBudget;

fn bench_lp_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solve");
    group.sample_size(20);
    for l in [8usize, 32, 128] {
        let cfg = GenConfig {
            latches: l,
            edges: l * 3 / 2,
            phases: 3,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, 7);
        let model = TimingModel::build(&circuit).expect("model");
        // DESIGN.md ablation: the dense reference tableau vs the sparse-LU
        // simplex on the same 0/±1 timing matrices.
        group.bench_with_input(BenchmarkId::new("dense", l), &model, |b, m| {
            b.iter(|| {
                m.problem()
                    .solve_reference(SolveBudget::UNLIMITED)
                    .expect("solves")
                    .objective()
            })
        });
        group.bench_with_input(BenchmarkId::new("sparse", l), &model, |b, m| {
            b.iter(|| m.solve_lp().expect("optimal").objective())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lp_solve);
criterion_main!(benches);
