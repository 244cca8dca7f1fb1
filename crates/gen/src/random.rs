//! Seeded random circuit generators for property tests and scaling
//! benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smo_circuit::{Circuit, CircuitBuilder, LatchId, PhaseId};

/// Configuration for [`random_circuit`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Number of clock phases `k ≥ 1`.
    pub phases: usize,
    /// Number of latches `l ≥ 1`.
    pub latches: usize,
    /// Number of combinational edges (self-loops never generated).
    pub edges: usize,
    /// Uniform range for combinational long-path delays.
    pub delay_range: (f64, f64),
    /// Latch setup time.
    pub setup: f64,
    /// Latch propagation delay (`≥ setup`).
    pub dq: f64,
    /// Probability that a synchronizer is a flip-flop instead of a latch.
    pub flip_flop_prob: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            phases: 2,
            latches: 16,
            edges: 24,
            delay_range: (1.0, 50.0),
            setup: 2.0,
            dq: 2.0,
            flip_flop_prob: 0.0,
        }
    }
}

/// A random circuit: latches get uniform-random phases, edges connect
/// uniform-random distinct pairs with uniform-random delays.
///
/// Deterministic for a given `(config, seed)` pair.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero phases/latches, empty
/// delay range, `dq < setup`).
pub fn random_circuit(config: &GenConfig, seed: u64) -> Circuit {
    assert!(config.phases >= 1 && config.latches >= 1);
    assert!(config.delay_range.0 <= config.delay_range.1);
    assert!(config.dq >= config.setup);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(config.phases);
    let ids: Vec<LatchId> = (0..config.latches)
        .map(|i| {
            let phase = PhaseId::new(rng.gen_range(0..config.phases));
            if rng.gen_bool(config.flip_flop_prob) {
                b.add_flip_flop(format!("S{i}"), phase, config.setup, config.dq)
            } else {
                b.add_latch(format!("S{i}"), phase, config.setup, config.dq)
            }
        })
        .collect();
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < config.edges && guard < config.edges * 20 {
        guard += 1;
        let from = ids[rng.gen_range(0..ids.len())];
        let to = ids[rng.gen_range(0..ids.len())];
        if from == to {
            continue; // the SMO model treats same-latch loops specially; skip
        }
        let delay = rng.gen_range(config.delay_range.0..=config.delay_range.1);
        b.connect(from, to, delay);
        added += 1;
    }
    b.build().expect("generated circuit is structurally valid")
}

/// Uniformly jittered long-path delays for Monte-Carlo re-solves: edge
/// `e`'s delay is drawn from `[Δ·(1−spread), Δ·(1+spread)]`, one entry per
/// edge in `circuit.edges()` order.
///
/// This is the delay model behind `smo-core`'s sweep engine and `smo
/// sweep --param delay`: the perturbation touches only the *values* of the
/// delays, never the circuit structure, so every perturbed timing model
/// shares its constraint matrix with the base model.
///
/// Deterministic for a given `(circuit, spread, seed)`; `spread = 0`
/// returns the delays unchanged.
///
/// # Panics
///
/// Panics unless `0 ≤ spread ≤ 1`.
pub fn perturbed_delays(circuit: &Circuit, spread: f64, seed: u64) -> Vec<f64> {
    assert!(
        (0.0..=1.0).contains(&spread),
        "spread must lie in [0, 1], got {spread}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    circuit
        .edges()
        .iter()
        .map(|e| {
            let d = e.max_delay;
            if spread == 0.0 || d == 0.0 {
                d
            } else {
                rng.gen_range((d * (1.0 - spread))..=(d * (1.0 + spread)))
            }
        })
        .collect()
}

/// A feed-forward pipeline of `stages + 1` latches cycling through the `k`
/// phases in order, with uniform-random stage delays; optionally closed
/// into a loop.
///
/// Deterministic for a given `(k, stages, seed)`.
///
/// # Panics
///
/// Panics if `k` or `stages` is zero.
pub fn pipeline(k: usize, stages: usize, close_loop: bool, seed: u64) -> Circuit {
    assert!(k >= 1 && stages >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(k);
    let n = stages + 1;
    let ids: Vec<LatchId> = (0..n)
        .map(|i| b.add_latch(format!("P{i}"), PhaseId::new(i % k), 2.0, 2.0))
        .collect();
    for w in ids.windows(2) {
        b.connect(w[0], w[1], rng.gen_range(5.0..40.0));
    }
    if close_loop {
        b.connect(ids[n - 1], ids[0], rng.gen_range(5.0..40.0));
    }
    b.build().expect("pipeline is structurally valid")
}

/// A ring of `l` latches alternating over `k` phases — the worst case for
/// naive cycle handling (one big SCC). Stage delays are uniform-random.
///
/// # Panics
///
/// Panics if `l < 2` or `k < 1`.
pub fn ring(l: usize, k: usize, seed: u64) -> Circuit {
    assert!(l >= 2 && k >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(k);
    let ids: Vec<LatchId> = (0..l)
        .map(|i| b.add_latch(format!("R{i}"), PhaseId::new(i % k), 2.0, 2.0))
        .collect();
    for i in 0..l {
        b.connect(ids[i], ids[(i + 1) % l], rng.gen_range(5.0..40.0));
    }
    b.build().expect("ring is structurally valid")
}

/// A reduction tree: `2^depth` leaf latches on φ1 funnel through
/// intermediate latches into a single root — stresses large fan-in (`F` in
/// the paper's constraint-count bound).
///
/// # Panics
///
/// Panics if `depth` is zero or `k` is zero.
pub fn tree(depth: usize, k: usize, seed: u64) -> Circuit {
    assert!(depth >= 1 && k >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(k);
    let mut level: Vec<LatchId> = (0..(1usize << depth))
        .map(|i| b.add_latch(format!("leaf{i}"), PhaseId::new(0), 1.0, 1.0))
        .collect();
    let mut lvl = 1usize;
    while level.len() > 1 {
        let mut next = Vec::new();
        for (i, pair) in level.chunks(2).enumerate() {
            let node = b.add_latch(format!("n{lvl}_{i}"), PhaseId::new(lvl % k), 1.0, 1.0);
            for &child in pair {
                b.connect(child, node, rng.gen_range(2.0..20.0));
            }
            next.push(node);
        }
        level = next;
        lvl += 1;
    }
    b.build().expect("tree is structurally valid")
}

/// Several feedback loops sharing a single hub latch — a generalization of
/// the paper's Example 2 structure. Loop `i` has `3 + (i % 3)` stages over
/// the `k` phases with seeded delays.
///
/// # Panics
///
/// Panics if `loops` is zero or `k` is zero.
pub fn multi_loop(loops: usize, k: usize, seed: u64) -> Circuit {
    assert!(loops >= 1 && k >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(k);
    let hub = b.add_latch("hub", PhaseId::new(0), 1.0, 1.0);
    for li in 0..loops {
        let stages = 3 + (li % 3);
        let mut prev = hub;
        for s in 0..stages {
            let node = b.add_latch(format!("l{li}_{s}"), PhaseId::new((s + 1) % k), 1.0, 1.0);
            b.connect(prev, node, rng.gen_range(2.0..30.0));
            prev = node;
        }
        b.connect(prev, hub, rng.gen_range(2.0..30.0));
    }
    b.build().expect("multi-loop is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_circuit_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let a = random_circuit(&cfg, 42);
        let b = random_circuit(&cfg, 42);
        assert_eq!(a, b);
        let c = random_circuit(&cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn random_circuit_respects_counts() {
        let cfg = GenConfig {
            latches: 30,
            edges: 50,
            phases: 3,
            ..Default::default()
        };
        let c = random_circuit(&cfg, 7);
        assert_eq!(c.num_syncs(), 30);
        assert_eq!(c.num_edges(), 50);
        assert_eq!(c.num_phases(), 3);
    }

    #[test]
    fn random_circuit_can_mix_flip_flops() {
        let cfg = GenConfig {
            flip_flop_prob: 0.5,
            latches: 40,
            ..Default::default()
        };
        let c = random_circuit(&cfg, 1);
        assert!(c.num_flip_flops() > 0);
        assert!(c.num_latches() > 0);
    }

    #[test]
    fn pipeline_has_expected_shape() {
        let c = pipeline(2, 5, false, 3);
        assert_eq!(c.num_syncs(), 6);
        assert_eq!(c.num_edges(), 5);
        assert!(!c.has_feedback());
        let closed = pipeline(2, 5, true, 3);
        assert!(closed.has_feedback());
    }

    #[test]
    fn ring_is_one_big_cycle() {
        let c = ring(8, 4, 9);
        assert_eq!(c.num_edges(), 8);
        assert!(c.has_feedback());
        let sccs = c.sccs();
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 8);
    }

    #[test]
    fn tree_has_exponential_leaves_and_bounded_fanin() {
        let c = tree(4, 2, 1);
        assert_eq!(c.num_syncs(), 16 + 8 + 4 + 2 + 1);
        assert_eq!(c.max_fanin(), 2);
        assert!(!c.has_feedback());
    }

    #[test]
    fn multi_loop_hub_collects_all_loops() {
        let c = multi_loop(5, 3, 2);
        assert!(c.has_feedback());
        let hub = c.find("hub").unwrap();
        assert_eq!(c.fanin(hub).len(), 5);
        assert_eq!(c.fanout(hub).len(), 5);
        // Every loop runs through the hub: one core holding every latch.
        let sccs = c.sccs();
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), c.num_syncs());
    }

    #[test]
    fn generators_solve_end_to_end() {
        // gen depends on circuit only; end-to-end solving is covered by
        // smo-core dev-dependency in integration tests — here just the
        // structural guarantees.
        for seed in 0..3 {
            let t = tree(3, 3, seed);
            assert!(t.num_edges() > 0);
            let m = multi_loop(3, 4, seed);
            assert!(m.num_edges() > 0);
        }
    }

    #[test]
    fn perturbed_delays_stay_in_band_and_are_seeded() {
        let c = random_circuit(&GenConfig::default(), 5);
        let a = perturbed_delays(&c, 0.2, 9);
        let b = perturbed_delays(&c, 0.2, 9);
        assert_eq!(a, b, "same seed, same draw");
        assert_ne!(a, perturbed_delays(&c, 0.2, 10));
        assert_eq!(a.len(), c.num_edges());
        for (e, d) in c.edges().iter().zip(&a) {
            assert!(*d >= e.max_delay * 0.8 - 1e-12 && *d <= e.max_delay * 1.2 + 1e-12);
        }
        // Zero spread is the identity.
        let base: Vec<f64> = c.edges().iter().map(|e| e.max_delay).collect();
        assert_eq!(perturbed_delays(&c, 0.0, 3), base);
    }

    #[test]
    fn generated_circuits_have_no_self_loops() {
        let cfg = GenConfig {
            latches: 5,
            edges: 40,
            ..Default::default()
        };
        let c = random_circuit(&cfg, 11);
        assert!(c.edges().iter().all(|e| e.from != e.to));
    }
}
