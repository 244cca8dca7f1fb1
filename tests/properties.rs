//! Property-based tests (proptest) on the core invariants of the SMO
//! engine, exercised through randomly generated circuits.

mod common;

use proptest::prelude::*;
use smo::circuit::{netlist, CircuitBuilder, PhaseId, Synchronizer};
use smo::gen::random::{random_circuit, GenConfig};
use smo::prelude::*;
use smo::timing::{baseline, TimingModel};

/// Strategy: a small random circuit described by plain data (so shrinking
/// works naturally).
#[derive(Debug, Clone)]
struct Spec {
    phases: usize,
    syncs: Vec<(usize, f64, f64, bool)>, // (phase idx, setup, dq_extra, is_ff)
    edges: Vec<(usize, usize, f64)>,     // (from, to, delay)
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (2usize..=4, 2usize..=8).prop_flat_map(|(phases, n)| {
        let sync = (
            0..phases,
            0.1f64..5.0,
            0.0f64..5.0,
            proptest::bool::weighted(0.2),
        );
        let edge = (0..n, 0..n, 0.0f64..60.0);
        (
            Just(phases),
            proptest::collection::vec(sync, n..=n),
            proptest::collection::vec(edge, 1..=2 * n),
        )
            .prop_map(|(phases, syncs, edges)| Spec {
                phases,
                syncs,
                edges,
            })
    })
}

fn build(spec: &Spec) -> smo::circuit::Circuit {
    let mut b = CircuitBuilder::new(spec.phases);
    let ids: Vec<_> = spec
        .syncs
        .iter()
        .enumerate()
        .map(|(i, &(ph, setup, dq_extra, is_ff))| {
            let phase = PhaseId::new(ph);
            let name = format!("S{i}");
            if is_ff {
                b.add_sync(Synchronizer::flip_flop(name, phase, setup, dq_extra))
            } else {
                b.add_sync(Synchronizer::latch(name, phase, setup, setup + dq_extra))
            }
        })
        .collect();
    for &(f, t, d) in &spec.edges {
        if f != t {
            b.connect(ids[f], ids[t], d);
        }
    }
    b.build().expect("specs are valid by construction")
}

fn scaled_circuit(spec: &Spec, factor: f64) -> smo::circuit::Circuit {
    let mut s = spec.clone();
    for sync in &mut s.syncs {
        sync.1 *= factor;
        sync.2 *= factor;
    }
    for e in &mut s.edges {
        e.2 *= factor;
    }
    build(&s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The MLP result always verifies (soundness of Theorem 1).
    #[test]
    fn prop_mlp_schedule_verifies(spec in spec_strategy()) {
        let circuit = build(&spec);
        let sol = min_cycle_time(&circuit).expect("always feasible");
        let report = verify(&circuit, sol.schedule());
        prop_assert!(report.is_feasible(), "{:?}", report.violations());
    }

    /// Increasing a combinational delay can never *decrease* the optimum.
    #[test]
    fn prop_tc_monotone_in_delays(spec in spec_strategy(), extra in 0.1f64..40.0, which in 0usize..64) {
        prop_assume!(!spec.edges.is_empty());
        let base = common::min_tc_checked(&build(&spec));
        let mut bumped = spec.clone();
        let idx = which % bumped.edges.len();
        bumped.edges[idx].2 += extra;
        let after = common::min_tc_checked(&build(&bumped));
        prop_assert!(after >= base - 1e-6, "delay bump reduced Tc: {base} → {after}");
    }

    /// Scaling every delay parameter by λ scales the optimum by λ.
    #[test]
    fn prop_tc_scales_linearly(spec in spec_strategy(), lambda in 0.25f64..4.0) {
        let base = common::min_tc_checked(&build(&spec));
        let scaled = common::min_tc_checked(&scaled_circuit(&spec, lambda));
        prop_assert!((scaled - lambda * base).abs() < 1e-6 * (1.0 + base),
            "Tc({lambda}·C) = {scaled} but λ·Tc(C) = {}", lambda * base);
    }

    /// Every baseline is an upper bound on the optimum and produces a
    /// schedule that verifies against the real circuit.
    #[test]
    fn prop_baselines_are_feasible_upper_bounds(spec in spec_strategy()) {
        let circuit = build(&spec);
        let opt = min_cycle_time(&circuit).expect("solves").cycle_time();
        for b in baseline::all_baselines(&circuit).expect("baselines run") {
            prop_assert!(b.cycle_time() >= opt - 1e-6, "{} beat the optimum", b.name);
            let report = verify(&circuit, b.solution.schedule());
            prop_assert!(report.is_feasible(), "{}: {:?}", b.name, report.violations());
        }
    }

    /// Netlist write→parse is the identity on circuits.
    #[test]
    fn prop_netlist_round_trips(spec in spec_strategy()) {
        let circuit = build(&spec);
        let text = netlist::write(&circuit);
        let again = netlist::parse(&text).expect("own output parses");
        prop_assert_eq!(circuit, again);
    }

    /// The canonical schedule is itself optimal: re-solving with the
    /// canonical Tc fixed stays feasible, and any uniform shrink fails.
    #[test]
    fn prop_canonical_schedule_is_minimal(spec in spec_strategy()) {
        let circuit = build(&spec);
        let sol = min_cycle_time(&circuit).expect("solves");
        prop_assume!(sol.cycle_time() > 1e-6);
        let shrunk = sol.schedule().scaled(0.999);
        prop_assert!(!verify(&circuit, &shrunk).is_feasible());
    }

    /// Departure variables at the LP optimum dominate the slid fixpoint
    /// (the MLP update only moves departures toward the origin), the slide
    /// takes at most `L + 1` sweeps, and it lands where the paper's
    /// uncapped Jacobi iteration from the same `D⁰` does.
    #[test]
    fn prop_update_only_slides_down(spec in spec_strategy()) {
        let circuit = build(&spec);
        let model = TimingModel::build(&circuit).expect("model");
        let lp = model.solve_lp().expect("optimal");
        let d0 = model.extract_departures(&lp);
        let sol = smo::timing::solve_model(&circuit, &model).expect("solves");
        for (slid, initial) in sol.departures().iter().zip(&d0) {
            prop_assert!(*slid <= initial + 1e-7, "slide increased a departure");
        }
        prop_assert!(sol.update_iterations() <= circuit.num_syncs() + 1);
        let jacobi = smo::timing::PropagationSystem::new(&circuit, sol.schedule())
            .jacobi(&d0, usize::MAX);
        for (slid, oracle) in sol.departures().iter().zip(&jacobi.departures) {
            prop_assert!((slid - oracle).abs() <= 1e-6, "slide {slid} vs Jacobi {oracle}");
        }
    }

    /// Random circuits honour the rigorous constraint-count bound.
    #[test]
    fn prop_constraint_count_bound(seed in 0u64..500) {
        let cfg = GenConfig {
            phases: 2 + (seed as usize % 3),
            latches: 4 + (seed as usize % 20),
            edges: 6 + (seed as usize % 30),
            flip_flop_prob: 0.15,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        let model = TimingModel::build(&circuit).expect("model");
        let k = circuit.num_phases();
        let bound = (3 * k - 1 + k * k) + (circuit.max_fanin() + 1) * circuit.num_syncs();
        prop_assert!(model.num_constraints() <= bound);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sparse-LU simplex path and the dense reference tableau produce
    /// the same optimal cycle time on random circuits.
    #[test]
    fn prop_simplex_variants_agree_on_circuits(spec in spec_strategy()) {
        use smo::lp::SolveBudget;
        use smo::timing::{Backend, MlpOptions};
        let circuit = build(&spec);
        let sparse = smo::timing::min_cycle_time_with(
            &circuit,
            &MlpOptions {
                backend: Backend::Lp,
                ..Default::default()
            },
        )
        .expect("sparse-LU solves")
        .cycle_time();
        let dense = TimingModel::build(&circuit)
            .expect("model")
            .problem()
            .solve_reference(SolveBudget::UNLIMITED)
            .expect("dense solves")
            .objective()
            .expect("optimal");
        prop_assert!(
            (dense - sparse).abs() < 1e-6 * (1.0 + dense),
            "dense {dense} vs sparse-LU {sparse}"
        );
    }

    /// Merging parallel edges and lumping equivalent latches preserve the
    /// optimal cycle time.
    #[test]
    fn prop_transforms_preserve_optimum(spec in spec_strategy()) {
        use smo::circuit::{lump_equivalent_latches, merge_parallel_edges};
        let circuit = build(&spec);
        let base = min_cycle_time(&circuit).expect("solves").cycle_time();
        let merged = merge_parallel_edges(&circuit);
        let tc_merged = min_cycle_time(&merged).expect("solves").cycle_time();
        prop_assert!((base - tc_merged).abs() < 1e-6 * (1.0 + base));
        let (lumped, _) = lump_equivalent_latches(&merged);
        let tc_lumped = min_cycle_time(&lumped).expect("solves").cycle_time();
        prop_assert!((base - tc_lumped).abs() < 1e-6 * (1.0 + base));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The combinatorial bracket contains the LP optimum on random
    /// circuits: MMC lower bound ≤ Tc* ≤ flip-flop-style upper bound.
    #[test]
    fn prop_bounds_bracket_the_lp_optimum(spec in spec_strategy()) {
        use smo::timing::cycle_time_bounds;
        let circuit = build(&spec);
        let bounds = cycle_time_bounds(&circuit);
        prop_assert!(bounds.lower <= bounds.upper + 1e-9, "{bounds:?}");
        let tc = TimingModel::build(&circuit)
            .expect("model")
            .solve_lp()
            .expect("optimal")
            .objective();
        prop_assert!(
            bounds.brackets(tc),
            "Tc {} outside [{}, {}]", tc, bounds.lower, bounds.upper
        );
    }

    /// Same bracket property on the generator-produced circuits (denser,
    /// flip-flop-rich, multi-phase).
    #[test]
    fn prop_bounds_bracket_generated_circuits(seed in 0u64..300) {
        use smo::timing::cycle_time_bounds;
        let cfg = GenConfig {
            phases: 2 + (seed as usize % 3),
            latches: 4 + (seed as usize % 16),
            edges: 6 + (seed as usize % 24),
            flip_flop_prob: 0.2,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        let bounds = cycle_time_bounds(&circuit);
        let tc = TimingModel::build(&circuit)
            .expect("model")
            .solve_lp()
            .expect("optimal")
            .objective();
        prop_assert!(
            bounds.brackets(tc),
            "seed {}: Tc {} outside [{}, {}]", seed, tc, bounds.lower, bounds.upper
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The netlist parsers never panic: arbitrary input either parses or
    /// returns a structured error.
    #[test]
    fn prop_netlist_parsers_never_panic(src in "\\PC{0,300}") {
        let _ = netlist::parse(&src);
        let _ = netlist::parse_gates(&src);
    }

    /// Fully arbitrary byte strings — including control characters and
    /// invalid UTF-8 sequences (lossily decoded, as the daemon does with
    /// untrusted request payloads) — never panic either parser, and
    /// oversized inputs come back as the structured `InputLimit` error.
    #[test]
    fn prop_arbitrary_bytes_never_panic_the_parsers(
        bytes in proptest::collection::vec(0u8..=255u8, 0..2048)
    ) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = netlist::parse(&src);
        let _ = netlist::parse_gates(&src);
        // A hostile caller cannot dodge the limits by shrinking them.
        let tiny = netlist::ParseLimits {
            max_bytes: 8,
            ..Default::default()
        };
        if src.len() > 8 {
            let limited = matches!(
                netlist::parse_with_limits(&src, &tiny),
                Err(smo::circuit::CircuitError::InputLimit { .. })
            );
            prop_assert!(limited);
        }
    }

    /// Keyword soup built from the format's own vocabulary also never
    /// panics (deeper coverage than fully random bytes).
    #[test]
    fn prop_netlist_keyword_soup_never_panics(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "clock", "latch", "ff", "path", "gate", "wire", "A", "B", "2",
                "phase=1", "phase=9", "setup=1", "dq=2", "delay=5", "min=1",
                "max=3", "hold=0.5", "#x", "\n", "=", "-1", "nan",
            ]),
            0..60,
        )
    ) {
        let src = words.join(" ");
        let _ = netlist::parse(&src);
        let _ = netlist::parse_gates(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gate-level extraction equals brute-force path enumeration on random
    /// layered DAGs between two latches.
    #[test]
    fn prop_gate_extraction_matches_bruteforce(
        layers in proptest::collection::vec(1usize..4, 1..4),
        delays in proptest::collection::vec((0.5f64..5.0, 0.0f64..3.0), 12),
        wiring in proptest::collection::vec(proptest::bool::weighted(0.7), 64),
    ) {
        use smo::circuit::gates::GateNetlistBuilder;
        let mut g = GateNetlistBuilder::new(2);
        let src = g.add_latch("src", PhaseId::from_number(1), 1.0, 1.0);
        let dst = g.add_latch("dst", PhaseId::from_number(2), 1.0, 1.0);
        // build layered gates; gate i in layer L connects from every chosen
        // node of layer L−1 (or the source latch)
        let mut gate_delay = Vec::new(); // (min, max) per gate node index
        let mut node_layers: Vec<Vec<_>> = vec![vec![src]];
        let mut di = 0;
        let mut wi = 0;
        for (li, &width) in layers.iter().enumerate() {
            let mut layer = Vec::new();
            for j in 0..width {
                let (a, b) = delays[di % delays.len()];
                di += 1;
                let node = g.add_gate(format!("g{li}_{j}"), a.min(a + b), a + b);
                gate_delay.push((node, a.min(a + b), a + b));
                // wire from the previous layer
                let mut any = false;
                for &prev in &node_layers[li] {
                    let take = wiring[wi % wiring.len()];
                    wi += 1;
                    if take {
                        g.wire(prev, node).expect("valid");
                        any = true;
                    }
                }
                if !any {
                    g.wire(node_layers[li][0], node).expect("valid");
                }
                layer.push(node);
            }
            node_layers.push(layer);
        }
        for &n in node_layers.last().expect("non-empty") {
            g.wire(n, dst).expect("valid");
        }
        let circuit = g.extract().expect("extracts");

        // brute force: enumerate all layer-respecting paths
        // path delays: DFS over the same layered structure
        fn paths(
            layers: &[Vec<(f64, f64)>],
            conn: &dyn Fn(usize, usize, usize) -> bool,
        ) -> Vec<(f64, f64)> {
            // returns (max, min) accumulations per node of the last layer
            let mut acc: Vec<Vec<Option<(f64, f64)>>> =
                vec![vec![Some((0.0, 0.0))]];
            for (li, layer) in layers.iter().enumerate() {
                let mut next = Vec::new();
                for (j, &(mn, mx)) in layer.iter().enumerate() {
                    let mut best: Option<(f64, f64)> = None;
                    for (pi, p) in acc[li].iter().enumerate() {
                        if let Some((pmx, pmn)) = p {
                            if conn(li, pi, j) {
                                let cand = (pmx + mx, pmn + mn);
                                best = Some(match best {
                                    None => cand,
                                    Some((bmx, bmn)) => (bmx.max(cand.0), bmn.min(cand.1)),
                                });
                            }
                        }
                    }
                    next.push(best);
                }
                acc.push(next);
            }
            acc.last().expect("non-empty").iter().flatten().copied().collect()
        }
        // reconstruct connectivity decisions exactly as made above
        let mut decisions = std::collections::HashMap::new();
        {
            let mut wi2 = 0usize;
            for (li, &width) in layers.iter().enumerate() {
                let prev_count = if li == 0 { 1 } else { layers[li - 1] };
                for j in 0..width {
                    let mut any = false;
                    for pi in 0..prev_count {
                        let take = wiring[wi2 % wiring.len()];
                        wi2 += 1;
                        decisions.insert((li, pi, j), take);
                        any |= take;
                    }
                    if !any {
                        decisions.insert((li, 0, j), true);
                    }
                }
            }
        }
        let layer_delays: Vec<Vec<(f64, f64)>> = {
            let mut di2 = 0usize;
            layers
                .iter()
                .map(|&w| {
                    (0..w)
                        .map(|_| {
                            let (a, b) = delays[di2 % delays.len()];
                            di2 += 1;
                            (a.min(a + b), a + b)
                        })
                        .collect()
                })
                .collect()
        };
        let per_last = paths(&layer_delays, &|li, pi, j| {
            *decisions.get(&(li, pi, j)).unwrap_or(&false)
        });
        prop_assume!(!per_last.is_empty());
        let want_max = per_last.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let want_min = per_last.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);

        let edge = circuit
            .edges()
            .iter()
            .find(|e| e.from != e.to)
            .expect("src→dst edge");
        prop_assert!((edge.max_delay - want_max).abs() < 1e-9,
            "max: extracted {} vs brute {}", edge.max_delay, want_max);
        prop_assert!((edge.min_delay - want_min).abs() < 1e-9,
            "min: extracted {} vs brute {}", edge.min_delay, want_min);
    }
}
