//! Determinism: identical seeds must give identical workloads, colorings and
//! reports across the whole pipeline — the property EXPERIMENTS.md's
//! reproducibility story rests on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use strongly_simplicial::intervals::gen;
use strongly_simplicial::labeling::{interval, tree, unit_interval};
use strongly_simplicial::netsim::{BackboneNetwork, CorridorNetwork};
use strongly_simplicial::prelude::*;

#[test]
fn interval_pipeline_is_deterministic() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(31337);
        let rep = gen::random_connected_intervals(300, 0.8, 1.0, 4.0, &mut rng);
        let out = interval::l1_coloring(&rep, 3);
        (rep, out.labeling.colors().to_vec(), out.lambda_star)
    };
    let (a_rep, a_colors, a_span) = run();
    let (b_rep, b_colors, b_span) = run();
    assert_eq!(a_rep, b_rep);
    assert_eq!(a_colors, b_colors);
    assert_eq!(a_span, b_span);
}

#[test]
fn tree_pipeline_is_deterministic() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(424242);
        let g = strongly_simplicial::graph::generators::random_tree(250, &mut rng);
        let tr = RootedTree::bfs_canonical(&g, 0).unwrap();
        let out = tree::l1_coloring(&tr, 4);
        (out.labeling.colors().to_vec(), out.lambda_star)
    };
    assert_eq!(run(), run());
}

#[test]
fn unit_interval_pipeline_is_deterministic() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(777);
        let rep = gen::corridor_unit_intervals(200, 5, &mut rng);
        let out = unit_interval::l_delta1_delta2_coloring(&rep, 5, 2);
        (out.labeling.colors().to_vec(), out.schemes.clone())
    };
    assert_eq!(run(), run());
}

#[test]
fn netsim_reports_are_deterministic() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        let corridor = CorridorNetwork::generate(150, 1.0, 1.0, 4.0, &mut rng);
        let backbone = BackboneNetwork::generate(150, 4, &mut rng);
        (corridor.assign_l1(2), backbone.assign_l1(3))
    };
    let (c1, b1) = run();
    let (c2, b2) = run();
    assert_eq!(c1, c2);
    assert_eq!(b1, b2);
    assert_eq!(c1.to_csv_row(), c2.to_csv_row());
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against a generator accidentally ignoring its RNG.
    let mut a = StdRng::seed_from_u64(1);
    let mut b = StdRng::seed_from_u64(2);
    let ra = gen::random_connected_intervals(100, 0.8, 1.0, 4.0, &mut a);
    let rb = gen::random_connected_intervals(100, 0.8, 1.0, 4.0, &mut b);
    assert_ne!(ra, rb);
}

/// FNV-1a 64 over the little-endian bytes of a color vector.
fn fnv1a64(colors: &[u32]) -> u64 {
    colors
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Pins the labelings themselves, not just their spans: A1–A5 on three
/// seeds each, solved through the registry on one warm workspace, must
/// reproduce these color-vector digests bit for bit. Any change to a
/// solver's extraction order (the palette's LIFO recency, the sweep's
/// event order) shows up here even when every span stays put.
#[test]
fn labelings_match_pinned_digests() {
    use strongly_simplicial::graph::generators::random_bounded_degree_tree;
    use strongly_simplicial::labeling::Workspace;
    use strongly_simplicial::telemetry::Metrics;

    const N: usize = 1500;
    // The labelings of the paper's linked-list palette, which the bitset
    // palette must reproduce color for color.
    const PINNED: [(u64, [u64; 5]); 3] = [
        (
            1,
            [
                0x4f1d03bb73b015f7,
                0x3250cb35e1248ffa,
                0x09c1556d7516c9ff,
                0x5b5b732cd5663495,
                0x628709f1a276cf8e,
            ],
        ),
        (
            2,
            [
                0x43da2317fea77822,
                0xa1fa26293314b767,
                0x6330f887cb8f63f8,
                0x0fec4ceb62d2f2a1,
                0xa1fd2f49dc00203b,
            ],
        ),
        (
            3,
            [
                0xe8569821aecab01a,
                0x7295d31dbe0d2a7d,
                0x43cc8ffcee93019b,
                0xa93659f16288a001,
                0x052db9b4993d1020,
            ],
        ),
    ];
    let ones = SeparationVector::all_ones(2);
    let d1_then_one = SeparationVector::delta1_then_ones(4, 2).unwrap();
    let d1_d2 = SeparationVector::two(5, 2).unwrap();
    let registry = default_registry();
    let mut ws = Workspace::new();
    for (seed, want) in PINNED {
        let mut rng = StdRng::seed_from_u64(seed);
        // Disconnected on purpose: A1/A2 color component by component.
        let intervals = gen::random_intervals(N, N as f64, 1.0, 3.0, &mut rng);
        let unit = gen::random_unit_intervals(N, N as f64 / 4.0, &mut rng);
        let g = random_bounded_degree_tree(N, 4, &mut rng);
        let tr = RootedTree::bfs_canonical(&g, 0).unwrap();
        let cases = [
            ("interval_l1", Problem::interval(&intervals, &ones)),
            (
                "interval_approx_delta1",
                Problem::interval(&intervals, &d1_then_one),
            ),
            (
                "unit_interval_l_delta1_delta2",
                Problem::unit_interval(&unit, &d1_d2),
            ),
            ("tree_l1", Problem::tree(&tr, &ones)),
            ("tree_approx_delta1", Problem::tree(&tr, &d1_then_one)),
        ];
        let got: Vec<u64> = cases
            .iter()
            .map(|(name, problem)| {
                let lab = registry.solve(name, problem, &mut ws, &Metrics::disabled());
                let digest = fnv1a64(lab.colors());
                ws.recycle(lab);
                digest
            })
            .collect();
        assert_eq!(
            got, want,
            "seed {seed}: labelings drifted, got {got:#018x?}"
        );
    }
}
