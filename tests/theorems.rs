//! End-to-end validation of every theorem in the paper, one test per
//! theorem, on randomized instances large enough to be meaningful but small
//! enough for debug-mode CI.

use rand::rngs::StdRng;
use rand::SeedableRng;
use strongly_simplicial::intervals::gen;
use strongly_simplicial::labeling::{exact, interval, tree, unit_interval};
use strongly_simplicial::labeling::{verify_labeling, SeparationVector};
use strongly_simplicial::prelude::*;

#[test]
fn theorem1_interval_l1_is_optimal_and_legal() {
    let mut rng = StdRng::seed_from_u64(200);
    for round in 0..10 {
        let n = 10 + round * 5;
        let rep = gen::random_connected_intervals(n, 0.8, 1.0, 4.0, &mut rng);
        let g = rep.to_graph();
        for t in 1..=4u32 {
            let out = interval::l1_coloring(&rep, t);
            verify_labeling(&g, &SeparationVector::all_ones(t), out.labeling.colors())
                .expect("Theorem 1: legality");
            let order: Vec<u32> = (0..n as u32).collect();
            let oracle = strongly_simplicial::simplicial::peel_lambda_star(&g, t, &order);
            assert_eq!(
                out.lambda_star, oracle,
                "Theorem 1: optimality (n={n}, t={t})"
            );
        }
    }
}

#[test]
fn theorem2_interval_approx_guarantees() {
    let mut rng = StdRng::seed_from_u64(201);
    for _ in 0..8 {
        let rep = gen::random_connected_intervals(30, 0.7, 1.0, 5.0, &mut rng);
        let g = rep.to_graph();
        for t in 2..=3u32 {
            for d1 in 2..=6u32 {
                let out = interval::approx_delta1_coloring(&rep, t, d1);
                let sep = SeparationVector::delta1_then_ones(d1, t).unwrap();
                verify_labeling(&g, &sep, out.labeling.colors()).expect("Theorem 2: legality");
                assert_eq!(out.upper_bound, out.lambda_t + 2 * (d1 - 1) * out.lambda_1);
                assert!(out.labeling.span() <= out.upper_bound, "Theorem 2: bound");
                let lower = (d1 as u64 * out.lambda_1 as u64).max(out.lambda_t as u64);
                assert!(out.upper_bound as u64 <= 3 * lower, "Theorem 2: U/L <= 3");
            }
        }
    }
}

#[test]
fn theorem3_unit_interval_spans_and_ratios() {
    let mut rng = StdRng::seed_from_u64(202);
    for _ in 0..8 {
        let u = gen::random_connected_unit_intervals(35, 0.55, &mut rng);
        let g = u.to_graph();
        let l1 = u.lambda1() as u32;
        let l2 = interval::l1_coloring(u.as_interval(), 2).lambda_star;
        for (d1, d2) in [(2u32, 1u32), (3, 1), (5, 1), (3, 2), (5, 2), (4, 3)] {
            let out = unit_interval::l_delta1_delta2_coloring(&u, d1, d2);
            let sep = SeparationVector::two(d1, d2).unwrap();
            verify_labeling(&g, &sep, out.labeling.colors()).expect("Theorem 3: legality");
            // Lemma 1 lower bound for L(δ1, δ2).
            let lower = (d1 as u64 * l1 as u64).max(d2 as u64 * l2 as u64).max(1);
            assert!(
                out.labeling.span() as u64 <= 3 * lower,
                "Theorem 3: 3-approx (d=({d1},{d2}), span {}, lower {lower})",
                out.labeling.span()
            );
            if d1 > 2 * d2 {
                // Tight or slack, the span never exceeds the corrected
                // guarantee λ*₁(δ1+δ2)+δ2, and on slack graphs matches the
                // published λ*₁δ1+δ2.
                assert!(out.labeling.span() <= l1 * (d1 + d2) + d2);
            } else {
                assert!(out.labeling.span() <= 2 * d2 * (l1 + 1));
            }
        }
    }
}

#[test]
fn theorem4_tree_l1_is_optimal_and_legal() {
    let mut rng = StdRng::seed_from_u64(203);
    for round in 0..10 {
        let n = 8 + round * 9;
        let g = strongly_simplicial::graph::generators::random_tree(n, &mut rng);
        let tr = RootedTree::bfs_canonical(&g, 0).unwrap();
        let cg = tr.to_graph();
        for t in 1..=5u32 {
            let out = tree::l1_coloring(&tr, t);
            verify_labeling(&cg, &SeparationVector::all_ones(t), out.labeling.colors())
                .expect("Theorem 4: legality");
            assert_eq!(out.labeling.span(), out.lambda_star, "Theorem 4: span = λ*");
            let order: Vec<u32> = (0..n as u32).collect();
            let oracle = strongly_simplicial::simplicial::peel_lambda_star(&cg, t, &order);
            assert_eq!(
                out.lambda_star, oracle,
                "Theorem 4: optimality (n={n}, t={t})"
            );
        }
    }
}

#[test]
fn theorem5_tree_approx_guarantees() {
    let mut rng = StdRng::seed_from_u64(204);
    for _ in 0..8 {
        let g = strongly_simplicial::graph::generators::random_tree(45, &mut rng);
        let tr = RootedTree::bfs_canonical(&g, 0).unwrap();
        let cg = tr.to_graph();
        for t in 1..=4u32 {
            for d1 in 2..=6u32 {
                let out = tree::approx_delta1_coloring(&tr, t, d1);
                let sep = SeparationVector::delta1_then_ones(d1, t).unwrap();
                verify_labeling(&cg, &sep, out.labeling.colors()).expect("Theorem 5: legality");
                assert_eq!(out.upper_bound, out.lambda_star + 2 * (d1 - 1));
                assert!(out.labeling.span() <= out.upper_bound, "Theorem 5: bound");
                let lower = (d1 as u64).max(out.lambda_star as u64); // λ*_{T,1} = 1
                assert!(out.upper_bound as u64 <= 3 * lower, "Theorem 5: ratio <= 3");
            }
        }
    }
}

#[test]
fn approximations_vs_exact_optimum_small_instances() {
    // The strongest form of Theorems 2/3/5: measure the true ratio against
    // the branch-and-bound optimum, not just against Lemma 1.
    let mut rng = StdRng::seed_from_u64(205);
    for _ in 0..4 {
        let rep = gen::random_connected_intervals(8, 0.7, 1.0, 3.0, &mut rng);
        let g = rep.to_graph();
        for (t, d1) in [(2u32, 2u32), (2, 3), (3, 2)] {
            let out = interval::approx_delta1_coloring(&rep, t, d1);
            let sep = SeparationVector::delta1_then_ones(d1, t).unwrap();
            let (_, opt) = exact::exact_min_span(&g, &sep);
            assert!(
                out.labeling.span() as f64 <= 3.0 * opt.max(1) as f64,
                "interval approx ratio (t={t}, d1={d1}): {} vs opt {opt}",
                out.labeling.span()
            );
        }
        let gt = strongly_simplicial::graph::generators::random_tree(9, &mut rng);
        let tr = RootedTree::bfs_canonical(&gt, 0).unwrap();
        let cg = tr.to_graph();
        for (t, d1) in [(2u32, 2u32), (2, 4), (3, 3)] {
            let out = tree::approx_delta1_coloring(&tr, t, d1);
            let sep = SeparationVector::delta1_then_ones(d1, t).unwrap();
            let (_, opt) = exact::exact_min_span(&cg, &sep);
            assert!(
                out.labeling.span() as f64 <= 3.0 * opt.max(1) as f64,
                "tree approx ratio (t={t}, d1={d1}): {} vs opt {opt}",
                out.labeling.span()
            );
        }
    }
}

#[test]
fn lemma2_machinery_is_consistent() {
    // The generic safe peeling (the corrected Lemma 2) agrees with both
    // specialized optimal algorithms on instances in both classes.
    let mut rng = StdRng::seed_from_u64(206);
    let rep = gen::random_connected_intervals(10, 0.8, 1.0, 3.0, &mut rng);
    let g = rep.to_graph();
    for t in 1..=3u32 {
        let fast = interval::l1_coloring(&rep, t).lambda_star;
        let mut order = strongly_simplicial::simplicial::safe_t_simplicial_elimination_order(&g, t)
            .expect("interval graphs always admit safe orders");
        order.reverse();
        let (_, peeled) = strongly_simplicial::simplicial::peel_l1_coloring(&g, t, &order);
        assert_eq!(fast, peeled, "t={t}");
    }
}

#[test]
fn tree_l1_large_t_adversarial_shapes() {
    // Large t exercises every branch of the Up-Neighborhood decomposition
    // (odd/even families, the root fan, top-block-only levels) on shapes
    // with uneven depth. Differential against the Lemma-2 peel oracle.
    let shapes: Vec<(&str, ssg_graph::Graph)> = vec![
        ("spider-uneven", {
            // legs of very different lengths glued at a hub
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let mut next = 1u32;
            for leg in [1usize, 3, 8, 17] {
                let mut prev = 0u32;
                for _ in 0..leg {
                    edges.push((prev, next));
                    prev = next;
                    next += 1;
                }
            }
            ssg_graph::Graph::from_edges(next as usize, &edges).unwrap()
        }),
        ("double-broom", {
            // star - path - star
            let mut edges: Vec<(u32, u32)> = (1..12).map(|i| (i - 1, i)).collect();
            for leaf in 12..20 {
                edges.push((0, leaf));
            }
            for leaf in 20..28 {
                edges.push((11, leaf));
            }
            ssg_graph::Graph::from_edges(28, &edges).unwrap()
        }),
        ("caterpillar-deep", strongly_simplicial::graph::generators::caterpillar(14, 2)),
    ];
    for (name, g) in shapes {
        let tr = RootedTree::bfs_canonical(&g, 0).unwrap();
        let cg = tr.to_graph();
        for t in [1u32, 5, 7, 9, 12, 30] {
            let out = tree::l1_coloring(&tr, t);
            verify_labeling(&cg, &SeparationVector::all_ones(t), out.labeling.colors())
                .unwrap_or_else(|v| panic!("{name} t={t}: {v}"));
            let order: Vec<u32> = (0..cg.num_vertices() as u32).collect();
            let oracle = strongly_simplicial::simplicial::peel_lambda_star(&cg, t, &order);
            assert_eq!(out.lambda_star, oracle, "{name} t={t}");
            assert_eq!(out.labeling.span(), out.lambda_star, "{name} t={t}");
        }
    }
}

/// Literature oracles for the tree code at sizes where levels are wide:
/// `λ*_{T,2} = Δ` (the cliques of `T²` are closed stars), and A5's
/// `L(2,1)` span lies in `[Δ+1, Δ+2]` (Griggs–Yeh: every tree needs `Δ+1`,
/// and Theorem 5 gives at most `λ* + 2 = Δ + 2`). Legality is checked
/// locally, without building `A_{T,2}`: adjacent colors differ by at least
/// two and every closed neighborhood has distinct colors, which covers
/// every pair at distance 2.
#[test]
fn tree_l21_spans_meet_griggs_yeh_at_scale() {
    use strongly_simplicial::graph::generators;
    use strongly_simplicial::netsim::BackboneNetwork;

    let mut rng = StdRng::seed_from_u64(207);
    let mut trees: Vec<(String, Graph)> = Vec::new();
    for n in [1_024usize, 4_096, 16_384, 65_536] {
        trees.push((
            format!("random n={n}"),
            generators::random_tree(n, &mut rng),
        ));
    }
    for (n, max_degree) in [(1_024usize, 3), (4_096, 4), (16_384, 6), (65_536, 4)] {
        let net = BackboneNetwork::generate(n, max_degree, &mut rng);
        trees.push((format!("backbone n={n}"), net.graph().clone()));
    }
    trees.push(("star".into(), generators::star(65_536)));
    trees.push(("path".into(), generators::path(65_536)));
    for (name, g) in &trees {
        let delta = g.max_degree() as u32;
        let tr = RootedTree::bfs_canonical(g, 0).unwrap();
        assert_eq!(
            strongly_simplicial::tree::tree_lambda_star(&tr, 2) as u32,
            delta,
            "{name}: λ*_(T,2) = Δ"
        );
        let out = tree::approx_delta1_coloring(&tr, 2, 2);
        let span = out.labeling.span();
        assert!(
            (delta + 1..=delta + 2).contains(&span),
            "{name}: L(2,1) span {span} outside [Δ+1, Δ+2] for Δ = {delta}"
        );
        let cg = tr.to_graph();
        let colors = out.labeling.colors();
        let mut closed: Vec<u32> = Vec::new();
        for v in cg.vertices() {
            let cv = colors[v as usize];
            closed.clear();
            closed.push(cv);
            for &u in cg.neighbors(v) {
                assert!(cv.abs_diff(colors[u as usize]) >= 2, "{name}: edge {v}-{u}");
                closed.push(colors[u as usize]);
            }
            closed.sort_unstable();
            assert!(
                closed.windows(2).all(|w| w[0] != w[1]),
                "{name}: repeated color around {v}"
            );
        }
    }
}
