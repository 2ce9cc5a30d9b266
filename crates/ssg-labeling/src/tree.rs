//! The paper's tree algorithms:
//!
//! * [`l1_coloring`] — `Tree-L(1,...,1)-coloring` (§4.1, Figure 5,
//!   Theorem 4): optimal, in `O(nt^2)`: every descendant set is a BFS
//!   range reached in `O(t)` steps (see `ssg-tree`), and `λ*` takes
//!   `O(t^2)` such steps per vertex.
//! * [`approx_delta1_coloring`] — `Tree-L(δ1,1,...,1)-coloring` (§4.2,
//!   Theorem 5): span at most `λ*_{T,t} + 2(δ1-1)`, a 3-approximation, in
//!   `O(n(t + δ1))`.
//!
//! ## How Figure 5 is realized
//!
//! Vertices are processed in BFS-canonical order (`ssg-tree`), which by
//! Lemma 5 processes a `t`-simplicial vertex of the already-seen subtree at
//! every step. Within a level `ℓ > ⌊t/2⌋`, consecutive vertices sharing the
//! ancestor at height `h = ⌊t/2⌋` form a **group** (`D_h(anc_h(x))`, a
//! contiguous BFS range): group members are pairwise within distance
//! `2h <= t`, so they drain distinct colors from one shared palette, and
//! every colored vertex constrains either all of them identically (paths
//! leave the shared subtree through `anc_h`) or lies inside the shared
//! subtree within distance `t` of all of them.
//!
//! Between consecutive groups the palette is updated incrementally with two
//! `Up-Neighborhood` calls (Figure 4): colors of `F(old_x, uplevel)` — plus
//! `old_x` itself, which its own `F` excludes — return to the palette, and
//! colors of `F(x, uplevel)` leave it, where
//! `uplevel = min(t, ℓ - level(lca(old_x, x)) - 1)` spans exactly the
//! ancestors on which the two neighborhoods differ. The published pseudocode
//! resets the palette per level; we undo the level's operations instead,
//! which is amortized `O(level work)` and keeps brooms and other
//! wide-and-deep trees within the `O(nt)` budget.

use crate::palette::BitsetPalette;
use crate::spec::Labeling;
use crate::workspace::Workspace;
use ssg_error::SsgError;
use ssg_graph::Vertex;
use ssg_telemetry::{Counter, Metrics};
use ssg_tree::{for_each_in_up_neighborhood, tree_lambda_star, RootedTree};

/// Result of the optimal tree coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeL1Output {
    /// The coloring, indexed by the tree's BFS-canonical numbering
    /// (use [`to_original_ids`] to map back).
    pub labeling: Labeling,
    /// `λ*_{T,t} = max_y |F_t(y)|` — the optimal span.
    pub lambda_star: u32,
}

/// `Tree-L(1,...,1)-coloring` (Figure 5). Optimal for any tree.
pub fn l1_coloring(tree: &RootedTree, t: u32) -> TreeL1Output {
    l1_coloring_with(tree, t, &Metrics::disabled())
}

/// [`l1_coloring`] with telemetry: records one
/// [`Counter::PeelSteps`] per colored vertex and the palette probes of the
/// sweep on `metrics`.
pub fn l1_coloring_with(tree: &RootedTree, t: u32, metrics: &Metrics) -> TreeL1Output {
    l1_coloring_ws(tree, t, &mut Workspace::new(), metrics)
}

/// [`l1_coloring_with`] on a caller-owned [`Workspace`]: repeated solves
/// on same-sized trees reuse every scratch buffer (zero heap allocation
/// once warm) and record
/// [`Counter::WorkspaceReuses`](ssg_telemetry::Counter).
/// Outputs and all other counters are bit-identical to
/// [`l1_coloring_with`].
pub fn l1_coloring_ws(
    tree: &RootedTree,
    t: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> TreeL1Output {
    ws.begin_solve(metrics);
    let _span = metrics.span("tree.color_levels");
    let (labeling, lambda_star) = color_tree(tree, t, 1, ws, metrics);
    TreeL1Output {
        labeling,
        lambda_star,
    }
}

/// Result of the approximate tree coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeApproxOutput {
    /// The coloring (BFS-canonical numbering).
    pub labeling: Labeling,
    /// `λ*_{T,t}` computed by the optimal machinery.
    pub lambda_star: u32,
    /// Theorem 5's guaranteed largest color `λ*_{T,t} + 2(δ1 - 1)`.
    pub upper_bound: u32,
}

/// `Tree-L(δ1,1,...,1)-coloring` (§4.2): identical sweep with the palette
/// enriched to `{0, ..., λ* + 2(δ1-1)}` and each extraction required to be
/// `δ1`-separated from the parent's color.
pub fn approx_delta1_coloring(tree: &RootedTree, t: u32, delta1: u32) -> TreeApproxOutput {
    approx_delta1_coloring_with(tree, t, delta1, &Metrics::disabled())
}

/// [`approx_delta1_coloring`] with telemetry (same counters as
/// [`l1_coloring_with`]).
pub fn approx_delta1_coloring_with(
    tree: &RootedTree,
    t: u32,
    delta1: u32,
    metrics: &Metrics,
) -> TreeApproxOutput {
    approx_delta1_coloring_ws(tree, t, delta1, &mut Workspace::new(), metrics)
}

/// [`approx_delta1_coloring_with`] on a caller-owned [`Workspace`] (see
/// [`l1_coloring_ws`] for the reuse contract).
pub fn approx_delta1_coloring_ws(
    tree: &RootedTree,
    t: u32,
    delta1: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> TreeApproxOutput {
    assert!(delta1 >= 1);
    ws.begin_solve(metrics);
    let _span = metrics.span("tree.color_levels");
    let (labeling, lambda_star) = color_tree(tree, t, delta1, ws, metrics);
    TreeApproxOutput {
        labeling,
        lambda_star,
        upper_bound: lambda_star + 2 * (delta1 - 1),
    }
}

/// Shared sweep: `delta1 == 1` is exactly Figure 5; `delta1 > 1` is the
/// §4.2 generalization. Returns `(labeling, λ*)`.
fn color_tree(
    tree: &RootedTree,
    t: u32,
    delta1: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> (Labeling, u32) {
    assert!(t >= 1, "interference radius t must be >= 1");
    let n = tree.len();
    let lambda_star = tree_lambda_star(tree, t) as u32;
    let pool = lambda_star + 1 + 2 * (delta1 - 1);
    let mut colors = ws.take_colors(n, u32::MAX);
    let Workspace {
        palette: pal,
        level_log,
        ..
    } = ws;
    pal.reset(0, pool as usize);
    // Colors that left the palette during the current level; re-linked at
    // the next level's start (amortized per-level reset).
    level_log.clear();
    let h = t / 2;
    let height = tree.height();

    // Pick a palette color respecting the δ1 separation from the parent.
    // The parent window excludes at most 2(δ1-1) colors, so scanning at
    // most 2δ1-1 entries succeeds — O(δ1). `pop_separated` handles the
    // no-parent / δ1 = 1 cases and tests a branchless separation window
    // instead of a per-color predicate.
    let extract = |pal: &mut BitsetPalette, log: &mut Vec<u32>, parent_color: u32| -> u32 {
        let c = pal
            .pop_separated(0, parent_color, delta1)
            .expect("Theorems 4/5: the palette cannot run dry");
        log.push(c);
        c
    };
    let parent_color = |tree: &RootedTree, colors: &[u32], v: Vertex| -> u32 {
        match tree.parent(v) {
            Some(p) => colors[p as usize],
            None => u32::MAX,
        }
    };

    // Top block: levels 0..=min(h, height) are pairwise within distance
    // 2h <= t; all distinct colors.
    let top_levels = h.min(height);
    let top_end = tree.level_range(top_levels).end;
    for v in 0..top_end {
        let pc = parent_color(tree, &colors, v);
        colors[v as usize] = extract(pal, level_log, pc);
    }

    for ell in (h + 1)..=height {
        // Palette reset by undo: everything extracted or removed during the
        // previous level returns.
        for c in level_log.drain(..) {
            if !pal.is_linked(c) {
                pal.link(0, c);
            }
        }
        let range = tree.level_range(ell);
        let mut x = range.start;
        let mut old_x: Option<Vertex> = None;
        while x < range.end {
            let anc_h = tree
                .ancestor(x, h)
                .expect("ell > h guarantees the ancestor");
            let group_end = tree.descendant_range(anc_h, h).end;
            debug_assert!(group_end > x && group_end <= range.end);
            match old_x {
                None => {
                    // First group of the level: remove the colors of the
                    // full neighborhood F_t(x).
                    let uplevel = t.min(ell);
                    remove_neighborhood_colors(tree, x, uplevel, t, &colors, pal, level_log);
                }
                Some(o) => {
                    let uplevel = divergence_uplevel(tree, o, x, t, ell);
                    // Release: F(old_x, uplevel) plus old_x itself (its own
                    // neighborhood excludes it, but its color was extracted
                    // when its group was colored and is now > t away from
                    // every vertex of the new group).
                    restore_color(&colors, o, pal);
                    for_each_in_up_neighborhood(tree, o, uplevel, t, |u| {
                        restore_color(&colors, u, pal);
                    });
                    remove_neighborhood_colors(tree, x, uplevel, t, &colors, pal, level_log);
                }
            }
            for v in x..group_end {
                let pc = parent_color(tree, &colors, v);
                colors[v as usize] = extract(pal, level_log, pc);
            }
            old_x = Some(x);
            x = group_end;
        }
    }
    let span = colors.iter().copied().max().unwrap_or(0);
    debug_assert!(span <= lambda_star + 2 * (delta1 - 1));
    if metrics.is_enabled() {
        metrics.add(Counter::PeelSteps, n as u64);
        metrics.add(Counter::PaletteProbes, pal.probe_count());
        metrics.add(Counter::PaletteWordScans, pal.word_scan_count());
    }
    (Labeling::new(colors), lambda_star)
}

/// `min(t, ℓ - level(lca(o, x)) - 1)` via a lockstep parent walk capped at
/// `min(t, ℓ)` steps — O(t).
fn divergence_uplevel(tree: &RootedTree, o: Vertex, x: Vertex, t: u32, ell: u32) -> u32 {
    debug_assert_eq!(tree.level(o), ell);
    debug_assert_eq!(tree.level(x), ell);
    let mut a = o;
    let mut b = x;
    for i in 1..=t.min(ell) {
        a = tree.parent(a).expect("walk stays below the root");
        b = tree.parent(b).expect("walk stays below the root");
        if a == b {
            return i - 1;
        }
    }
    t
}

/// Removes (unlinks) the colors of every colored vertex in
/// `F(x, uplevel)`, logging them for the level reset.
fn remove_neighborhood_colors(
    tree: &RootedTree,
    x: Vertex,
    uplevel: u32,
    t: u32,
    colors: &[u32],
    pal: &mut BitsetPalette,
    log: &mut Vec<u32>,
) {
    for_each_in_up_neighborhood(tree, x, uplevel, t, |u| {
        let c = colors[u as usize];
        if c != u32::MAX && pal.is_linked(c) {
            pal.unlink(c);
            log.push(c);
        } else {
            // Colored vertices in F must hold currently-available colors
            // (they are pairwise within t, hence all distinct); uncolored
            // vertices are simply skipped.
            debug_assert!(c == u32::MAX, "color of {u} should be in the palette");
        }
    });
}

/// Returns the color of `u` to the palette if it is colored and absent.
fn restore_color(colors: &[u32], u: Vertex, pal: &mut BitsetPalette) {
    let c = colors[u as usize];
    if c != u32::MAX && !pal.is_linked(c) {
        pal.link(0, c);
    }
}

/// The profile `[λ*_{T,1}, ..., λ*_{T,t_max}]` of optimal tree spans
/// (Lemma 1's ingredients). `λ*_{T,1} = 1` for every tree with an edge.
pub fn lambda_profile(tree: &RootedTree, t_max: u32) -> Vec<u32> {
    (1..=t_max)
        .map(|i| tree_lambda_star(tree, i) as u32)
        .collect()
}

/// Result of coloring a forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestL1Output {
    /// The coloring, indexed by the input graph's vertex ids.
    pub labeling: Labeling,
    /// The optimal span: `max` of the component trees' `λ*` values
    /// (components never interact, so a shared color pool is optimal).
    pub lambda_star: u32,
}

/// Optimal `L(1,...,1)` coloring of a **forest**: each component tree is
/// colored by Figure 5 from a shared color pool. Non-forests yield
/// [`SsgError::ClassMismatch`] (this used to be an opaque `None`).
pub fn l1_coloring_forest(g: &ssg_graph::Graph, t: u32) -> Result<ForestL1Output, SsgError> {
    l1_coloring_forest_ws(g, t, &mut Workspace::new(), &Metrics::disabled())
}

/// [`l1_coloring_forest`] on a caller-owned [`Workspace`] (see
/// [`l1_coloring_ws`] for the reuse contract). Component subruns share the
/// arena without recording extra reuse events.
pub fn l1_coloring_forest_ws(
    g: &ssg_graph::Graph,
    t: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> Result<ForestL1Output, SsgError> {
    if !ssg_graph::recognition::is_forest(g) {
        return Err(SsgError::ClassMismatch {
            expected: "forest",
            found: "graph with a cycle".into(),
        });
    }
    ws.begin_solve(metrics);
    let mut colors = ws.take_colors(g.num_vertices(), 0);
    let mut lambda = 0u32;
    for comp in ssg_graph::traversal::component_vertex_lists(g) {
        let (sub, names) = g.induced_subgraph(&comp);
        let tree = RootedTree::bfs_canonical(&sub, 0).expect("component of a forest is a tree");
        let (labeling, lambda_star) = color_tree(&tree, t, 1, ws, metrics);
        lambda = lambda.max(lambda_star);
        for v in 0..tree.len() as Vertex {
            let sub_id = tree.original_id(v);
            colors[names[sub_id as usize] as usize] = labeling.color(v);
        }
        ws.recycle(labeling);
    }
    Ok(ForestL1Output {
        labeling: Labeling::new(colors),
        lambda_star: lambda,
    })
}

/// Re-indexes a canonical-numbered labeling back to the vertex ids of the
/// graph the tree was built from.
pub fn to_original_ids(tree: &RootedTree, labeling: &Labeling) -> Labeling {
    let mut out = vec![0u32; labeling.len()];
    for v in 0..labeling.len() as Vertex {
        out[tree.original_id(v) as usize] = labeling.color(v);
    }
    Labeling::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{verify_labeling, SeparationVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_graph::generators;

    fn canonical(g: &ssg_graph::Graph) -> RootedTree {
        RootedTree::bfs_canonical(g, 0).unwrap()
    }

    fn assert_optimal_l1(g: &ssg_graph::Graph, t: u32, label: &str) {
        let tree = canonical(g);
        let out = l1_coloring(&tree, t);
        let cg = tree.to_graph();
        verify_labeling(&cg, &SeparationVector::all_ones(t), out.labeling.colors())
            .unwrap_or_else(|v| panic!("{label} t={t}: {v}"));
        assert_eq!(out.labeling.span(), out.lambda_star, "{label} t={t}: span");
        // Oracle: Lemma-2 peeling over the BFS order (identity on canonical).
        let order: Vec<Vertex> = (0..g.num_vertices() as Vertex).collect();
        let (_, oracle) = ssg_simplicial::peel_l1_coloring(&cg, t, &order);
        assert_eq!(out.lambda_star, oracle, "{label} t={t}: optimality");
    }

    #[test]
    fn shapes_all_t() {
        for t in 1..=6u32 {
            assert_optimal_l1(&generators::path(17), t, "path");
            assert_optimal_l1(&generators::star(9), t, "star");
            assert_optimal_l1(&generators::kary_tree(40, 3), t, "3ary");
            assert_optimal_l1(&generators::kary_tree(31, 2), t, "binary");
            assert_optimal_l1(&generators::caterpillar(6, 3), t, "caterpillar");
            assert_optimal_l1(&generators::spider(5, 4), t, "spider");
        }
    }

    #[test]
    fn random_trees_match_peel_oracle() {
        let mut rng = StdRng::seed_from_u64(70);
        for round in 0..40 {
            let n = 2 + (round * 7) % 60;
            let g = generators::random_tree(n, &mut rng);
            for t in 1..=5u32 {
                assert_optimal_l1(&g, t, &format!("random n={n} round={round}"));
            }
        }
    }

    #[test]
    fn random_trees_match_bruteforce_clique() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..10 {
            let g = generators::random_tree(11, &mut rng);
            let tree = canonical(&g);
            for t in 1..=4u32 {
                let out = l1_coloring(&tree, t);
                let a = ssg_graph::augmented_graph(&tree.to_graph(), t);
                let omega = ssg_graph::power::max_clique_bruteforce(&a) as u32;
                assert_eq!(out.lambda_star + 1, omega, "t={t}");
            }
        }
    }

    #[test]
    fn single_vertex_and_edge() {
        let g = ssg_graph::Graph::from_edges(1, &[]).unwrap();
        let out = l1_coloring(&canonical(&g), 3);
        assert_eq!(out.labeling.colors(), &[0]);
        assert_eq!(out.lambda_star, 0);
        let g = ssg_graph::Graph::from_edges(2, &[(0, 1)]).unwrap();
        let out = l1_coloring(&canonical(&g), 1);
        assert_eq!(out.lambda_star, 1);
        assert_ne!(out.labeling.color(0), out.labeling.color(1));
    }

    #[test]
    fn deep_path_large_t() {
        // Exercises the top-block-only regime (height <= t/2) and beyond.
        let g = generators::path(9);
        for t in 1..=20u32 {
            assert_optimal_l1(&g, t, "deep-path");
        }
    }

    #[test]
    fn broom_stays_optimal() {
        // A broom (long handle + wide head) stresses the per-level reset.
        let mut edges: Vec<(Vertex, Vertex)> = (1..30).map(|i| (i - 1, i)).collect();
        for leaf in 30..60 {
            edges.push((29, leaf));
        }
        let g = ssg_graph::Graph::from_edges(60, &edges).unwrap();
        for t in 1..=5u32 {
            assert_optimal_l1(&g, t, "broom");
        }
    }

    #[test]
    fn approx_legal_and_within_theorem5_bound() {
        let mut rng = StdRng::seed_from_u64(72);
        for round in 0..25 {
            let n = 2 + (round * 5) % 50;
            let g = generators::random_tree(n, &mut rng);
            let tree = canonical(&g);
            let cg = tree.to_graph();
            for t in 1..=4u32 {
                for delta1 in 1..=5u32 {
                    let out = approx_delta1_coloring(&tree, t, delta1);
                    let sep = SeparationVector::delta1_then_ones(delta1, t).unwrap();
                    verify_labeling(&cg, &sep, out.labeling.colors())
                        .unwrap_or_else(|v| panic!("n={n} t={t} d1={delta1}: {v}"));
                    assert!(out.labeling.span() <= out.upper_bound);
                }
            }
        }
    }

    #[test]
    fn approx_delta1_one_reduces_to_optimal() {
        let mut rng = StdRng::seed_from_u64(73);
        let g = generators::random_tree(40, &mut rng);
        let tree = canonical(&g);
        for t in 1..=4u32 {
            let a = approx_delta1_coloring(&tree, t, 1);
            let o = l1_coloring(&tree, t);
            assert_eq!(a.upper_bound, o.lambda_star);
            assert_eq!(a.labeling, o.labeling);
        }
    }

    #[test]
    fn approx_ratio_within_three_of_lemma1() {
        let mut rng = StdRng::seed_from_u64(74);
        for _ in 0..10 {
            let g = generators::random_tree(30, &mut rng);
            let tree = canonical(&g);
            for t in 2..=4u32 {
                for delta1 in 2..=6u32 {
                    let out = approx_delta1_coloring(&tree, t, delta1);
                    // λ*_{T,1} = 1 for any tree with an edge.
                    let lower = (delta1 as u64).max(out.lambda_star as u64);
                    let ratio = out.labeling.span() as f64 / lower as f64;
                    assert!(ratio <= 3.0, "t={t} d1={delta1} ratio={ratio}");
                }
            }
        }
    }

    #[test]
    fn forest_coloring_is_legal_and_optimal() {
        let mut rng = StdRng::seed_from_u64(75);
        // Three random trees glued into one graph as a forest.
        for _ in 0..5 {
            let a = generators::random_tree(12, &mut rng);
            let b = generators::random_tree(7, &mut rng);
            let mut edges: Vec<(Vertex, Vertex)> = a.edges().collect();
            edges.extend(b.edges().map(|(u, v)| (u + 12, v + 12)));
            // plus an isolated vertex 19+1 = index 19.
            let g = ssg_graph::Graph::from_edges(20, &edges).unwrap();
            for t in 1..=3u32 {
                let out = l1_coloring_forest(&g, t).expect("forest");
                verify_labeling(&g, &SeparationVector::all_ones(t), out.labeling.colors()).unwrap();
                assert_eq!(out.labeling.span(), out.lambda_star);
                // λ* equals the max of the two components' individual λ*.
                let ta = RootedTree::bfs_canonical(&a, 0).unwrap();
                let tb = RootedTree::bfs_canonical(&b, 0).unwrap();
                let expect = l1_coloring(&ta, t)
                    .lambda_star
                    .max(l1_coloring(&tb, t).lambda_star);
                assert_eq!(out.lambda_star, expect, "t={t}");
            }
        }
        // Non-forests are rejected with a class-mismatch error.
        let err = l1_coloring_forest(&generators::cycle(5), 2).unwrap_err();
        assert!(matches!(
            err,
            SsgError::ClassMismatch {
                expected: "forest",
                ..
            }
        ));
    }

    #[test]
    fn warm_workspace_is_bit_identical_and_allocation_free() {
        let g = generators::kary_tree(60, 3);
        let tree = canonical(&g);
        let baseline = l1_coloring_with(&tree, 3, &Metrics::disabled());

        let mut ws = Workspace::new();
        let cold_m = Metrics::enabled();
        let cold = l1_coloring_ws(&tree, 3, &mut ws, &cold_m);
        assert_eq!(cold, baseline);
        let cold_snap = cold_m.snapshot();
        assert_eq!(cold_snap.counter(Counter::WorkspaceReuses), 0);
        ws.recycle(cold.labeling);

        let footprint = ws.capacity_footprint();
        let grows = ws.grow_events();
        for _ in 0..3 {
            let warm_m = Metrics::enabled();
            let warm = l1_coloring_ws(&tree, 3, &mut ws, &warm_m);
            assert_eq!(warm, baseline);
            let snap = warm_m.snapshot();
            assert_eq!(snap.counter(Counter::WorkspaceReuses), 1);
            assert_eq!(
                snap.counter(Counter::PaletteProbes),
                cold_snap.counter(Counter::PaletteProbes)
            );
            ws.recycle(warm.labeling);
            assert_eq!(ws.capacity_footprint(), footprint, "buffer regrew");
            assert_eq!(ws.grow_events(), grows, "buffer regrew");
        }
    }

    #[test]
    fn to_original_roundtrip() {
        let g = generators::star(5); // root at a leaf to force renumbering
        let tree = RootedTree::bfs_canonical(&g, 2).unwrap();
        let out = l1_coloring(&tree, 1);
        let orig = to_original_ids(&tree, &out.labeling);
        verify_labeling(&g, &SeparationVector::all_ones(1), orig.colors()).unwrap();
        assert_eq!(orig.span(), out.labeling.span());
    }
}
