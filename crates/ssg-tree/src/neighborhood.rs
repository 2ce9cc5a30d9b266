//! The paper's `Up-Neighborhood` function (Figure 4) and the derived span
//! formula `λ*_{T,t} = max_y |F_t(y)|` (§4.1).
//!
//! `Up-Neighborhood(y, uplevel)` returns the vertices of the truncated tree
//! `T_{l(y)}` (levels `<= l(y)`) that are within distance `t` of `y` *and*
//! hang from an ancestor `anc_i(y)` with `i <= uplevel`. With
//! `uplevel = min(t, l(y))` this is the full neighborhood `F_t(y)`; with
//! smaller `uplevel` it is exactly the part of `F_t` that differs between two
//! vertices whose ancestor chains merge at height `uplevel + 1` — the delta
//! the coloring algorithm uses to update its palette between groups.
//!
//! The published pseudocode is OCR-damaged; this implementation derives the
//! same decomposition from first principles. A vertex `u ≠ y` of `T_{l(y)}`
//! with `d(u, y) <= t` is a depth-`j` descendant of `anc_i(y)` with
//! `i + j <= t` (distance) and `j <= i` (truncation at level `l(y)`). The
//! maximal such sets — the only ones that must be enumerated — have
//! `i + j ∈ {t, t-1}`, since `D_j(anc_i) ⊆ D_{j+1}(anc_{i+1})`:
//!
//! * family `i + j = t`:   `D_{t-i}(anc_i(y))` for `⌈t/2⌉ <= i <= t`;
//! * family `i + j = t-1`: `D_{t-1-i}(anc_i(y))` for `⌈(t-1)/2⌉ <= i <= t-1`;
//! * if the root is reached at height `i = l(y) < t`, the full fan
//!   `D_j(root)` for `0 <= j <= min(l(y), t - l(y))` replaces both families
//!   at that final step.
//!
//! All enumerated sets are pairwise disjoint (they live on distinct levels,
//! or distinct parities of levels), so sizes may be summed; `y` itself
//! appears in exactly one set when `i = j` is enumerated and is skipped.

use crate::rooted::RootedTree;
use ssg_graph::Vertex;
use std::ops::Range;

/// Calls `visit` once per maximal set of `Up-Neighborhood(y, uplevel)` for
/// distance budget `t` (see the module docs), each a descendant range of an
/// ancestor of `y`. The ranges are pairwise disjoint; their union is the
/// neighborhood, plus `y` itself when some `D_i(anc_i(y))` is among them.
/// `O(t^2)`.
fn for_each_up_range(
    tree: &RootedTree,
    y: Vertex,
    uplevel: u32,
    t: u32,
    mut visit: impl FnMut(Range<Vertex>),
) {
    assert!(t >= 1, "distance budget t must be >= 1");
    let ell = tree.level(y);
    let mut anc = y;
    for i in 1..=uplevel.min(ell) {
        anc = tree.parent(anc).expect("i <= level(y) guarantees a parent");
        if i == ell && i < t {
            // Root reached early: full fan D_j(root), j <= min(i, t - i).
            for j in 0..=i.min(t - i) {
                visit(tree.descendant_range(anc, j));
            }
        } else {
            // family i + j = t: j = t - i, requires j <= i and j >= 0.
            if 2 * i >= t && i <= t {
                visit(tree.descendant_range(anc, t - i));
            }
            // family i + j = t - 1: j = t - 1 - i, requires j <= i and j >= 0.
            if 2 * i + 1 >= t && i < t {
                visit(tree.descendant_range(anc, t - 1 - i));
            }
        }
    }
}

/// Visits every vertex of `Up-Neighborhood(y, uplevel)` for distance budget
/// `t`, invoking `visit` once per vertex (never for `y` itself).
///
/// `O(t^2 + |F|)` using descendant ranges.
pub fn for_each_in_up_neighborhood(
    tree: &RootedTree,
    y: Vertex,
    uplevel: u32,
    t: u32,
    mut visit: impl FnMut(Vertex),
) {
    for_each_up_range(tree, y, uplevel, t, |range| {
        range.filter(|&v| v != y).for_each(&mut visit);
    });
}

/// `Up-Neighborhood(y, uplevel)` materialized as a vector (paper Figure 4).
pub fn up_neighborhood(tree: &RootedTree, y: Vertex, uplevel: u32, t: u32) -> Vec<Vertex> {
    let mut out = Vec::new();
    for_each_in_up_neighborhood(tree, y, uplevel, t, |v| out.push(v));
    out
}

/// `|F_t(y)|` — the size of the full up-neighborhood of `y`, computed from
/// range lengths only in `O(t^2)`.
pub fn f_t_size(tree: &RootedTree, y: Vertex, t: u32) -> usize {
    let mut total = 0usize;
    for_each_up_range(tree, y, t, t, |range| {
        total += range.len() - usize::from(range.contains(&y));
    });
    total
}

/// The optimal `L(1,...,1)` span of the tree:
/// `λ*_{T,t} = max_y |F_t(y)|` (§4.1). `O(n t^2)`.
///
/// `F_t(y) ∪ {y}` is a clique of `A_{T_{l(y)},t}` because `y` is
/// `t`-simplicial in `T_{l(y)}` (Lemma 5), so this is a lower bound; the
/// Tree-`L(1,...,1)`-coloring algorithm attains it (Theorem 4).
pub fn tree_lambda_star(tree: &RootedTree, t: u32) -> usize {
    (0..tree.len() as Vertex)
        .map(|y| f_t_size(tree, y, t))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_graph::generators;

    fn tree_of(g: &ssg_graph::Graph) -> RootedTree {
        RootedTree::bfs_canonical(g, 0).unwrap()
    }

    /// Brute-force reference: vertices u != y with level(u) <= level(y),
    /// d(u,y) <= t, and the chains of u and y merging at height <= uplevel
    /// above y (i.e. level(lca) >= level(y) - uplevel).
    fn brute_f(tree: &RootedTree, y: Vertex, uplevel: u32, t: u32) -> Vec<Vertex> {
        let ell = tree.level(y);
        (0..tree.len() as Vertex)
            .filter(|&u| u != y && tree.level(u) <= ell)
            .filter(|&u| tree.distance(u, y) <= t)
            .filter(|&u| ell - tree.level(tree.lca(u, y)) <= uplevel)
            .collect()
    }

    #[test]
    fn full_neighborhood_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [2usize, 5, 30, 90] {
            let g = generators::random_tree(n, &mut rng);
            let tr = tree_of(&g);
            for t in 1..=6u32 {
                for y in 0..n as Vertex {
                    let up = t.min(tr.level(y));
                    let mut got = up_neighborhood(&tr, y, up, t);
                    got.sort_unstable();
                    let expect = brute_f(&tr, y, up, t);
                    assert_eq!(got, expect, "n={n} t={t} y={y}");
                }
            }
        }
    }

    #[test]
    fn partial_uplevel_is_the_divergent_part() {
        // For uplevel < full, membership is NOT simply "lca within uplevel":
        // a vertex is included iff its *maximal covering set* hangs at height
        // <= uplevel. Check the delta property instead, which is what the
        // coloring algorithm relies on: for two same-level vertices x, o
        // whose chains merge at height m = level - level(lca),
        // F_t(x) \ F(x, m-1) == F_t(o) \ F(o, m-1) as sets.
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..20 {
            let g = generators::random_tree(60, &mut rng);
            let tr = tree_of(&g);
            for t in 1..=5u32 {
                for l in 1..=tr.height() {
                    let range = tr.level_range(l);
                    let verts: Vec<Vertex> = range.collect();
                    for w in verts.windows(2) {
                        let (o, x) = (w[0], w[1]);
                        let m = l - tr.level(tr.lca(o, x));
                        if m <= t / 2 {
                            // Same group: the coloring algorithm never takes
                            // a delta here (and self-exclusion makes the raw
                            // sets differ in {o, x}).
                            continue;
                        }
                        let up = (m - 1).min(t);
                        let full_o: std::collections::BTreeSet<_> =
                            up_neighborhood(&tr, o, t.min(l), t).into_iter().collect();
                        let part_o: std::collections::BTreeSet<_> =
                            up_neighborhood(&tr, o, up, t).into_iter().collect();
                        let full_x: std::collections::BTreeSet<_> =
                            up_neighborhood(&tr, x, t.min(l), t).into_iter().collect();
                        let part_x: std::collections::BTreeSet<_> =
                            up_neighborhood(&tr, x, up, t).into_iter().collect();
                        let shared_o: Vec<_> = full_o.difference(&part_o).collect();
                        let shared_x: Vec<_> = full_x.difference(&part_x).collect();
                        assert_eq!(shared_o, shared_x, "t={t} o={o} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn sizes_match_materialized() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::random_tree(70, &mut rng);
        let tr = tree_of(&g);
        for t in 1..=5u32 {
            for y in 0..70 as Vertex {
                assert_eq!(
                    f_t_size(&tr, y, t),
                    up_neighborhood(&tr, y, t.min(tr.level(y)), t).len(),
                    "t={t} y={y}"
                );
            }
        }
    }

    #[test]
    fn lambda_star_known_values() {
        // Path P_n, t: the t-th power clique is min(n, t+1) => λ* = min(n-1, t).
        for n in [2usize, 5, 12] {
            let tr = tree_of(&generators::path(n));
            for t in 1..=6u32 {
                assert_eq!(
                    tree_lambda_star(&tr, t),
                    (n - 1).min(t as usize),
                    "path n={n} t={t}"
                );
            }
        }
        // Star K_{1,m}: t=1 -> λ*=1; t>=2 -> whole graph mutually close: λ*=m.
        let tr = tree_of(&generators::star(7));
        assert_eq!(tree_lambda_star(&tr, 1), 1);
        assert_eq!(tree_lambda_star(&tr, 2), 6);
        assert_eq!(tree_lambda_star(&tr, 5), 6);
        // Complete binary tree of height 3, t=2: a deep vertex sees its
        // sibling, parent and grandparent (the uncle is at distance 3), so
        // {v, sibling, parent, grandparent} is a maximum clique: λ* = 3.
        let tr = tree_of(&generators::kary_tree(15, 2));
        assert_eq!(tree_lambda_star(&tr, 2), 3);
        // t=3 additionally brings the uncle and great-grandparent: λ* = 5.
        assert_eq!(tree_lambda_star(&tr, 3), 5);
    }

    #[test]
    fn lambda_star_is_clique_lower_bound() {
        // λ*+1 must equal the clique number of A_{T,t} on small trees.
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..10 {
            let g = generators::random_tree(12, &mut rng);
            let tr = tree_of(&g);
            let cg = tr.to_graph();
            for t in 1..=4u32 {
                let a = ssg_graph::augmented_graph(&cg, t);
                let omega = ssg_graph::power::max_clique_bruteforce(&a);
                assert_eq!(tree_lambda_star(&tr, t) + 1, omega, "t={t} tree={tr:?}");
            }
        }
    }
}
