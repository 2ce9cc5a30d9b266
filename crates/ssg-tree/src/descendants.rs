//! The paper's `Explore-Descendents` procedure (Figure 3): for every vertex
//! `x`, the lists `D_i(x)` of descendants at distance exactly `i`, for
//! `0 <= i <= t`.
//!
//! [`explore_descendents`] is a faithful rendering of Figure 3 (postorder
//! accumulation of children's `D_{i-1}` lists), materializing all lists in
//! `O(nt)` time and space. The fast algorithms never build these lists:
//! they use [`RootedTree::descendant_range`], which reaches `D_i(x)` in `i`
//! constant-time steps over BFS-canonical numbering. The lists serve as the
//! reference the ranges are tested against.

use crate::rooted::RootedTree;
use ssg_graph::Vertex;

/// All descendant lists `D_i(x)` for `0 <= i <= t`, materialized.
///
/// `lists[x][i]` is `D_i(x)` in increasing vertex order. Total size is
/// `O(n * (t + 1))`: each vertex `v` appears once in `D_i(anc_i(v))` for each
/// `i <= min(t, level(v))`.
pub struct DescendantLists {
    lists: Vec<Vec<Vec<Vertex>>>,
    t: u32,
}

impl DescendantLists {
    /// `D_i(x)`; empty slice when `i > t` was not computed.
    pub fn get(&self, x: Vertex, i: u32) -> &[Vertex] {
        static EMPTY: &[Vertex] = &[];
        if i > self.t {
            return EMPTY;
        }
        &self.lists[x as usize][i as usize]
    }

    /// `|D_i(x)|`.
    pub fn count(&self, x: Vertex, i: u32) -> usize {
        self.get(x, i).len()
    }
}

/// Figure 3, `Explore-Descendents(r, T, t)`: computes `D_i(x)` for every
/// vertex bottom-up. Implemented iteratively (children in BFS-canonical
/// numbering always have larger ids than their parent, so a reverse scan is
/// a valid postorder) to avoid recursion depth limits on path-like trees.
pub fn explore_descendents(tree: &RootedTree, t: u32) -> DescendantLists {
    let n = tree.len();
    let mut lists: Vec<Vec<Vec<Vertex>>> = (0..n)
        .map(|x| {
            let mut per = vec![Vec::new(); t as usize + 1];
            per[0].push(x as Vertex); // D_0(x) = {x}
            per
        })
        .collect();
    for x in (0..n as u32).rev() {
        // "for every child v of x: for i := 1 to t: D_i(x) ∪= D_{i-1}(v)".
        // Children have larger ids, hence are already complete.
        for v in tree.children(x) {
            for i in 1..=t {
                // Children are visited left to right and their lists are
                // sorted, and all of child c's descendants precede child
                // c+1's at the same level in BFS numbering — so plain
                // extension keeps lists sorted.
                let taken = std::mem::take(&mut lists[v as usize][i as usize - 1]);
                lists[x as usize][i as usize].extend_from_slice(&taken);
                lists[v as usize][i as usize - 1] = taken;
            }
        }
    }
    DescendantLists { lists, t }
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

    #[test]
    fn lists_match_definition_small() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 2, 7, 40] {
            let g = generators::random_tree(n, &mut rng);
            let tr = tree_of(&g);
            let t = 4;
            let d = explore_descendents(&tr, t);
            for x in 0..n as Vertex {
                for i in 0..=t {
                    let expect: Vec<Vertex> = (0..n as Vertex)
                        .filter(|&v| tr.is_ancestor(x, v) && tr.level(v) == tr.level(x) + i)
                        .collect();
                    assert_eq!(d.get(x, i), expect.as_slice(), "n={n} x={x} i={i}");
                }
            }
        }
    }

    #[test]
    fn lists_agree_with_descendant_ranges() {
        let mut rng = StdRng::seed_from_u64(6);
        // The 70-ary tree has levels thousands of vertices wide, where a
        // random tree of this size has narrow ones.
        for g in [
            generators::random_tree(120, &mut rng),
            generators::kary_tree(6_000, 70),
        ] {
            let tr = tree_of(&g);
            let t = 6;
            let d = explore_descendents(&tr, t);
            for x in 0..tr.len() as Vertex {
                for i in 0..=t {
                    let range: Vec<Vertex> = tr.descendant_range(x, i).collect();
                    assert_eq!(d.get(x, i), range.as_slice(), "x={x} i={i}");
                }
            }
        }
    }

    #[test]
    fn total_size_is_linear_in_nt() {
        let g = generators::kary_tree(200, 3);
        let tr = tree_of(&g);
        let t = 4;
        let d = explore_descendents(&tr, t);
        let total: usize = (0..200u32)
            .map(|x| (0..=t).map(|i| d.count(x, i)).sum::<usize>())
            .sum();
        assert!(total <= 200 * (t as usize + 1));
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let g = generators::path(100_000);
        let tr = tree_of(&g);
        let d = explore_descendents(&tr, 2);
        assert_eq!(d.count(0, 2), 1);
        assert_eq!(d.count(99_999, 0), 1);
    }
}
