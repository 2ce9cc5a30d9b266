//! Optimality certificates: explicit witness cliques of the augmented graph
//! `A_{G,t}` whose size equals `λ* + 1`, proving that the optimal algorithms'
//! spans cannot be improved (paper §2: `λ*_{G,t} + 1 >= ω(A_{G,t})`).
//!
//! For trees the witness is `F_t(y*) ∪ {y*}` for the vertex maximizing
//! `|F_t(y)|` (Lemma 5's clique); for interval graphs it is the *prefix
//! ball* `{u <= v : d(u, v) <= t} ∪ {v}` of the vertex maximizing it
//! (Lemma 3's clique — prefix distances equal full distances on interval
//! graphs, so t-simpliciality of `v` in the prefix makes this set pairwise
//! close).

use ssg_graph::traversal::UNREACHABLE;
use ssg_graph::Vertex;
use ssg_intervals::IntervalRepresentation;
use ssg_tree::{f_t_size, for_each_in_up_neighborhood, RootedTree};
use std::collections::VecDeque;

/// A witness clique of `A_{G,t}`: vertices pairwise within distance `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueWitness {
    /// The witness vertices (in the numbering of the structure they were
    /// extracted from: representation order / canonical tree order).
    pub vertices: Vec<Vertex>,
    /// The interference radius the witness certifies.
    pub t: u32,
}

impl CliqueWitness {
    /// The span lower bound this witness proves: `|W| - 1`.
    pub fn span_lower_bound(&self) -> u32 {
        self.vertices.len().saturating_sub(1) as u32
    }
}

/// Witness clique for a tree: `F_t(y*) ∪ {y*}` where `y*` maximizes
/// `|F_t(y)|`. Its size is exactly `λ*_{T,t} + 1`. `O(nt^2)`.
pub fn tree_clique_witness(tree: &RootedTree, t: u32) -> CliqueWitness {
    assert!(t >= 1);
    let y_star = (0..tree.len() as Vertex)
        .max_by_key(|&y| f_t_size(tree, y, t))
        .expect("trees are non-empty");
    let mut vertices = vec![y_star];
    for_each_in_up_neighborhood(tree, y_star, t.min(tree.level(y_star)), t, |u| {
        vertices.push(u);
    });
    vertices.sort_unstable();
    CliqueWitness { vertices, t }
}

/// Witness clique for an interval graph: the prefix ball
/// `{u <= v : d(u, v) <= t} ∪ {v}` of the maximizing `v`. Its size is
/// exactly `λ*_{G,t} + 1`. `O(n · ball_t)` — certificate generation, not the
/// algorithmic hot path.
pub fn interval_clique_witness(rep: &IntervalRepresentation, t: u32) -> CliqueWitness {
    assert!(t >= 1);
    assert!(!rep.is_empty(), "empty representation has no witness");
    let g = rep.to_graph();
    let n = g.num_vertices();
    // Truncated BFS per vertex with ball-local distance resets: each walk
    // touches only its distance-<=t ball, so the sweep is O(n · ball_t)
    // rather than the O(n²) a full-array reset per source would cost.
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    let mut ball: Vec<Vertex> = Vec::new();
    let mut best: Vec<Vertex> = Vec::new();
    for v in 0..n as Vertex {
        ball.clear();
        queue.clear();
        dist[v as usize] = 0;
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            ball.push(u);
            let du = dist[u as usize];
            if du >= t {
                continue;
            }
            for &w in g.neighbors(u) {
                if dist[w as usize] == UNREACHABLE {
                    dist[w as usize] = du + 1;
                    queue.push_back(w);
                }
            }
        }
        let prefix = ball.iter().filter(|&&u| u <= v).count();
        if prefix > best.len() {
            best.clear();
            best.extend(ball.iter().copied().filter(|&u| u <= v));
            best.sort_unstable();
        }
        for &u in &ball {
            dist[u as usize] = UNREACHABLE;
        }
    }
    CliqueWitness { vertices: best, t }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::l1_coloring as interval_l1;
    use crate::tree::l1_coloring as tree_l1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_graph::traversal::truncated_apsp;

    fn assert_is_clique(g: &ssg_graph::Graph, w: &CliqueWitness) {
        let dist = truncated_apsp(g, w.t);
        for (i, &u) in w.vertices.iter().enumerate() {
            for &v in &w.vertices[i + 1..] {
                assert_ne!(
                    dist[u as usize][v as usize], UNREACHABLE,
                    "witness pair ({u},{v}) not within t={}",
                    w.t
                );
            }
        }
    }

    #[test]
    fn tree_witness_size_equals_lambda_plus_one() {
        let mut rng = StdRng::seed_from_u64(140);
        for _ in 0..10 {
            let g = ssg_graph::generators::random_tree(40, &mut rng);
            let tree = RootedTree::bfs_canonical(&g, 0).unwrap();
            for t in 1..=4u32 {
                let w = tree_clique_witness(&tree, t);
                let out = tree_l1(&tree, t);
                assert_eq!(w.span_lower_bound(), out.lambda_star, "t={t}");
                assert_is_clique(&tree.to_graph(), &w);
            }
        }
    }

    #[test]
    fn interval_witness_size_equals_lambda_plus_one() {
        let mut rng = StdRng::seed_from_u64(141);
        for _ in 0..10 {
            let rep = ssg_intervals::gen::random_connected_intervals(25, 0.8, 1.0, 4.0, &mut rng);
            for t in 1..=4u32 {
                let w = interval_clique_witness(&rep, t);
                let out = interval_l1(&rep, t);
                assert_eq!(w.span_lower_bound(), out.lambda_star, "t={t}");
                assert_is_clique(&rep.to_graph(), &w);
            }
        }
    }

    #[test]
    fn witnesses_have_distinct_vertices() {
        let g = ssg_graph::generators::kary_tree(31, 2);
        let tree = RootedTree::bfs_canonical(&g, 0).unwrap();
        let w = tree_clique_witness(&tree, 3);
        let mut sorted = w.vertices.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), w.vertices.len());
    }
}
