//! Rooted ordered trees with BFS-canonical numbering.
//!
//! The paper's tree algorithms (§4) assume an *ordered* tree whose vertices
//! are numbered in breadth-first order: level by level, left to right within
//! each level. [`RootedTree::bfs_canonical`] produces exactly that numbering
//! from any tree graph, and the rest of the crate (descendant lists,
//! up-neighborhoods) relies on its invariants:
//!
//! * vertex `0` is the root;
//! * levels are contiguous vertex ranges (`level_range`);
//! * children of earlier parents come first and siblings are consecutive,
//!   so the children of any vertex range form a vertex range, and so does
//!   every descendant set `D_i(x)` (`descendant_range`).

use ssg_graph::{Graph, Vertex};
use std::fmt;
use std::ops::Range;

/// Sentinel parent of the root.
const NO_PARENT: u32 = u32::MAX;

/// Errors when interpreting a graph as a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The graph does not have exactly `n - 1` edges.
    WrongEdgeCount {
        /// Vertices in the graph.
        n: usize,
        /// Edges in the graph.
        m: usize,
    },
    /// The graph is not connected.
    Disconnected,
    /// The requested root is out of range.
    RootOutOfRange {
        /// The requested root.
        root: Vertex,
    },
    /// The graph is empty (a tree needs at least one vertex).
    Empty,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::WrongEdgeCount { n, m } => {
                write!(f, "a tree on {n} vertices needs {} edges, got {m}", n - 1)
            }
            TreeError::Disconnected => write!(f, "graph is not connected"),
            TreeError::RootOutOfRange { root } => write!(f, "root {root} out of range"),
            TreeError::Empty => write!(f, "empty graph is not a tree"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted ordered tree in BFS-canonical numbering.
///
/// BFS numbering puts the children of `v` right after the children of
/// `v - 1`, so the children of a vertex *range* `[a, b)` are the range
/// `[child_off[a] + 1, child_off[b] + 1)`: every descendant set `D_i(x)` is
/// `i` steps of that rule from `[x, x + 1)`, with no search and no child
/// list.
#[derive(Clone, PartialEq, Eq)]
pub struct RootedTree {
    /// Parent of each vertex (`NO_PARENT` for the root, which is vertex 0).
    parent: Vec<u32>,
    /// Level (depth) of each vertex; the root has level 0.
    level: Vec<u32>,
    /// `child_off[v]` counts the children of vertices `< v`, so the
    /// children of `v` are `child_off[v] + 1..child_off[v + 1] + 1`;
    /// `child_off.len() = n + 1`.
    child_off: Vec<u32>,
    /// `level_start[l]..level_start[l+1]` is the contiguous vertex range of
    /// level `l`; `level_start.len() = height + 2`.
    level_start: Vec<u32>,
    /// Mapping BFS-canonical vertex -> original graph vertex.
    original: Vec<Vertex>,
}

impl fmt::Debug for RootedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RootedTree(n={}, height={})", self.len(), self.height())
    }
}

impl RootedTree {
    /// Interprets `g` as a tree rooted at `root` and renumbers it into
    /// BFS-canonical form. Children of each vertex are ordered by their
    /// original vertex id, making the construction deterministic.
    ///
    /// ```
    /// use ssg_graph::Graph;
    /// use ssg_tree::RootedTree;
    /// let g = Graph::from_edges(4, &[(2, 0), (0, 3), (3, 1)]).unwrap();
    /// let t = RootedTree::bfs_canonical(&g, 2).unwrap();
    /// assert_eq!(t.original_id(0), 2);   // the root
    /// assert_eq!(t.height(), 3);         // 2 - 0 - 3 - 1 is a path
    /// assert_eq!(t.level_range(1), 1..2);
    /// ```
    pub fn bfs_canonical(g: &Graph, root: Vertex) -> Result<Self, TreeError> {
        let n = g.num_vertices();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        if (root as usize) >= n {
            return Err(TreeError::RootOutOfRange { root });
        }
        if g.num_edges() != n - 1 {
            return Err(TreeError::WrongEdgeCount {
                n,
                m: g.num_edges(),
            });
        }
        // BFS from root over the original graph; neighbors are sorted in the
        // CSR, so children order = original id order. The new id of a
        // vertex is its position in BFS order, so the children of `head`
        // are exactly the ids appended while `head` is scanned.
        let mut original: Vec<Vertex> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut parent = Vec::with_capacity(n);
        let mut level = Vec::with_capacity(n);
        let mut child_off = Vec::with_capacity(n + 1);
        seen[root as usize] = true;
        original.push(root);
        parent.push(NO_PARENT);
        level.push(0);
        let mut head = 0usize;
        while head < original.len() {
            child_off.push(original.len() as u32 - 1);
            for &w in g.neighbors(original[head]) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    original.push(w);
                    parent.push(head as u32);
                    level.push(level[head] + 1);
                }
            }
            head += 1;
        }
        if original.len() != n {
            return Err(TreeError::Disconnected);
        }
        child_off.push(n as u32 - 1);
        // Level l + 1 is the children of level l.
        let mut level_start = vec![0u32, 1];
        let mut end = 1u32;
        while end < n as u32 {
            end = child_off[end as usize] + 1;
            level_start.push(end);
        }
        Ok(RootedTree {
            parent,
            level,
            child_off,
            level_start,
            original,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false — trees have at least one vertex.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Height of the tree (level of the deepest vertex; 0 for a single node).
    #[inline]
    pub fn height(&self) -> u32 {
        self.level[self.len() - 1]
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        let p = self.parent[v as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// Level (depth) of `v`.
    #[inline]
    pub fn level(&self, v: Vertex) -> u32 {
        self.level[v as usize]
    }

    /// Children of `v` in left-to-right order, a contiguous vertex range.
    #[inline]
    pub fn children(&self, v: Vertex) -> Range<Vertex> {
        self.descendant_range(v, 1)
    }

    /// The contiguous vertex range of level `l` (empty when `l > height`).
    #[inline]
    pub fn level_range(&self, l: u32) -> Range<Vertex> {
        if l as usize + 1 >= self.level_start.len() {
            return 0..0;
        }
        self.level_start[l as usize]..self.level_start[l as usize + 1]
    }

    /// The original (pre-renumbering) id of canonical vertex `v`.
    #[inline]
    pub fn original_id(&self, v: Vertex) -> Vertex {
        self.original[v as usize]
    }

    /// The ancestor of `v` at distance `i` (`anc_i(v)` in the paper), or
    /// `None` if `i > level(v)`. `O(i)`.
    pub fn ancestor(&self, v: Vertex, i: u32) -> Option<Vertex> {
        if i > self.level(v) {
            return None;
        }
        let mut a = v;
        for _ in 0..i {
            a = self.parent[a as usize];
        }
        Some(a)
    }

    /// Whether `a` is an ancestor of (or equal to) `v`, by walking up from
    /// `v`. `O(level(v) - level(a))`.
    pub fn is_ancestor(&self, a: Vertex, v: Vertex) -> bool {
        self.level(v)
            .checked_sub(self.level(a))
            .is_some_and(|i| self.ancestor(v, i) == Some(a))
    }

    /// Lowest common ancestor of `u` and `v`. `O(height)` by level-aligned
    /// parent walking (adequate for the paper's O(t)-bounded uses).
    pub fn lca(&self, mut u: Vertex, mut v: Vertex) -> Vertex {
        while self.level(u) > self.level(v) {
            u = self.parent[u as usize];
        }
        while self.level(v) > self.level(u) {
            v = self.parent[v as usize];
        }
        while u != v {
            u = self.parent[u as usize];
            v = self.parent[v as usize];
        }
        u
    }

    /// Tree distance between two vertices via the LCA.
    pub fn distance(&self, u: Vertex, v: Vertex) -> u32 {
        let a = self.lca(u, v);
        self.level(u) + self.level(v) - 2 * self.level(a)
    }

    /// The vertices of the subtree of `x` at level `level(x) + i`, i.e. the
    /// paper's `D_i(x)`, as a contiguous canonical-vertex range (empty when
    /// the subtree is shallower). `O(i)`: each step replaces a range by the
    /// range of its children.
    pub fn descendant_range(&self, x: Vertex, i: u32) -> Range<Vertex> {
        let (mut a, mut b) = (x, x + 1);
        for _ in 0..i {
            if a == b {
                break;
            }
            a = self.child_off[a as usize] + 1;
            b = self.child_off[b as usize] + 1;
        }
        a..b
    }

    /// Rebuilds the underlying undirected graph (in canonical numbering).
    pub fn to_graph(&self) -> Graph {
        let edges: Vec<(Vertex, Vertex)> = (1..self.len() as Vertex)
            .map(|v| (self.parent[v as usize], v))
            .collect();
        Graph::from_edges(self.len(), &edges).expect("tree edges are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_graph::generators;
    use ssg_graph::traversal::distance as graph_distance;

    fn canonical(g: &Graph, root: Vertex) -> RootedTree {
        RootedTree::bfs_canonical(g, root).unwrap()
    }

    #[test]
    fn rejects_non_trees() {
        let cyc = generators::cycle(4);
        assert!(matches!(
            RootedTree::bfs_canonical(&cyc, 0),
            Err(TreeError::WrongEdgeCount { .. })
        ));
        let disc = Graph::from_edges(4, &[(0, 1), (2, 3), (1, 2), (0, 3)]).unwrap();
        assert!(RootedTree::bfs_canonical(&disc, 0).is_err());
        let forest = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            RootedTree::bfs_canonical(&forest, 0),
            Err(TreeError::WrongEdgeCount { .. })
        ));
        assert!(matches!(
            RootedTree::bfs_canonical(&Graph::from_edges(0, &[]).unwrap(), 0),
            Err(TreeError::Empty)
        ));
        assert!(matches!(
            RootedTree::bfs_canonical(&generators::path(3), 5),
            Err(TreeError::RootOutOfRange { root: 5 })
        ));
    }

    #[test]
    fn canonical_numbering_invariants() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 17, 120] {
            let g = generators::random_tree(n, &mut rng);
            let t = canonical(&g, 0);
            assert_eq!(t.len(), n);
            assert_eq!(t.parent(0), None);
            for v in 1..n as Vertex {
                let p = t.parent(v).unwrap();
                assert!(p < v, "BFS order: parent before child");
                assert_eq!(t.level(v), t.level(p) + 1);
                assert!(t.level(v) >= t.level(v - 1), "levels nondecreasing");
            }
            // level ranges tile 0..n.
            let mut covered = 0u32;
            for l in 0..=t.height() {
                let r = t.level_range(l);
                assert_eq!(r.start, covered);
                covered = r.end;
                for v in r {
                    assert_eq!(t.level(v), l);
                }
            }
            assert_eq!(covered as usize, n);
        }
    }

    #[test]
    fn original_ids_roundtrip() {
        // star rooted at a leaf: original ids preserved in mapping.
        let g = generators::star(5);
        let t = canonical(&g, 3);
        assert_eq!(t.original_id(0), 3);
        assert_eq!(t.original_id(1), 0); // center is the only child
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn ancestors_and_lca() {
        // Path 0-1-2-3-4 rooted at 0 is already canonical.
        let g = generators::path(5);
        let t = canonical(&g, 0);
        assert_eq!(t.ancestor(4, 2), Some(2));
        assert_eq!(t.ancestor(4, 4), Some(0));
        assert_eq!(t.ancestor(4, 5), None);
        assert_eq!(t.lca(3, 4), 3);
        let g = generators::kary_tree(7, 2);
        let t = canonical(&g, 0);
        // children of 0: 1,2; of 1: 3,4; of 2: 5,6.
        assert_eq!(t.lca(3, 4), 1);
        assert_eq!(t.lca(3, 6), 0);
        assert_eq!(t.lca(5, 6), 2);
        assert_eq!(t.distance(3, 6), 4);
        assert_eq!(t.distance(3, 1), 1);
    }

    #[test]
    fn tree_distance_matches_graph_bfs() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::random_tree(40, &mut rng);
        let t = canonical(&g, 0);
        let cg = t.to_graph();
        for u in 0..40 as Vertex {
            for v in 0..40 as Vertex {
                assert_eq!(t.distance(u, v), graph_distance(&cg, u, v), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn descendant_ranges_match_definition() {
        let mut rng = StdRng::seed_from_u64(19);
        for n in [1usize, 5, 30, 100] {
            let g = generators::random_tree(n, &mut rng);
            let t = canonical(&g, 0);
            for x in 0..n as Vertex {
                for i in 0..=(t.height() + 1) {
                    let r = t.descendant_range(x, i);
                    let expect: Vec<Vertex> = (0..n as Vertex)
                        .filter(|&v| t.level(v) == t.level(x) + i && t.is_ancestor(x, v))
                        .collect();
                    let got: Vec<Vertex> = r.collect();
                    assert_eq!(got, expect, "n={n} x={x} i={i}");
                }
            }
        }
    }

    #[test]
    fn is_ancestor_walks_up_to_the_subtree_root() {
        let g = generators::kary_tree(15, 2);
        let t = canonical(&g, 0);
        assert!(t.is_ancestor(0, 14));
        assert!(t.is_ancestor(1, 3));
        assert!(!t.is_ancestor(2, 3));
        assert!(t.is_ancestor(5, 5));
        assert!(!t.is_ancestor(3, 1), "a deeper vertex is no ancestor");
    }
}
