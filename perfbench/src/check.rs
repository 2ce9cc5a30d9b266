//! Instances, reference answers and answer checking.
//!
//! Every instance is built the way the server builds it, through
//! [`LabelSpec::to_request`]. During set-up each distinct instance is
//! solved once, the labeling is verified against the definition, and
//! its span and digest become the reference; the conflict graph used
//! for the check is dropped right after it. Each reply or timed solve
//! is then compared to the reference by digest; a mismatch rebuilds the
//! conflict graph, is verified on its own, and counts as failed when it
//! is invalid or its span is above the reference span.

use ssg_engine::{LabelOutcome, RequestInstance};
use ssg_graph::{Graph, Vertex, UNREACHABLE};
use ssg_labeling::certificate::{interval_clique_witness, tree_clique_witness};
use ssg_labeling::solver::default_registry;
use ssg_labeling::{Problem, SeparationVector, Workspace};
use ssg_net::protocol::render_ok;
use ssg_net::{LabelSpec, Workload as Family};
use ssg_telemetry::Metrics;
use std::collections::VecDeque;
use std::time::Duration;

/// One of the paper's five algorithms, with the instance family and
/// separation vector the benchmark runs it on.
#[derive(Debug, Clone, Copy)]
pub struct Alg {
    /// Short tag used in metric names (`a1` .. `a5`).
    pub tag: &'static str,
    /// Registry name.
    pub solver: &'static str,
    /// Instance family.
    pub family: Family,
    /// Separation vector.
    pub sep: &'static [u32],
}

/// A1–A5, in metric order.
pub const ALGS: [Alg; 5] = [
    Alg {
        tag: "a1",
        solver: "interval_l1",
        family: Family::Corridor,
        sep: &[1, 1],
    },
    Alg {
        tag: "a2",
        solver: "interval_approx_delta1",
        family: Family::Corridor,
        sep: &[4, 1],
    },
    Alg {
        tag: "a3",
        solver: "unit_interval_l_delta1_delta2",
        family: Family::Platoon,
        sep: &[5, 2],
    },
    Alg {
        tag: "a4",
        solver: "tree_l1",
        family: Family::Backbone,
        sep: &[1, 1],
    },
    Alg {
        tag: "a5",
        solver: "tree_approx_delta1",
        family: Family::Backbone,
        sep: &[4, 1],
    },
];

/// A `LABEL` spec with no options.
pub fn spec(family: Family, n: usize, seed: u64, sep: &[u32]) -> LabelSpec {
    LabelSpec {
        workload: family,
        n,
        seed,
        sep: SeparationVector::new(sep.to_vec()).expect("benchmark separations are valid"),
        solver: None,
        deadline_ms: None,
        trace: None,
    }
}

/// The instance a spec names, built as the server builds it.
pub fn instance(spec: &LabelSpec) -> RequestInstance {
    spec.to_request(0).instance
}

/// A borrowed solver problem over an owned instance.
pub fn problem<'a>(inst: &'a RequestInstance, sep: &'a SeparationVector) -> Problem<'a> {
    match inst {
        RequestInstance::Graph(g) => Problem::graph(g, sep),
        RequestInstance::Interval(rep) => Problem::interval(rep, sep),
        RequestInstance::UnitInterval(rep) => Problem::unit_interval(rep, sep),
        RequestInstance::Tree(t) => Problem::tree(t, sep),
    }
}

/// The conflict graph in the numbering the solvers label in.
pub fn conflict_graph(inst: &RequestInstance) -> Graph {
    match inst {
        RequestInstance::Graph(g) => g.clone(),
        RequestInstance::Interval(rep) => rep.to_graph(),
        RequestInstance::UnitInterval(rep) => rep.to_graph(),
        RequestInstance::Tree(t) => t.to_graph(),
    }
}

/// Lemma 1's bound `max_i δi · λ*_{G,i}`, with each `λ*_{G,i}` taken from
/// the class's clique witness.
pub fn lemma1_bound(inst: &RequestInstance, sep: &SeparationVector) -> u64 {
    let lambda: Vec<u32> = (1..=sep.t())
        .map(|i| match inst {
            RequestInstance::Interval(rep) => interval_clique_witness(rep, i),
            RequestInstance::UnitInterval(rep) => interval_clique_witness(rep.as_interval(), i),
            RequestInstance::Tree(t) => tree_clique_witness(t, i),
            RequestInstance::Graph(_) => unreachable!("the benchmark builds no bare graphs"),
        })
        .map(|w| w.span_lower_bound())
        .collect();
    ssg_simplicial::lemma1_lower_bound(sep.deltas(), &lambda)
}

/// FNV-1a over the labels.
pub fn digest(colors: &[u32]) -> u64 {
    colors.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        c.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Checks every pair at distance `<= t` like `verify_labeling`, but walks
/// only each vertex's radius-`t` ball: `O(n · ball)` instead of `O(n²)`,
/// which at n = 24,000 is milliseconds instead of seconds.
pub fn verify_ball(g: &Graph, sep: &SeparationVector, colors: &[u32]) -> bool {
    let t = sep.t();
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    let mut ball: Vec<Vertex> = Vec::new();
    let mut queue = VecDeque::new();
    for u in 0..g.num_vertices() as Vertex {
        dist[u as usize] = 0;
        queue.push_back(u);
        while let Some(v) = queue.pop_front() {
            ball.push(v);
            let dv = dist[v as usize];
            if dv > 0 && colors[u as usize].abs_diff(colors[v as usize]) < sep.delta(dv) {
                return false;
            }
            if dv < t {
                for &w in g.neighbors(v) {
                    if dist[w as usize] == UNREACHABLE {
                        dist[w as usize] = dv + 1;
                        queue.push_back(w);
                    }
                }
            }
        }
        for v in ball.drain(..) {
            dist[v as usize] = UNREACHABLE;
        }
    }
    true
}

/// Whether `colors` is a valid labeling of `g` under `sep`.
pub fn is_valid(g: &Graph, sep: &SeparationVector, colors: &[u32]) -> bool {
    colors.len() == g.num_vertices() && verify_ball(g, sep, colors)
}

/// The checked answer for one (instance, separation) pair.
pub struct Reference {
    /// Span of the reference labeling.
    pub span: u32,
    /// Digest of the reference labeling.
    pub digest: u64,
    /// Lemma 1 lower bound on the span.
    pub lower_bound: u64,
    /// Bytes of the untraced `OK` reply carrying this labeling, newline
    /// included.
    pub reply_bytes: usize,
    n: usize,
}

impl Reference {
    /// Solves `inst` once with `solver`, verifies the labeling, and keeps
    /// what later answers are compared against.
    pub fn build(
        inst: &RequestInstance,
        sep: &SeparationVector,
        solver: &str,
    ) -> Result<Reference, String> {
        let labeling = default_registry()
            .try_solve(
                solver,
                &problem(inst, sep),
                &mut Workspace::new(),
                &Metrics::disabled(),
            )
            .map_err(|e| format!("reference solve with {solver}: {e}"))?;
        if !is_valid(&conflict_graph(inst), sep, labeling.colors()) {
            return Err(format!("reference labeling from {solver} is invalid"));
        }
        let span = labeling.span();
        let digest = digest(labeling.colors());
        let n = labeling.colors().len();
        let outcome = LabelOutcome {
            labeling,
            algorithm: solver.into(),
            wall: Duration::ZERO,
        };
        Ok(Reference {
            span,
            digest,
            lower_bound: lemma1_bound(inst, sep),
            reply_bytes: render_ok(&outcome, None).len() + 1,
            n,
        })
    }

    /// Whether an answer claiming `span` with these labels is correct: the
    /// reference itself, or a labeling no wider than it that is valid under
    /// `sep` on the conflict graph `graph` builds (called only then).
    pub fn accepts(
        &self,
        sep: &SeparationVector,
        span: u32,
        colors: &[u32],
        graph: impl FnOnce() -> Graph,
    ) -> bool {
        if colors.len() != self.n || colors.iter().max() != Some(&span) {
            return false;
        }
        digest(colors) == self.digest || (span <= self.span && is_valid(&graph(), sep, colors))
    }
}

/// `sum of spans / sum of lower bounds` over distinct references.
pub fn span_over_lb<'a>(refs: impl IntoIterator<Item = &'a Reference>) -> f64 {
    let (spans, bounds) = refs.into_iter().fold((0u64, 0u64), |(s, b), r| {
        (s + u64::from(r.span), b + r.lower_bound)
    });
    spans as f64 / bounds.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssg_labeling::verify_labeling;

    #[test]
    fn ball_check_agrees_with_all_pairs_check() {
        for alg in ALGS {
            for seed in 0..4 {
                let s = spec(alg.family, 300, seed, alg.sep);
                let inst = instance(&s);
                let mut colors = default_registry()
                    .try_solve(
                        alg.solver,
                        &problem(&inst, &s.sep),
                        &mut Workspace::new(),
                        &Metrics::disabled(),
                    )
                    .unwrap()
                    .into_colors();
                let g = conflict_graph(&inst);
                assert!(verify_ball(&g, &s.sep, &colors));
                assert!(verify_labeling(&g, &s.sep, &colors).is_ok());
                // Copy a neighbour's label: both checks must reject it.
                let v = (0..g.num_vertices() as Vertex)
                    .find(|&v| !g.neighbors(v).is_empty())
                    .unwrap();
                colors[v as usize] = colors[g.neighbors(v)[0] as usize];
                assert!(!verify_ball(&g, &s.sep, &colors));
                assert!(verify_labeling(&g, &s.sep, &colors).is_err());
            }
        }
    }
}
