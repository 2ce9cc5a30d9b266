//! The library path: A1–A5 through `default_registry().try_solve` on one
//! thread, with one warm `Workspace` per algorithm.

use crate::check::{conflict_graph, instance, problem, spec, Reference, ALGS};
use crate::stats::median;
use ssg_engine::RequestInstance;
use ssg_labeling::solver::default_registry;
use ssg_labeling::{SeparationVector, Workspace};
use ssg_net::{LabelSpec, Workload as Family};
use ssg_telemetry::{Counter, Metrics};
use std::time::{Duration, Instant};

/// The five problems of one size: a corridor shared by A1/A2, a platoon
/// for A3 and a backbone shared by A4/A5, each with its reference.
pub struct SolveSet {
    /// Corridor, platoon and backbone, each with the spec naming it.
    pub instances: Vec<(LabelSpec, RequestInstance)>,
    seps: Vec<SeparationVector>,
    /// One reference per entry of [`ALGS`].
    pub refs: Vec<Reference>,
}

/// Timings of one solve phase.
#[derive(Default)]
pub struct Rounds {
    /// Per algorithm, the wall time of each timed solve in ns.
    pub per_alg_ns: [Vec<f64>; 5],
    /// Wall time of each full round (A1..A5) in ns, checking included.
    pub round_ns: Vec<f64>,
    /// Rounds whose five labelings the references all accepted.
    pub ok_rounds: u64,
    /// Solves attempted and failed.
    pub attempted: u64,
    /// Solves whose labeling the reference rejected.
    pub failed: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

impl SolveSet {
    /// Builds the instances of size `n` from `seed` and their references.
    pub fn build(n: usize, seed: u64) -> Result<SolveSet, String> {
        let families = [Family::Corridor, Family::Platoon, Family::Backbone];
        let instances = families
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let s = spec(f, n, crate::derive(seed, 0x501e, i as u64), &[1]);
                let inst = instance(&s);
                (s, inst)
            })
            .collect();
        let seps: Vec<SeparationVector> = ALGS
            .iter()
            .map(|a| SeparationVector::new(a.sep.to_vec()).expect("valid separations"))
            .collect();
        let mut set = SolveSet {
            instances,
            seps,
            refs: Vec::new(),
        };
        for (k, alg) in ALGS.iter().enumerate() {
            let r = Reference::build(set.instance(k), &set.seps[k], alg.solver)?;
            set.refs.push(r);
        }
        Ok(set)
    }

    /// The instance algorithm `k` runs on.
    pub fn instance(&self, k: usize) -> &RequestInstance {
        let family = ALGS[k].family;
        &self
            .instances
            .iter()
            .find(|(s, _)| s.workload == family)
            .expect("every family is built")
            .1
    }

    /// The separation vector of algorithm `k`.
    pub fn sep(&self, k: usize) -> &SeparationVector {
        &self.seps[k]
    }

    /// Solves algorithm `k` once on `ws`, checks the answer, and returns
    /// the wall time and whether the reference accepted it.
    pub fn solve_once(&self, k: usize, ws: &mut Workspace, m: &Metrics) -> (Duration, bool) {
        let p = problem(self.instance(k), &self.seps[k]);
        let start = Instant::now();
        let out = default_registry().try_solve(ALGS[k].solver, &p, ws, m);
        let wall = start.elapsed();
        let ok = match out {
            Ok(labeling) => {
                let ok =
                    self.refs[k].accepts(&self.seps[k], labeling.span(), labeling.colors(), || {
                        conflict_graph(self.instance(k))
                    });
                ws.recycle(labeling);
                ok
            }
            Err(_) => false,
        };
        (wall, ok)
    }

    /// One set-up: solve every algorithm once on a fresh workspace.
    /// Returns the total wall time in seconds, the workspaces, now warm,
    /// and whether every answer was accepted.
    pub fn cold_setup(&self) -> (f64, Vec<Workspace>, bool) {
        let mut wss: Vec<Workspace> = (0..ALGS.len()).map(|_| Workspace::new()).collect();
        let mut total = 0.0;
        let mut all_ok = true;
        for (k, ws) in wss.iter_mut().enumerate() {
            let (wall, ok) = self.solve_once(k, ws, &Metrics::disabled());
            total += wall.as_secs_f64();
            all_ok &= ok;
        }
        (total, wss, all_ok)
    }

    /// Interleaves A1..A5 round by round on warm workspaces until
    /// `budget` has elapsed; the round in progress completes.
    pub fn rounds(&self, wss: &mut [Workspace], budget: Duration, m: &Metrics) -> Rounds {
        let mut out = Rounds::default();
        let start = Instant::now();
        while start.elapsed() < budget || out.round_ns.is_empty() {
            let round = Instant::now();
            let mut round_ok = true;
            for (k, ws) in wss.iter_mut().enumerate() {
                let _scope = m.recorder().map(|rec| m.trace_scope(rec.next_span_id()));
                let _span = m.span(ALGS[k].tag);
                let (wall, ok) = self.solve_once(k, ws, m);
                out.per_alg_ns[k].push(wall.as_nanos() as f64);
                out.attempted += 1;
                out.failed += u64::from(!ok);
                round_ok &= ok;
            }
            out.round_ns.push(round.elapsed().as_nanos() as f64);
            out.ok_rounds += u64::from(round_ok);
        }
        out.elapsed = start.elapsed();
        out
    }

    /// Exact work counts of one solve per algorithm:
    /// `(peel_steps, palette_probes, palette_word_scans)`.
    pub fn counts(&self) -> Vec<(u64, u64, u64)> {
        (0..ALGS.len())
            .map(|k| {
                let m = Metrics::enabled();
                let p = problem(self.instance(k), &self.seps[k]);
                let _ = default_registry().try_solve(ALGS[k].solver, &p, &mut Workspace::new(), &m);
                let s = m.snapshot();
                (
                    s.counter(Counter::PeelSteps),
                    s.counter(Counter::PaletteProbes),
                    s.counter(Counter::PaletteWordScans),
                )
            })
            .collect()
    }
}

impl Rounds {
    /// Adds another phase's rounds.
    pub fn merge(&mut self, other: Rounds) {
        for (mine, theirs) in self.per_alg_ns.iter_mut().zip(other.per_alg_ns) {
            mine.extend(theirs);
        }
        self.round_ns.extend(other.round_ns);
        self.ok_rounds += other.ok_rounds;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
    }

    /// Per round, in the order the rounds ran, the time A1..A5 spent
    /// solving in ms: one label of `solve_16k`.
    pub fn label_ms(&self) -> Vec<f64> {
        (0..self.round_ns.len())
            .map(|r| self.per_alg_ns.iter().map(|ns| ns[r]).sum::<f64>() / 1e6)
            .collect()
    }

    /// Median solve time of algorithm `k` divided by `n`, in ns.
    pub fn ns_per_vertex(&self, k: usize, n: usize) -> f64 {
        median(&self.per_alg_ns[k]) / n as f64
    }
}
