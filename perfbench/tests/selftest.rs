//! Self-tests of the benchmark at toy sizes.

use perfbench::check::{instance, problem};
use perfbench::serve::{judge, Pool};
use perfbench::{run, Options, Report, Scale, Workload};
use ssg_engine::LabelOutcome;
use ssg_labeling::solver::default_registry;
use ssg_labeling::Workspace;
use ssg_net::protocol::render_ok;
use ssg_net::Workload as Family;
use ssg_telemetry::json::Json;
use ssg_telemetry::Metrics;
use std::time::Duration;

fn toy(workload: Workload, seed: u64, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::toy(),
        trace_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert_eq!(report.failed, 0, "{}: failed operations", workload.name());
    assert!(report.attempted >= 1);
    report
}

/// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a rendered result line.
fn emitted(report: &Report, trace: bool) -> Vec<(String, String)> {
    let line = report
        .to_json(trace)
        .expect("every metric measured")
        .render();
    let doc = Json::parse(&line).unwrap();
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    match doc.get("metrics") {
        Some(Json::Object(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect(),
        _ => panic!("metrics object missing"),
    }
}

#[test]
fn toy_runs_emit_every_declared_metric_with_its_unit() {
    for w in Workload::ALL {
        assert_eq!(
            emitted(&toy(w, 7, false), false),
            declared("end_to_end"),
            "{}",
            w.name()
        );
        assert_eq!(
            emitted(&toy(w, 7, true), true),
            declared("per_layer"),
            "{}",
            w.name()
        );
    }
}

#[test]
fn one_seed_gives_identical_deterministic_fields() {
    let deterministic = |name: &str| {
        name == "span_over_lb"
            || name == "net.reply_bytes"
            || name == "intervals.component_count"
            || [
                "peel_steps",
                "palette_probes",
                "palette_word_scans",
                "workspace_elems",
            ]
            .iter()
            .any(|c| name.starts_with(&format!("labeling.{c}.")))
    };
    for w in Workload::ALL {
        let pick = |r: Report| -> Vec<(String, f64)> {
            r.values
                .into_iter()
                .filter(|(k, _)| deterministic(k))
                .collect()
        };
        for trace in [false, true] {
            let (a, b) = (pick(toy(w, 11, trace)), pick(toy(w, 11, trace)));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn corrupted_replies_count_as_failed() {
    let pool = Pool::build(Family::Corridor, 200, &[1, 1], "interval_l1", 1, 5).unwrap();
    let inst = instance(&pool.specs[0]);
    let labeling = default_registry()
        .try_solve(
            "interval_l1",
            &problem(&inst, &pool.specs[0].sep),
            &mut Workspace::new(),
            &Metrics::disabled(),
        )
        .unwrap();
    let outcome = |colors: Vec<u32>| LabelOutcome {
        labeling: ssg_labeling::Labeling::new(colors),
        algorithm: String::new(),
        wall: Duration::ZERO,
    };
    let good = render_ok(&outcome(labeling.colors().to_vec()), None);
    assert!(judge(&good, &pool, 0, None));
    // Two conflicting stations given one channel.
    let ssg_engine::RequestInstance::Interval(rep) = &inst else {
        panic!("corridor is an interval instance")
    };
    let g = rep.to_graph();
    let v = (0..g.num_vertices() as u32)
        .find(|&v| g.degree(v) > 0)
        .unwrap();
    let mut clash = labeling.colors().to_vec();
    clash[v as usize] = clash[g.neighbors(v)[0] as usize];
    assert!(!judge(&render_ok(&outcome(clash), None), &pool, 0, None));
    // Another valid labeling of the same span, mirrored: accepted after the
    // conflict graph is rebuilt from the spec and checked.
    let span = labeling.span();
    let mirrored: Vec<u32> = labeling.colors().iter().map(|c| span - c).collect();
    assert_ne!(mirrored, labeling.colors());
    assert!(judge(&render_ok(&outcome(mirrored), None), &pool, 0, None));
    // Valid but wider than the reference: every channel shifted up by one.
    let shifted: Vec<u32> = labeling.colors().iter().map(|c| c + 1).collect();
    assert!(!judge(&render_ok(&outcome(shifted), None), &pool, 0, None));
    // Truncated, garbled, or an error line.
    assert!(!judge(&good[..good.len() / 2], &pool, 0, None));
    assert!(!judge(&good.replace(' ', "x"), &pool, 0, None));
    assert!(!judge("ERR overloaded queue full", &pool, 0, None));
    // A traced request must echo its trace id.
    assert!(!judge(&good, &pool, 0, Some(9)));
}
