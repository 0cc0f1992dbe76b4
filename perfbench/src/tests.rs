//! Self-tests of the benchmark's own code.

use std::collections::BTreeSet;

use mgpu::System;

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::pass::{self, BenchWorkload, WORKLOADS};
use crate::probe::{Probe, Spans};
use crate::{check, manifest, mean_speedup, parse_args, Args, Command, Outcome};

/// A two-cell baseline/Trans-FW pair small enough for a debug build.
static TINY: BenchWorkload = BenchWorkload {
    name: "tiny",
    source: r#"
        scenario "tiny_baseline" { scale = 0.02 workload = app(name = "MT") }
        scenario "tiny_transfw" {
          scale = 0.02
          transfw { enabled = true }
          workload = app(name = "MT")
        }
    "#,
};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_valid_unique_and_within_limits() {
    assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} on {}",
            m.unit,
            m.name
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

#[test]
fn every_layer_metric_names_its_target_and_workloads() {
    let targets: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for m in PER_LAYER {
        assert!(
            m.moves == "none" || targets.contains(m.moves),
            "{} moves unknown metric {}",
            m.name,
            m.moves
        );
        for list in [m.exercised_by, m.bypassed_by] {
            assert!(!list.is_empty(), "{}: empty workload list", m.name);
            for w in list.split_whitespace() {
                assert!(
                    w == "-" || workloads.contains(w),
                    "{}: unknown workload {w}",
                    m.name
                );
            }
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let b = benchmark_json();
    let keys: Vec<&String> = b.as_obj().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names: Vec<&str> = b["workloads"]
        .as_arr()
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = b[key].as_arr().expect(key);
        assert_eq!(listed.len(), list.len(), "{key} length");
        for (entry, m) in listed.iter().zip(list) {
            let field = |f: &str| entry.get(f).and_then(Value::as_str);
            assert_eq!(field("name"), Some(m.name));
            assert_eq!(field("unit"), Some(m.unit), "{}", m.name);
            assert_eq!(field("better"), Some(m.better.as_str()), "{}", m.name);
            let bound = entry.get("bound").and_then(Value::as_f64);
            if key == "end_to_end" {
                assert!(
                    bound.is_some_and(|x| x > 0.0 && x <= 0.25),
                    "{} bound",
                    m.name
                );
            } else {
                assert!(bound.is_none(), "{} has a bound", m.name);
            }
        }
    }
}

#[test]
fn the_wrapper_leaves_run_metrics_identical() {
    for spec in pass::cell_specs(&TINY.scenarios(), 3) {
        let direct = spec.run().expect("direct run");
        let workload = spec.workload.build();
        let plain = System::new(spec.cfg.clone())
            .run(&Probe::plain(workload.as_ref()))
            .expect("plain probe run");
        let spans = std::sync::Arc::new(Spans::default());
        let traced = System::new(spec.cfg.clone())
            .run(&Probe::traced(workload.as_ref(), spans.clone()))
            .expect("traced probe run");
        assert_eq!(direct, plain, "{}", spec.label);
        assert_eq!(direct, traced, "{}", spec.label);
        assert!(Spans::get(&spans.next_access_calls) >= direct.mem_instructions);
        assert!(Spans::get(&spans.initial_owner_calls) > 0);
    }
}

#[test]
fn output_is_well_formed() {
    let plain = pass::run_pass(&TINY, 3, false, true);
    let traced = pass::run_pass(&TINY, 3, true, false);
    let c = check(&[&plain, &traced]);
    assert_eq!((c.attempted, c.failed()), (4, 0), "{:?}", c.errors);
    assert!(mean_speedup(&plain).is_some());
    let args = Args {
        workload: &TINY,
        seed: 3,
        seconds: 1,
        trace: false,
    };
    for list in [END_TO_END, PER_LAYER] {
        let out = Outcome {
            correct: true,
            attempted: c.attempted,
            failed: c.failed(),
            metrics: list.iter().map(|m| (m, 1.25)).collect(),
            manifest: manifest(&args, &plain, &c, 1, 1),
        };
        let result = json::parse(&out.result_json()).expect("result line parses");
        let keys: Vec<&String> = result.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = result["metrics"].as_obj().expect("metrics");
        assert_eq!(metrics.len(), list.len());
        for m in list {
            assert_eq!(metrics[m.name]["unit"].as_str(), Some(m.unit));
            assert_eq!(metrics[m.name]["value"].as_f64(), Some(1.25));
        }
        let manifest = json::parse(&out.manifest).expect("manifest parses");
        assert_eq!(manifest["manifest"]["cells"].as_f64(), Some(2.0));
        assert_eq!(manifest["manifest"]["seed"].as_f64(), Some(3.0));
    }
}

#[test]
fn recorded_digests_parse() {
    let d = json::parse(crate::RECORDED_DIGESTS).expect("digests.json is JSON");
    assert_eq!(d["seed"].as_f64(), Some(crate::DEFAULT_SEED as f64));
    for w in &WORKLOADS {
        assert!(!d["workloads"][w.name]["cells"]
            .as_obj()
            .expect("cells")
            .is_empty());
    }
}

#[test]
fn committed_scenarios_compile() {
    for w in &WORKLOADS {
        assert!(
            !pass::cell_specs(&w.scenarios(), 1).is_empty(),
            "{}",
            w.name
        );
    }
}

#[test]
fn argument_parsing() {
    let parse = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let Ok(Command::Run(a)) = parse("--workload soak --seed 9 --seconds 4 --trace 1") else {
        panic!("valid arguments rejected");
    };
    assert_eq!(
        (a.workload.name, a.seed, a.seconds, a.trace),
        ("soak", 9, 4, true)
    );
    let Ok(Command::Run(a)) = parse("--workload fig11") else {
        panic!("defaults rejected");
    };
    assert_eq!((a.seed, a.trace), (crate::DEFAULT_SEED, false));
    for bad in [
        "",
        "--workload nope",
        "--workload soak --trace 2",
        "--workload soak --seconds 0",
        "--workload soak --seed",
        "--bogus",
    ] {
        assert!(parse(bad).is_err(), "accepted `{bad}`");
    }
}
