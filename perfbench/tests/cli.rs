//! End-to-end checks of the benchmark command at a tiny event count.

use std::path::PathBuf;
use std::process::Command;

use ibp_perfbench::bench::{MetricDef, END_TO_END, PER_LAYER};
use ibp_perfbench::json::{parse, Value};
use ibp_perfbench::workloads::Workload;

/// Small enough to run every workload in seconds; below the trace cache's
/// engagement threshold, so the corpus steps are no-ops here.
const EVENTS: &str = "2000";

struct Run {
    success: bool,
    result: Value,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-{trace}-{}", extra.len()));
    let _ = std::fs::remove_dir_all(&work);
    let output = Command::new(env!("CARGO_BIN_EXE_ibp-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--events", EVENTS])
        .arg("--work")
        .arg(&work)
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Run {
        success: output.status.success(),
        result: parse(last).unwrap_or_else(|e| panic!("last line {last:?} is not JSON: {e}")),
    }
}

fn count(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no {key}"))
}

/// The result prints exactly `defs`, each with its unit.
fn assert_metrics(result: &Value, defs: &[MetricDef]) {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics in {result:?}");
    };
    let mut names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want);
    for d in defs {
        let m = &metrics[d.name];
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{}",
            d.name
        );
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("no {key}"))
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let defs = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), defs(&END_TO_END));
    assert_eq!(listed("per_layer"), defs(&PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_prints_every_metric_and_passes_the_reference_check() {
    for w in Workload::ALL {
        for (trace, defs) in [(0, &END_TO_END[..]), (1, &PER_LAYER[..])] {
            let r = run(w.name(), trace, &[]);
            assert!(
                r.success,
                "{} trace {trace} failed: {:?}",
                w.name(),
                r.result
            );
            assert_eq!(r.result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(count(&r.result, "failed"), 0.0);
            assert!(count(&r.result, "attempted") >= 17.0);
            assert_metrics(&r.result, defs);
        }
    }
}

#[test]
fn perturbed_reference_is_reported_as_a_failure() {
    let r = run("cold-stream", 0, &["--perturb-reference"]);
    assert!(!r.success, "a wrong reference must fail the run");
    assert_eq!(r.result.get("correct"), Some(&Value::Bool(false)));
    // One corrupted cell, checked in every timed child.
    assert!(count(&r.result, "failed") >= 1.0);
    let pct = r
        .result
        .get("metrics")
        .and_then(|m| m.get("correct_cells_pct"))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64);
    assert!(pct.is_some_and(|p| p < 100.0), "{pct:?}");
}
