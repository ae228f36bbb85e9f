//! A `--smoke` pass of the real executable (2^10-row inputs, 0.2 s
//! windows): what it emits must be exactly what `BENCHMARK.json`
//! declares, for the run-set file and for the driver's result line.

use std::path::PathBuf;
use std::process::Command;

use s2d_benchmark::json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_s2d-benchmark");

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a declared metric list.
fn declared_metrics(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric a pass emitted, in emission order.
fn emitted_metrics(pass: &Json) -> Vec<(String, String)> {
    pass.get("metrics")
        .expect("metrics")
        .fields()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no numeric value");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
        })
        .collect()
}

#[test]
fn smoke_run_set_emits_exactly_the_declared_names() {
    let spec = declared();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-run-set");
    let status = Command::new(EXE)
        .args(["--seed", "5", "--seconds", "0.2", "--smoke", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark executable runs");
    assert!(status.success(), "smoke run-set failed: {status}");

    let run = Json::parse(&std::fs::read_to_string(out.join("run.json")).expect("run.json"))
        .expect("run.json parses");
    assert_eq!(run.get("smoke").and_then(Json::as_bool), Some(true), "smoke runs are stamped");
    assert_eq!(run.get("seed").and_then(Json::as_str), Some("5"));
    for key in ["nproc", "avx2", "l2", "l3", "triad_gbytes_per_s", "rustc", "git_commit", "seed"] {
        assert!(run.get("machine").and_then(|m| m.get(key)).is_some(), "descriptor lacks {key}");
    }

    let declared_workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let workloads = run.get("workloads").expect("workloads");
    let ran: Vec<&str> = workloads.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(ran, declared_workloads);

    for (name, entry) in workloads.fields() {
        for (pass, list) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let pass = entry.get(pass).unwrap_or_else(|| panic!("{name} lacks {pass}"));
            assert_eq!(emitted_metrics(pass), declared_metrics(&spec, list), "{name}/{list}");
            assert_eq!(pass.get("correct").and_then(Json::as_bool), Some(true), "{name}/{list}");
            assert_eq!(pass.get("failed").and_then(Json::as_f64), Some(0.0), "{name}/{list}");
            assert!(pass.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
        }
        assert!(out.join(format!("trace-{name}.json")).is_file(), "{name} wrote no trace");
    }
    // End-to-end metrics are never zero (a zero has no relative bound).
    for (name, entry) in workloads.fields() {
        for (metric, m) in
            entry.get("end_to_end").and_then(|p| p.get("metrics")).expect("metrics").fields()
        {
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v > 0.0, "{name}/{metric} = {v}");
        }
    }
}

#[test]
fn the_result_line_has_exactly_the_drivers_keys() {
    let spec = declared();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(EXE)
            .args([
                "--workload",
                "rmat-pagerank",
                "--seed",
                "9",
                "--seconds",
                "0.2",
                "--smoke",
                "--trace",
                trace,
            ])
            .output()
            .expect("the benchmark executable runs");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line");
        let result = Json::parse(last).expect("the last line is one JSON object");
        let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(emitted_metrics(&result), declared_metrics(&spec, list));
        for (name, m) in result.get("metrics").expect("metrics").fields() {
            let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
        }
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [&["--workload", "no-such-workload"][..], &["--trace", "2"], &["--bogus"], &[]] {
        let output = Command::new(EXE).args(args).output().expect("the benchmark executable runs");
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} must print no result");
    }
}
