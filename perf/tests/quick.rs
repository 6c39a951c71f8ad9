//! Smoke test of the benchmark: every workload at a handful of requests
//! against the release `llhsc` binary, run from the repository root.

use std::process::{Command, Output};

use llhsc_perf::gen::Workload;
use llhsc_perf::json::Value;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_llhsc-perf"))
        .args(args)
        .current_dir(ROOT)
        .output()
        .expect("llhsc-perf starts")
}

/// The JSON object on the last stdout line.
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Value::parse(last).unwrap_or_else(|e| panic!("{e}: {stdout}"))
}

/// Metric names of one `BENCHMARK.json` list.
fn benchmark_names(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(format!("{ROOT}/BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn assert_reports_exactly(out: &Output, names: &[String]) {
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(out);
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(r.get("attempted").and_then(Value::as_f64).unwrap() >= 4.0);
    let metrics = r.get("metrics").and_then(Value::as_obj).expect("metrics");
    let mut want: Vec<String> = Workload::ALL
        .iter()
        .flat_map(|w| names.iter().map(move |n| format!("{}/{n}", w.name())))
        .collect();
    want.sort();
    let got: Vec<String> = metrics.keys().cloned().collect();
    assert_eq!(got, want);
}

#[test]
fn timed_run_reports_every_end_to_end_metric() {
    let out = perf(&["run", "--quick", "--seed", "3", "--seconds", "2"]);
    assert_reports_exactly(&out, &benchmark_names("end_to_end"));
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let out = perf(&["run", "--quick", "--seed", "3", "--trace", "1"]);
    assert_reports_exactly(&out, &benchmark_names("per_layer"));
}

#[test]
fn a_wrong_oracle_fails_the_run() {
    for w in ["board_check", "edit_loop"] {
        let out = perf(&["run", "--quick", "--workload", w, "--corrupt-oracle"]);
        assert_eq!(out.status.code(), Some(1), "{w}");
        let r = result(&out);
        assert_eq!(r.get("correct"), Some(&Value::Bool(false)), "{w}");
        assert_eq!(r.get("failed"), r.get("attempted"), "{w}");
    }
}
