//! End-to-end tests over the real `llhsc` binary: boot a daemon, run
//! `llhsc client check` against it and require the output to be
//! byte-identical to a local `llhsc check` — stdout, stderr and exit
//! code — on clean, failing and unparseable inputs.

mod common;

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};

use common::Scratch;
use llhsc::{quadcore, running_example, Pipeline};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_llhsc")
}

/// A daemon child, killed on drop so a failing assertion cannot leak
/// the process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start() -> Daemon {
        let mut child = Command::new(bin())
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("daemon banner");
        // "llhsc-service listening on 127.0.0.1:PORT (2 workers)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// `llhsc client <args…> --addr <daemon>`.
    fn client(&self, args: &[&str]) -> Output {
        let mut cmd = Command::new(bin());
        cmd.args(["client", "--addr", &self.addr]).args(args);
        cmd.output().expect("client runs")
    }

    /// Sends the shutdown op and waits for a clean daemon exit.
    fn shutdown(mut self) {
        let out = self.client(&["shutdown"]);
        assert_eq!(out.status.code(), Some(0), "client shutdown failed");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exit status {status}");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("daemon stdout");
        assert!(
            rest.contains("llhsc-service shut down cleanly"),
            "daemon stdout: {rest:?}"
        );
        // Disarm the Drop kill — the child is already reaped.
        self.child = Command::new("true").spawn().expect("placeholder");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes the test inputs into a fresh scratch directory.
fn fixtures() -> (Scratch, Vec<(PathBuf, i32)>) {
    let dir = Scratch::new();

    let running = Pipeline::new()
        .run(&running_example::pipeline_input())
        .expect("running example builds");
    let write = |name: &str, text: &str| dir.write(name, text);
    let cases = vec![
        (write("running-platform.dts", &running.platform_dts), 0),
        (write("quadcore.dts", &quadcore::core_dts_text()), 0),
        (
            write(
                "failing.dts",
                "/ {\n    #address-cells = <2>; #size-cells = <2>;\n\
                 \x20   memory@40000000 { device_type = \"memory\";\n\
                 \x20       reg = <0x0 0x40000000 0x0 0x20000000>; };\n\
                 \x20   uart@50000000 { reg = <0x0 0x50000000 0x0 0x1000>; };\n};\n",
            ),
            1,
        ),
        (write("broken.dts", "this is not a device tree\n"), 2),
        // Parses fine, but the cell counts are uninterpretable: a tool
        // failure (exit 2), not a finding (exit 1), on both paths.
        (
            write(
                "bad-cells.dts",
                "/ {\n    #address-cells = <0xffffffff>; #size-cells = <1>;\n\
                 \x20   dev@0 { reg = <0x0 0x1>; };\n};\n",
            ),
            2,
        ),
    ];
    (dir, cases)
}

#[test]
fn client_check_is_byte_identical_to_local_check() {
    let (_dir, cases) = fixtures();
    let daemon = Daemon::start();

    for (path, expected_code) in &cases {
        let path_str = path.to_str().expect("utf-8 path");
        let local = Command::new(bin())
            .args(["check", path_str])
            .output()
            .expect("local check runs");
        let remote = daemon.client(&["check", path_str]);

        assert_eq!(
            local.status.code(),
            Some(*expected_code),
            "local exit code for {path_str}"
        );
        assert_eq!(
            remote.status.code(),
            local.status.code(),
            "exit codes differ for {path_str}"
        );
        assert_eq!(
            remote.stdout,
            local.stdout,
            "stdout differs for {path_str}:\n local: {:?}\nremote: {:?}",
            String::from_utf8_lossy(&local.stdout),
            String::from_utf8_lossy(&remote.stdout)
        );
        assert_eq!(
            remote.stderr,
            local.stderr,
            "stderr differs for {path_str}:\n local: {:?}\nremote: {:?}",
            String::from_utf8_lossy(&local.stderr),
            String::from_utf8_lossy(&remote.stderr)
        );
    }

    daemon.shutdown();
}

/// `check --report-json` on the quad-core fixture is byte-stable
/// across runs and matches the committed golden file; the `--trace`
/// file written alongside is stable too once its times are removed,
/// and its solve spans sum to the report's solver totals.
#[test]
fn report_json_is_byte_stable_and_matches_golden() {
    let (dir, _) = fixtures();
    let quadcore = dir.write("quadcore.dts", &quadcore::core_dts_text());

    let run = |tag: &str| -> (String, String) {
        let trace = dir.join(format!("trace-{tag}.json"));
        let report = dir.join(format!("report-{tag}.json"));
        let out = Command::new(bin())
            .args(["check", "--trace"])
            .arg(&trace)
            .arg("--report-json")
            .arg(&report)
            .arg(&quadcore)
            .output()
            .expect("check runs");
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        (
            std::fs::read_to_string(&report).expect("report file"),
            std::fs::read_to_string(&trace).expect("trace file"),
        )
    };
    let (report_a, trace_a) = run("a");
    let (report_b, trace_b) = run("b");
    assert_eq!(report_a, report_b, "report must be byte-stable");
    assert_eq!(
        without_times(&trace_a),
        without_times(&trace_b),
        "the trace must be stable up to its times"
    );

    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quadcore_report.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden file");
    // A drifted report is kept outside the scratch directory, which the
    // test removes, so the golden file can be replaced with it.
    let fresh = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quadcore_report.json");
    if report_a != golden {
        std::fs::write(&fresh, &report_a).expect("fresh report write");
    }
    assert_eq!(
        report_a,
        golden,
        "report drifted from the golden file; if the change is intentional, \
         replace it with\n  cp {} {}",
        fresh.display(),
        golden_path.display()
    );

    // The embedded span tree accounts for every solver call: summing
    // the "solve" span counters reproduces the document's totals.
    let doc = llhsc_service::Json::parse(&report_a).expect("report parses");
    let spans = match doc.get("spans") {
        Some(llhsc_service::Json::Arr(spans)) => spans,
        other => panic!("spans must be an array, got {other:?}"),
    };
    let sum = |key: &str| -> i64 {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(llhsc_service::Json::as_str) == Some("solve"))
            .filter_map(|s| s.get("counters")?.get(key)?.as_int())
            .sum()
    };
    let total = |key: &str| {
        doc.get("solver")
            .and_then(|s| s.get(key))
            .and_then(llhsc_service::Json::as_int)
            .expect("solver totals")
    };
    for key in [
        "solves",
        "decisions",
        "propagations",
        "conflicts",
        "restarts",
    ] {
        assert_eq!(sum(key), total(key), "span sum mismatch for {key}");
    }
    assert!(total("solves") > 0, "the quad-core check must solve");
}

/// A Chrome trace's events without their `ts` and `dur`.
fn without_times(trace: &str) -> Vec<String> {
    let trace = llhsc_service::Json::parse(trace).expect("trace parses");
    let mut events = trace.as_arr().expect("Chrome trace is an array").to_vec();
    for event in &mut events {
        if let llhsc_service::Json::Obj(fields) = event {
            fields.remove("ts");
            fields.remove("dur");
        }
    }
    events.iter().map(ToString::to_string).collect()
}

/// `client check --report-json` writes the same bytes as a local
/// `check --report-json`, fresh and replayed from the daemon cache.
#[test]
fn client_report_json_matches_local() {
    let (dir, _) = fixtures();
    let quadcore = dir.join("quadcore.dts");
    let daemon = Daemon::start();

    let local_path = dir.join("local-report.json");
    let local = Command::new(bin())
        .args(["check", "--report-json"])
        .arg(&local_path)
        .arg(&quadcore)
        .output()
        .expect("local check runs");
    assert_eq!(local.status.code(), Some(0), "{local:?}");

    for pass in ["fresh", "cached"] {
        let remote_path = dir.join(format!("remote-report-{pass}.json"));
        let remote = daemon.client(&[
            "check",
            "--report-json",
            remote_path.to_str().expect("utf-8 path"),
            quadcore.to_str().expect("utf-8 path"),
        ]);
        assert_eq!(remote.status.code(), Some(0), "{remote:?}");
        assert_eq!(remote.stdout, local.stdout, "stdout differs on {pass} pass");
        assert_eq!(
            std::fs::read(&remote_path).expect("remote report"),
            std::fs::read(&local_path).expect("local report"),
            "report bytes differ on {pass} pass"
        );
    }

    daemon.shutdown();
}

/// The daemon's `metrics` op serves Prometheus text through
/// `llhsc client metrics`, and the request counter moves.
#[test]
fn client_metrics_round_trip() {
    let (dir, _) = fixtures();
    let quadcore = dir.join("quadcore.dts");
    let daemon = Daemon::start();

    let before = daemon.client(&["metrics"]);
    assert_eq!(before.status.code(), Some(0));
    let text = String::from_utf8_lossy(&before.stdout).into_owned();
    // Per-op request counters are created lazily, so before any check
    // only the scrape-synced families are guaranteed present.
    assert!(
        text.contains("# TYPE llhsc_cache_misses_total counter"),
        "{text}"
    );

    let check = daemon.client(&["check", quadcore.to_str().expect("utf-8 path")]);
    assert_eq!(check.status.code(), Some(0));

    let after = daemon.client(&["metrics"]);
    let text = String::from_utf8_lossy(&after.stdout).into_owned();
    assert!(
        text.contains("llhsc_requests_total{op=\"check\"} 1"),
        "check request not counted:\n{text}"
    );
    assert!(
        text.contains("llhsc_solver_solves_total"),
        "missing solver totals:\n{text}"
    );

    daemon.shutdown();
}

#[test]
fn client_ping_and_stats_round_trip() {
    let daemon = Daemon::start();

    let ping = daemon.client(&["ping"]);
    assert_eq!(ping.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&ping.stdout).starts_with("pong ("),
        "{ping:?}"
    );

    let stats = daemon.client(&["stats"]);
    assert_eq!(stats.status.code(), Some(0));
    let rendered = String::from_utf8_lossy(&stats.stdout).into_owned();
    for needle in [
        "workers",
        "requests",
        "cache",
        "allocation",
        "tree_check",
        "hit rate",
        "solver",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }

    // `--json` keeps the raw protocol frame available.
    let raw = daemon.client(&["stats", "--json"]);
    assert_eq!(raw.status.code(), Some(0));
    let doc = llhsc_service::Json::parse(String::from_utf8_lossy(&raw.stdout).trim())
        .expect("stats --json emits valid JSON");
    assert_eq!(
        doc.get("ok").and_then(llhsc_service::Json::as_bool),
        Some(true)
    );
    assert!(doc.get("solver").is_some(), "{doc}");
    assert!(doc.get("cache").is_some(), "{doc}");

    daemon.shutdown();
}

/// `check --progress` emits the same stderr across runs once each
/// heartbeat's `(N/s)` rate is cut out: the heartbeat cadence counts
/// conflicts, not time.
#[test]
fn check_progress_is_deterministic_up_to_its_rates() {
    let (_dir, cases) = fixtures();
    let (failing, expected_code) = &cases[2];
    assert_eq!(*expected_code, 1, "fixture order changed");

    let run = || -> Output {
        Command::new(bin())
            .args(["check", "--progress"])
            .arg(failing)
            .output()
            .expect("check --progress runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.status.code(), Some(1), "{a:?}");
    assert_eq!(b.status.code(), a.status.code());
    // Each line with its ` (N/s)` rate, if any, cut out.
    let without_rates = |stderr: &[u8]| -> Vec<String> {
        let cut = |line: &str| {
            let (head, rest) = line.split_once(" (")?;
            Some(format!("{head}{}", rest.split_once("/s)")?.1))
        };
        let stderr = String::from_utf8_lossy(stderr);
        stderr
            .lines()
            .map(|line| cut(line).unwrap_or_else(|| line.to_string()))
            .collect()
    };
    assert_eq!(
        without_rates(&a.stderr),
        without_rates(&b.stderr),
        "progress stderr differs:\n  a: {:?}\n  b: {:?}",
        String::from_utf8_lossy(&a.stderr),
        String::from_utf8_lossy(&b.stderr)
    );
    assert_eq!(a.stdout, b.stdout, "stdout must be stable too");

    // Attaching the sink is observation-only: the verdict and stdout
    // match a plain check of the same input.
    let plain = Command::new(bin())
        .args(["check"])
        .arg(failing)
        .output()
        .expect("plain check runs");
    assert_eq!(plain.status.code(), a.status.code());
    assert_eq!(plain.stdout, a.stdout, "--progress changed the verdict");
}

/// The daemon's flight recorder is reachable through `llhsc client
/// flightdump`: every served request lands in the ring, newest last.
#[test]
fn client_flightdump_round_trip() {
    let (dir, _) = fixtures();
    let quadcore = dir.join("quadcore.dts");
    let daemon = Daemon::start();

    let check = daemon.client(&["check", quadcore.to_str().expect("utf-8 path")]);
    assert_eq!(check.status.code(), Some(0));

    let dump = daemon.client(&["flightdump"]);
    assert_eq!(dump.status.code(), Some(0));
    let rendered = String::from_utf8_lossy(&dump.stdout).into_owned();
    assert!(rendered.contains("flight recorder at"), "{rendered}");
    assert!(rendered.contains(" check "), "{rendered}");

    let raw = daemon.client(&["flightdump", "--json"]);
    assert_eq!(raw.status.code(), Some(0));
    let doc = llhsc_service::Json::parse(String::from_utf8_lossy(&raw.stdout).trim())
        .expect("flightdump --json emits valid JSON");
    assert_eq!(
        doc.get("ok").and_then(llhsc_service::Json::as_bool),
        Some(true)
    );
    let records = match doc.get("records") {
        Some(llhsc_service::Json::Arr(r)) => r,
        other => panic!("records must be an array, got {other:?}"),
    };
    // The check plus the first flightdump are in the ring by now; on a
    // default-threshold daemon nothing is slow.
    assert!(records.len() >= 2, "{doc}");
    assert!(
        records.iter().any(|r| {
            r.get("op").and_then(llhsc_service::Json::as_str) == Some("check")
                && r.get("slow").and_then(llhsc_service::Json::as_bool) == Some(false)
        }),
        "{doc}"
    );

    daemon.shutdown();
}

#[test]
fn client_reports_transport_errors_with_exit_2() {
    // Nobody listens on this port (reserved, never assigned).
    let out = Command::new(bin())
        .args(["client", "--addr", "127.0.0.1:1", "ping"])
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("error: cannot connect"),
        "{out:?}"
    );
}

/// `count` and `sample` render byte-identically whether computed
/// locally or served by the daemon, on both fresh and cached passes,
/// in text and `--json` modes.
#[test]
fn client_count_and_sample_are_byte_identical_to_local() {
    let daemon = Daemon::start();

    let invocations: &[&[&str]] = &[
        &["count", "--fixture", "quadcore"],
        &["count", "--fixture", "quadcore", "--json"],
        &[
            "count",
            "--fixture",
            "quadcore",
            "--approx",
            "--epsilon",
            "0.8",
            "--delta",
            "0.2",
            "--seed",
            "11",
        ],
        &["sample", "--fixture", "quadcore", "-k", "5", "--seed", "7"],
        &[
            "sample",
            "--fixture",
            "quadcore",
            "-k",
            "5",
            "--seed",
            "7",
            "--json",
        ],
    ];

    for args in invocations {
        let local = Command::new(bin())
            .args(*args)
            .output()
            .expect("local analytics runs");
        assert_eq!(local.status.code(), Some(0), "local exit for {args:?}");

        // Fresh pass computes, second pass replays from the cache; both
        // must render the same bytes as the local run.
        for pass in ["fresh", "cached"] {
            let remote = daemon.client(args);
            assert_eq!(
                remote.status.code(),
                Some(0),
                "{pass} client exit for {args:?}"
            );
            assert_eq!(
                remote.stdout,
                local.stdout,
                "{pass} stdout differs for {args:?}:\n local: {:?}\nremote: {:?}",
                String::from_utf8_lossy(&local.stdout),
                String::from_utf8_lossy(&remote.stdout)
            );
            assert_eq!(remote.stderr, local.stderr, "{pass} stderr for {args:?}");
        }
    }

    // Pin the headline numbers: the quad-core space holds exactly 60
    // configurations, and the sample returns the 5 requested.
    let count = Command::new(bin())
        .args(["count", "--fixture", "quadcore"])
        .output()
        .expect("count runs");
    assert!(
        String::from_utf8_lossy(&count.stdout).contains("count: 60 (exact;"),
        "{count:?}"
    );
    let sample = Command::new(bin())
        .args(["sample", "--fixture", "quadcore", "-k", "5", "--seed", "7"])
        .output()
        .expect("sample runs");
    assert!(
        String::from_utf8_lossy(&sample.stdout).contains("sample: 5 configurations"),
        "{sample:?}"
    );

    // The warm repeats above were answered from the analytics cache.
    let stats = daemon.client(&["stats"]);
    let rendered = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(rendered.contains("analytics"), "{rendered}");

    daemon.shutdown();
}
