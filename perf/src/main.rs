//! `llhsc-perf` — the repository benchmark.
//!
//! ```text
//! llhsc-perf run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                [--trace-dir DIR] [--json FILE] [--quick] [--corrupt-oracle]
//! llhsc-perf diff BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! Run from the repository root. `run` builds the release `llhsc`
//! binary, measures the workload, prints every metric by name with its
//! unit and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. It exits 1 when any request failed or disagreed with the
//! oracle, and 2 on a usage or set-up error. `diff` exits 1 unless
//! every pair is `ok`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use llhsc_perf::gen::Workload;
use llhsc_perf::json::{number, quote};
use llhsc_perf::run::{self, Env, Options, Report};

const USAGE: &str = "usage:\n  \
    llhsc-perf run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n                 \
    [--trace-dir DIR] [--json FILE] [--quick] [--corrupt-oracle]\n  \
    llhsc-perf diff BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]\n\
    workloads: board_check, overlap_check, alloc_search, edit_loop";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("llhsc-perf: {e}");
        ExitCode::from(2)
    })
}

/// Removes `--name VALUE` from `args`.
fn take(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{name} needs a value")),
    }
}

/// Removes a bare `--name` switch from `args`.
fn switch(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

fn parse<T: std::str::FromStr>(v: Option<String>, name: &str, default: T) -> Result<T, String> {
    v.map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad value {v:?} for {name}"))
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let workload = take(&mut args, "--workload")?.unwrap_or_else(|| "all".into());
    let seed: u64 = parse(take(&mut args, "--seed")?, "--seed", 1)?;
    let seconds: f64 = parse(take(&mut args, "--seconds")?, "--seconds", 20.0)?;
    let trace: u8 = parse(take(&mut args, "--trace")?, "--trace", 0)?;
    let trace_dir = take(&mut args, "--trace-dir")?.map(PathBuf::from);
    let json = take(&mut args, "--json")?.map(PathBuf::from);
    let quick = switch(&mut args, "--quick");
    let corrupt_oracle = switch(&mut args, "--corrupt-oracle");
    if !args.is_empty() || trace > 1 || seconds.is_nan() || seconds <= 0.0 {
        return Err(USAGE.to_string());
    }
    let workloads: Vec<Workload> = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    let opts = Options {
        seed,
        seconds,
        quick,
        corrupt_oracle,
        trace_dir,
    };

    let (bin, target) = build_llhsc()?;
    let work = target
        .join("llhsc-perf")
        .join(format!("work-{}", std::process::id()));
    let env = Env { bin, work };
    let mut reports = Vec::new();
    for w in &workloads {
        let report = run::run(*w, &env, &opts, trace == 1);
        let report = report.map_err(|e| format!("{}: {e}", w.name()));
        let _ = std::fs::remove_dir_all(&env.work);
        let report = report?;
        print_report(*w, &report);
        if let Some(path) = &json {
            append_json(path, *w, &opts, trace, &report)?;
        }
        reports.push((*w, report));
    }

    let attempted: usize = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: usize = reports.iter().map(|(_, r)| r.failed).sum();
    let prefix = workloads.len() > 1;
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}/{}", w.name(), m.name)
                } else {
                    m.name.clone()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&name),
                    number(m.value),
                    quote(m.unit)
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Builds the release `llhsc` binary of the repository in the current
/// directory; returns it and the target directory.
fn build_llhsc() -> Result<(PathBuf, PathBuf), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/service/Cargo.toml").is_file() {
        return Err("run from the root of the llhsc repository".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "llhsc-service", "--bin", "llhsc"])
        .current_dir(&root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building llhsc failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|t| root.join(t))
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join("llhsc");
    if !bin.is_file() {
        return Err(format!("no binary at {}", bin.display()));
    }
    Ok((bin, target))
}

fn print_report(w: Workload, r: &Report) {
    println!(
        "{}: {} attempted, {} failed",
        w.name(),
        r.attempted,
        r.failed
    );
    for note in &r.notes {
        println!("  {note}");
    }
    for e in &r.errors {
        println!("  FAILED: {e}");
    }
    for m in &r.metrics {
        println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn append_json(
    path: &Path,
    w: Workload,
    opts: &Options,
    trace: u8,
    r: &Report,
) -> Result<(), String> {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {trace}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        quote(w.name()),
        opts.seed,
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let benchmark = take(&mut args, "--benchmark")?.unwrap_or_else(|| "BENCHMARK.json".into());
    let [base, new] = args.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (text, ok) = llhsc_perf::diff::diff(&read(&benchmark)?, &read(base)?, &read(new)?)?;
    print!("{text}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
