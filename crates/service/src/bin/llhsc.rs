//! The `llhsc` command-line tool.
//!
//! ```text
//! llhsc check <file.dts>     syntactic + semantic check of a DTS file
//! llhsc dtb <file.dts> <out.dtb>   compile to a flattened blob
//! llhsc dts <file.dtb>       decompile a blob to source (stdout)
//! llhsc model <file.fm>      analyse a feature-model file
//! llhsc build <project-dir>  run the full pipeline on a project
//! llhsc products             analyse the running example feature model
//! llhsc demo                 run the paper's running example end to end
//! llhsc serve                run the long-lived check daemon
//! llhsc client …             talk to a running daemon
//! ```
//!
//! A *project directory* for `build` contains:
//!
//! * `core.dts` (+ any `.dtsi` files it includes),
//! * `deltas.delta` — the delta modules (Listing 4 syntax),
//! * `model.fm` — the feature model (see [`llhsc_fm::parse_model`]),
//! * `vms.cfg` — one line per VM: `name: feature, feature, …`,
//! * optionally `schemas/*.yaml` — extra binding schemas.
//!
//! Outputs are written to `<project-dir>/out/`.
//!
//! # Exit codes
//!
//! * `0` — the input is clean,
//! * `1` — the checkers produced findings (the configuration is
//!   invalid: `check` found violations, `build` was rejected, `model`
//!   is void),
//! * `2` — the tool itself failed: bad usage, unreadable files, parse
//!   errors, connection failures.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use llhsc::{
    check_drat, parse_dimacs, parse_drat, write_dimacs, write_drat, CheckMode, CheckOptions,
    Pipeline,
};
use llhsc_dts::{parse_with_includes, FileProvider};
use llhsc_fm::Analyzer;
use llhsc_obs::{TraceCtx, Tracer};
use llhsc_schema::SchemaSet;
use llhsc_service::json::Json;
use llhsc_service::{
    check_report_json, check_tree_with, client, server, ServerConfig, StderrProgress,
};

/// Where `llhsc serve` listens and `llhsc client` connects unless
/// `--addr` says otherwise.
const DEFAULT_ADDR: &str = "127.0.0.1:7453";

const EXIT_FINDINGS: u8 = 1;
const EXIT_FAILURE: u8 = 2;

/// Resolves `/include/` against the directory of the main file.
struct DirProvider {
    dir: PathBuf,
}

impl FileProvider for DirProvider {
    fn read(&self, name: &str) -> Option<String> {
        std::fs::read_to_string(self.dir.join(name)).ok()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "llhsc — DeviceTree syntax and semantic checker\n\
         \n\
         usage:\n\
           llhsc check <file.dts>        check a DTS file\n\
           llhsc drat <f.cnf> <f.drat>   verify a DRAT refutation of a DIMACS\n\
                                         formula with the in-tree checker\n\
           llhsc dtb <file.dts> <out>    compile DTS to a DTB blob\n\
           llhsc dts <file.dtb>          decompile a DTB blob\n\
           llhsc model <file.fm>         analyse a feature-model file\n\
           llhsc count [options] <file.fm>\n\
                                         count the valid configurations\n\
           llhsc sample [options] <file.fm>\n\
                                         draw diverse valid configurations\n\
           llhsc build <project-dir>     run the full pipeline on a project\n\
           llhsc build --family <project-dir>\n\
                                         verify the whole product line with one\n\
                                         lifted solver query per rule family\n\
                                         (--family-enumerate: same verdict via\n\
                                         product enumeration; --certify: DRAT-\n\
                                         prove every clean family verdict)\n\
           llhsc products                analyse the CustomSBC feature model\n\
           llhsc demo                    run the paper's running example\n\
           llhsc serve [--addr A] [--workers N] [--max-request-bytes N]\n\
                       [--slow-threshold-us N] [--slow-trace-dir D]\n\
                       [--flight-capacity N]\n\
                                         run the check daemon (default {DEFAULT_ADDR})\n\
           llhsc client [--addr A] check [--report-json F] <file.dts>\n\
           llhsc client [--addr A] count|sample [options] <file.fm>\n\
           llhsc client [--addr A] stats [--json]\n\
           llhsc client [--addr A] flightdump [--json]\n\
           llhsc client [--addr A] ping|metrics|shutdown\n\
                                         talk to a running daemon\n\
         \n\
         count/sample options:\n\
           --fixture quadcore    use the built-in quad-core fixture model\n\
                                 instead of a file\n\
           --json                print the machine-readable document\n\
           --budget N            exact-enumeration budget (count)\n\
           --approx              estimate directly, skip exact counting (count)\n\
           --epsilon E           approximation tolerance (count)\n\
           --delta D             approximation failure probability (count)\n\
           -k N                  number of configurations to draw (sample)\n\
           --seed S              RNG seed (count, sample)\n\
         \n\
         options:\n\
           --stats            print per-stage wall times and solver statistics\n\
                              (check, build, demo)\n\
           --trace <file>     write a Chrome-trace JSON of the run's span tree\n\
                              (check, build, demo; LLHSC_TRACE_ZERO_TIME=1\n\
                              zeroes timestamps for reproducible output)\n\
           --report-json <file>  write the machine-readable check report\n\
                              (check, client check)\n\
           --progress         print a live in-solve heartbeat line to stderr\n\
                              every solver heartbeat (check)\n\
           --certify          replay every UNSAT verdict's DRAT proof through\n\
                              the in-tree checker before reporting (check,\n\
                              build)\n\
           --proof <prefix>   --certify, plus write each stage's formula and\n\
                              proof to <prefix>.<stage>.cnf/.drat (check)\n\
           --all              verify every lemma, not just the refutation's\n\
                              dependency cone (drat)\n\
         \n\
         exit codes:\n\
           0  the input is clean\n\
           1  the checkers produced findings (invalid configuration)\n\
           2  usage, I/O, connection or parse failure"
    );
    ExitCode::from(EXIT_FAILURE)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let before = args.len();
    args.retain(|a| a != "--stats");
    let stats = args.len() != before;
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(args[1..].to_vec(), stats),
        Some("drat") => cmd_drat(args[1..].to_vec()),
        Some("dtb") if args.len() == 3 => cmd_dtb(Path::new(&args[1]), Path::new(&args[2])),
        Some("dts") if args.len() == 2 => cmd_dts(Path::new(&args[1])),
        Some("model") if args.len() == 2 => cmd_model(Path::new(&args[1])),
        Some("count") => cmd_count(args[1..].to_vec()),
        Some("sample") => cmd_sample(args[1..].to_vec()),
        Some("build") => cmd_build(args[1..].to_vec(), stats),
        Some("products") if args.len() == 1 => cmd_products(),
        Some("demo") => cmd_demo(args[1..].to_vec(), stats),
        Some("serve") => cmd_serve(args[1..].to_vec()),
        Some("client") => cmd_client(args[1..].to_vec()),
        _ => usage(),
    }
}

/// Removes `--name <value>` from `args`; `Err` when the value is
/// missing.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, ()> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(()),
    }
}

/// Removes a bare `--name` switch from `args`, reporting its presence.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// A live tracer plus the path its Chrome-trace JSON goes to
/// (`--trace`). Honors `LLHSC_TRACE_ZERO_TIME` so CI can produce
/// reproducible traces.
struct TraceSink {
    tracer: Arc<Tracer>,
    path: PathBuf,
}

impl TraceSink {
    fn new(path: Option<String>) -> Option<TraceSink> {
        path.map(|p| TraceSink {
            tracer: Arc::new(Tracer::from_env()),
            path: PathBuf::from(p),
        })
    }

    fn ctx(&self) -> TraceCtx {
        TraceCtx::new(Arc::clone(&self.tracer))
    }

    /// Writes the trace file; `Err` already rendered to stderr.
    fn write(self) -> Result<(), ()> {
        write_output(&self.path, self.tracer.chrome_trace().as_bytes())
    }
}

/// Writes a CLI output artifact, rendering failures as tool errors.
fn write_output(path: &Path, bytes: &[u8]) -> Result<(), ()> {
    std::fs::write(path, bytes).map_err(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
    })
}

// ---- the daemon ----------------------------------------------------

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    /// Routes SIGINT (ctrl-c) and SIGTERM into a flag the serve loop
    /// polls, so the daemon drains instead of dying mid-request. Raw
    /// libc `signal` via FFI — the workspace builds without registry
    /// access, so no `signal-hook`/`ctrlc` crate.
    pub fn install() {
        unsafe {
            signal(2, handle); // SIGINT
            signal(15, handle); // SIGTERM
        }
    }

    pub fn signalled() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn signalled() -> bool {
        false
    }
}

fn cmd_serve(mut args: Vec<String>) -> ExitCode {
    let mut config = ServerConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..ServerConfig::default()
    };
    let parsed = (|| -> Result<(), ()> {
        if let Some(addr) = take_flag(&mut args, "--addr")? {
            config.addr = addr;
        }
        if let Some(workers) = take_flag(&mut args, "--workers")? {
            config.workers = workers.parse().map_err(|_| ())?;
        }
        if let Some(max) = take_flag(&mut args, "--max-request-bytes")? {
            config.max_request_bytes = max.parse().map_err(|_| ())?;
        }
        if let Some(us) = take_flag(&mut args, "--slow-threshold-us")? {
            config.slow_request_us = us.parse().map_err(|_| ())?;
        }
        if let Some(dir) = take_flag(&mut args, "--slow-trace-dir")? {
            config.slow_trace_dir = PathBuf::from(dir);
        }
        if let Some(cap) = take_flag(&mut args, "--flight-capacity")? {
            config.flight_capacity = cap.parse().map_err(|_| ())?;
            if config.flight_capacity == 0 {
                return Err(());
            }
        }
        if args.is_empty() {
            Ok(())
        } else {
            Err(())
        }
    })();
    if parsed.is_err() {
        return usage();
    }
    let handle = match server::start(&config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    sig::install();
    // The port line is load-bearing: with `--addr 127.0.0.1:0` it is
    // how scripts (and the CI smoke test) learn the picked port.
    println!(
        "llhsc-service listening on {} ({} workers)",
        handle.local_addr(),
        config.workers.max(1)
    );
    while !handle.shutdown_requested() && !sig::signalled() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    handle.shutdown();
    handle.join();
    println!("llhsc-service shut down cleanly");
    ExitCode::SUCCESS
}

// ---- the client ----------------------------------------------------

fn cmd_client(mut args: Vec<String>) -> ExitCode {
    let addr = match take_flag(&mut args, "--addr") {
        Ok(addr) => addr.unwrap_or_else(|| DEFAULT_ADDR.to_string()),
        Err(()) => return usage(),
    };
    match args.first().map(String::as_str) {
        Some("check") => client_check(&addr, args[1..].to_vec()),
        Some("count") => client_count(&addr, args[1..].to_vec()),
        Some("sample") => client_sample(&addr, args[1..].to_vec()),
        Some("ping") if args.len() == 1 => client_simple(&addr, "ping", "pong"),
        Some("shutdown") if args.len() == 1 => {
            client_simple(&addr, "shutdown", "server is shutting down")
        }
        Some("stats") => client_stats(&addr, args[1..].to_vec()),
        Some("flightdump") => client_flightdump(&addr, args[1..].to_vec()),
        Some("metrics") if args.len() == 1 => client_metrics(&addr),
        _ => usage(),
    }
}

/// `llhsc client check`: parse locally (so includes resolve against the
/// file's directory and parse errors render exactly like `llhsc
/// check`), ship the canonical tree text, print the daemon's rendered
/// streams. Byte-identical to the local command by construction.
fn client_check(addr: &str, mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<Option<String>, ()> {
        let report = take_flag(&mut args, "--report-json")?;
        if args.len() == 1 {
            Ok(report)
        } else {
            Err(())
        }
    })();
    let Ok(report_path) = parsed else {
        return usage();
    };
    let tree = match load_tree(Path::new(&args[0])) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error[parse]: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let dts: Json = llhsc_dts::print(&tree).into();
    let request = if report_path.is_some() {
        Json::obj([
            ("op", "check".into()),
            ("dts", dts),
            ("report", Json::Bool(true)),
        ])
    } else {
        Json::obj([("op", "check".into()), ("dts", dts)])
    };
    match client::request_ok(addr, &request) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_FAILURE)
        }
        Ok(response) => {
            eprint!(
                "{}",
                response.get("stderr").and_then(Json::as_str).unwrap_or("")
            );
            print!(
                "{}",
                response.get("stdout").and_then(Json::as_str).unwrap_or("")
            );
            if let Some(report_path) = report_path {
                let Some(doc) = response.get("report") else {
                    eprintln!("error: daemon response carries no report document");
                    return ExitCode::from(EXIT_FAILURE);
                };
                let mut bytes = doc.to_string();
                bytes.push('\n');
                if write_output(Path::new(&report_path), bytes.as_bytes()).is_err() {
                    return ExitCode::from(EXIT_FAILURE);
                }
            }
            if response.get("input_error").and_then(Json::as_bool) == Some(true) {
                ExitCode::from(EXIT_FAILURE)
            } else if response.get("clean").and_then(Json::as_bool) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_FINDINGS)
            }
        }
    }
}

fn client_simple(addr: &str, op: &str, done: &str) -> ExitCode {
    match client::request_ok(addr, &Json::obj([("op", op.into())])) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_FAILURE)
        }
        Ok(_) => {
            println!("{done} ({addr})");
            ExitCode::SUCCESS
        }
    }
}

fn client_stats(addr: &str, mut args: Vec<String>) -> ExitCode {
    let json = take_switch(&mut args, "--json");
    if !args.is_empty() {
        return usage();
    }
    let response = match client::request_ok(addr, &Json::obj([("op", "stats".into())])) {
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
        Ok(r) => r,
    };
    if json {
        println!("{response}");
        return ExitCode::SUCCESS;
    }
    let counter = |key: &str| response.get(key).and_then(Json::as_int).unwrap_or(0);
    println!("llhsc-service at {addr}:");
    println!("  workers              {:>10}", counter("workers"));
    println!("  requests             {:>10}", counter("requests"));
    println!("  errors               {:>10}", counter("errors"));
    println!("  connections          {:>10}", counter("connections"));
    println!("  in flight            {:>10}", counter("in_flight"));
    println!(
        "  queue wait total     {:>10} µs",
        counter("queue_wait_us_total")
    );
    println!(
        "  queue wait max       {:>10} µs",
        counter("queue_wait_us_max")
    );
    println!("  cache                      hits      misses    hit rate");
    if let Some(cache) = response.get("cache").and_then(Json::as_obj) {
        for (class, counters) in cache {
            let get = |key: &str| counters.get(key).and_then(Json::as_int).unwrap_or(0);
            let (hits, misses) = (get("hits"), get("misses"));
            let rate = if hits + misses == 0 {
                "      —".to_string()
            } else {
                format!("{:>6.1}%", 100.0 * hits as f64 / (hits + misses) as f64)
            };
            println!("    {class:<18} {hits:>10}  {misses:>10}  {rate:>10}");
        }
    }
    if let Some(solver) = response.get("solver").and_then(Json::as_obj) {
        let get = |key: &str| solver.get(key).and_then(Json::as_int).unwrap_or(0);
        println!("  solver (fresh work across all requests)");
        println!("    solves             {:>10}", get("solves"));
        println!("    decisions          {:>10}", get("decisions"));
        println!("    propagations       {:>10}", get("propagations"));
        println!("    conflicts          {:>10}", get("conflicts"));
        println!("    restarts           {:>10}", get("restarts"));
    }
    if let Some(active) = response.get("active").and_then(Json::as_arr) {
        if active.is_empty() {
            println!("  in flight now: none");
        } else {
            println!("  in flight now        trace id          phase      conflicts");
            for entry in active {
                let s = |key: &str| entry.get(key).and_then(Json::as_str).unwrap_or("?");
                let n = |key: &str| entry.get(key).and_then(Json::as_int).unwrap_or(0);
                println!(
                    "    {:<18} {:<17} {:<10} {:>9}",
                    s("op"),
                    s("trace_id"),
                    s("phase"),
                    n("conflicts")
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// `llhsc client flightdump`: render the daemon's flight-recorder ring —
/// the most recent requests, oldest first.
fn client_flightdump(addr: &str, mut args: Vec<String>) -> ExitCode {
    let json = take_switch(&mut args, "--json");
    if !args.is_empty() {
        return usage();
    }
    let response = match client::request_ok(addr, &Json::obj([("op", "flightdump".into())])) {
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
        Ok(r) => r,
    };
    if json {
        println!("{response}");
        return ExitCode::SUCCESS;
    }
    let total = response.get("total").and_then(Json::as_int).unwrap_or(0);
    let capacity = response.get("capacity").and_then(Json::as_int).unwrap_or(0);
    println!("flight recorder at {addr}: {total} request(s) seen, ring capacity {capacity}");
    let records = response
        .get("records")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if records.is_empty() {
        println!("  (no requests recorded yet)");
        return ExitCode::SUCCESS;
    }
    println!("     seq  trace id           op               µs  flags");
    for r in records {
        let s = |key: &str| r.get(key).and_then(Json::as_str).unwrap_or("?");
        let n = |key: &str| r.get(key).and_then(Json::as_int).unwrap_or(0);
        let b = |key: &str| r.get(key).and_then(Json::as_bool) == Some(true);
        let mut flags = Vec::new();
        if b("slow") {
            flags.push("slow");
        }
        if b("error") {
            flags.push("error");
        }
        println!(
            "  {:>6}  {:<17} {:<10} {:>10}  {}",
            n("seq"),
            s("trace_id"),
            s("op"),
            n("dur_us"),
            flags.join(",")
        );
    }
    ExitCode::SUCCESS
}

/// `llhsc client metrics`: dump the daemon's Prometheus text exposition.
fn client_metrics(addr: &str) -> ExitCode {
    match client::request_ok(addr, &Json::obj([("op", "metrics".into())])) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_FAILURE)
        }
        Ok(response) => {
            print!(
                "{}",
                response.get("text").and_then(Json::as_str).unwrap_or("")
            );
            ExitCode::SUCCESS
        }
    }
}

// ---- one-shot commands (the classic CLI) ---------------------------

/// Renders the semantic checker's cost counters (`--stats`).
fn print_region_stats(stats: &llhsc::RegionCheckStats) {
    println!("semantic checker:");
    println!("  regions           {:>10}", stats.regions);
    println!("  pairs considered  {:>10}", stats.pairs_considered);
    println!("  pairs encoded     {:>10}", stats.pairs_encoded);
    println!("  SMT terms         {:>10}", stats.terms);
    println!("  terms encoded     {:>10}", stats.terms_encoded);
    println!("  terms reused      {:>10}", stats.terms_reused);
    println!("  SAT solve calls   {:>10}", stats.solver.solves);
    println!("  decisions         {:>10}", stats.solver.decisions);
    println!("  propagations      {:>10}", stats.solver.propagations);
    println!("  conflicts         {:>10}", stats.solver.conflicts);
    println!("  problem clauses   {:>10}", stats.solver.clauses.problem);
    println!("  learnt clauses    {:>10}", stats.solver.clauses.learnt);
}

/// Renders the run's fresh solver work (`--stats`): syntactic rule
/// solves plus semantic disjointness queries, excluding anything
/// replayed from a cache. Equals the sum over the `"solve"` spans of a
/// `--trace` run.
fn print_solver_totals(solver: &llhsc::SolverStats) {
    println!("solver totals (fresh work):");
    println!("  solves            {:>10}", solver.solves);
    println!("  decisions         {:>10}", solver.decisions);
    println!("  propagations      {:>10}", solver.propagations);
    println!("  conflicts         {:>10}", solver.conflicts);
    println!("  restarts          {:>10}", solver.restarts);
}

/// Renders a session's reuse counters (`--stats`): how much encoding
/// and assertion work was amortized against already bit-blasted slices.
fn print_session_stats(session: &llhsc::SessionStats) {
    println!("session reuse:");
    println!("  slices created    {:>10}", session.slices_created);
    println!("  slices reused     {:>10}", session.slices_reused);
    println!("  asserts encoded   {:>10}", session.asserts_encoded);
    println!("  asserts reused    {:>10}", session.asserts_reused);
    println!("  checks            {:>10}", session.checks);
}

/// Renders a pipeline run's instrumentation (`--stats`).
fn print_pipeline_stats(out: &llhsc::PipelineOutput) {
    println!("stage timings:");
    println!("{}", out.timings);
    print_region_stats(&out.semantic_stats);
    print_solver_totals(&out.solver_stats);
    print_session_stats(&out.session_stats);
}

fn cmd_model(path: &Path) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let model = match llhsc_fm::parse_model(&src) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    println!("{model}");
    let mut an = Analyzer::new(&model);
    if an.is_void() {
        println!("the model is VOID: it admits no products");
        for why in an.explain_void() {
            println!("  conflicting rule: {why}");
        }
        return ExitCode::from(EXIT_FINDINGS);
    }
    println!("valid products: {}", an.count_products());
    let dead: Vec<&str> = an
        .dead_features()
        .into_iter()
        .map(|id| model.name(id))
        .collect();
    if dead.is_empty() {
        println!("dead features: none");
    } else {
        println!("dead features: {}", dead.join(", "));
    }
    let false_opt: Vec<&str> = an
        .false_optional()
        .into_iter()
        .map(|id| model.name(id))
        .collect();
    if false_opt.is_empty() {
        println!("false-optional features: none");
    } else {
        println!("false-optional features: {}", false_opt.join(", "));
    }
    let core: Vec<&str> = an
        .core_features()
        .into_iter()
        .map(|id| model.name(id))
        .collect();
    println!("core features: {}", core.join(", "));
    println!(
        "maximum VMs under exclusive-resource partitioning: {}",
        match llhsc_fm::MultiModel::max_vms(&model, 16) {
            Some(m) => m.to_string(),
            None => "0".to_string(),
        }
    );
    ExitCode::SUCCESS
}

// ---- configuration-space analytics ---------------------------------

/// Resolves the model operand of `count`/`sample`: the source text of
/// `--fixture quadcore` or of the one positional `.fm` file. The outer
/// `Err(())` is a usage error; the inner `Err(String)` a tool failure.
fn take_model_source(args: &mut Vec<String>) -> Result<Result<String, String>, ()> {
    if let Some(fixture) = take_flag(args, "--fixture")? {
        if !args.is_empty() {
            return Err(());
        }
        return Ok(match fixture.as_str() {
            "quadcore" => Ok(llhsc::quadcore::MODEL.to_string()),
            other => Err(format!("unknown fixture {other:?} (try \"quadcore\")")),
        });
    }
    if args.len() != 1 {
        return Err(());
    }
    let path = args.remove(0);
    Ok(std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}")))
}

/// Parses a strictly positive finite fraction argument.
fn parse_fraction(s: &str) -> Result<f64, ()> {
    s.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x > 0.0)
        .ok_or(())
}

/// The `count` flags shared by the local subcommand and the client
/// verb, plus `--json`.
fn take_count_flags(args: &mut Vec<String>) -> Result<(llhsc_service::CountParams, bool), ()> {
    let mut p = llhsc_service::CountParams::default();
    if let Some(b) = take_flag(args, "--budget")? {
        p.budget = b.parse().map_err(|_| ())?;
    }
    p.approx = take_switch(args, "--approx");
    if let Some(e) = take_flag(args, "--epsilon")? {
        p.epsilon = parse_fraction(&e)?;
    }
    if let Some(d) = take_flag(args, "--delta")? {
        p.delta = parse_fraction(&d)?;
        if p.delta >= 1.0 {
            return Err(());
        }
    }
    if let Some(s) = take_flag(args, "--seed")? {
        p.seed = s.parse().map_err(|_| ())?;
    }
    Ok((p, take_switch(args, "--json")))
}

/// The `sample` flags: `(k, seed, json)`.
fn take_sample_flags(args: &mut Vec<String>) -> Result<(usize, u64, bool), ()> {
    let mut k = llhsc_service::analytics::DEFAULT_SAMPLE_K;
    let mut seed = 1u64;
    if let Some(v) = take_flag(args, "-k")? {
        k = v.parse().map_err(|_| ())?;
    }
    if let Some(s) = take_flag(args, "--seed")? {
        seed = s.parse().map_err(|_| ())?;
    }
    Ok((k, seed, take_switch(args, "--json")))
}

/// Prints an analytics outcome in the selected mode. The bytes equal
/// the daemon's `text`/`doc` fields for the same input and parameters.
fn print_analytics(outcome: &llhsc_service::AnalyticsOutcome, json: bool) -> ExitCode {
    if json {
        println!("{}", outcome.doc);
    } else {
        print!("{}", outcome.text);
    }
    ExitCode::SUCCESS
}

fn load_model_source(source: Result<String, String>) -> Result<llhsc_fm::FeatureModel, ExitCode> {
    let src = source.map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(EXIT_FAILURE)
    })?;
    llhsc_fm::parse_model(&src).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(EXIT_FAILURE)
    })
}

fn cmd_count(mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<_, ()> {
        let (params, json) = take_count_flags(&mut args)?;
        Ok((params, json, take_model_source(&mut args)?))
    })();
    let Ok((params, json, source)) = parsed else {
        return usage();
    };
    let model = match load_model_source(source) {
        Ok(m) => m,
        Err(code) => return code,
    };
    print_analytics(&llhsc_service::count_model(&model, &params, None), json)
}

fn cmd_sample(mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<_, ()> {
        let (k, seed, json) = take_sample_flags(&mut args)?;
        Ok((k, seed, json, take_model_source(&mut args)?))
    })();
    let Ok((k, seed, json, source)) = parsed else {
        return usage();
    };
    let model = match load_model_source(source) {
        Ok(m) => m,
        Err(code) => return code,
    };
    print_analytics(&llhsc_service::sample_model(&model, k, seed, None), json)
}

/// `llhsc client count`: ship the model source, print the daemon's
/// rendering — byte-identical to the local `llhsc count` because both
/// sides render through the same builder.
fn client_count(addr: &str, mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<_, ()> {
        let (params, json) = take_count_flags(&mut args)?;
        Ok((params, json, take_model_source(&mut args)?))
    })();
    let Ok((params, json, source)) = parsed else {
        return usage();
    };
    let model = match source {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let request = Json::obj([
        ("op", "count".into()),
        ("model", model.into()),
        ("budget", params.budget.into()),
        ("approx", Json::Bool(params.approx)),
        ("epsilon", format!("{}", params.epsilon).into()),
        ("delta", format!("{}", params.delta).into()),
        ("seed", params.seed.into()),
    ]);
    client_print_analytics(addr, &request, json)
}

/// `llhsc client sample`: the daemon-side counterpart of `llhsc sample`.
fn client_sample(addr: &str, mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<_, ()> {
        let (k, seed, json) = take_sample_flags(&mut args)?;
        Ok((k, seed, json, take_model_source(&mut args)?))
    })();
    let Ok((k, seed, json, source)) = parsed else {
        return usage();
    };
    let model = match source {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let request = Json::obj([
        ("op", "sample".into()),
        ("model", model.into()),
        ("k", k.into()),
        ("seed", seed.into()),
    ]);
    client_print_analytics(addr, &request, json)
}

fn client_print_analytics(addr: &str, request: &Json, json: bool) -> ExitCode {
    match client::request_ok(addr, request) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_FAILURE)
        }
        Ok(response) => {
            if json {
                match response.get("doc") {
                    Some(doc) => println!("{doc}"),
                    None => {
                        eprintln!("error: daemon response carries no document");
                        return ExitCode::from(EXIT_FAILURE);
                    }
                }
            } else {
                print!(
                    "{}",
                    response.get("text").and_then(Json::as_str).unwrap_or("")
                );
            }
            ExitCode::SUCCESS
        }
    }
}

/// Why `build` did not produce outputs — the distinction drives the
/// exit code.
enum BuildFailure {
    /// Unreadable or unparsable inputs (exit 2).
    Input(String),
    /// The checkers rejected the configuration (exit 1).
    Rejected(String),
}

/// Loads a `build` project directory into a [`llhsc::PipelineInput`].
/// Family-mode runs verify the whole product line, not any VM
/// selection, so they pass `require_vms: false` and tolerate a missing
/// or empty `vms.cfg`.
fn load_build_input(dir: &Path, require_vms: bool) -> Result<llhsc::PipelineInput, String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("cannot read {}: {e}", dir.join(name).display()))
    };
    let core_src = read("core.dts")?;
    let provider = DirProvider {
        dir: dir.to_path_buf(),
    };
    let core = parse_with_includes(&core_src, &provider).map_err(|e| format!("core.dts: {e}"))?;
    let deltas = llhsc_delta::DeltaModule::parse_all(&read("deltas.delta")?)
        .map_err(|e| format!("deltas.delta: {e}"))?;
    let model = llhsc_fm::parse_model(&read("model.fm")?).map_err(|e| format!("model.fm: {e}"))?;

    let mut schemas = SchemaSet::standard();
    if let Ok(entries) = std::fs::read_dir(dir.join("schemas")) {
        for entry in entries.flatten() {
            if entry.path().extension().is_some_and(|e| e == "yaml") {
                let text = std::fs::read_to_string(entry.path())
                    .map_err(|e| format!("{}: {e}", entry.path().display()))?;
                let schema = llhsc_schema::Schema::parse(&text)
                    .map_err(|e| format!("{}: {e}", entry.path().display()))?;
                schemas.push(schema);
            }
        }
    }

    let mut vms = Vec::new();
    let vms_src = match read("vms.cfg") {
        Ok(src) => src,
        Err(e) if !require_vms => {
            let _ = e;
            String::new()
        }
        Err(e) => return Err(e),
    };
    for (i, line) in vms_src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (name, feats) = line
            .split_once(':')
            .ok_or_else(|| format!("vms.cfg line {}: expected 'name: features'", i + 1))?;
        vms.push(llhsc::VmSpec {
            name: name.trim().to_string(),
            features: feats
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
        });
    }
    if vms.is_empty() && require_vms {
        return Err("vms.cfg defines no VMs".to_string());
    }

    Ok(llhsc::PipelineInput {
        core,
        deltas,
        model,
        schemas,
        vms,
    })
}

fn cmd_build(mut args: Vec<String>, stats: bool) -> ExitCode {
    let parsed = (|| -> Result<(Option<String>, bool, bool, bool), ()> {
        let trace = take_flag(&mut args, "--trace")?;
        let family = take_switch(&mut args, "--family");
        let family_enumerate = take_switch(&mut args, "--family-enumerate");
        let certify = take_switch(&mut args, "--certify");
        if args.len() == 1 {
            Ok((trace, family, family_enumerate, certify))
        } else {
            Err(())
        }
    })();
    let Ok((trace_path, family, family_enumerate, certify)) = parsed else {
        return usage();
    };
    if family && family_enumerate {
        eprintln!("error: --family and --family-enumerate are mutually exclusive");
        return usage();
    }
    let dir = Path::new(&args[0]);
    let sink = TraceSink::new(trace_path);
    let options = CheckOptions {
        certify,
        trace: sink.as_ref().map(TraceSink::ctx),
        ..CheckOptions::default()
    };
    if family || family_enumerate {
        let mode = if family {
            llhsc::family::CheckMode::Family
        } else {
            llhsc::family::CheckMode::Enumerate
        };
        return cmd_build_family(dir, mode, &options, stats, sink);
    }
    let result = (|| -> Result<llhsc::PipelineOutput, BuildFailure> {
        let input = load_build_input(dir, true).map_err(BuildFailure::Input)?;
        Pipeline { options }
            .run(&input)
            .map_err(|e| BuildFailure::Rejected(e.to_string()))
    })();

    if let Some(sink) = sink {
        if sink.write().is_err() {
            return ExitCode::from(EXIT_FAILURE);
        }
    }
    match result {
        Err(BuildFailure::Input(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_FAILURE)
        }
        Err(BuildFailure::Rejected(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_FINDINGS)
        }
        Ok(out) => {
            for d in &out.diagnostics {
                println!("{d}");
            }
            let outdir = dir.join("out");
            if let Err(e) = std::fs::create_dir_all(&outdir) {
                eprintln!("error: cannot create {}: {e}", outdir.display());
                return ExitCode::from(EXIT_FAILURE);
            }
            let mut writes: Vec<(String, Vec<u8>)> = vec![
                ("platform.dts".into(), out.platform_dts.clone().into_bytes()),
                ("platform.c".into(), out.platform_c.clone().into_bytes()),
                (
                    "platform.dtb".into(),
                    llhsc_dts::fdt::encode(&out.platform_tree),
                ),
            ];
            for (i, dts) in out.vm_dts.iter().enumerate() {
                writes.push((format!("vm{}.dts", i + 1), dts.clone().into_bytes()));
                writes.push((
                    format!("vm{}.dtb", i + 1),
                    llhsc_dts::fdt::encode(&out.vm_trees[i]),
                ));
            }
            for (i, c) in out.vm_c.iter().enumerate() {
                writes.push((format!("vm{}.c", i + 1), c.clone().into_bytes()));
            }
            for (i, cfg) in out.vm_configs.iter().enumerate() {
                writes.push((
                    format!("vm{}.jailhouse.c", i + 1),
                    cfg.to_jailhouse_cell().into_bytes(),
                ));
            }
            for (name, bytes) in writes {
                let path = outdir.join(&name);
                if let Err(e) = std::fs::write(&path, bytes) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::from(EXIT_FAILURE);
                }
                println!("wrote {}", path.display());
            }
            if stats {
                print_pipeline_stats(&out);
            }
            ExitCode::SUCCESS
        }
    }
}

/// `build --family` / `--family-enumerate`: verify the whole product
/// line (no artifacts are generated — the family is every valid
/// configuration, not a VM selection). Exit 0 when every product
/// passes every rule family, 1 on findings, 2 on input failure.
fn cmd_build_family(
    dir: &Path,
    mode: llhsc::family::CheckMode,
    options: &CheckOptions,
    stats: bool,
    sink: Option<TraceSink>,
) -> ExitCode {
    let input = match load_build_input(dir, false) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let mut checker = llhsc::family::FamilyChecker::with_options(options);
    let result = checker.check(&input, mode);
    if stats && options.certify {
        let cert = checker.cert_stats();
        println!(
            "certified: {} UNSAT verdict(s), {} proof step(s), {} lemma(s) checked",
            cert.proofs, cert.steps, cert.checked
        );
    }
    if let Some(sink) = sink {
        if sink.write().is_err() {
            return ExitCode::from(EXIT_FAILURE);
        }
    }
    match result {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_FAILURE)
        }
        Ok(report) => {
            print!("{report}");
            if stats {
                print_family_stats(&report.stats);
            }
            if report.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_FINDINGS)
            }
        }
    }
}

fn print_family_stats(stats: &llhsc::family::FamilyStats) {
    println!("family check:");
    println!("  obligations lifted:   {:>8}", stats.obligations_lifted);
    println!("  family solves:        {:>8}", stats.family_solves);
    println!("  witnesses extracted:  {:>8}", stats.witnesses_extracted);
    println!("  products checked:     {:>8}", stats.products_checked);
    print_solver_totals(&stats.solver);
    print_session_stats(&stats.session);
}

fn load_tree(path: &Path) -> Result<llhsc_dts::DeviceTree, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let provider = DirProvider {
        dir: path.parent().unwrap_or(Path::new(".")).to_path_buf(),
    };
    parse_with_includes(&src, &provider).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parsed `check` flags: `--trace`, `--report-json`, `--proof`,
/// `--certify`, `--progress`.
type CheckFlags = (Option<String>, Option<String>, Option<String>, bool, bool);

fn cmd_check(mut args: Vec<String>, stats: bool) -> ExitCode {
    let parsed = (|| -> Result<CheckFlags, ()> {
        let trace = take_flag(&mut args, "--trace")?;
        let report = take_flag(&mut args, "--report-json")?;
        let proof = take_flag(&mut args, "--proof")?;
        let certify = take_switch(&mut args, "--certify") || proof.is_some();
        let progress = take_switch(&mut args, "--progress");
        if args.len() == 1 {
            Ok((trace, report, proof, certify, progress))
        } else {
            Err(())
        }
    })();
    let Ok((trace_path, report_path, proof_prefix, certify, progress)) = parsed else {
        return usage();
    };
    let path = Path::new(&args[0]);
    let tree = match load_tree(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error[parse]: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let sink = TraceSink::new(trace_path);
    // The report document embeds the (time-free) span tree, so a report
    // run is always traced — against a zeroed clock when no `--trace`
    // file asked for real timestamps.
    let tracer = match &sink {
        Some(s) => Some(Arc::clone(&s.tracer)),
        None if report_path.is_some() => Some(Arc::new(Tracer::zeroed())),
        None => None,
    };
    let options = CheckOptions {
        certify,
        progress: progress
            .then(|| Arc::new(StderrProgress::from_env()) as Arc<dyn llhsc::ProgressSink>),
        trace: tracer.as_ref().map(|t| TraceCtx::new(Arc::clone(t))),
        ..CheckOptions::default()
    };
    let (outcome, bundles) = check_tree_with(&tree, &options);
    eprint!("{}", outcome.report.stderr);
    print!("{}", outcome.report.stdout);
    if let Some(cert) = &outcome.cert {
        // Reaching this line *is* the certificate: a proof that fails
        // to check panics inside the solver session instead.
        println!(
            "certified: {} UNSAT verdict(s), {} proof step(s), {} lemma(s) checked",
            cert.proofs, cert.steps, cert.checked
        );
    }
    if let Some(prefix) = &proof_prefix {
        // A stage that never answered Unsat has nothing to refute: no
        // files, rather than a vacuous proof `llhsc drat` would reject.
        for b in bundles.iter().filter(|b| !b.proof.is_empty()) {
            let cnf_path = format!("{prefix}.{}.cnf", b.stage);
            let drat_path = format!("{prefix}.{}.drat", b.stage);
            let mut cnf_bytes = Vec::new();
            let mut drat_bytes = Vec::new();
            if write_dimacs(&b.cnf, &mut cnf_bytes).is_err()
                || write_drat(&b.proof, &mut drat_bytes).is_err()
                || write_output(Path::new(&cnf_path), &cnf_bytes).is_err()
                || write_output(Path::new(&drat_path), &drat_bytes).is_err()
            {
                return ExitCode::from(EXIT_FAILURE);
            }
            println!(
                "proof[{}]: {} clauses, {} steps -> {cnf_path}, {drat_path}",
                b.stage,
                b.cnf.num_clauses(),
                b.proof.len()
            );
        }
    }
    if let Some(sink) = sink {
        if sink.write().is_err() {
            return ExitCode::from(EXIT_FAILURE);
        }
    }
    if let Some(report_path) = report_path {
        let spans = tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
        let doc = check_report_json(
            &outcome.report,
            &outcome.stats,
            &outcome.solver,
            &outcome.session,
            &spans,
            outcome.cert.as_ref(),
        );
        let mut bytes = doc.to_string();
        bytes.push('\n');
        if write_output(Path::new(&report_path), bytes.as_bytes()).is_err() {
            return ExitCode::from(EXIT_FAILURE);
        }
    }
    if stats {
        println!("semantic check time: {:.1?}", outcome.elapsed);
        print_region_stats(&outcome.stats);
        print_solver_totals(&outcome.solver);
        print_session_stats(&outcome.session);
    }
    if outcome.report.input_error {
        // Uninterpretable input (bad cell counts, malformed reg): a
        // tool failure, not a finding — same class as a parse error.
        ExitCode::from(EXIT_FAILURE)
    } else if outcome.report.clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

/// `llhsc drat <f.cnf> <f.drat>` — standalone proof verification: the
/// counterpart of `llhsc check --proof`, and usable on any DIMACS/DRAT
/// pair (e.g. to cross-check another solver's refutation).
fn cmd_drat(mut args: Vec<String>) -> ExitCode {
    let all = take_switch(&mut args, "--all");
    if args.len() != 2 {
        return usage();
    }
    let cnf = match std::fs::read(&args[0]) {
        Ok(text) => match parse_dimacs(text.as_slice()) {
            Ok(cnf) => cnf,
            Err(e) => {
                eprintln!("error[dimacs]: {}: {e}", args[0]);
                return ExitCode::from(EXIT_FAILURE);
            }
        },
        Err(e) => {
            eprintln!("error[io]: {}: {e}", args[0]);
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let proof = match std::fs::read(&args[1]) {
        Ok(bytes) => match parse_drat(&bytes) {
            Ok(steps) => steps,
            Err(e) => {
                eprintln!("error[drat]: {}: {e}", args[1]);
                return ExitCode::from(EXIT_FAILURE);
            }
        },
        Err(e) => {
            eprintln!("error[io]: {}: {e}", args[1]);
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let mode = if all { CheckMode::All } else { CheckMode::Last };
    match check_drat(&cnf, &proof, mode) {
        Ok(out) => {
            println!(
                "verified: {} steps ({} adds, {} deletes), {} lemma(s) checked",
                out.steps, out.adds, out.deletes, out.checked
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error[drat]: {e}");
            ExitCode::from(EXIT_FINDINGS)
        }
    }
}

fn cmd_dtb(input: &Path, output: &Path) -> ExitCode {
    let tree = match load_tree(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error[parse]: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    let blob = llhsc_dts::fdt::encode(&tree);
    match std::fs::write(output, &blob) {
        Ok(()) => {
            println!("wrote {} bytes to {}", blob.len(), output.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", output.display());
            ExitCode::from(EXIT_FAILURE)
        }
    }
}

fn cmd_dts(input: &Path) -> ExitCode {
    let blob = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", input.display());
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    match llhsc_dts::fdt::decode_typed(&blob) {
        Ok(tree) => {
            print!("{}", llhsc_dts::print(&tree));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error[fdt]: {e}");
            ExitCode::from(EXIT_FAILURE)
        }
    }
}

fn cmd_products() -> ExitCode {
    let model = llhsc::running_example::feature_model();
    println!("{model}");
    let mut an = Analyzer::new(&model);
    let products = an.products();
    println!("{} valid products:", products.len());
    for (i, p) in products.iter().enumerate() {
        println!("  {:2}: {}", i + 1, an.product_names(p).join(", "));
    }
    let core: Vec<String> = an
        .core_features()
        .into_iter()
        .map(|id| model.name(id).to_string())
        .collect();
    println!("core features: {}", core.join(", "));
    ExitCode::SUCCESS
}

fn cmd_demo(mut args: Vec<String>, stats: bool) -> ExitCode {
    let parsed = (|| -> Result<Option<String>, ()> {
        let trace = take_flag(&mut args, "--trace")?;
        if args.is_empty() {
            Ok(trace)
        } else {
            Err(())
        }
    })();
    let Ok(trace_path) = parsed else {
        return usage();
    };
    let sink = TraceSink::new(trace_path);
    let input = llhsc::running_example::pipeline_input();
    let result = Pipeline {
        options: CheckOptions {
            trace: sink.as_ref().map(TraceSink::ctx),
            ..CheckOptions::default()
        },
    }
    .run(&input);
    if let Some(sink) = sink {
        if sink.write().is_err() {
            return ExitCode::from(EXIT_FAILURE);
        }
    }
    match result {
        Ok(out) => {
            for d in &out.diagnostics {
                println!("{d}");
            }
            println!("\n=== platform DTS ===\n{}", out.platform_dts);
            for (i, dts) in out.vm_dts.iter().enumerate() {
                println!("=== vm{} DTS ===\n{dts}", i + 1);
            }
            println!(
                "=== platform config (Listing 3 shape) ===\n{}",
                out.platform_c
            );
            for (i, c) in out.vm_c.iter().enumerate() {
                println!("=== vm{} config (Listing 6 shape) ===\n{c}", i + 1);
            }
            if stats {
                print_pipeline_stats(&out);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprint!("{e}");
            ExitCode::from(EXIT_FINDINGS)
        }
    }
}
