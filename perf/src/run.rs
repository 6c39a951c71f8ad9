//! One workload, measured: a timed end-to-end run through the real
//! `llhsc` CLI or daemon, or a traced run that also replays every
//! request in-process to fill the per-layer ledger.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use llhsc_bench::SplitMix64;
use llhsc_obs::Tracer;
use llhsc_service::Json;

use crate::gen::{board_pool, pool_order, Expect, Payload, Request, Stream, Workload, BLOCK};
use crate::layers::{self, Mirror, Recorder, COUNTERS, LAYERS};
use crate::samples::Samples;
use crate::sys::{run_cli, CliRun, Conn, Daemon, Watchdog};
use crate::verdict::{self, cpus_of, stage_of_stderr, BuildOutcome, Outcome};

/// `llhsc check` runs on an empty tree, before and again after the timed
/// phase, whose median is `setup_s` of the CLI workload: the fixed cost
/// every invocation pays. Start-up cost drifts with the machine's state
/// over seconds, so the samples straddle the run.
const CLI_SETUP_RUNS: usize = 30;
/// Daemon spawns, before and again after the timed phase, whose median
/// spawn → first `ping` is `setup_s` of a daemon workload.
const DAEMON_SETUP_SPAWNS: usize = 10;
/// Boards in the `board_check` pool.
const BOARD_POOL: usize = 48;
/// Closed-loop clients of the daemon workloads (`nproc` = 2).
const CONNECTIONS: u64 = 2;
/// Untimed warm-up before the timed phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Seeds of warm-up inputs are the measured seed with this mixed in, so
/// no warm-up input is ever measured.
const WARMUP_SALT: u64 = 0x5741_524d_5550_0000;
/// Upper end of a daemon client's think time, in microseconds: one
/// tick of a 250 Hz kernel.
const THINK_MAX_US: u64 = 4000;
/// Requests of one client per latency window of a daemon workload: two
/// stratification blocks, so a window holds the exact mix twice and its
/// p90 rests on four samples beyond it.
const WINDOW: usize = 2 * BLOCK;
/// Request cap per workload under `--quick`.
const QUICK_REQUESTS: usize = 10;

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// At most [`QUICK_REQUESTS`] requests per workload (smoke test).
    pub quick: bool,
    /// Check answers against a deliberately wrong oracle.
    pub corrupt_oracle: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub trace_dir: Option<PathBuf>,
}

/// The `llhsc` binary and a scratch directory for its inputs.
#[derive(Debug, Clone)]
pub struct Env {
    /// The release `llhsc` binary.
    pub bin: PathBuf,
    /// Scratch space for boards and projects.
    pub work: PathBuf,
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests attempted (measured ones only).
    pub attempted: usize,
    /// Requests that failed: transport errors, error frames, exit code 2,
    /// timeouts, or answers that differ from the oracle.
    pub failed: usize,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Human-readable context (sample counts, mix, layer ranking).
    pub notes: Vec<String>,
    /// The first few failures.
    pub errors: Vec<String>,
}

impl Report {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Runs `workload` once: timed end to end, or traced when `trace`.
pub fn run(workload: Workload, env: &Env, opts: &Options, trace: bool) -> Result<Report, String> {
    std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;
    if !trace && workload != Workload::BoardCheck {
        return daemon_workload(workload, env, opts);
    }
    // Runs that spawn CLI processes: a second thread kills any that
    // outlives its timeout.
    let watchdog = Watchdog::default();
    std::thread::scope(|s| {
        s.spawn(|| watchdog.run());
        let result = if trace {
            traced(workload, env, opts, &watchdog)
        } else {
            board_check(env, opts, &watchdog)
        };
        watchdog.stop();
        result
    })
}

/// The oracle's expectation, or a deliberately wrong one.
fn expectation(expect: &Expect, opts: &Options) -> Expect {
    match (expect, opts.corrupt_oracle) {
        (e, false) => e.clone(),
        (Expect::Check(c), true) => Expect::Check(crate::gen::CheckCounts {
            overlaps: c.overlaps + 1,
            ..*c
        }),
        (Expect::Build(b), true) => Expect::Build(crate::gen::BuildExpect {
            accepted: !b.accepted,
            ..b.clone()
        }),
    }
}

/// The request as one protocol line.
pub fn wire(payload: &Payload) -> String {
    match payload {
        Payload::Check { dts } => {
            Json::obj([("op", "check".into()), ("dts", dts.as_str().into())]).to_string()
        }
        Payload::Build { project, family } => {
            let vms = project
                .vms
                .iter()
                .map(|(name, features)| {
                    Json::obj([
                        ("name", name.as_str().into()),
                        (
                            "features",
                            Json::Arr(features.iter().map(|f| f.as_str().into()).collect()),
                        ),
                    ])
                })
                .collect();
            Json::obj([
                ("op", "build".into()),
                ("core", project.core.as_str().into()),
                ("deltas", project.deltas.as_str().into()),
                ("model", project.model.as_str().into()),
                ("vms", Json::Arr(vms)),
                ("family", Json::Bool(*family)),
            ])
            .to_string()
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Whether a finished CLI run reported a clean input (exit 0) or
/// findings (exit 1); anything else is a failure.
fn cli_clean(run: &CliRun) -> Result<bool, String> {
    if run.timed_out {
        return Err("llhsc timed out".into());
    }
    match run.code {
        Some(0) => Ok(true),
        Some(1) => Ok(false),
        other => Err(format!(
            "llhsc exited with {other:?}: {}",
            run.stderr.trim()
        )),
    }
}

/// Decodes a finished `llhsc check`.
fn cli_check(run: &CliRun) -> Result<Outcome, String> {
    let clean = cli_clean(run)?;
    let counts = verdict::check_counts(&run.stdout, &run.stderr)?;
    if counts.clean() != clean {
        return Err(format!(
            "exit code {:?} disagrees with the findings",
            run.code
        ));
    }
    Ok(Outcome::Check(counts))
}

/// Decodes a finished CLI run of `payload` (whose project, for a
/// build, was written to `dir`).
fn cli_outcome(run: &CliRun, payload: &Payload, dir: &Path) -> Result<Outcome, String> {
    match payload {
        Payload::Check { .. } => cli_check(run),
        Payload::Build { project, family } => {
            let accepted = cli_clean(run)?;
            let vm_cpus = (accepted && !family).then(|| {
                (1..=project.vms.len())
                    .map(|k| {
                        let path = dir.join("out").join(format!("vm{k}.dts"));
                        cpus_of(&std::fs::read_to_string(path).unwrap_or_default())
                    })
                    .collect()
            });
            Ok(Outcome::Build(BuildOutcome {
                accepted,
                vm_cpus,
                stage: (!accepted && !family)
                    .then(|| stage_of_stderr(&run.stderr))
                    .flatten(),
            }))
        }
    }
}

/// Writes `payload`'s input under `work` and returns the CLI arguments
/// that check or build it, plus the project directory.
fn cli_input(payload: &Payload, work: &Path) -> Result<(Vec<String>, PathBuf), String> {
    match payload {
        Payload::Check { dts } => {
            let path = work.join("request.dts");
            write(&path, dts)?;
            Ok((
                vec!["check".into(), path.display().to_string()],
                work.to_path_buf(),
            ))
        }
        Payload::Build { project, family } => {
            let dir = work.join("project");
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            write(&dir.join("core.dts"), &project.core)?;
            write(&dir.join("deltas.delta"), &project.deltas)?;
            write(&dir.join("model.fm"), &project.model)?;
            write(&dir.join("vms.cfg"), &project.vms_cfg())?;
            let mut args = vec!["build".to_string()];
            if *family {
                args.push("--family".into());
            }
            args.push(dir.display().to_string());
            Ok((args, dir))
        }
    }
}

/// Stretches of the timed phase that each hold exactly the workload's
/// request mix: one pass over the board pool, or two blocks of a
/// client's requests. Latencies are medians over windows, so a slow
/// episode of the machine that covers less than half the run does not
/// move them. Rate and CPU come from pool passes too; a daemon run gives
/// one whole-run value each, because a block of one client does not hold
/// the other client's mix.
#[derive(Default)]
struct Windows {
    /// Latency samples (ms) of each window.
    latency: Vec<Samples>,
    /// Requests per second of each window.
    rate: Samples,
    /// CPU milliseconds per request of each window.
    cpu_ms: Samples,
}

fn end_to_end(
    report: &mut Report,
    setup: &mut Samples,
    pooled: &mut Samples,
    windows: &mut Windows,
    peak_rss_kb: u64,
) {
    let mut per_window = |stat: &dyn Fn(&mut Samples) -> f64| -> f64 {
        let mut s: Samples = windows.latency.iter_mut().map(stat).collect();
        s.median()
    };
    let p50 = per_window(&|w| w.median());
    let p90 = per_window(&|w| w.percentile(90.0));
    report.metric("setup_s", setup.median(), "s");
    report.metric("latency_p50_ms", p50, "ms");
    report.metric("latency_p90_ms", p90, "ms");
    report.metric("throughput_rps", windows.rate.median(), "req/s");
    report.metric("cpu_ms_per_req", windows.cpu_ms.median(), "ms");
    report.metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
    report.notes.push(format!(
        "{} requests in {} windows; {} pooled samples beyond p90{}; setup median of {}",
        pooled.len(),
        windows.latency.len(),
        pooled.beyond(90.0),
        if pooled.supports(90.0) {
            ""
        } else {
            " (fewer than 10)"
        },
        setup.len()
    ));
}

fn mix_note(classes: &BTreeMap<&'static str, usize>) -> String {
    let parts: Vec<String> = classes.iter().map(|(c, n)| format!("{c} {n}")).collect();
    format!("mix: {}", parts.join(", "))
}

// ---- board_check: sequential CLI spawns ------------------------------

/// Times [`CLI_SETUP_RUNS`] `llhsc check` runs of an empty tree.
fn cli_setup(env: &Env, watchdog: &Watchdog, setup: &mut Samples) -> Result<(), String> {
    let empty = env.work.join("empty.dts");
    write(&empty, "/ { };\n")?;
    let arg = empty.display().to_string();
    for _ in 0..CLI_SETUP_RUNS {
        let run = run_cli(&env.bin, &["check", &arg], watchdog).map_err(|e| e.to_string())?;
        if run.code != Some(0) {
            return Err(format!(
                "llhsc check of an empty tree failed: {}",
                run.stderr
            ));
        }
        setup.push(run.wall.as_secs_f64());
    }
    Ok(())
}

fn board_check(env: &Env, opts: &Options, watchdog: &Watchdog) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Samples::new();
    cli_setup(env, watchdog, &mut setup)?;

    let count = if opts.quick { 6 } else { BOARD_POOL };
    let pool = board_pool(opts.seed, count);
    let mut paths = Vec::with_capacity(count);
    for (k, board) in pool.iter().enumerate() {
        let path = env.work.join(format!("board{k}.dts"));
        write(&path, &board.dts)?;
        paths.push(path.display().to_string());
    }
    let warm = board_pool(opts.seed ^ WARMUP_SALT, 4);
    let warm_path = env.work.join("warm.dts");
    let warm_started = Instant::now();
    for board in warm.iter().take(if opts.quick { 1 } else { warm.len() }) {
        if warm_started.elapsed() >= WARMUP {
            break;
        }
        write(&warm_path, &board.dts)?;
        let arg = warm_path.display().to_string();
        run_cli(&env.bin, &["check", &arg], watchdog).map_err(|e| e.to_string())?;
    }

    let mut pooled = Samples::new();
    let mut windows = Windows::default();
    let mut peak = 0;
    let mut classes: BTreeMap<&'static str, usize> = BTreeMap::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    for pass in 0.. {
        let pass_started = Instant::now();
        let mut latency = Samples::new();
        let mut cpu = Duration::ZERO;
        let mut cut = false;
        for k in pool_order(opts.seed, pass, count) {
            let capped = opts.quick && report.attempted >= QUICK_REQUESTS;
            if capped || started.elapsed() >= budget {
                cut = true;
                break;
            }
            let board = &pool[k];
            *classes
                .entry(match board.fault {
                    crate::gen::Fault::None => "clean",
                    crate::gen::Fault::Collision => "collision",
                    crate::gen::Fault::Interrupt => "interrupt",
                    crate::gen::Fault::Schema => "schema",
                })
                .or_default() += 1;
            let result = run_cli(&env.bin, &["check", &paths[k]], watchdog)
                .map_err(|e| e.to_string())
                .and_then(|run| {
                    latency.push(ms(run.wall));
                    cpu += run.cpu;
                    peak = peak.max(run.maxrss_kb);
                    cli_check(&run)
                })
                .and_then(|got| expectation(&Expect::Check(board.expect), opts).verify(&got));
            report.record(result);
        }
        pooled.extend(&latency);
        // A cut pass has a partial mix; it counts only when no pass
        // completed (a `--quick` run).
        if !latency.is_empty() && (!cut || windows.latency.is_empty()) {
            let n = latency.len() as f64;
            windows.rate.push(n / pass_started.elapsed().as_secs_f64());
            windows.cpu_ms.push(ms(cpu) / n);
            windows.latency.push(latency);
        }
        if cut {
            break;
        }
    }
    cli_setup(env, watchdog, &mut setup)?;
    end_to_end(&mut report, &mut setup, &mut pooled, &mut windows, peak);
    report.notes.push(mix_note(&classes));
    Ok(report)
}

// ---- daemon workloads: closed loops over loopback TCP -----------------

/// What one closed-loop client saw.
#[derive(Default)]
struct Client {
    /// Every latency sample (ms).
    pooled: Samples,
    /// Latencies of each complete window of [`WINDOW`] requests.
    windows: Vec<Samples>,
    /// Latencies of the block in progress.
    partial: Samples,
    report: Report,
    classes: BTreeMap<&'static str, usize>,
}

/// One closed loop: every client sends its next request only after the
/// previous answer arrived, until `budget` has passed since `started`
/// (or each client sent `cap` requests).
struct Loop<'a> {
    daemon: &'a Daemon,
    workload: Workload,
    seed: u64,
    started: Instant,
    budget: Duration,
    cap: Option<usize>,
    opts: &'a Options,
}

/// Drives connection `conn` with its request stream. Between an answer
/// and the next request the client thinks for a seeded uniform
/// `0..THINK_MAX_US`: without it, a closed loop phase-locks to the
/// kernel's timer ticks (the daemon's responses wait on delayed ACKs)
/// and every latency lands on the same few tick multiples.
fn client(spec: &Loop, conn: u64) -> Client {
    let (daemon, opts) = (spec.daemon, spec.opts);
    let mut out = Client::default();
    let mut connection: Option<Conn> = None;
    let mut think = SplitMix64::new(spec.seed ^ conn.rotate_left(32));
    for (i, req) in Stream::new(spec.workload, spec.seed, conn).enumerate() {
        let capped = spec.cap.is_some_and(|c| out.report.attempted >= c);
        if capped || spec.started.elapsed() >= spec.budget {
            break;
        }
        std::thread::sleep(Duration::from_micros(think.below(THINK_MAX_US)));
        *out.classes.entry(req.class).or_default() += 1;
        let line = wire(&req.payload);
        let result = match connection.take().map_or_else(|| daemon.connect(), Ok) {
            Err(e) => {
                // The daemon no longer accepts connections: stop here.
                out.report.record(Err(format!("connect: {e}")));
                break;
            }
            Ok(mut c) => match c.call_line(&line) {
                Ok((frame, rtt)) => {
                    connection = Some(c);
                    out.partial.push(ms(rtt));
                    out.pooled.push(ms(rtt));
                    verdict::from_frame(&frame, &req.payload)
                        .and_then(|got| expectation(&req.expect, opts).verify(&got))
                }
                Err(e) => Err(format!("transport: {e}")),
            },
        };
        out.report.record(result);
        if (i + 1) % WINDOW == 0 {
            out.windows.push(std::mem::take(&mut out.partial));
        }
    }
    out
}

/// Runs [`CONNECTIONS`] clients concurrently — this thread drives the
/// first — and merges what they saw into windows.
fn closed_loop(
    daemon: &Daemon,
    workload: Workload,
    seed: u64,
    budget: Duration,
    cap: Option<usize>,
    opts: &Options,
) -> (Client, Windows) {
    let spec = Loop {
        daemon,
        workload,
        seed,
        started: Instant::now(),
        budget,
        cap,
        opts,
    };
    let clients: Vec<Client> = std::thread::scope(|s| {
        let spec = &spec;
        let others: Vec<_> = (1..CONNECTIONS)
            .map(|c| s.spawn(move || client(spec, c)))
            .collect();
        let first = client(spec, 0);
        std::iter::once(first)
            .chain(
                others
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked")),
            )
            .collect()
    });
    let mut merged = Client::default();
    let mut windows = Windows::default();
    let mut partials = Vec::new();
    for mut c in clients {
        merged.pooled.extend(&c.pooled);
        merged.report.attempted += c.report.attempted;
        merged.report.failed += c.report.failed;
        merged.report.errors.extend(c.report.errors);
        for (class, n) in c.classes {
            *merged.classes.entry(class).or_default() += n;
        }
        windows.latency.append(&mut c.windows);
        partials.push(c.partial);
    }
    // Too short for a whole window (`--quick`): the partial windows stand
    // in.
    if windows.latency.is_empty() {
        windows.latency = partials.into_iter().filter(|p| !p.is_empty()).collect();
    }
    (merged, windows)
}

/// Spawns [`DAEMON_SETUP_SPAWNS`] daemons one after another, timing each
/// spawn → first `ping`; returns the last, still running.
fn daemon_setup(env: &Env, setup: &mut Samples) -> Result<Daemon, String> {
    let mut daemon: Option<Daemon> = None;
    for _ in 0..DAEMON_SETUP_SPAWNS {
        let (d, took) = Daemon::spawn(&env.bin, &env.work).map_err(|e| format!("daemon: {e}"))?;
        setup.push(took.as_secs_f64());
        if let Some(previous) = daemon.replace(d) {
            previous.shutdown().map_err(|e| format!("daemon: {e}"))?;
        }
    }
    Ok(daemon.expect("at least one spawn"))
}

fn daemon_workload(workload: Workload, env: &Env, opts: &Options) -> Result<Report, String> {
    let mut setup = Samples::new();
    let daemon = daemon_setup(env, &mut setup)?;
    let cap = opts.quick.then_some(QUICK_REQUESTS / CONNECTIONS as usize);

    // Warm-up answers are checked against the true oracle: a wrong one
    // there is a set-up failure, not a measured one.
    let warm_opts = Options {
        corrupt_oracle: false,
        ..opts.clone()
    };
    let (warm, _) = closed_loop(
        &daemon,
        workload,
        opts.seed ^ WARMUP_SALT,
        WARMUP,
        opts.quick.then_some(1),
        &warm_opts,
    );
    if warm.report.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.report.errors));
    }

    let budget = Duration::from_secs_f64(opts.seconds);
    let cpu_before = daemon.cpu().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let (mut timed, mut windows) = closed_loop(&daemon, workload, opts.seed, budget, cap, opts);
    let wall = started.elapsed();
    let cpu = daemon
        .cpu()
        .map_err(|e| e.to_string())?
        .saturating_sub(cpu_before);
    let done = timed.pooled.len().max(1) as f64;
    windows.rate.push(done / wall.as_secs_f64());
    windows.cpu_ms.push(ms(cpu) / done);
    let peak = daemon.peak_rss_kb().map_err(|e| e.to_string())?;
    daemon.shutdown().map_err(|e| format!("daemon: {e}"))?;
    daemon_setup(env, &mut setup)?
        .shutdown()
        .map_err(|e| format!("daemon: {e}"))?;

    let mut report = timed.report;
    end_to_end(
        &mut report,
        &mut setup,
        &mut timed.pooled,
        &mut windows,
        peak,
    );
    report.notes.push(mix_note(&timed.classes));
    Ok(report)
}

// ---- the traced run ---------------------------------------------------

/// Requests of the traced run: enough to show every class, few enough
/// to replay each request five ways within a run's budget.
fn traced_requests(workload: Workload, opts: &Options) -> Vec<(usize, Request)> {
    let n = match (workload, opts.quick) {
        (_, true) => 4,
        (Workload::BoardCheck, false) => BOARD_POOL,
        (Workload::OverlapCheck, false) => 40,
        (Workload::AllocSearch, false) => 20,
        (Workload::EditLoop, false) => 80,
    };
    match workload {
        Workload::BoardCheck => {
            let count = if opts.quick { n } else { BOARD_POOL };
            let pool = board_pool(opts.seed, count);
            pool_order(opts.seed, 0, count)
                .into_iter()
                .map(|k| {
                    (
                        0,
                        Request {
                            payload: Payload::Check {
                                dts: pool[k].dts.clone(),
                            },
                            expect: Expect::Check(pool[k].expect),
                            class: "board",
                        },
                    )
                })
                .collect()
        }
        Workload::EditLoop => {
            let mut streams = [
                Stream::new(workload, opts.seed, 0),
                Stream::new(workload, opts.seed, 1),
            ];
            (0..n)
                .map(|i| (i % 2, streams[i % 2].next().expect("streams are endless")))
                .collect()
        }
        _ => Stream::new(workload, opts.seed, 0)
            .take(n)
            .map(|r| (0, r))
            .collect(),
    }
}

/// Cache traffic and error totals from the daemon's `stats` op.
fn daemon_stats(conn: &mut Conn) -> Result<(u64, u64, u64, u64), String> {
    let (frame, _) = conn
        .call(&Json::obj([("op", "stats".into())]))
        .map_err(|e| format!("stats: {e}"))?;
    let int = |j: Option<&Json>| j.and_then(Json::as_int).unwrap_or(0) as u64;
    let (mut hits, mut lookups) = (0, 0);
    for class in frame
        .get("cache")
        .and_then(Json::as_obj)
        .ok_or("stats without cache")?
        .values()
    {
        let h = int(class.get("hits"));
        hits += h;
        lookups += h + int(class.get("misses"));
    }
    Ok((
        lookups,
        hits,
        int(frame.get("errors")),
        int(frame.get("queue_wait_us_total")),
    ))
}

fn traced(
    workload: Workload,
    env: &Env,
    opts: &Options,
    watchdog: &Watchdog,
) -> Result<Report, String> {
    let requests = traced_requests(workload, opts);
    let (daemon, _) = Daemon::spawn(&env.bin, &env.work).map_err(|e| format!("daemon: {e}"))?;
    let conns = if workload == Workload::EditLoop { 2 } else { 1 };
    let mut conns: Vec<Conn> = (0..conns)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let tracer = Tracer::wall();
    let mut traced_mirror = Mirror::default();
    let mut plain_mirror = Mirror::default();

    let mut report = Report::default();
    let mut layer_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut rtt_ms, mut cli_ms, mut production_ms) = (0.0, 0.0, 0.0);
    let (mut traced_ms, mut plain_ms, mut residual_ms) = (0.0, 0.0, 0.0);
    let (mut hits, mut lookups, mut errors) = (0, 0, 0);
    let mut before = daemon_stats(&mut conns[0])?;

    for (i, (conn, req)) in requests.iter().enumerate() {
        let expect = expectation(&req.expect, opts);

        // Through the daemon, then its counters.
        let (frame, rtt) = conns[*conn]
            .call_line(&wire(&req.payload))
            .map_err(|e| format!("transport: {e}"))?;
        rtt_ms += ms(rtt);
        let mut result =
            verdict::from_frame(&frame, &req.payload).and_then(|got| expect.verify(&got));
        let after = daemon_stats(&mut conns[*conn])?;
        let (d_lookups, d_hits) = (after.0 - before.0, after.1 - before.1);
        lookups += d_lookups;
        hits += d_hits;
        errors += after.2 - before.2;
        before = after;

        // Through a fresh CLI process.
        let (args, dir) = cli_input(&req.payload, &env.work)?;
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let run = run_cli(&env.bin, &args, watchdog).map_err(|e| e.to_string())?;
        cli_ms += ms(run.wall);
        let cli = cli_outcome(&run, &req.payload, &dir).and_then(|got| expect.verify(&got));

        // In-process: the production entry point, uncached.
        let started = Instant::now();
        let production = layers::production(&req.payload);
        production_ms += ms(started.elapsed());
        let production = production.and_then(|got| expect.verify(&got));

        // In-process replay mirroring the daemon's cache, untraced.
        let started = Instant::now();
        let mut rec = Recorder::begin(None, i);
        let plain = layers::replay(&req.payload, &mut plain_mirror, &mut rec);
        let (_, plain_counts) = rec.finish();
        plain_ms += ms(started.elapsed());
        let predicted = (
            plain_counts
                .get("predicted.cache_lookups")
                .copied()
                .unwrap_or(0),
            plain_counts
                .get("predicted.cache_hits")
                .copied()
                .unwrap_or(0),
        );
        let plain = plain.and_then(|got| expect.verify(&got)).and_then(|()| {
            if predicted == (d_lookups, d_hits) {
                Ok(())
            } else {
                Err(format!(
                    "cache mirror predicted (lookups, hits) {predicted:?}, daemon did {:?}",
                    (d_lookups, d_hits)
                ))
            }
        });

        // The same replay, every layer call in its own span.
        let started = Instant::now();
        let mut rec = Recorder::begin(Some(&tracer), i);
        let replayed = layers::replay(&req.payload, &mut traced_mirror, &mut rec);
        let (request_layers, request_counts) = rec.finish();
        let wall = started.elapsed();
        let layer_sum: Duration = request_layers.values().sum();
        traced_ms += ms(wall);
        residual_ms += ms(wall.saturating_sub(layer_sum));
        for (layer, t) in request_layers {
            *layer_ms.entry(layer).or_default() += ms(t);
        }
        for (name, v) in request_counts {
            *counts.entry(name).or_default() += v;
        }
        let replayed = replayed.and_then(|got| expect.verify(&got));

        for check in [cli, production, plain, replayed] {
            result = result.and(check);
        }
        report.record(result.map_err(|e| format!("request {i} ({}): {e}", req.class)));
    }
    let queue_wait_us = before.3;
    drop(conns);
    daemon.shutdown().map_err(|e| format!("daemon: {e}"))?;

    let n = requests.len().max(1) as f64;
    for layer in LAYERS {
        report.metric(
            &format!("{layer}_ms"),
            layer_ms.get(layer).copied().unwrap_or(0.0) / n,
            "ms",
        );
    }
    for counter in COUNTERS.iter().filter(|c| !c.starts_with("predicted.")) {
        let total = counts.get(counter).copied().unwrap_or(0);
        report.metric(counter, total as f64 / n, "count");
    }
    report.metric("service.overhead_ms", (rtt_ms - plain_ms) / n, "ms");
    report.metric(
        "service.queue_wait_ms",
        queue_wait_us as f64 / 1000.0 / n,
        "ms",
    );
    report.metric("service.cache_hits", hits as f64 / n, "count");
    report.metric("service.cache_lookups", lookups as f64 / n, "count");
    report.metric("service.errors", errors as f64 / n, "count");
    report.metric("cli.overhead_ms", (cli_ms - production_ms) / n, "ms");
    report.metric("residual_ms", residual_ms / n, "ms");
    report.metric(
        "trace_overhead_pct",
        (traced_ms - plain_ms) / plain_ms * 100.0,
        "%",
    );

    // Rank the layers on this workload's own path: the CLI process for
    // board_check, the daemon for the others.
    let transport = if workload == Workload::BoardCheck {
        ("cli.overhead", (cli_ms - production_ms) / n)
    } else {
        ("service.overhead", (rtt_ms - plain_ms) / n)
    };
    let mut ranked: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|l| (*l, layer_ms.get(l).copied().unwrap_or(0.0) / n))
        .chain([transport])
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = ranked
        .iter()
        .take(4)
        .map(|(l, v)| format!("{l} {v:.3} ms"))
        .collect();
    report.notes.push(format!(
        "{} requests replayed; in-process {:.3} ms/request, residual {:.1} % of it; top layers: {}",
        requests.len(),
        traced_ms / n,
        residual_ms / traced_ms * 100.0,
        top.join(", ")
    ));
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write(
            &dir.join(format!("{}.trace.json", workload.name())),
            &tracer.chrome_trace(),
        )?;
    }
    Ok(report)
}
