//! `llhsc-bench` — the machine-readable perf harness.
//!
//! It answers "what does a run cost?" in a form the perf trajectory
//! can store: `--json` writes
//! `BENCH_pipeline.json`, one entry per scenario with wall time and the
//! run's fresh solver work (the same counters `llhsc check --stats`
//! and the daemon `stats` op report). The schema is documented in
//! EXPERIMENTS.md ("Machine-readable results").
//!
//! ```text
//! llhsc-bench                 print a human-readable table
//! llhsc-bench --json [FILE]   also write FILE (default BENCH_pipeline.json)
//! llhsc-bench --runs N        timed iterations per scenario (default 5)
//! llhsc-bench compare FILE..  re-run each baseline's suite and fail on
//!                             counter drift or wall-time regressions
//! ```

use std::process::ExitCode;
use std::time::Instant;

use llhsc::family::{CheckMode, FamilyChecker, FamilyReport};
use llhsc::{CertStats, CheckOptions, Pipeline, SemanticChecker, SolverStats};
use llhsc_bench::{family_board, synthetic_board, synthetic_vm_board};
use llhsc_schema::{SchemaSet, SyntacticChecker};
use llhsc_service::cache::ServiceCache;
use llhsc_service::{check_tree, solver_json, Json};
use llhsc_smt::SolverSession;

/// Layout version of `BENCH_pipeline.json`. Bump on breaking changes.
const BENCH_SCHEMA_VERSION: u64 = 1;

const DEFAULT_RUNS: usize = 5;

/// One measured scenario: per-run wall times plus the fresh solver
/// work of a single run (identical across runs — the workloads are
/// deterministic).
struct Measurement {
    name: &'static str,
    wall_us: Vec<u64>,
    solver: SolverStats,
}

impl Measurement {
    /// Times `runs` executions of `work`, which returns the run's
    /// fresh solver work. One untimed warmup execution precedes the
    /// timed loop, so first-run noise (allocator growth, page faults,
    /// lazily built fixtures) never lands in a sample.
    fn time(name: &'static str, runs: usize, mut work: impl FnMut() -> SolverStats) -> Measurement {
        work();
        let mut wall_us = Vec::with_capacity(runs);
        let mut solver = SolverStats::default();
        for _ in 0..runs {
            let started = Instant::now();
            solver = work();
            wall_us.push(started.elapsed().as_micros() as u64);
        }
        Measurement {
            name,
            wall_us,
            solver,
        }
    }

    fn min_us(&self) -> u64 {
        self.wall_us.iter().copied().min().unwrap_or(0)
    }

    fn mean_us(&self) -> u64 {
        if self.wall_us.is_empty() {
            0
        } else {
            self.wall_us.iter().sum::<u64>() / self.wall_us.len() as u64
        }
    }

    fn median_us(&self) -> u64 {
        median(&self.wall_us)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.into()),
            ("runs", (self.wall_us.len() as u64).into()),
            (
                "wall_us",
                Json::obj([
                    ("mean", self.mean_us().into()),
                    ("median", self.median_us().into()),
                    ("min", self.min_us().into()),
                    (
                        "samples",
                        Json::Arr(self.wall_us.iter().map(|&us| us.into()).collect()),
                    ),
                ]),
            ),
            ("solver", solver_json(&self.solver)),
        ])
    }
}

/// The median of a sample set: the middle value, or the mean of the
/// two middle values for even counts. Robust to the occasional
/// scheduler hiccup that skews the mean.
fn median(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2
    } else {
        sorted[mid]
    }
}

fn scenarios(runs: usize) -> Vec<Measurement> {
    let quad = llhsc::quadcore::pipeline_input();
    let running = llhsc::running_example::pipeline_input();
    let board = llhsc_dts::parse(&synthetic_board(100)).expect("synthetic board parses");
    vec![
        // The full Fig. 2 workflow on the paper's §V quad-core example,
        // solved from scratch every run.
        Measurement::time("quadcore_build_cold", runs, || {
            Pipeline::new()
                .run(&quad)
                .expect("quadcore builds")
                .solver_stats
        }),
        // Same workflow against a warm content-addressed cache: every
        // solver-bearing stage replays, so fresh work must be zero.
        Measurement::time("quadcore_build_warm", runs, {
            let cache = ServiceCache::new();
            Pipeline::new()
                .run_cached(&quad, Some(&cache))
                .expect("warm-up builds");
            move || {
                Pipeline::new()
                    .run_cached(&quad, Some(&cache))
                    .expect("quadcore builds")
                    .solver_stats
            }
        }),
        // The two-VM running example end to end.
        Measurement::time("running_example_build", runs, || {
            Pipeline::new()
                .run(&running)
                .expect("running example builds")
                .solver_stats
        }),
        // Single-tree checking at board scale: 100 devices, clean.
        Measurement::time("synthetic_board_check_100", runs, || {
            check_tree(&board).solver
        }),
    ]
}

/// How many VM variants of each board the scale suite checks.
const SCALE_VMS: usize = 4;

/// Default board sizes (device counts) of the scale suite.
const SCALE_SIZES: &[usize] = &[64, 128, 256, 512];

/// Cost counters of one checking mode (fresh contexts vs one shared
/// session) over all `SCALE_VMS` trees of a scale scenario.
#[derive(Default)]
struct ModeCost {
    wall_us: Vec<u64>,
    solves: u64,
    terms_encoded: u64,
    terms_reused: u64,
    asserts_encoded: u64,
    asserts_reused: u64,
    alloc_vars: u64,
    alloc_clauses: u64,
    alloc_arena_lits: u64,
    /// DRAT certification counters (all zero unless `--certify`).
    cert: CertStats,
}

impl ModeCost {
    fn min_us(&self) -> u64 {
        self.wall_us.iter().copied().min().unwrap_or(0)
    }

    fn mean_us(&self) -> u64 {
        if self.wall_us.is_empty() {
            0
        } else {
            self.wall_us.iter().sum::<u64>() / self.wall_us.len() as u64
        }
    }

    fn median_us(&self) -> u64 {
        median(&self.wall_us)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "wall_us",
                Json::obj([
                    ("mean", self.mean_us().into()),
                    ("median", self.median_us().into()),
                    ("min", self.min_us().into()),
                ]),
            ),
            ("solves", self.solves.into()),
            ("terms_encoded", self.terms_encoded.into()),
            ("terms_reused", self.terms_reused.into()),
            ("asserts_encoded", self.asserts_encoded.into()),
            ("asserts_reused", self.asserts_reused.into()),
            (
                "alloc",
                Json::obj([
                    ("vars", self.alloc_vars.into()),
                    ("clauses", self.alloc_clauses.into()),
                    ("arena_lits", self.alloc_arena_lits.into()),
                ]),
            ),
        ])
    }

    /// [`ModeCost::to_json`] plus a `proof` object when the mode ran
    /// certified; the uncertified document shape is unchanged.
    fn to_json_certified(&self) -> Json {
        let mut doc = self.to_json();
        if self.cert.proofs > 0 {
            if let Json::Obj(map) = &mut doc {
                map.insert(
                    "proof".to_string(),
                    Json::obj([
                        ("proofs", self.cert.proofs.into()),
                        ("steps", self.cert.steps.into()),
                        ("checked", self.cert.checked.into()),
                    ]),
                );
            }
        }
        doc
    }
}

/// The verdicts of one mode, used to assert fresh/session equivalence.
type Verdicts = Vec<(usize, usize)>;

/// Checks every VM tree with a fresh syntactic and semantic checker
/// (fresh solver contexts throughout) — the pre-session baseline.
fn scale_fresh(
    trees: &[llhsc_dts::DeviceTree],
    schemas: &SchemaSet,
    options: &CheckOptions,
) -> (ModeCost, Verdicts) {
    let mut cost = ModeCost::default();
    let mut verdicts = Vec::new();
    for tree in trees {
        let mut syn =
            SyntacticChecker::with_session(tree, schemas, SolverSession::with_options(options));
        let report = syn.check();
        cost.solves += syn.solver_stats().solves;
        cost.cert.merge(&syn.cert_stats());
        let session = syn.into_session();
        let (hits, misses) = session.ctx().encode_counts();
        cost.terms_encoded += misses;
        cost.terms_reused += hits;
        let alloc = session.ctx().alloc_stats();
        cost.alloc_vars += alloc.vars;
        cost.alloc_clauses += alloc.clauses;
        cost.alloc_arena_lits += alloc.arena_lits;
        let stats = session.stats();
        cost.asserts_encoded += stats.asserts_encoded;
        cost.asserts_reused += stats.asserts_reused;

        let mut sem = SemanticChecker::with_options(options);
        let (sem_report, _) = sem
            .check_tree_with_stats(tree)
            .expect("board is interpretable");
        cost.solves += sem.session_stats().checks;
        cost.cert.merge(&sem.cert_stats());
        let (hits, misses) = sem.encode_counts();
        cost.terms_encoded += misses;
        cost.terms_reused += hits;
        let alloc = sem.alloc_stats();
        cost.alloc_vars += alloc.vars;
        cost.alloc_clauses += alloc.clauses;
        cost.alloc_arena_lits += alloc.arena_lits;
        let stats = sem.session_stats();
        cost.asserts_encoded += stats.asserts_encoded;
        cost.asserts_reused += stats.asserts_reused;
        verdicts.push((report.violations.len(), sem_report.collisions.len()));
    }
    (cost, verdicts)
}

/// Checks every VM tree through one shared syntactic session and one
/// persistent semantic checker: later trees re-activate the slices and
/// learnt clauses of earlier ones.
fn scale_session(
    trees: &[llhsc_dts::DeviceTree],
    schemas: &SchemaSet,
    options: &CheckOptions,
) -> (ModeCost, Verdicts) {
    let mut cost = ModeCost::default();
    let mut verdicts = Vec::new();
    let mut session = SolverSession::with_options(options);
    let mut sem = SemanticChecker::with_options(options);
    for tree in trees {
        let mut syn = SyntacticChecker::with_session(tree, schemas, session);
        let report = syn.check();
        session = syn.into_session();
        let (sem_report, _) = sem
            .check_tree_with_stats(tree)
            .expect("board is interpretable");
        verdicts.push((report.violations.len(), sem_report.collisions.len()));
    }
    cost.solves = session.ctx().solver_stats().solves + sem.session_stats().checks;
    let (hits, misses) = session.ctx().encode_counts();
    cost.terms_encoded += misses;
    cost.terms_reused += hits;
    let alloc = session.ctx().alloc_stats();
    cost.alloc_vars += alloc.vars;
    cost.alloc_clauses += alloc.clauses;
    cost.alloc_arena_lits += alloc.arena_lits;
    let (hits, misses) = sem.encode_counts();
    cost.terms_encoded += misses;
    cost.terms_reused += hits;
    let alloc = sem.alloc_stats();
    cost.alloc_vars += alloc.vars;
    cost.alloc_clauses += alloc.clauses;
    cost.alloc_arena_lits += alloc.arena_lits;
    let mut stats = session.stats();
    stats.merge(&sem.session_stats());
    cost.asserts_encoded = stats.asserts_encoded;
    cost.asserts_reused = stats.asserts_reused;
    cost.cert.merge(&session.cert_stats());
    cost.cert.merge(&sem.cert_stats());
    (cost, verdicts)
}

/// One scale scenario: `devices` × `SCALE_VMS` VM boards, fresh
/// contexts vs a shared session, behaviorally equivalent by assertion.
struct ScaleMeasurement {
    devices: usize,
    fresh: ModeCost,
    session: ModeCost,
}

impl ScaleMeasurement {
    fn run(devices: usize, runs: usize, options: &CheckOptions) -> ScaleMeasurement {
        let schemas = SchemaSet::standard();
        let trees: Vec<llhsc_dts::DeviceTree> = (0..SCALE_VMS)
            .map(|vm| llhsc_dts::parse(&synthetic_vm_board(devices, vm)).expect("vm board parses"))
            .collect();
        // Untimed warmup pass of both modes: first-touch costs (page
        // faults, allocator growth) stay out of every sample.
        scale_fresh(&trees, &schemas, options);
        scale_session(&trees, &schemas, options);
        let mut fresh = ModeCost::default();
        let mut session = ModeCost::default();
        for _ in 0..runs {
            let started = Instant::now();
            let (mut cost, fresh_verdicts) = scale_fresh(&trees, &schemas, options);
            cost.wall_us.push(started.elapsed().as_micros() as u64);
            cost.wall_us.append(&mut fresh.wall_us);
            fresh = cost;

            let started = Instant::now();
            let (mut cost, session_verdicts) = scale_session(&trees, &schemas, options);
            cost.wall_us.push(started.elapsed().as_micros() as u64);
            cost.wall_us.append(&mut session.wall_us);
            session = cost;

            assert_eq!(
                fresh_verdicts, session_verdicts,
                "session reuse changed a verdict at N={devices}"
            );
        }
        ScaleMeasurement {
            devices,
            fresh,
            session,
        }
    }

    /// `min(fresh) / min(session)` in thousandths (integer JSON).
    fn speedup_x1000(&self) -> u64 {
        (self.fresh.min_us() * 1000)
            .checked_div(self.session.min_us())
            .unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", format!("scale_n{}", self.devices).as_str().into()),
            ("devices", (self.devices as u64).into()),
            ("vms", (SCALE_VMS as u64).into()),
            ("runs", (self.fresh.wall_us.len() as u64).into()),
            ("fresh", self.fresh.to_json_certified()),
            ("session", self.session.to_json_certified()),
            ("speedup_x1000", self.speedup_x1000().into()),
        ])
    }
}

// ---- the family-checking suite (`scale --family`) ------------------

/// Default feature counts of the family suite: 2^(k+1) products each,
/// so enumeration walks 8..512 products while lifting stays flat.
const FAMILY_SIZES: &[usize] = &[2, 4, 6, 8];

/// Cost counters of one family-checking mode over one fixture run.
/// Everything but the wall times is deterministic, so `compare` gates
/// on it exactly.
#[derive(Default)]
struct FamilyCost {
    wall_us: Vec<u64>,
    obligations_lifted: u64,
    family_solves: u64,
    witnesses_extracted: u64,
    products_checked: u64,
    solves: u64,
}

impl FamilyCost {
    fn record(&mut self, report: &FamilyReport) {
        self.obligations_lifted = report.stats.obligations_lifted;
        self.family_solves = report.stats.family_solves;
        self.witnesses_extracted = report.stats.witnesses_extracted;
        self.products_checked = report.stats.products_checked;
        self.solves = report.stats.solver.solves;
    }

    fn min_us(&self) -> u64 {
        self.wall_us.iter().copied().min().unwrap_or(0)
    }

    fn mean_us(&self) -> u64 {
        if self.wall_us.is_empty() {
            0
        } else {
            self.wall_us.iter().sum::<u64>() / self.wall_us.len() as u64
        }
    }

    fn median_us(&self) -> u64 {
        median(&self.wall_us)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "wall_us",
                Json::obj([
                    ("mean", self.mean_us().into()),
                    ("median", self.median_us().into()),
                    ("min", self.min_us().into()),
                ]),
            ),
            ("obligations_lifted", self.obligations_lifted.into()),
            ("family_solves", self.family_solves.into()),
            ("witnesses_extracted", self.witnesses_extracted.into()),
            ("products_checked", self.products_checked.into()),
            ("solves", self.solves.into()),
        ])
    }
}

/// One family scenario: the [`family_board`] fixture at `features`
/// optional features, checked lifted and enumerated. Every run asserts
/// verdict identity between the modes *before* any result is written —
/// a lifting bug fails the bench instead of producing a fast wrong
/// baseline.
struct FamilyMeasurement {
    features: usize,
    products: u64,
    family: FamilyCost,
    enumerate: FamilyCost,
}

impl FamilyMeasurement {
    fn run(features: usize, runs: usize) -> FamilyMeasurement {
        let input = family_board(features);
        let check = |mode: CheckMode| {
            FamilyChecker::new()
                .check(&input, mode)
                .expect("family fixture is checkable")
        };
        // Untimed warmup of both modes, as everywhere else.
        check(CheckMode::Family);
        check(CheckMode::Enumerate);
        let mut measurement = FamilyMeasurement {
            features,
            products: 0,
            family: FamilyCost::default(),
            enumerate: FamilyCost::default(),
        };
        for _ in 0..runs {
            let started = Instant::now();
            let lifted = check(CheckMode::Family);
            measurement
                .family
                .wall_us
                .push(started.elapsed().as_micros() as u64);

            let started = Instant::now();
            let enumerated = check(CheckMode::Enumerate);
            measurement
                .enumerate
                .wall_us
                .push(started.elapsed().as_micros() as u64);

            assert!(
                lifted.lifted,
                "family fixture at k={features} fell back to enumeration: {:?}",
                lifted.fallback
            );
            llhsc::family::assert_verdict_identity(&lifted, &enumerated);
            measurement.products = lifted.products;
            measurement.family.record(&lifted);
            measurement.enumerate.record(&enumerated);
        }
        measurement
    }

    /// `min(enumerate) / min(family)` in thousandths (integer JSON).
    fn speedup_x1000(&self) -> u64 {
        (self.enumerate.min_us() * 1000)
            .checked_div(self.family.min_us())
            .unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", format!("family_k{}", self.features).as_str().into()),
            ("features", (self.features as u64).into()),
            ("products", self.products.into()),
            ("runs", (self.family.wall_us.len() as u64).into()),
            ("family", self.family.to_json()),
            ("enumerate", self.enumerate.to_json()),
            ("speedup_x1000", self.speedup_x1000().into()),
        ])
    }
}

fn render_scale_json(results: &[ScaleMeasurement], family: &[FamilyMeasurement]) -> String {
    let mut scenarios: Vec<Json> = results.iter().map(ScaleMeasurement::to_json).collect();
    scenarios.extend(family.iter().map(FamilyMeasurement::to_json));
    let doc = Json::obj([
        ("schema_version", BENCH_SCHEMA_VERSION.into()),
        ("kind", "bench".into()),
        ("suite", "scale".into()),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

fn render_json(results: &[Measurement]) -> String {
    let doc = Json::obj([
        ("schema_version", BENCH_SCHEMA_VERSION.into()),
        ("kind", "bench".into()),
        ("suite", "pipeline".into()),
        (
            "scenarios",
            Json::Arr(results.iter().map(Measurement::to_json).collect()),
        ),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

fn usage() -> ExitCode {
    eprintln!(
        "llhsc-bench — measured pipeline scenarios\n\
         \n\
         usage:\n\
           llhsc-bench [--runs N] [--json [FILE]]\n\
           llhsc-bench scale [--runs N] [--sizes N1,N2,..] [--certify]\n\
                             [--family] [--json [FILE]]\n\
           llhsc-bench count [--runs N] [--json [FILE]]\n\
           llhsc-bench compare [--runs N] [--tolerance-pct P] [--skip-wall]\n\
                               <baseline.json>..\n\
         \n\
         --runs N      timed iterations per scenario (default {DEFAULT_RUNS})\n\
         --sizes LIST  scale-suite board sizes (default 64,128,256,512)\n\
         --certify     run the scale suite over certifying sessions: every\n\
                       UNSAT verdict's DRAT proof is replayed through the\n\
                       in-tree checker inside the timed region\n\
         --family      also run the family-checking scenarios: one lifted\n\
                       solve vs product-by-product enumeration over a\n\
                       2^(k+1)-product line, verdict identity asserted\n\
                       in-process before any result is written\n\
         --json FILE   write machine-readable results\n\
                       (default BENCH_pipeline.json / BENCH_scale.json /\n\
                        BENCH_count.json)\n\
         \n\
         compare       re-run each baseline file's suite and diff the\n\
                       results: every counter must match exactly, wall\n\
                       medians must stay within --tolerance-pct (default\n\
                       {COMPARE_TOLERANCE_PCT}%, plus a {COMPARE_WALL_FLOOR_US} µs noise floor);\n\
                       --skip-wall gates on counters only. Exit 1 on drift."
    );
    ExitCode::FAILURE
}

// ---- the regression gate (`compare`) -------------------------------

/// Default relative wall-time tolerance of `compare`, in percent.
const COMPARE_TOLERANCE_PCT: u64 = 50;

/// Absolute wall-time slack of `compare`: drift below this many µs
/// never fails the gate, however small the baseline. Tiny scenarios
/// are pure scheduler noise.
const COMPARE_WALL_FLOOR_US: u64 = 2_000;

/// Keys `compare` ignores everywhere: run counts differ freely between
/// the baseline capture and the gate run, per-run samples with them,
/// and the speedup ratio is derived from the walls it already checks.
const COMPARE_IGNORED_KEYS: &[&str] = &["runs", "samples", "speedup_x1000"];

/// Recursively diffs a re-run result against the baseline. Counters
/// (every number outside a `wall_us` object) must match exactly;
/// `wall_us` objects compare median (falling back to mean) within the
/// tolerance; [`COMPARE_IGNORED_KEYS`] are skipped. Appends one line
/// per divergence to `problems`.
fn diff_json(
    path: &str,
    base: &Json,
    current: &Json,
    tolerance_pct: u64,
    skip_wall: bool,
    problems: &mut Vec<String>,
) {
    match (base, current) {
        (Json::Obj(b), Json::Obj(c)) => {
            let keys: std::collections::BTreeSet<&String> = b.keys().chain(c.keys()).collect();
            for key in keys {
                if COMPARE_IGNORED_KEYS.contains(&key.as_str()) {
                    continue;
                }
                let sub = format!("{path}.{key}");
                match (b.get(key), c.get(key)) {
                    (Some(bv), Some(cv)) if key == "wall_us" => {
                        if !skip_wall {
                            diff_wall(&sub, bv, cv, tolerance_pct, problems);
                        }
                    }
                    (Some(bv), Some(cv)) => {
                        diff_json(&sub, bv, cv, tolerance_pct, skip_wall, problems)
                    }
                    (Some(_), None) => problems.push(format!("{sub}: missing from the re-run")),
                    (None, Some(_)) => problems.push(format!("{sub}: not in the baseline")),
                    (None, None) => unreachable!("key came from one of the maps"),
                }
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                problems.push(format!(
                    "{path}: length changed from {} to {}",
                    b.len(),
                    c.len()
                ));
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                diff_json(
                    &format!("{path}[{i}]"),
                    bv,
                    cv,
                    tolerance_pct,
                    skip_wall,
                    problems,
                );
            }
        }
        _ if base == current => {}
        _ => problems.push(format!("{path}: baseline {base}, re-run {current}")),
    }
}

/// The wall-time leg of the gate: median-if-present-else-mean, within
/// `tolerance_pct` percent of the baseline or [`COMPARE_WALL_FLOOR_US`],
/// whichever is larger. Only slowdowns fail — getting faster is fine.
fn diff_wall(
    path: &str,
    base: &Json,
    current: &Json,
    tolerance_pct: u64,
    problems: &mut Vec<String>,
) {
    let central = |v: &Json| {
        v.get("median")
            .or_else(|| v.get("mean"))
            .and_then(Json::as_int)
            .map(|us| us.max(0) as u64)
    };
    let (Some(base_us), Some(current_us)) = (central(base), central(current)) else {
        problems.push(format!("{path}: no median or mean to compare"));
        return;
    };
    let allowed = base_us + (base_us * tolerance_pct / 100).max(COMPARE_WALL_FLOOR_US);
    if current_us > allowed {
        problems.push(format!(
            "{path}: {current_us} µs exceeds {allowed} µs \
             (baseline {base_us} µs + {tolerance_pct}% tolerance)"
        ));
    }
}

/// Scenario arrays compare by name, not position, so reordering a
/// baseline file is not a regression; added/removed scenarios are.
fn diff_scenarios(
    base: &Json,
    current: &Json,
    tolerance_pct: u64,
    skip_wall: bool,
    problems: &mut Vec<String>,
) {
    let list = |doc: &Json| -> Vec<(String, Json)> {
        doc.get("scenarios")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
                (name.to_string(), s.clone())
            })
            .collect()
    };
    let base_scenarios = list(base);
    let current_scenarios = list(current);
    for (name, b) in &base_scenarios {
        match current_scenarios.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("scenario {name}: missing from the re-run")),
            Some((_, c)) => diff_json(name, b, c, tolerance_pct, skip_wall, problems),
        }
    }
    for (name, _) in &current_scenarios {
        if !base_scenarios.iter().any(|(n, _)| n == name) {
            problems.push(format!("scenario {name}: not in the baseline"));
        }
    }
    for key in ["schema_version", "kind", "suite"] {
        if base.get(key) != current.get(key) {
            problems.push(format!(
                "{key}: baseline {:?}, re-run {:?}",
                base.get(key),
                current.get(key)
            ));
        }
    }
}

/// Re-runs the suite a baseline document describes and renders the
/// fresh result through the same writer that produced the baseline.
/// `Err` is a malformed baseline, not a regression.
fn rerun_suite(baseline: &Json, runs: usize) -> Result<String, String> {
    match baseline.get("suite").and_then(Json::as_str) {
        Some("pipeline") => Ok(render_json(&scenarios(runs))),
        Some("scale") => {
            let scenario_list = baseline
                .get("scenarios")
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            // Device-scale rows carry `devices`; family rows carry
            // `features` instead. Replay each kind with its own runner.
            let sizes: Vec<usize> = scenario_list
                .iter()
                .filter(|s| s.get("features").is_none())
                .filter_map(|s| s.get("devices").and_then(Json::as_int))
                .map(|n| n.max(0) as usize)
                .collect();
            let family_sizes: Vec<usize> = scenario_list
                .iter()
                .filter_map(|s| s.get("features").and_then(Json::as_int))
                .map(|n| n.max(0) as usize)
                .collect();
            if sizes.is_empty() && family_sizes.is_empty() {
                return Err("scale baseline names no board sizes".to_string());
            }
            // A baseline captured with --certify carries `proof`
            // objects; replay it the same way so the counters line up.
            let options = CheckOptions {
                certify: scenario_list
                    .iter()
                    .any(|s| s.get("fresh").is_some_and(|f| f.get("proof").is_some())),
                ..CheckOptions::default()
            };
            let results: Vec<ScaleMeasurement> = sizes
                .iter()
                .map(|&n| ScaleMeasurement::run(n, runs, &options))
                .collect();
            let family: Vec<FamilyMeasurement> = family_sizes
                .iter()
                .map(|&k| FamilyMeasurement::run(k, runs))
                .collect();
            Ok(render_scale_json(&results, &family))
        }
        Some("count") => Ok(render_count_json(&count_scenarios(runs))),
        Some(other) => Err(format!("unknown suite {other:?}")),
        None => Err("baseline has no \"suite\" field".to_string()),
    }
}

/// The `compare` subcommand: the perf regression gate. Re-runs every
/// baseline file's suite on this machine and diffs the documents —
/// deterministic counters exactly, wall medians within tolerance.
fn cmd_compare(mut args: Vec<String>) -> ExitCode {
    let mut runs = DEFAULT_RUNS;
    let mut tolerance_pct = COMPARE_TOLERANCE_PCT;
    let mut skip_wall = false;
    let mut paths: Vec<String> = Vec::new();
    while let Some(arg) = args.first().cloned() {
        match arg.as_str() {
            "--runs" if args.len() >= 2 => {
                let Ok(n) = args[1].parse::<usize>() else {
                    return usage();
                };
                runs = n.max(1);
                args.drain(..2);
            }
            "--tolerance-pct" if args.len() >= 2 => {
                let Ok(p) = args[1].parse::<u64>() else {
                    return usage();
                };
                tolerance_pct = p;
                args.drain(..2);
            }
            "--skip-wall" => {
                skip_wall = true;
                args.remove(0);
            }
            other if !other.starts_with("--") => {
                paths.push(args.remove(0));
            }
            _ => return usage(),
        }
    }
    if paths.is_empty() {
        return usage();
    }
    let mut regressed = false;
    for path in &paths {
        let baseline = match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let suite = baseline
            .get("suite")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let current = match rerun_suite(&baseline, runs) {
            Ok(text) => Json::parse(&text).expect("our own writer emits valid JSON"),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut problems = Vec::new();
        diff_scenarios(&baseline, &current, tolerance_pct, skip_wall, &mut problems);
        if problems.is_empty() {
            println!("ok: {path} ({suite} suite) matches the re-run");
        } else {
            regressed = true;
            println!(
                "REGRESSION: {path} ({suite} suite), {} divergence(s):",
                problems.len()
            );
            for p in &problems {
                println!("  {p}");
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `scale` subcommand: N devices × M VMs, session reuse vs fresh
/// contexts, writing `BENCH_scale.json` with `--json`.
fn cmd_scale(mut args: Vec<String>) -> ExitCode {
    let mut runs = DEFAULT_RUNS;
    let mut sizes: Vec<usize> = SCALE_SIZES.to_vec();
    let mut json_path: Option<String> = None;
    let mut options = CheckOptions::default();
    let mut family = false;
    while let Some(arg) = args.first().cloned() {
        match arg.as_str() {
            "--certify" => {
                options.certify = true;
                args.remove(0);
            }
            "--family" => {
                family = true;
                args.remove(0);
            }
            "--runs" if args.len() >= 2 => {
                let Ok(n) = args[1].parse::<usize>() else {
                    return usage();
                };
                runs = n.max(1);
                args.drain(..2);
            }
            "--sizes" if args.len() >= 2 => {
                let parsed: Result<Vec<usize>, _> =
                    args[1].split(',').map(str::parse::<usize>).collect();
                let Ok(list) = parsed else {
                    return usage();
                };
                if list.is_empty() {
                    return usage();
                }
                sizes = list;
                args.drain(..2);
            }
            "--json" => {
                args.remove(0);
                json_path = Some(match args.first() {
                    Some(next) if !next.starts_with("--") => args.remove(0),
                    _ => "BENCH_scale.json".to_string(),
                });
            }
            _ => return usage(),
        }
    }
    let results: Vec<ScaleMeasurement> = sizes
        .iter()
        .map(|&n| ScaleMeasurement::run(n, runs, &options))
        .collect();
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>13} {:>13} {:>8}",
        "scenario", "fresh µs", "session µs", "speedup", "fresh terms", "sess terms", "reused"
    );
    for m in &results {
        println!(
            "scale_n{:<7} {:>12} {:>12} {:>8.2}x {:>13} {:>13} {:>8}",
            m.devices,
            m.fresh.min_us(),
            m.session.min_us(),
            m.speedup_x1000() as f64 / 1000.0,
            m.fresh.terms_encoded,
            m.session.terms_encoded,
            m.session.terms_reused,
        );
        if options.certify {
            println!(
                "  certified: fresh {} proofs/{} checked, session {} proofs/{} checked",
                m.fresh.cert.proofs,
                m.fresh.cert.checked,
                m.session.cert.proofs,
                m.session.cert.checked,
            );
        }
    }
    let family_results: Vec<FamilyMeasurement> = if family {
        FAMILY_SIZES
            .iter()
            .map(|&k| FamilyMeasurement::run(k, runs))
            .collect()
    } else {
        Vec::new()
    };
    if family {
        println!(
            "\n{:<14} {:>9} {:>11} {:>14} {:>13} {:>12} {:>8}",
            "scenario",
            "products",
            "family µs",
            "enumerate µs",
            "family slv",
            "enum slv",
            "speedup"
        );
        for m in &family_results {
            println!(
                "family_k{:<6} {:>9} {:>11} {:>14} {:>13} {:>12} {:>7.2}x",
                m.features,
                m.products,
                m.family.min_us(),
                m.enumerate.min_us(),
                m.family.family_solves,
                m.enumerate.solves,
                m.speedup_x1000() as f64 / 1000.0,
            );
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_scale_json(&results, &family_results)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

// ---- configuration-space analytics suite ---------------------------

/// A synthetic feature model with an or-group of `n` optional
/// features: exactly `2^n - 1` products (at least one member chosen),
/// far past the exact-counting budget for `n ≥ 17`.
fn synthetic_feature_model(n: usize) -> String {
    let mut s = String::from("feature Synth {\n    base\n    opts or {\n");
    for i in 0..n {
        s.push_str(&format!("        f{i}?\n"));
    }
    s.push_str("    }\n}\n");
    s
}

/// One analytics scenario: per-run wall times plus the algorithm's own
/// outcome document (identical across runs — everything is seeded).
struct CountMeasurement {
    name: &'static str,
    wall_us: Vec<u64>,
    /// One-line table summary of the outcome.
    summary: String,
    result: Json,
}

impl CountMeasurement {
    fn time(
        name: &'static str,
        runs: usize,
        mut work: impl FnMut() -> (String, Json),
    ) -> CountMeasurement {
        work(); // untimed warmup, as in Measurement::time
        let mut wall_us = Vec::with_capacity(runs);
        let mut out = (String::new(), Json::Null);
        for _ in 0..runs {
            let started = Instant::now();
            out = work();
            wall_us.push(started.elapsed().as_micros() as u64);
        }
        CountMeasurement {
            name,
            wall_us,
            summary: out.0,
            result: out.1,
        }
    }

    fn min_us(&self) -> u64 {
        self.wall_us.iter().copied().min().unwrap_or(0)
    }

    fn mean_us(&self) -> u64 {
        if self.wall_us.is_empty() {
            0
        } else {
            self.wall_us.iter().sum::<u64>() / self.wall_us.len() as u64
        }
    }

    fn median_us(&self) -> u64 {
        median(&self.wall_us)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.into()),
            ("runs", (self.wall_us.len() as u64).into()),
            (
                "wall_us",
                Json::obj([
                    ("mean", self.mean_us().into()),
                    ("median", self.median_us().into()),
                    ("min", self.min_us().into()),
                ]),
            ),
            ("result", self.result.clone()),
        ])
    }
}

/// The count/sample scenarios: exact and approximate counting plus
/// diverse sampling, on the quad-core fixture (60 products, exactly
/// countable) and a 20-feature or-group (2^20 − 1 products, hash
/// territory). Every approximate result is asserted to land within the
/// estimator's `1 + ε` tolerance of the known true count — a run that
/// drifts outside the guarantee fails loudly instead of writing a
/// quietly wrong `BENCH_count.json`.
fn count_scenarios(runs: usize) -> Vec<CountMeasurement> {
    use llhsc_count::{approx_count, count_exact, sample_diverse, ApproxParams, SampleParams};

    let quad_model = llhsc_fm::parse_model(llhsc::quadcore::MODEL).expect("quadcore model parses");
    let quad = llhsc_fm::Analyzer::new(&quad_model).export_cnf();
    let synth_model =
        llhsc_fm::parse_model(&synthetic_feature_model(20)).expect("synthetic model parses");
    let synth = llhsc_fm::Analyzer::new(&synth_model).export_cnf();
    const SYNTH_TRUE: u64 = (1 << 20) - 1;

    let within = |estimate: u64, truth: u64, epsilon: f64| {
        let lo = (truth as f64 / (1.0 + epsilon)).floor() as u64;
        let hi = (truth as f64 * (1.0 + epsilon)).ceil() as u64;
        assert!(
            (lo..=hi).contains(&estimate),
            "estimate {estimate} outside [{lo}, {hi}] for true count {truth}"
        );
    };

    vec![
        CountMeasurement::time("quadcore_count_exact", runs, || {
            let c = count_exact(&quad.0, &quad.1, 1 << 16);
            assert!(c.exact, "quadcore fits the budget");
            assert_eq!(c.models, 60, "quadcore has 60 products");
            (
                format!("count {} (exact)", c.models),
                Json::obj([
                    ("models", c.models.into()),
                    ("exact", Json::Bool(c.exact)),
                    ("components", (c.components as u64).into()),
                    ("free_vars", (c.free_vars as u64).into()),
                    ("enumerated", c.enumerated.into()),
                    ("solves", c.solves.into()),
                ]),
            )
        }),
        CountMeasurement::time("quadcore_count_approx", runs, || {
            let p = ApproxParams::default();
            let a = approx_count(&quad.0, &quad.1, &p, None);
            within(a.estimate, 60, p.epsilon);
            (
                format!("count ~{} (below pivot {})", a.estimate, a.pivot),
                approx_json(&a),
            )
        }),
        CountMeasurement::time("synth20_count_approx", runs, || {
            let p = ApproxParams::default();
            let a = approx_count(&synth.0, &synth.1, &p, None);
            assert!(!a.exact, "2^20 - 1 models must take the hash path");
            within(a.estimate, SYNTH_TRUE, p.epsilon);
            (
                format!("count ~{} (true {SYNTH_TRUE})", a.estimate),
                approx_json(&a),
            )
        }),
        CountMeasurement::time("quadcore_sample_k10", runs, || {
            let s = sample_diverse(&quad.0, &quad.1, &SampleParams::new(10, 1), None);
            assert_eq!(s.models.len(), 10, "60-model space yields 10 samples");
            (
                format!("10 samples, min Hamming {}", s.min_hamming),
                sample_json(&s),
            )
        }),
        CountMeasurement::time("synth20_sample_k10", runs, || {
            let s = sample_diverse(&synth.0, &synth.1, &SampleParams::new(10, 1), None);
            assert_eq!(s.models.len(), 10, "hash path yields 10 samples");
            assert!(!s.exhaustive, "2^20 - 1 models exceed the exact cap");
            (
                format!("10 samples, min Hamming {}", s.min_hamming),
                sample_json(&s),
            )
        }),
    ]
}

fn approx_json(a: &llhsc_count::ApproxCount) -> Json {
    Json::obj([
        ("estimate", a.estimate.into()),
        ("exact", Json::Bool(a.exact)),
        ("pivot", a.pivot.into()),
        ("trials", u64::from(a.trials).into()),
        ("failed_trials", u64::from(a.failed_trials).into()),
        ("xor_constraints", a.xor_constraints.into()),
        ("solves", a.solves.into()),
        ("epsilon", format!("{}", a.epsilon).as_str().into()),
        ("delta", format!("{}", a.delta).as_str().into()),
    ])
}

fn sample_json(s: &llhsc_count::SampleSet) -> Json {
    Json::obj([
        ("returned", (s.models.len() as u64).into()),
        ("min_hamming", (s.min_hamming as u64).into()),
        ("exhaustive", Json::Bool(s.exhaustive)),
        ("xor_constraints", s.xor_constraints.into()),
        ("solves", s.solves.into()),
    ])
}

fn render_count_json(results: &[CountMeasurement]) -> String {
    let doc = Json::obj([
        ("schema_version", BENCH_SCHEMA_VERSION.into()),
        ("kind", "bench".into()),
        ("suite", "count".into()),
        (
            "scenarios",
            Json::Arr(results.iter().map(CountMeasurement::to_json).collect()),
        ),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

/// The `count` subcommand: model counting and sampling scenarios,
/// writing `BENCH_count.json` with `--json`.
fn cmd_count(mut args: Vec<String>) -> ExitCode {
    let mut runs = DEFAULT_RUNS;
    let mut json_path: Option<String> = None;
    while let Some(arg) = args.first().cloned() {
        match arg.as_str() {
            "--runs" if args.len() >= 2 => {
                let Ok(n) = args[1].parse::<usize>() else {
                    return usage();
                };
                runs = n.max(1);
                args.drain(..2);
            }
            "--json" => {
                args.remove(0);
                json_path = Some(match args.first() {
                    Some(next) if !next.starts_with("--") => args.remove(0),
                    _ => "BENCH_count.json".to_string(),
                });
            }
            _ => return usage(),
        }
    }
    let results = count_scenarios(runs);
    println!(
        "{:<24} {:>10} {:>10}  result",
        "scenario", "mean µs", "min µs"
    );
    for m in &results {
        println!(
            "{:<24} {:>10} {:>10}  {}",
            m.name,
            m.mean_us(),
            m.min_us(),
            m.summary
        );
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_count_json(&results)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("scale") {
        return cmd_scale(args[1..].to_vec());
    }
    if args.first().map(String::as_str) == Some("count") {
        return cmd_count(args[1..].to_vec());
    }
    if args.first().map(String::as_str) == Some("compare") {
        return cmd_compare(args[1..].to_vec());
    }
    let mut runs = DEFAULT_RUNS;
    let mut json_path: Option<String> = None;
    while let Some(arg) = args.first().cloned() {
        match arg.as_str() {
            "--runs" if args.len() >= 2 => {
                let Ok(n) = args[1].parse::<usize>() else {
                    return usage();
                };
                runs = n.max(1);
                args.drain(..2);
            }
            "--json" => {
                args.remove(0);
                json_path = Some(match args.first() {
                    Some(next) if !next.starts_with("--") => args.remove(0),
                    _ => "BENCH_pipeline.json".to_string(),
                });
            }
            _ => return usage(),
        }
    }

    let results = scenarios(runs);
    println!(
        "{:<28} {:>10} {:>10} {:>8} {:>10} {:>12}",
        "scenario", "mean µs", "min µs", "solves", "decisions", "propagations"
    );
    for m in &results {
        println!(
            "{:<28} {:>10} {:>10} {:>8} {:>10} {:>12}",
            m.name,
            m.mean_us(),
            m.min_us(),
            m.solver.solves,
            m.solver.decisions,
            m.solver.propagations
        );
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&results)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_doc_shape_is_stable() {
        let results = scenarios(1);
        let text = render_json(&results);
        let doc = Json::parse(&text).expect("bench doc parses");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_int),
            Some(BENCH_SCHEMA_VERSION as i64)
        );
        let arr = match doc.get("scenarios") {
            Some(Json::Arr(a)) => a,
            other => panic!("scenarios must be an array, got {other:?}"),
        };
        assert_eq!(arr.len(), 4);
        let by_name = |name: &str| {
            arr.iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("missing scenario {name}"))
        };
        let solves = |name: &str| {
            by_name(name)
                .get("solver")
                .and_then(|s| s.get("solves"))
                .and_then(Json::as_int)
                .expect("solver totals")
        };
        assert!(solves("quadcore_build_cold") > 0, "cold build must solve");
        assert_eq!(solves("quadcore_build_warm"), 0, "warm build replays");
        assert!(solves("synthetic_board_check_100") > 0);
    }

    /// Helper: diff two parsed documents the way `compare` does.
    fn diff(base: &str, current: &str, skip_wall: bool) -> Vec<String> {
        let mut problems = Vec::new();
        diff_scenarios(
            &Json::parse(base).unwrap(),
            &Json::parse(current).unwrap(),
            COMPARE_TOLERANCE_PCT,
            skip_wall,
            &mut problems,
        );
        problems
    }

    #[test]
    fn compare_flags_counter_drift_exactly() {
        let base = r#"{"suite":"pipeline","scenarios":[
            {"name":"a","runs":5,"solver":{"solves":10,"conflicts":3},
             "wall_us":{"median":100,"mean":110}}]}"#;
        let same_counters_different_runs = r#"{"suite":"pipeline","scenarios":[
            {"name":"a","runs":2,"solver":{"solves":10,"conflicts":3},
             "wall_us":{"median":120,"mean":130}}]}"#;
        assert_eq!(
            diff(base, same_counters_different_runs, false),
            Vec::<String>::new(),
            "runs is ignored and 20 µs of wall drift is under the noise floor"
        );
        let one_more_solve = r#"{"suite":"pipeline","scenarios":[
            {"name":"a","runs":5,"solver":{"solves":11,"conflicts":3},
             "wall_us":{"median":100,"mean":110}}]}"#;
        let problems = diff(base, one_more_solve, false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("a.solver.solves"), "{problems:?}");
    }

    #[test]
    fn compare_gates_wall_time_with_tolerance() {
        let base = r#"{"suite":"pipeline","scenarios":[
            {"name":"a","solver":{"solves":1},"wall_us":{"median":100000}}]}"#;
        let slower = r#"{"suite":"pipeline","scenarios":[
            {"name":"a","solver":{"solves":1},"wall_us":{"median":140000}}]}"#;
        let much_slower = r#"{"suite":"pipeline","scenarios":[
            {"name":"a","solver":{"solves":1},"wall_us":{"median":200000}}]}"#;
        let faster = r#"{"suite":"pipeline","scenarios":[
            {"name":"a","solver":{"solves":1},"wall_us":{"median":10}}]}"#;
        assert!(diff(base, slower, false).is_empty(), "within 50%");
        let problems = diff(base, much_slower, false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("a.wall_us"), "{problems:?}");
        assert!(diff(base, faster, false).is_empty(), "speedups never fail");
        assert!(
            diff(base, much_slower, true).is_empty(),
            "--skip-wall gates on counters only"
        );
    }

    #[test]
    fn compare_matches_scenarios_by_name() {
        let base = r#"{"suite":"scale","scenarios":[
            {"name":"scale_n64","fresh":{"solves":4}},
            {"name":"scale_n128","fresh":{"solves":8}}]}"#;
        let reordered = r#"{"suite":"scale","scenarios":[
            {"name":"scale_n128","fresh":{"solves":8}},
            {"name":"scale_n64","fresh":{"solves":4}}]}"#;
        let missing = r#"{"suite":"scale","scenarios":[
            {"name":"scale_n64","fresh":{"solves":4}}]}"#;
        assert!(diff(base, reordered, false).is_empty(), "order is free");
        let problems = diff(base, missing, false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("scale_n128"), "{problems:?}");
    }

    #[test]
    fn compare_pipeline_rerun_agrees_with_itself() {
        // The real gate, in miniature: capture a baseline, re-run the
        // suite, and require a pass. Counters are deterministic, so
        // only a genuine behavior change can fail this.
        let baseline_text = render_json(&scenarios(1));
        let baseline = Json::parse(&baseline_text).unwrap();
        let rerun_text = rerun_suite(&baseline, 1).expect("pipeline suite reruns");
        let problems = diff(&baseline_text, &rerun_text, true);
        assert_eq!(problems, Vec::<String>::new());
    }

    #[test]
    fn family_scale_doc_shape_is_stable_and_reruns() {
        // One family scenario at k=2: 2 alternatives × 2^2 options = 8
        // products, certified by a single lifted solve. The rerun path
        // must recognise the row by its `features` key and reproduce
        // the counters exactly.
        let family = vec![FamilyMeasurement::run(2, 1)];
        let text = render_scale_json(&[], &family);
        let doc = Json::parse(&text).expect("family doc parses");
        let arr = doc.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 1);
        let sc = &arr[0];
        assert_eq!(sc.get("name").and_then(Json::as_str), Some("family_k2"));
        assert_eq!(sc.get("features").and_then(Json::as_int), Some(2));
        assert_eq!(sc.get("products").and_then(Json::as_int), Some(8));
        let field = |mode: &str, key: &str| {
            sc.get(mode)
                .and_then(|m| m.get(key))
                .and_then(Json::as_int)
                .unwrap_or_else(|| panic!("missing {mode}.{key}"))
        };
        assert_eq!(field("family", "family_solves"), 1);
        assert_eq!(field("family", "products_checked"), 0);
        assert_eq!(field("enumerate", "products_checked"), 8);
        assert!(field("family", "solves") < field("enumerate", "solves"));
        let rerun = rerun_suite(&doc, 1).expect("scale suite reruns");
        let problems = diff(&text, &rerun, true);
        assert_eq!(problems, Vec::<String>::new());
    }

    #[test]
    fn count_doc_shape_is_stable() {
        // count_scenarios asserts the headline numbers internally: the
        // quadcore exact count is 60 and every estimate lands within
        // the (ε, δ) tolerance of the known true count.
        let results = count_scenarios(1);
        let text = render_count_json(&results);
        let doc = Json::parse(&text).expect("count doc parses");
        assert_eq!(doc.get("suite").and_then(Json::as_str), Some("count"));
        let arr = match doc.get("scenarios") {
            Some(Json::Arr(a)) => a,
            other => panic!("scenarios must be an array, got {other:?}"),
        };
        assert_eq!(arr.len(), 5);
        let result = |name: &str| {
            arr.iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|s| s.get("result"))
                .unwrap_or_else(|| panic!("missing scenario {name}"))
                .clone()
        };
        let exact = result("quadcore_count_exact");
        assert_eq!(exact.get("models").and_then(Json::as_int), Some(60));
        assert_eq!(exact.get("exact").and_then(Json::as_bool), Some(true));
        let hashed = result("synth20_count_approx");
        assert_eq!(hashed.get("exact").and_then(Json::as_bool), Some(false));
        assert!(hashed.get("trials").and_then(Json::as_int) > Some(0));
        let sampled = result("quadcore_sample_k10");
        assert_eq!(sampled.get("returned").and_then(Json::as_int), Some(10));
        assert!(sampled.get("min_hamming").and_then(Json::as_int) >= Some(1));
    }
}
