//! The per-layer ledger: each request replayed in-process through the
//! same public entry points `check_tree` and `Pipeline::run` call, in
//! the same order, each call wrapped in a benchmark-owned span.
//!
//! The replay mirrors the daemon's content-addressed cache: a stage
//! whose inputs the daemon has already seen is served from a [`Mirror`]
//! instead of being recomputed, so the in-process time of a request is
//! the work the daemon actually did for it. The daemon's own `stats`
//! counters must agree with the mirror's predicted lookups and hits.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use llhsc::family::{CheckMode, FamilyChecker};
use llhsc::{PipelineInput, SemanticChecker, SolverStats, VmSpec};
use llhsc_delta::{DeltaModule, DerivedProduct, ProductLine};
use llhsc_dts::hash::stable_hash_of;
use llhsc_dts::DeviceTree;
use llhsc_fm::MultiModel;
use llhsc_hypcfg::{PlatformConfig, VmConfig};
use llhsc_obs::{SpanId, Tracer};
use llhsc_schema::{SchemaSet, SyntacticChecker};
use llhsc_smt::{SessionStats, SolverSession};

use crate::gen::{CheckCounts, Payload, Project};
use crate::verdict::{cpus_of, BuildOutcome, Outcome};

/// The timed layers, as span names; each reports `<name>_ms`.
pub const LAYERS: [&str; 8] = [
    "dts.parse",
    "schema.check",
    "semantic.check",
    "semantic.coverage",
    "fm.alloc",
    "delta.derive",
    "hypcfg.generate",
    "family.check",
];

/// The per-request counters the replay reads from the stats the layer
/// calls return.
pub const COUNTERS: [&str; 20] = [
    "dts.nodes",
    "schema.violations",
    "semantic.pairs_encoded",
    "semantic.collisions",
    "sat.solves",
    "sat.propagations",
    "sat.conflicts",
    "sat.restarts",
    "sat.chrono_backtracks",
    "sat.vivified",
    "sat.subsumed",
    "sat.strengthened",
    "smt.terms_encoded",
    "smt.terms_reused",
    "smt.asserts_reused",
    "family.family_solves",
    "family.products_checked",
    "family.witnesses_extracted",
    // Daemon cache traffic the mirror predicts for the request.
    "predicted.cache_lookups",
    "predicted.cache_hits",
];

/// Records one request's layer times and counters, and — when given a
/// tracer — one span per layer call under the request's span.
pub struct Recorder<'a> {
    tracer: Option<&'a Tracer>,
    request: Option<SpanId>,
    times: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, u64>,
}

impl<'a> Recorder<'a> {
    /// Starts a request; `tracer` records its spans.
    pub fn begin(tracer: Option<&'a Tracer>, index: usize) -> Recorder<'a> {
        let request = tracer.map(|t| {
            let id = t.begin("request", None);
            t.add(id, "index", index as u64);
            id
        });
        Recorder {
            tracer,
            request,
            times: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs one layer call inside its span.
    pub fn layer<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let span = self.tracer.map(|t| t.begin(name, self.request));
        let started = Instant::now();
        let out = call();
        *self.times.entry(name).or_default() += started.elapsed();
        if let (Some(t), Some(id)) = (self.tracer, span) {
            t.end(id);
        }
        out
    }

    /// Adds to a counter.
    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value;
    }

    fn solver(&mut self, s: &SolverStats) {
        self.count("sat.solves", s.solves);
        self.count("sat.propagations", s.propagations);
        self.count("sat.conflicts", s.conflicts);
        self.count("sat.restarts", s.restarts);
        self.count("sat.chrono_backtracks", s.chrono_backtracks);
        self.count("sat.vivified", s.vivified);
        self.count("sat.subsumed", s.subsumed);
        self.count("sat.strengthened", s.strengthened);
    }

    fn session(&mut self, s: &SessionStats) {
        self.count("smt.asserts_reused", s.asserts_reused);
    }

    /// Closes the request and returns its layer times and counters.
    /// Every request walks the same layer steps: a layer this request
    /// did not call still records the (nanosecond) cost of its skipped
    /// step, so each layer's mean is measured on every workload rather
    /// than assumed to be zero.
    pub fn finish(
        mut self,
    ) -> (
        BTreeMap<&'static str, Duration>,
        BTreeMap<&'static str, u64>,
    ) {
        for name in LAYERS {
            if !self.times.contains_key(name) {
                self.layer(name, || ());
            }
        }
        if let (Some(t), Some(id)) = (self.tracer, self.request) {
            for (name, value) in &self.counts {
                t.add(id, name, *value);
            }
            t.end(id);
        }
        (self.times, self.counts)
    }
}

/// The daemon's cache as the replay predicts it: stage verdicts keyed on
/// the request text that determines them.
#[derive(Debug, Default)]
pub struct Mirror {
    checks: HashMap<u64, CheckCounts>,
    allocations: HashMap<u64, Result<Vec<Vec<String>>, String>>,
    products: HashMap<u64, Result<(), String>>,
    coverage: HashMap<u64, Result<(), String>>,
    families: HashMap<u64, bool>,
}

impl Mirror {
    fn lookup<T: Clone>(map: &HashMap<u64, T>, key: u64, n: u64, rec: &mut Recorder) -> Option<T> {
        let hit = map.get(&key).cloned();
        rec.count("predicted.cache_lookups", n);
        if hit.is_some() {
            rec.count("predicted.cache_hits", n);
        }
        hit
    }
}

/// Replays one request. `Err` means the input itself was rejected (a
/// parse or decoding error), which no workload request should be.
pub fn replay(
    payload: &Payload,
    mirror: &mut Mirror,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    match payload {
        Payload::Check { dts } => replay_check(dts, mirror, rec),
        Payload::Build { project, family } => replay_build(project, *family, mirror, rec),
    }
}

fn replay_check(dts: &str, mirror: &mut Mirror, rec: &mut Recorder) -> Result<Outcome, String> {
    let tree = rec
        .layer("dts.parse", || llhsc_dts::parse(dts))
        .map_err(|e| format!("parse: {e}"))?;
    rec.count("dts.nodes", tree.size() as u64);
    let key = stable_hash_of(dts);
    if let Some(hit) = Mirror::lookup(&mirror.checks, key, 1, rec) {
        return Ok(Outcome::Check(hit));
    }
    let syntactic = rec.layer("schema.check", || {
        let mut checker =
            SyntacticChecker::with_session(&tree, &SchemaSet::standard(), SolverSession::new());
        let base = checker.solver_stats();
        let report = checker.check();
        (
            report.violations.len(),
            checker.solver_stats().delta_since(&base),
            checker.session_stats(),
        )
    });
    rec.count("schema.violations", syntactic.0 as u64);
    rec.solver(&syntactic.1);
    rec.session(&syntactic.2);
    let (outcome, session) = rec.layer("semantic.check", || {
        let mut checker = SemanticChecker::new();
        let outcome = checker.check_tree_with_stats(&tree);
        (outcome, checker.session_stats())
    });
    rec.session(&session);
    let (report, stats) = outcome.map_err(|e| format!("semantic: {e}"))?;
    rec.count("semantic.pairs_encoded", stats.pairs_encoded as u64);
    rec.count("semantic.collisions", report.collisions.len() as u64);
    rec.count("smt.terms_encoded", stats.terms_encoded);
    rec.count("smt.terms_reused", stats.terms_reused);
    rec.solver(&stats.solver);
    let counts = CheckCounts {
        nodes: tree.size(),
        regions: report.regions_checked,
        syntactic: syntactic.0,
        interrupts: report.interrupt_conflicts.len(),
        overlaps: report.collisions.len() + report.wrapping.len(),
    };
    mirror.checks.insert(key, counts);
    Ok(Outcome::Check(counts))
}

fn rejected(stage: &str) -> Outcome {
    Outcome::Build(BuildOutcome {
        accepted: false,
        vm_cpus: None,
        stage: Some(stage.to_string()),
    })
}

/// The frontends a `build` request goes through, as the daemon calls
/// them.
fn parse_project(project: &Project) -> Result<PipelineInput, String> {
    Ok(PipelineInput {
        core: llhsc_dts::parse(&project.core).map_err(|e| format!("core.dts: {e}"))?,
        deltas: DeltaModule::parse_all(&project.deltas).map_err(|e| format!("deltas: {e}"))?,
        model: llhsc_fm::parse_model(&project.model).map_err(|e| format!("model.fm: {e}"))?,
        schemas: SchemaSet::standard(),
        vms: project
            .vms
            .iter()
            .map(|(name, features)| VmSpec {
                name: name.clone(),
                features: features.clone(),
            })
            .collect(),
    })
}

fn replay_build(
    project: &Project,
    family: bool,
    mirror: &mut Mirror,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let input = rec.layer("dts.parse", || parse_project(project))?;
    rec.count("dts.nodes", input.core.size() as u64);
    if family {
        let key = stable_hash_of(&(&project.core, &project.deltas, &project.model));
        if let Some(clean) = Mirror::lookup(&mirror.families, key, 1, rec) {
            return Ok(family_outcome(clean));
        }
        let result = rec.layer("family.check", || {
            FamilyChecker::new().check(&input, CheckMode::Family)
        });
        let clean = match result {
            Ok(report) => {
                rec.count("family.family_solves", report.stats.family_solves);
                rec.count("family.products_checked", report.stats.products_checked);
                rec.count(
                    "family.witnesses_extracted",
                    report.stats.witnesses_extracted,
                );
                rec.solver(&report.stats.solver);
                rec.session(&report.stats.session);
                report.is_ok()
            }
            Err(_) => false,
        };
        mirror.families.insert(key, clean);
        return Ok(family_outcome(clean));
    }

    // Stage 1: resource allocation (§IV-A).
    let selections: Vec<&Vec<String>> = project.vms.iter().map(|(_, f)| f).collect();
    let alloc_key = stable_hash_of(&(&project.model, &selections));
    let allocation = match Mirror::lookup(&mirror.allocations, alloc_key, 1, rec) {
        Some(hit) => hit,
        None => {
            let (result, solver) = rec.layer("fm.alloc", || allocate(&input));
            rec.solver(&solver);
            mirror.allocations.insert(alloc_key, result.clone());
            result
        }
    };
    let Ok(allocation) = allocation else {
        return Ok(rejected("allocation"));
    };

    // Stage 2: one product per VM plus the platform union (§III-B).
    let derived = rec.layer("delta.derive", || derive(&input, &allocation));
    let Ok((vm_products, platform)) = derived else {
        return Ok(rejected("delta"));
    };

    // Stages 3+4: syntactic and semantic check of every product.
    let state = stable_hash_of(&(&project.core, &project.deltas, &project.model, &project.vms));
    let products: Vec<&DerivedProduct> = vm_products.iter().chain([&platform]).collect();
    let checked = match Mirror::lookup(&mirror.products, state, products.len() as u64, rec) {
        Some(hit) => hit,
        None => {
            let result = check_products(&input.schemas, &products, rec);
            mirror.products.insert(state, result.clone());
            result
        }
    };
    if let Err(stage) = checked {
        return Ok(rejected(&stage));
    }

    // Stage 4b: every VM's memory backed by platform memory.
    let vms = vm_products.len() as u64;
    let covered = match Mirror::lookup(&mirror.coverage, state, vms, rec) {
        Some(hit) => hit,
        None => {
            let result = rec.layer("semantic.coverage", || coverage(&vm_products, &platform));
            let result = result.map(|(ok, solver, session)| {
                rec.solver(&solver);
                rec.session(&session);
                ok
            });
            let result = result.and_then(|ok| ok.then_some(()).ok_or_else(|| "semantic".into()));
            mirror.coverage.insert(state, result.clone());
            result
        }
    };
    if let Err(stage) = covered {
        return Ok(rejected(&stage));
    }

    // Stage 5: configuration generation.
    let generated = rec.layer("hypcfg.generate", || {
        generate(&input, &vm_products, &platform)
    });
    match generated {
        Ok(vm_dts) => Ok(Outcome::Build(BuildOutcome {
            accepted: true,
            vm_cpus: Some(vm_dts.iter().map(|d| cpus_of(d)).collect()),
            stage: None,
        })),
        Err(()) => Ok(rejected("generation")),
    }
}

fn family_outcome(clean: bool) -> Outcome {
    Outcome::Build(BuildOutcome {
        accepted: clean,
        vm_cpus: None,
        stage: None,
    })
}

/// `MultiModel::new` + `complete`, as the pipeline's allocation stage.
fn allocate(input: &PipelineInput) -> (Result<Vec<Vec<String>>, String>, SolverStats) {
    let mut selections = Vec::new();
    for vm in &input.vms {
        let mut ids = Vec::new();
        for f in &vm.features {
            match input.model.by_name(f) {
                Some(id) => ids.push(id),
                None => return (Err(format!("unknown feature {f}")), SolverStats::default()),
            }
        }
        selections.push(ids);
    }
    let mut multi = MultiModel::new(&input.model, input.vms.len());
    let base = multi.solver_stats();
    let result = multi
        .complete(&selections)
        .map(|p| {
            let names = |product: &llhsc_fm::Product| {
                product
                    .iter()
                    .map(|id| input.model.name(*id).to_string())
                    .collect::<Vec<_>>()
            };
            let mut all: Vec<Vec<String>> = p.vms.iter().map(names).collect();
            all.push(names(&p.platform));
            all
        })
        .map_err(|e| e.to_string());
    (result, multi.solver_stats().delta_since(&base))
}

/// `ProductLine::derive` per VM, then for the platform (the last
/// allocation entry).
fn derive(
    input: &PipelineInput,
    allocation: &[Vec<String>],
) -> Result<(Vec<DerivedProduct>, DerivedProduct), String> {
    let line = ProductLine::new(input.core.clone(), input.deltas.clone());
    let mut products = allocation
        .iter()
        .map(|names| {
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            line.derive(&refs).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let platform = products.pop().ok_or("empty allocation")?;
    Ok((products, platform))
}

/// `SyntacticChecker::check` (one session threaded through the products,
/// as the serial pipeline does) and `SemanticChecker::check_tree_with_stats`
/// plus the page-alignment scan, per product. `Err` names the stage of
/// the first error.
fn check_products(
    schemas: &SchemaSet,
    products: &[&DerivedProduct],
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut session = Some(SolverSession::new());
    let mut failed: Option<&'static str> = None;
    for product in products {
        let tree: &DeviceTree = &product.tree;
        let (violations, solver, reuse) = rec.layer("schema.check", || {
            let s = session.take().unwrap_or_default();
            let base_session = s.stats();
            let mut checker = SyntacticChecker::with_session(tree, schemas, s);
            let base = checker.solver_stats();
            let report = checker.check();
            let solver = checker.solver_stats().delta_since(&base);
            let reuse = checker.session_stats().delta_since(&base_session);
            session = Some(checker.into_session());
            (report.violations.len(), solver, reuse)
        });
        rec.count("schema.violations", violations as u64);
        rec.solver(&solver);
        rec.session(&reuse);
        if violations > 0 {
            failed.get_or_insert("syntactic");
        }
        let (outcome, reuse) = rec.layer("semantic.check", || {
            let mut checker = SemanticChecker::new();
            if let Ok(refs) = checker.collect_refs(tree) {
                std::hint::black_box(checker.check_alignment(&refs, 0x1000));
            }
            let outcome = checker.check_tree_with_stats(tree);
            (outcome, checker.session_stats())
        });
        rec.session(&reuse);
        match outcome {
            Ok((report, stats)) => {
                rec.count("semantic.pairs_encoded", stats.pairs_encoded as u64);
                rec.count("semantic.collisions", report.collisions.len() as u64);
                rec.count("smt.terms_encoded", stats.terms_encoded);
                rec.count("smt.terms_reused", stats.terms_reused);
                rec.solver(&stats.solver);
                if !report.is_ok() {
                    failed.get_or_insert("semantic");
                }
            }
            Err(_) => {
                failed.get_or_insert("semantic");
            }
        }
    }
    failed.map_or(Ok(()), |stage| Err(stage.to_string()))
}

/// `memory_regions` + `check_coverage_with_stats` for every VM against
/// the platform, sharing one checker as the pipeline does. `Err` when a
/// tree's memory cannot be decoded.
fn coverage(
    vms: &[DerivedProduct],
    platform: &DerivedProduct,
) -> Result<(bool, SolverStats, SessionStats), String> {
    let platform_memory =
        SemanticChecker::memory_regions(&platform.tree).map_err(|_| "semantic".to_string())?;
    let mut checker = SemanticChecker::new();
    let mut solver = SolverStats::default();
    let mut covered = true;
    for vm in vms {
        if let Ok(memory) = SemanticChecker::memory_regions(&vm.tree) {
            let (gaps, stats) = checker.check_coverage_with_stats(&memory, &platform_memory);
            solver.merge(&stats);
            covered &= gaps.is_empty();
        }
    }
    Ok((covered, solver, checker.session_stats()))
}

/// `PlatformConfig`/`VmConfig::from_tree` + `to_c`, and
/// `llhsc_dts::print` of every tree; returns the VM trees' text.
fn generate(
    input: &PipelineInput,
    vms: &[DerivedProduct],
    platform: &DerivedProduct,
) -> Result<Vec<String>, ()> {
    let platform_config = PlatformConfig::from_tree(&platform.tree).map_err(drop)?;
    let mut c_sources = vec![platform_config.to_c()];
    for (spec, product) in input.vms.iter().zip(vms) {
        c_sources.push(
            VmConfig::from_tree(&product.tree, &spec.name)
                .map_err(drop)?
                .to_c(),
        );
    }
    std::hint::black_box((&c_sources, llhsc_dts::print(&platform.tree)));
    Ok(vms.iter().map(|p| llhsc_dts::print(&p.tree)).collect())
}

/// The production call for a request, uncached, exactly as one `llhsc`
/// process makes it: `check_tree`, `Pipeline::run` or the family check.
pub fn production(payload: &Payload) -> Result<Outcome, String> {
    match payload {
        Payload::Check { dts } => {
            let tree = llhsc_dts::parse(dts).map_err(|e| format!("parse: {e}"))?;
            let out = llhsc_service::check_tree(&tree);
            crate::verdict::check_counts(&out.report.stdout, &out.report.stderr).map(Outcome::Check)
        }
        Payload::Build { project, family } => {
            let input = llhsc_service::BuildRequest {
                core: project.core.clone(),
                deltas: project.deltas.clone(),
                model: project.model.clone(),
                schemas: Vec::new(),
                vms: project.vms.clone(),
                family: *family,
            }
            .to_pipeline_input()?;
            let pipeline = llhsc::Pipeline::new();
            if *family {
                let clean = pipeline
                    .run_family(&input, CheckMode::Family, None, None)
                    .is_ok_and(|r| r.is_ok());
                return Ok(family_outcome(clean));
            }
            Ok(Outcome::Build(match pipeline.run(&input) {
                Ok(out) => BuildOutcome {
                    accepted: true,
                    vm_cpus: Some(out.vm_dts.iter().map(|d| cpus_of(d)).collect()),
                    stage: None,
                },
                Err(e) => BuildOutcome {
                    accepted: false,
                    vm_cpus: None,
                    stage: e
                        .diagnostics
                        .iter()
                        .find(|d| d.severity == llhsc::Severity::Error)
                        .map(|d| d.stage.to_string()),
                },
            }))
        }
    }
}
