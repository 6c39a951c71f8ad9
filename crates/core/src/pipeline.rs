//! The end-to-end llhsc workflow of Fig. 2.
//!
//! Inputs: a core DTS module, delta modules, a feature model, binding
//! schemas and one feature configuration per VM. The pipeline then
//!
//! 1. runs the **resource-allocation checker** (§IV-A): the per-VM
//!    selections are completed and validated against the multi-product
//!    model with exclusive-resource constraints,
//! 2. **derives** one DTS per VM and the platform DTS (union of the VM
//!    products) through the delta engine (§III-B),
//! 3. runs the **syntactic checker** (§IV-B) against the schemas,
//! 4. runs the **semantic checker** (§IV-C) on every derived tree,
//! 5. **generates** the hypervisor configuration files (Listings 3/6).
//!
//! Any failure aborts with diagnostics; syntactic and semantic findings
//! carry the provenance of the delta operations that touched the
//! offending node, realising the paper's "traced back to the
//! delta-module causing it".
//!
//! Every solver-bearing stage result can be served from a
//! [`PipelineCache`] (see [`crate::cache`]): allocation results are
//! keyed on the model and the raw selections, per-product check results
//! on the derived product itself, and coverage results on the (VM,
//! platform) product pair. [`Pipeline::run`] is simply
//! [`Pipeline::run_cached`] with no cache.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use llhsc_delta::{DeltaModule, DerivedProduct, ProductLine};
use llhsc_dts::hash::{stable_hash_of, Fnv1a};
use llhsc_dts::DeviceTree;
use llhsc_fm::{FeatureModel, MultiModel};
use llhsc_hypcfg::{PlatformConfig, VmConfig};
use llhsc_obs::{SpanId, TraceCtx};
use llhsc_sat::SolverStats;
use llhsc_schema::{SchemaSet, SyntacticChecker};
use llhsc_smt::{CheckOptions, SolverSession};

use crate::cache::{AllocationNames, CacheClass, CacheEntry, CachedCheck, PipelineCache};
use crate::report::{dedup_diagnostics, Diagnostic, Severity, Stage, StageTimings};
use crate::semantic::{RegionCheckStats, SemanticChecker};

/// One VM to configure: a name (used for image symbols) and its feature
/// selection (may be partial; the allocation checker completes it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VmSpec {
    /// VM name, e.g. `vm1`.
    pub name: String,
    /// Selected feature names.
    pub features: Vec<String>,
}

/// Everything the pipeline consumes.
#[derive(Debug, Clone)]
pub struct PipelineInput {
    /// The core DTS module (Listing 1).
    pub core: DeviceTree,
    /// The delta modules (Listing 4).
    pub deltas: Vec<DeltaModule>,
    /// The feature model (Fig. 1a).
    pub model: FeatureModel,
    /// Binding schemas (§IV-B).
    pub schemas: SchemaSet,
    /// Per-VM feature configurations.
    pub vms: Vec<VmSpec>,
}

/// Everything the pipeline produces on success.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Derived tree per VM.
    pub vm_trees: Vec<DeviceTree>,
    /// Derived platform tree (union product).
    pub platform_tree: DeviceTree,
    /// Rendered DTS text per VM.
    pub vm_dts: Vec<String>,
    /// Rendered platform DTS text.
    pub platform_dts: String,
    /// Extracted Bao VM configurations.
    pub vm_configs: Vec<VmConfig>,
    /// Extracted Bao platform configuration.
    pub platform_config: PlatformConfig,
    /// Rendered C sources per VM (Listing 6 shape).
    pub vm_c: Vec<String>,
    /// Rendered platform C source (Listing 3 shape).
    pub platform_c: String,
    /// Non-fatal findings (delta orders, warnings), deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall-clock time per stage.
    pub timings: StageTimings,
    /// Region-disjointness cost counters, aggregated over every
    /// checked tree (all zero when the semantic checker was skipped;
    /// replayed from the cache when a stage result was a cache hit).
    pub semantic_stats: RegionCheckStats,
    /// Total SAT-solver work actually performed during this run,
    /// accumulated over every solver invocation in every stage
    /// (allocation completion, syntactic rule checking, semantic
    /// disjointness and witness queries). Unlike
    /// [`semantic_stats`](PipelineOutput::semantic_stats), cache hits
    /// contribute nothing here: these counters measure the run, not
    /// the (possibly replayed) verdicts — so they always equal the sum
    /// over the run's `"solve"` trace spans.
    pub solver_stats: SolverStats,
    /// Solver-session reuse counters, aggregated over every checker
    /// session the run created (syntactic product checks, semantic
    /// region checks, cross-tree coverage). Cache hits contribute
    /// nothing: a replayed verdict performs no session work. A high
    /// `asserts_reused`/`slices_reused` relative to `asserts_encoded`
    /// means later checks amortized earlier bit-blasting.
    pub session_stats: llhsc_smt::SessionStats,
}

/// A failed pipeline run: every error-level finding, plus whatever
/// non-fatal diagnostics accumulated before the failure.
#[derive(Debug, Clone)]
pub struct PipelineError {
    /// All diagnostics, deduplicated; at least one has
    /// [`Severity::Error`].
    pub diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "llhsc pipeline failed:")?;
        for d in &self.diagnostics {
            if d.severity == Severity::Error {
                writeln!(f, "  {d}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for PipelineError {}

/// Stage-2 translation granularity: a region whose base or size is not
/// a multiple of this draws a warning.
const PAGE_SIZE: u128 = 0x1000;

/// The llhsc tool: runs the Fig. 2 workflow.
#[derive(Debug, Default)]
pub struct Pipeline {
    /// The options every solver-bearing stage is built from
    /// (allocation, syntactic rule slices, semantic disjointness,
    /// cross-tree coverage). With a trace, the run records a span tree
    /// `pipeline → stage → product_check → solve` under it: one stage
    /// span per Fig. 2 stage, one `product_check` span per derived tree
    /// (annotated with its `cache_hit` outcome and VM slot), and one
    /// `solve` span per solver call, each carrying the
    /// decisions/propagations/conflicts it cost. The progress sink
    /// receives heartbeats from every stage's solver. Observation
    /// changes no verdict, diagnostic byte or solver counter.
    pub options: CheckOptions,
}

impl Pipeline {
    /// A pipeline with every checker enabled.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Runs the workflow without a result cache.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] carrying diagnostics if any checker
    /// rejects the configuration or any generation step fails.
    pub fn run(&self, input: &PipelineInput) -> Result<PipelineOutput, PipelineError> {
        self.run_cached(input, None)
    }

    /// Family-level verification of the whole product line: one lifted
    /// solver query per rule family over *all* derivable products
    /// instead of the per-product stage loop (see [`crate::family`]).
    /// No artifacts are generated — the family is the set of all valid
    /// configurations, not any particular VM selection, so there is
    /// nothing to emit; the result is a verdict with witnesses.
    /// Verdicts are served from `cache` under
    /// [`CacheClass::Family`](crate::cache::CacheClass::Family) when the
    /// content-addressed key matches. `trace` replaces the pipeline's
    /// own trace parent.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when the input itself is unusable —
    /// the same failures [`Pipeline::run`] reports.
    pub fn run_family(
        &self,
        input: &PipelineInput,
        mode: crate::family::CheckMode,
        cache: Option<&dyn PipelineCache>,
        trace: Option<&TraceCtx>,
    ) -> Result<crate::family::FamilyReport, PipelineError> {
        crate::family::FamilyChecker::with_options(&CheckOptions {
            trace: trace.cloned(),
            ..self.options.clone()
        })
        .check_cached(input, mode, cache)
    }

    /// Runs the workflow, serving solver-bearing stage results from
    /// `cache` where the content-addressed keys match and storing
    /// freshly computed results back. With `None` this is exactly
    /// [`Pipeline::run`]; with a warm cache the diagnostics, rendered
    /// outputs and verdict are byte-identical to an uncached run but no
    /// solver is invoked for the cached stages.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] carrying diagnostics if any checker
    /// rejects the configuration or any generation step fails. The span
    /// tree is complete on both paths: a rejected configuration still
    /// closes every span it opened.
    pub fn run_cached(
        &self,
        input: &PipelineInput,
        cache: Option<&dyn PipelineCache>,
    ) -> Result<PipelineOutput, PipelineError> {
        let root = self.options.trace.as_ref().map(|t| {
            let id = t.begin("pipeline");
            t.add(id, "vms", input.vms.len() as u64);
            (t.clone(), id)
        });
        let scoped = root.as_ref().map(|(t, id)| t.at(*id));
        let result = self.run_inner(input, cache, scoped.as_ref());
        if let Some((t, id)) = &root {
            t.finish(*id);
        }
        match result {
            Ok(mut out) => {
                dedup_diagnostics(&mut out.diagnostics);
                Ok(out)
            }
            Err(mut e) => {
                dedup_diagnostics(&mut e.diagnostics);
                Err(e)
            }
        }
    }

    /// The options of a stage's checkers: the pipeline's own, with the
    /// trace parented under the stage's span (none when untraced).
    fn stage_options(&self, span: Option<&StageSpan>) -> CheckOptions {
        CheckOptions {
            trace: span.map(StageSpan::child),
            ..self.options.clone()
        }
    }

    fn run_inner(
        &self,
        input: &PipelineInput,
        cache: Option<&dyn PipelineCache>,
        trace: Option<&TraceCtx>,
    ) -> Result<PipelineOutput, PipelineError> {
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut errors = false;
        let mut timings = StageTimings::default();
        let mut solver_totals = SolverStats::default();
        let mut session_totals = llhsc_smt::SessionStats::default();

        // ---- Stage 1: resource allocation (§IV-A) ----
        let stage_start = Instant::now();
        let alloc_span = StageSpan::begin(trace, "allocation");
        let mut selections: Vec<Vec<llhsc_fm::FeatureId>> = Vec::new();
        for (k, vm) in input.vms.iter().enumerate() {
            let mut sel = Vec::new();
            for f in &vm.features {
                match input.model.by_name(f) {
                    Some(id) => sel.push(id),
                    None => {
                        errors = true;
                        diagnostics.push(
                            Diagnostic::error(
                                Stage::Allocation,
                                format!("unknown feature {f:?} in configuration of {}", vm.name),
                            )
                            .for_vm(k),
                        );
                    }
                }
            }
            selections.push(sel);
        }
        if errors {
            StageSpan::finish(alloc_span);
            return Err(PipelineError { diagnostics });
        }

        let alloc_key = allocation_key(&input.model, &input.vms);
        let cached_allocation =
            lookup(cache, CacheClass::Allocation, alloc_key).and_then(|e| match e {
                CacheEntry::Allocation(r) => Some(r),
                CacheEntry::Check(_) | CacheEntry::Family(_) => None,
            });
        if let Some(span) = &alloc_span {
            span.add("cache_hit", u64::from(cached_allocation.is_some()));
        }
        let allocation = match cached_allocation {
            Some(r) => r,
            None => {
                let mut multi = MultiModel::with_options(
                    &input.model,
                    input.vms.len(),
                    &self.stage_options(alloc_span.as_ref()),
                );
                let solver_base = multi.solver_stats();
                let result = match multi.complete(&selections) {
                    Ok(p) => {
                        let to_names = |product: &llhsc_fm::Product| -> Vec<String> {
                            product
                                .iter()
                                .map(|id| input.model.name(*id).to_string())
                                .collect()
                        };
                        Ok(AllocationNames {
                            vms: p.vms.iter().map(to_names).collect(),
                            platform: to_names(&p.platform),
                        })
                    }
                    Err(e) => Err(e.to_string()),
                };
                solver_totals.merge(&multi.solver_stats().delta_since(&solver_base));
                store(
                    cache,
                    CacheClass::Allocation,
                    alloc_key,
                    CacheEntry::Allocation(result.clone()),
                );
                result
            }
        };
        StageSpan::finish(alloc_span);
        let allocation = match allocation {
            Ok(names) => names,
            Err(e) => {
                diagnostics.push(Diagnostic::error(
                    Stage::Allocation,
                    format!("resource allocation rejected: {e}"),
                ));
                return Err(PipelineError { diagnostics });
            }
        };
        timings.allocation = stage_start.elapsed();

        // ---- Stage 2: derive DTSs (§III-B) ----
        let stage_start = Instant::now();
        let deriv_span = StageSpan::begin(trace, "derivation");
        let line = ProductLine::new(input.core.clone(), input.deltas.clone());
        let mut vm_products: Vec<DerivedProduct> = Vec::new();
        for (k, product_names) in allocation.vms.iter().enumerate() {
            let refs: Vec<&str> = product_names.iter().map(String::as_str).collect();
            match line.derive(&refs) {
                Ok(p) => {
                    diagnostics.push(Diagnostic {
                        severity: Severity::Info,
                        stage: Stage::DeltaApplication,
                        vm: Some(k),
                        message: format!("delta application order: {}", p.order.join(" < ")),
                        blamed: Vec::new(),
                    });
                    vm_products.push(p);
                }
                Err(e) => {
                    errors = true;
                    diagnostics
                        .push(Diagnostic::error(Stage::DeltaApplication, e.to_string()).for_vm(k));
                }
            }
        }
        let platform_refs: Vec<&str> = allocation.platform.iter().map(String::as_str).collect();
        let platform_product = match line.derive(&platform_refs) {
            Ok(p) => Some(p),
            Err(e) => {
                errors = true;
                diagnostics.push(Diagnostic::error(Stage::DeltaApplication, e.to_string()));
                None
            }
        };
        StageSpan::finish(deriv_span);
        if errors {
            return Err(PipelineError { diagnostics });
        }
        let platform_product = platform_product.expect("checked above");
        timings.derivation = stage_start.elapsed();

        // ---- Stage 3+4: check every derived tree ----
        // The trees are independent, so each gets its own checker run
        // on its own thread. Results are merged in VM order (platform
        // last), so the diagnostic stream does not depend on thread
        // scheduling. Each product's result is cached under a key
        // covering the product (tree, order, provenance) and the
        // schemas; diagnostics are cached VM-less and stamped after
        // retrieval so identical products can share an entry across VM
        // slots.
        let stage_start = Instant::now();
        let check_span = StageSpan::begin(trace, "checking");
        let check_ctx = check_span.as_ref().map(StageSpan::child);
        let check_ctx = check_ctx.as_ref();
        let schemas_hash = input.schemas.stable_hash();
        let mut all: Vec<(Option<usize>, &DerivedProduct)> = vm_products
            .iter()
            .enumerate()
            .map(|(k, p)| (Some(k), p))
            .collect();
        all.push((None, &platform_product));

        type Checked = (
            Vec<Diagnostic>,
            RegionCheckStats,
            SolverStats,
            llhsc_smt::SessionStats,
        );
        let schemas = &input.schemas;
        let check_one = |vm: Option<usize>, product: &DerivedProduct| -> Checked {
            let product_span = check_ctx.map(|t| {
                let id = t.begin("product_check");
                if let Some(k) = vm {
                    t.add(id, "vm", k as u64);
                }
                (t, id)
            });
            let key = product_check_key(schemas_hash, product);
            if let Some(CacheEntry::Check(hit)) = lookup(cache, CacheClass::ProductCheck, key) {
                if let Some((t, id)) = product_span {
                    t.add(id, "cache_hit", 1);
                    t.finish(id);
                }
                // A hit replays the verdict and its recorded cost
                // counters, but no solver ran *now*.
                return (
                    hit.diagnostics,
                    hit.stats,
                    SolverStats::default(),
                    llhsc_smt::SessionStats::default(),
                );
            }
            let scoped = product_span.map(|(t, id)| {
                t.add(id, "cache_hit", 0);
                t.at(id)
            });
            let (diags, stats, fresh, session) =
                self.check_product(schemas, product, scoped.as_ref());
            store(
                cache,
                CacheClass::ProductCheck,
                key,
                CacheEntry::Check(CachedCheck {
                    diagnostics: diags.clone(),
                    stats,
                }),
            );
            if let Some((t, id)) = product_span {
                t.finish(id);
            }
            (diags, stats, fresh, session)
        };
        let check_one = &check_one;
        let checked: Vec<Checked> = std::thread::scope(|s| {
            let handles: Vec<_> = all
                .iter()
                .map(|&(vm, product)| s.spawn(move || check_one(vm, product)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("checker thread panicked"))
                .collect()
        });
        let mut semantic_stats = RegionCheckStats::default();
        for ((vm, _), (mut tree_diags, tree_stats, fresh, session)) in all.iter().zip(checked) {
            for d in &mut tree_diags {
                d.vm = *vm;
            }
            errors |= tree_diags.iter().any(|d| d.severity == Severity::Error);
            semantic_stats.merge(&tree_stats);
            solver_totals.merge(&fresh);
            session_totals.merge(&session);
            diagnostics.extend(tree_diags);
        }
        StageSpan::finish(check_span);
        timings.checking = stage_start.elapsed();
        if errors {
            return Err(PipelineError { diagnostics });
        }

        // ---- Stage 4b: cross-tree coverage (§IV-C, 2-stage translation)
        let stage_start = Instant::now();
        let cov_span = StageSpan::begin(trace, "coverage");
        // Every VM memory region must be backed by platform memory.
        // Cached per (VM product, platform product) pair: an edit that
        // leaves both products unchanged replays the verdict without a
        // solver call.
        match SemanticChecker::memory_regions(&platform_product.tree) {
            Ok(platform_memory) => {
                let mut checker =
                    SemanticChecker::with_options(&self.stage_options(cov_span.as_ref()));
                let platform_hash = platform_product.stable_hash();
                for (k, product) in vm_products.iter().enumerate() {
                    let key = stable_hash_of(&(product.stable_hash(), platform_hash));
                    let mut cov_diags = match lookup(cache, CacheClass::Coverage, key) {
                        Some(CacheEntry::Check(hit)) => hit.diagnostics,
                        _ => {
                            let mut out = Vec::new();
                            if let Ok(vm_memory) = SemanticChecker::memory_regions(&product.tree) {
                                let (gaps, cov_solver) =
                                    checker.check_coverage_with_stats(&vm_memory, &platform_memory);
                                solver_totals.merge(&cov_solver);
                                for gap in gaps {
                                    let blamed = product
                                        .blame_subtree(&gap.region.path)
                                        .into_iter()
                                        .cloned()
                                        .collect();
                                    out.push(
                                        Diagnostic::error(Stage::Semantic, gap.to_string())
                                            .blame(blamed),
                                    );
                                }
                            }
                            // A memory_regions error means malformed reg
                            // values, which the per-product check already
                            // reports; coverage has nothing to add.
                            store(
                                cache,
                                CacheClass::Coverage,
                                key,
                                CacheEntry::Check(CachedCheck {
                                    diagnostics: out.clone(),
                                    stats: RegionCheckStats::default(),
                                }),
                            );
                            out
                        }
                    };
                    for d in &mut cov_diags {
                        d.vm = Some(k);
                        errors |= d.severity == Severity::Error;
                    }
                    diagnostics.extend(cov_diags);
                }
                // One checker served every VM: its slice/assert reuse
                // across VMs is the cross-tree amortization.
                session_totals.merge(&checker.session_stats());
            }
            Err(e) => {
                errors = true;
                diagnostics.push(Diagnostic::error(Stage::Semantic, e.to_string()));
            }
        }
        StageSpan::finish(cov_span);
        timings.coverage = stage_start.elapsed();
        if errors {
            return Err(PipelineError { diagnostics });
        }

        // ---- Stage 5: generate configurations (§II-C) ----
        let stage_start = Instant::now();
        let gen_span = StageSpan::begin(trace, "generation");
        let platform_config = match PlatformConfig::from_tree(&platform_product.tree) {
            Ok(c) => c,
            Err(e) => {
                StageSpan::finish(gen_span);
                diagnostics.push(Diagnostic::error(Stage::Generation, e.to_string()));
                return Err(PipelineError { diagnostics });
            }
        };
        let mut vm_configs = Vec::new();
        for (k, (spec, product)) in input.vms.iter().zip(&vm_products).enumerate() {
            match VmConfig::from_tree(&product.tree, &spec.name) {
                Ok(c) => vm_configs.push(c),
                Err(e) => {
                    errors = true;
                    diagnostics.push(Diagnostic::error(Stage::Generation, e.to_string()).for_vm(k));
                }
            }
        }
        if errors {
            StageSpan::finish(gen_span);
            return Err(PipelineError { diagnostics });
        }

        let vm_trees: Vec<DeviceTree> = vm_products.iter().map(|p| p.tree.clone()).collect();
        let vm_dts: Vec<String> = vm_trees.iter().map(llhsc_dts::print).collect();
        let vm_c: Vec<String> = vm_configs.iter().map(VmConfig::to_c).collect();
        StageSpan::finish(gen_span);
        timings.generation = stage_start.elapsed();
        Ok(PipelineOutput {
            platform_dts: llhsc_dts::print(&platform_product.tree),
            platform_tree: platform_product.tree,
            vm_trees,
            vm_dts,
            platform_c: platform_config.to_c(),
            platform_config,
            vm_configs,
            vm_c,
            diagnostics,
            timings,
            semantic_stats,
            solver_stats: solver_totals,
            session_stats: session_totals,
        })
    }

    /// Stage 3+4 for one derived tree: syntactic check, page-alignment
    /// warnings and the semantic check, with every finding blamed on
    /// the deltas that touched the offending nodes. Pure function of
    /// its inputs, so trees can be checked concurrently and results can
    /// be cached. The VM index is *not* attached here — the caller
    /// stamps it, so cached results are VM-agnostic. The returned
    /// [`SolverStats`] are the solver work this call performed; with a
    /// trace context, a `"syntactic"` and a `"semantic"` span nest
    /// under it, each parenting its checker's `"solve"` spans. Each call
    /// builds its own solver sessions, so calls share no state.
    fn check_product(
        &self,
        schemas: &SchemaSet,
        product: &DerivedProduct,
        trace: Option<&TraceCtx>,
    ) -> (
        Vec<Diagnostic>,
        RegionCheckStats,
        SolverStats,
        llhsc_smt::SessionStats,
    ) {
        let mut diagnostics = Vec::new();
        let mut stats = RegionCheckStats::default();
        let mut fresh = SolverStats::default();
        let mut session_work = llhsc_smt::SessionStats::default();
        let span = StageSpan::begin(trace, "syntactic");
        let session = SolverSession::with_options(&CheckOptions {
            trace: None,
            ..self.options.clone()
        });
        let session_base = session.stats();
        let mut checker = SyntacticChecker::with_session(&product.tree, schemas, session);
        if let Some(span) = &span {
            checker.context_mut().set_trace(span.child());
        }
        let solver_base = checker.solver_stats();
        let report = checker.check();
        fresh.merge(&checker.solver_stats().delta_since(&solver_base));
        session_work.merge(&checker.session_stats().delta_since(&session_base));
        StageSpan::finish(span);
        for v in report.violations {
            diagnostics.push(
                Diagnostic::error(Stage::Syntactic, v.to_string()).blame(
                    product
                        .blame_subtree(&v.path)
                        .into_iter()
                        .cloned()
                        .collect(),
                ),
            );
        }

        let checker = SemanticChecker::new();
        if let Ok(refs) = checker.collect_refs(&product.tree) {
            for bad in checker.check_alignment(&refs, PAGE_SIZE) {
                diagnostics.push(Diagnostic::warning(
                    Stage::Semantic,
                    format!(
                        "{bad} is not {PAGE_SIZE:#x}-aligned; stage-2 mapping \
                         will round it to page boundaries"
                    ),
                ));
            }
        }

        let span = StageSpan::begin(trace, "semantic");
        let mut checker = SemanticChecker::with_options(&self.stage_options(span.as_ref()));
        let outcome = checker.check_tree_with_stats(&product.tree);
        session_work.merge(&checker.session_stats());
        StageSpan::finish(span);
        match outcome {
            Ok((report, tree_stats)) => {
                fresh.merge(&tree_stats.solver);
                stats = tree_stats;
                for c in report.collisions {
                    let mut blamed: Vec<llhsc_delta::Provenance> = product
                        .blame_subtree(&c.a.path)
                        .into_iter()
                        .cloned()
                        .collect();
                    blamed.extend(product.blame_subtree(&c.b.path).into_iter().cloned());
                    blamed.dedup();
                    diagnostics
                        .push(Diagnostic::error(Stage::Semantic, c.to_string()).blame(blamed));
                }
                for (line_no, users) in report.interrupt_conflicts {
                    diagnostics.push(Diagnostic::error(
                        Stage::Semantic,
                        format!(
                            "interrupt line {line_no} claimed by multiple devices: {}",
                            users.join(", ")
                        ),
                    ));
                }
                for r in report.wrapping {
                    diagnostics.push(Diagnostic::error(
                        Stage::Semantic,
                        format!("region wraps past the end of the address space: {r}"),
                    ));
                }
            }
            Err(e) => {
                diagnostics.push(Diagnostic::error(Stage::Semantic, e.to_string()));
            }
        }
        (diagnostics, stats, fresh, session_work)
    }
}

/// The cache key of one stage-3+4 product check: the derived product
/// (tree + order + provenance, so blame survives caching) and the
/// schema set.
fn product_check_key(schemas_hash: u64, product: &DerivedProduct) -> u64 {
    let mut h = Fnv1a::new();
    product.stable_hash().hash(&mut h);
    schemas_hash.hash(&mut h);
    h.finish()
}

/// The stage-1 cache key: the feature model plus every VM's raw
/// selection, in VM order. VM names are deliberately excluded — they
/// label images, they do not constrain the allocation.
fn allocation_key(model: &FeatureModel, vms: &[VmSpec]) -> u64 {
    let mut h = Fnv1a::new();
    model.stable_hash().hash(&mut h);
    vms.len().hash(&mut h);
    for vm in vms {
        vm.features.hash(&mut h);
    }
    h.finish()
}

fn lookup(cache: Option<&dyn PipelineCache>, class: CacheClass, key: u64) -> Option<CacheEntry> {
    cache.and_then(|c| c.get(class, key))
}

fn store(cache: Option<&dyn PipelineCache>, class: CacheClass, key: u64, entry: CacheEntry) {
    if let Some(c) = cache {
        c.put(class, key, entry);
    }
}

/// One open stage span. Wrapped in `Option` so an untraced run pays a
/// single branch per stage; [`StageSpan::finish`] takes the `Option` to
/// keep the close-on-every-path call sites one line.
struct StageSpan {
    ctx: TraceCtx,
    id: SpanId,
}

impl StageSpan {
    fn begin(trace: Option<&TraceCtx>, name: &str) -> Option<StageSpan> {
        trace.map(|t| StageSpan {
            id: t.begin(name),
            ctx: t.clone(),
        })
    }

    /// A context whose spans nest under this stage.
    fn child(&self) -> TraceCtx {
        self.ctx.at(self.id)
    }

    fn add(&self, key: &str, value: u64) {
        self.ctx.add(self.id, key, value);
    }

    fn finish(span: Option<StageSpan>) {
        if let Some(s) = span {
            s.ctx.finish(s.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::running_example;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn running_example_succeeds() {
        let input = running_example::pipeline_input();
        let out = Pipeline::new().run(&input).expect("pipeline succeeds");
        assert_eq!(out.vm_trees.len(), 2);
        // VM1 carries veth0@80000000, VM2 the 0x70000000 one.
        assert!(out.vm_trees[0].find("/vEthernet/veth0@80000000").is_some());
        assert!(out.vm_trees[1].find("/vEthernet/veth0@70000000").is_some());
        // Exclusive CPUs: VM1 only cpu@0, VM2 only cpu@1.
        assert!(out.vm_trees[0].find("/cpus/cpu@0").is_some());
        assert!(out.vm_trees[0].find("/cpus/cpu@1").is_none());
        assert!(out.vm_trees[1].find("/cpus/cpu@1").is_some());
        assert!(out.vm_trees[1].find("/cpus/cpu@0").is_none());
        // Platform is the union.
        assert!(out.platform_tree.find("/cpus/cpu@0").is_some());
        assert!(out.platform_tree.find("/cpus/cpu@1").is_some());
        // Configs extracted.
        assert_eq!(out.platform_config.cpu_num, 2);
        assert_eq!(out.vm_configs[0].cpu_affinity, 0b01);
        assert_eq!(out.vm_configs[1].cpu_affinity, 0b10);
        assert!(out.platform_c.contains("struct platform_desc"));
        assert!(out.vm_c[0].contains("VM_IMAGE(vm1, vm1image.bin);"));
        // Delta orders reported.
        let orders: Vec<&Diagnostic> = out
            .diagnostics
            .iter()
            .filter(|d| d.stage == Stage::DeltaApplication)
            .collect();
        // Projected onto the Listing 4 deltas, VM1's order is
        // d3 < d4 < d1 and VM2's is d3 < d4 < d2 (the running example
        // adds drop_* housekeeping deltas that interleave).
        let pos = |msg: &str, name: &str| msg.find(name).expect("delta in order");
        let m1 = orders[0].message.as_str();
        assert!(
            pos(m1, "d3") < pos(m1, "d4") && pos(m1, "d4") < pos(m1, "d1"),
            "{m1}"
        );
        let m2 = orders[1].message.as_str();
        assert!(
            pos(m2, "d3") < pos(m2, "d4") && pos(m2, "d4") < pos(m2, "d2"),
            "{m2}"
        );
    }

    #[test]
    fn double_cpu_allocation_rejected() {
        let mut input = running_example::pipeline_input();
        input.vms[1].features = vec![
            "memory".into(),
            "cpu@0".into(), // also claimed by vm1
            "uart@20000000".into(),
        ];
        let err = Pipeline::new().run(&input).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.stage == Stage::Allocation && d.severity == Severity::Error));
        assert!(err.to_string().contains("allocation"));
    }

    #[test]
    fn unknown_feature_rejected() {
        let mut input = running_example::pipeline_input();
        input.vms[0].features.push("warp-drive".into());
        let err = Pipeline::new().run(&input).unwrap_err();
        assert!(err.diagnostics[0].message.contains("warp-drive"));
    }

    #[test]
    fn mismatched_veth_cpu_rejected_by_allocation() {
        let mut input = running_example::pipeline_input();
        // veth0 requires cpu@0, but vm1 asks for cpu@1 + veth0.
        input.vms[0].features = vec![
            "memory".into(),
            "cpu@1".into(),
            "uart@20000000".into(),
            "veth0".into(),
        ];
        input.vms[1].features = vec!["memory".into(), "uart@20000000".into()];
        let err = Pipeline::new().run(&input).unwrap_err();
        assert!(err.diagnostics.iter().any(|d| d.stage == Stage::Allocation));
    }

    #[test]
    fn semantic_error_blames_delta() {
        // Sabotage d1 to put veth0 on top of a uart (physical clash is
        // exempted for virtual devices, so collide two veths instead:
        // give vm1 both veth0 and… simpler: make d1's veth physical by
        // using a non-virtual compatible and colliding with memory).
        let mut input = running_example::pipeline_input();
        let deltas_src = running_example::DELTAS.replace(
            "compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
            "compatible = \"pci\";\n            reg = <0x60000000 0x10000000>;",
        );
        input.deltas = llhsc_delta::DeltaModule::parse_all(&deltas_src).unwrap();
        let err = Pipeline::new().run(&input).unwrap_err();
        let semantic: Vec<&Diagnostic> = err
            .diagnostics
            .iter()
            .filter(|d| d.stage == Stage::Semantic)
            .collect();
        assert!(!semantic.is_empty(), "{err}");
        // The finding is traced back to the delta that added the node.
        assert!(
            semantic
                .iter()
                .any(|d| d.blamed.iter().any(|p| p.delta == "d1")),
            "{semantic:?}"
        );
    }

    #[test]
    fn ablation_dt_schema_mode_misses_the_clash() {
        // The dt-schema baseline is the structural checker alone: the
        // sabotage from `semantic_error_blames_delta` passes every
        // schema rule, and only the semantic checker sees the clash.
        let deltas_src = running_example::DELTAS.replace(
            "compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
            "compatible = \"pci\";\n            reg = <0x60000000 0x10000000>;",
        );
        let line = ProductLine::new(
            running_example::core_tree(),
            llhsc_delta::DeltaModule::parse_all(&deltas_src).unwrap(),
        );
        let vm1 = &running_example::vm_specs()[0];
        let names: Vec<&str> = vm1.features.iter().map(String::as_str).collect();
        let tree = line.derive(&names).unwrap().tree;
        let report = SyntacticChecker::new(&tree, &running_example::schemas()).check();
        assert!(
            report.violations.is_empty(),
            "dt-schema mode must not catch the address clash: {:?}",
            report.violations
        );
        let semantic = SemanticChecker::new().check_tree(&tree).unwrap();
        assert!(!semantic.collisions.is_empty());
    }

    #[test]
    fn syntactic_error_reported() {
        // Remove the required id property from d1's veth binding.
        let mut input = running_example::pipeline_input();
        let deltas_src = running_example::DELTAS.replace("id = <0>;", "");
        input.deltas = llhsc_delta::DeltaModule::parse_all(&deltas_src).unwrap();
        let err = Pipeline::new().run(&input).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.stage == Stage::Syntactic && d.message.contains("\"id\"")));
    }

    #[test]
    fn three_vms_rejected() {
        let mut input = running_example::pipeline_input();
        input.vms.push(VmSpec {
            name: "vm3".into(),
            features: vec!["memory".into(), "uart@20000000".into()],
        });
        let err = Pipeline::new().run(&input).unwrap_err();
        assert!(err.diagnostics.iter().any(|d| d.stage == Stage::Allocation));
    }

    /// A minimal thread-safe cache for the tests below.
    #[derive(Default)]
    struct TestCache {
        map: Mutex<HashMap<(CacheClass, u64), CacheEntry>>,
        hits: AtomicUsize,
        misses: AtomicUsize,
    }

    impl PipelineCache for TestCache {
        fn get(&self, class: CacheClass, key: u64) -> Option<CacheEntry> {
            let hit = self.map.lock().unwrap().get(&(class, key)).cloned();
            match hit {
                Some(e) => {
                    self.hits.fetch_add(1, Ordering::SeqCst);
                    Some(e)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::SeqCst);
                    None
                }
            }
        }

        fn put(&self, class: CacheClass, key: u64, entry: CacheEntry) {
            self.map.lock().unwrap().insert((class, key), entry);
        }
    }

    fn rendered(diags: &[Diagnostic]) -> Vec<String> {
        diags.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn warm_cache_replays_identical_output_without_misses() {
        let input = running_example::pipeline_input();
        let cache = TestCache::default();
        let pipeline = Pipeline::new();
        let cold = pipeline
            .run_cached(&input, Some(&cache))
            .expect("cold run succeeds");
        let cold_misses = cache.misses.load(Ordering::SeqCst);
        assert!(cold_misses > 0, "cold run must miss");

        let warm = pipeline
            .run_cached(&input, Some(&cache))
            .expect("warm run succeeds");
        assert_eq!(
            cache.misses.load(Ordering::SeqCst),
            cold_misses,
            "warm run must not miss"
        );
        // 1 allocation + 3 product checks (vm1, vm2, platform) +
        // 2 coverage pairs.
        assert_eq!(cache.hits.load(Ordering::SeqCst), 6);
        assert_eq!(rendered(&cold.diagnostics), rendered(&warm.diagnostics));
        assert_eq!(cold.vm_dts, warm.vm_dts);
        assert_eq!(cold.platform_dts, warm.platform_dts);
        assert_eq!(cold.vm_c, warm.vm_c);
        assert_eq!(cold.semantic_stats, warm.semantic_stats);
    }

    #[test]
    fn warm_cache_replays_failures_identically() {
        let mut input = running_example::pipeline_input();
        let deltas_src = running_example::DELTAS.replace(
            "compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
            "compatible = \"pci\";\n            reg = <0x60000000 0x10000000>;",
        );
        input.deltas = llhsc_delta::DeltaModule::parse_all(&deltas_src).unwrap();
        let cache = TestCache::default();
        let pipeline = Pipeline::new();
        let cold = pipeline.run_cached(&input, Some(&cache)).unwrap_err();
        let misses = cache.misses.load(Ordering::SeqCst);
        let warm = pipeline.run_cached(&input, Some(&cache)).unwrap_err();
        assert_eq!(cache.misses.load(Ordering::SeqCst), misses);
        assert_eq!(rendered(&cold.diagnostics), rendered(&warm.diagnostics));
    }

    #[test]
    fn rejected_allocation_is_cached() {
        let mut input = running_example::pipeline_input();
        input.vms[1].features = vec!["memory".into(), "cpu@0".into()];
        let cache = TestCache::default();
        let pipeline = Pipeline::new();
        let cold = pipeline.run_cached(&input, Some(&cache)).unwrap_err();
        let misses = cache.misses.load(Ordering::SeqCst);
        let warm = pipeline.run_cached(&input, Some(&cache)).unwrap_err();
        assert_eq!(cache.misses.load(Ordering::SeqCst), misses);
        assert_eq!(rendered(&cold.diagnostics), rendered(&warm.diagnostics));
    }

    #[test]
    fn cached_run_matches_uncached_run() {
        let input = running_example::pipeline_input();
        let cache = TestCache::default();
        let pipeline = Pipeline::new();
        let plain = pipeline.run(&input).expect("uncached run");
        pipeline
            .run_cached(&input, Some(&cache))
            .expect("cold cached run");
        let warm = pipeline
            .run_cached(&input, Some(&cache))
            .expect("warm cached run");
        assert_eq!(rendered(&plain.diagnostics), rendered(&warm.diagnostics));
        assert_eq!(plain.vm_dts, warm.vm_dts);
        assert_eq!(plain.platform_c, warm.platform_c);
    }

    #[test]
    fn traced_run_records_stage_and_solve_spans() {
        use llhsc_obs::{TraceCtx, Tracer};
        use std::sync::Arc;

        let input = running_example::pipeline_input();
        let cache = TestCache::default();
        let traced = |tracer: &Arc<Tracer>| Pipeline {
            options: CheckOptions {
                trace: Some(TraceCtx::new(Arc::clone(tracer))),
                ..CheckOptions::default()
            },
        };

        let tracer = Arc::new(Tracer::zeroed());
        let out = traced(&tracer)
            .run_cached(&input, Some(&cache))
            .expect("traced run succeeds");
        let spans = tracer.spans();
        assert!(
            spans.iter().all(|s| s.dur_us.is_some()),
            "every span closed"
        );
        for stage in [
            "pipeline",
            "allocation",
            "derivation",
            "checking",
            "coverage",
            "generation",
        ] {
            assert!(
                spans.iter().any(|s| s.name == stage),
                "missing {stage} span"
            );
        }
        // 2 VM products + the platform product, all cold.
        let products: Vec<_> = spans.iter().filter(|s| s.name == "product_check").collect();
        assert_eq!(products.len(), 3);
        assert!(products.iter().all(|s| s.counter("cache_hit") == Some(0)));
        // Every solve span nests somewhere (under a stage or a
        // product_check's syntactic/semantic child), and the output's
        // solver totals equal the sum over the solve spans.
        let solves: Vec<_> = spans.iter().filter(|s| s.name == "solve").collect();
        assert!(!solves.is_empty(), "cold run must solve");
        assert!(solves.iter().all(|s| s.parent.is_some()));
        let sum = |key: &str| -> u64 { solves.iter().filter_map(|s| s.counter(key)).sum() };
        assert_eq!(sum("solves"), out.solver_stats.solves);
        assert_eq!(sum("decisions"), out.solver_stats.decisions);
        assert_eq!(sum("propagations"), out.solver_stats.propagations);
        assert_eq!(sum("conflicts"), out.solver_stats.conflicts);
        assert_eq!(sum("restarts"), out.solver_stats.restarts);

        // Warm run: verdicts replay from the cache — product checks
        // report their hit, nothing solves, totals are zero.
        let tracer = Arc::new(Tracer::zeroed());
        let warm = traced(&tracer)
            .run_cached(&input, Some(&cache))
            .expect("warm traced run succeeds");
        let spans = tracer.spans();
        let products: Vec<_> = spans.iter().filter(|s| s.name == "product_check").collect();
        assert_eq!(products.len(), 3);
        assert!(products.iter().all(|s| s.counter("cache_hit") == Some(1)));
        assert!(!spans.iter().any(|s| s.name == "solve"));
        assert_eq!(warm.solver_stats, SolverStats::default());
        assert_eq!(warm.semantic_stats, out.semantic_stats);
    }

    #[test]
    fn editing_one_delta_invalidates_only_affected_products() {
        // d1 only acts on vm1 (and the platform union): moving its veth
        // window must leave vm2's product-check entry valid.
        let input = running_example::pipeline_input();
        let cache = TestCache::default();
        let pipeline = Pipeline::new();
        pipeline.run_cached(&input, Some(&cache)).expect("cold run");
        let misses_before = cache.misses.load(Ordering::SeqCst);

        let mut edited = input.clone();
        let deltas_src = running_example::DELTAS.replace(
            "veth0@80000000 {\n            compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
            "veth0@90000000 {\n            compatible = \"veth\";\n            reg = <0x90000000 0x10000000>;",
        );
        assert_ne!(deltas_src, running_example::DELTAS, "edit must apply");
        edited.deltas = llhsc_delta::DeltaModule::parse_all(&deltas_src).unwrap();
        pipeline
            .run_cached(&edited, Some(&cache))
            .expect("edited run");
        // New misses: vm1's product check, the platform's product
        // check, and both coverage pairs (the platform side of the pair
        // changed). vm2's product check and the allocation hit.
        assert_eq!(cache.misses.load(Ordering::SeqCst) - misses_before, 4);
    }

    #[test]
    fn allocation_search_heartbeats_reach_the_progress_sink() {
        // Five VMs on four exclusive CPUs: the §IV-A pigeonhole, which
        // the allocation checker can only refute by CDCL search.
        #[derive(Default)]
        struct Count(AtomicUsize);
        impl llhsc_sat::ProgressSink for Count {
            fn heartbeat(&self, _beat: &llhsc_sat::Heartbeat) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let cpus = 4;
        let mut model = String::from("feature P {\n memory\n cpus xor exclusive {\n");
        let mut core = String::from("/ {\n cpus {\n");
        for i in 0..cpus {
            model.push_str(&format!("  cpu@{i}?\n"));
            core.push_str(&format!("  cpu@{i} {{ device_type = \"cpu\"; }};\n"));
        }
        model.push_str(" }\n}\n");
        core.push_str(" };\n};\n");
        let input = PipelineInput {
            core: llhsc_dts::parse(&core).unwrap(),
            deltas: Vec::new(),
            model: llhsc_fm::parse_model(&model).unwrap(),
            schemas: SchemaSet::standard(),
            vms: (0..=cpus)
                .map(|k| VmSpec {
                    name: format!("vm{k}"),
                    features: vec!["memory".to_string()],
                })
                .collect(),
        };
        let sink = std::sync::Arc::new(Count::default());
        let pipeline = Pipeline {
            options: CheckOptions {
                solver: llhsc_smt::SolverConfig {
                    heartbeat_every: 1,
                    ..llhsc_smt::SolverConfig::default()
                },
                progress: Some(sink.clone()),
                ..CheckOptions::default()
            },
        };
        let err = pipeline.run(&input).unwrap_err();
        assert!(err.to_string().contains("resource allocation rejected"));
        assert!(sink.0.load(Ordering::SeqCst) > 0, "allocation search beats");
    }
}
