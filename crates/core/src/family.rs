//! Family-based checking via constraint lifting.
//!
//! The enumerating pipeline pays per product: every derivable
//! configuration is derived and checked one tree at a time, so a board
//! family costs time linear in its product count. Following *"Generic
//! Analysis of Model Product Lines via Constraint Lifting"* (Bayha),
//! this module instead decides each rule family with **one solver
//! query over the whole product line**:
//!
//! 1. the feature model is exported as CNF
//!    ([`llhsc_fm::Analyzer::export_cnf`]) and imported into the
//!    checker session as a slice
//!    ([`llhsc_smt::SolverSession::import_cnf`]) — the *family
//!    constraint*;
//! 2. the delta modules are analysed for **liftability**: every
//!    conditional delta must only add fresh subtrees under existing
//!    nodes or remove whole base subtrees, with pairwise disjoint
//!    targets. In that class, every node of the *family tree* (base
//!    tree plus all conditional additions) has configuration-independent
//!    content and a **presence formula** φ(node) over the features;
//! 3. each obligation family — schema violations, formula-(7) region
//!    pairs, interrupt-line sharing, wrapping regions, memory coverage —
//!    is lifted to a single query `SAT(FM ∧ ⋁ φ(violating site))`.
//!    `Unsat` certifies the *whole family* clean in one solve
//!    (composable with DRAT certification); `Sat` yields a model that
//!    is a concrete witness configuration, which is re-derived into a
//!    product and replayed through the existing per-product checkers —
//!    the enumeration loop survives only as witness extractor and
//!    differential oracle.
//!
//! Inputs outside the liftable class (conditional `modifies`, overlapping
//! conditional targets, conditional interrupt controllers …) fall back
//! to the enumerating path with a recorded reason; the verdict contract
//! is identical either way. See `docs/FAMILY.md`.

use std::collections::HashMap;

use llhsc_delta::{DeltaModule, DeltaOp, DerivedProduct, ProductLine, WhenExpr};
use llhsc_dts::{DeviceTree, Node};
use llhsc_fm::Analyzer;
use llhsc_obs::TraceCtx;
use llhsc_sat::{ProofStep, SolverStats};
use llhsc_schema::SyntacticChecker;
use llhsc_smt::{
    slice_key, CertStats, CheckOptions, CheckResult, Cnf, Context, SessionStats, SolverSession,
    TermId,
};

use crate::cache::{CacheClass, CacheEntry, PipelineCache};
use crate::pipeline::{PipelineError, PipelineInput};
use crate::report::{dedup_diagnostics, Diagnostic, Stage};
use crate::semantic::{interrupt_users, RegionRef, SemanticChecker};
use crate::sweep;

/// How a family verdict is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckMode {
    /// Derive and check every product (the classic pipeline loop).
    Enumerate,
    /// One lifted solver query per rule family over the whole line.
    Family,
}

impl CheckMode {
    /// Short stable name, used in cache keys and wire stats.
    pub fn name(self) -> &'static str {
        match self {
            CheckMode::Enumerate => "enumerate",
            CheckMode::Family => "family",
        }
    }
}

/// The five lifted rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObligationFamily {
    /// Schema obligations (§IV-B) — all node-local, hence liftable.
    Syntactic,
    /// Formula-(7) region disjointness (§IV-C).
    Collision,
    /// Interrupt-line uniqueness per domain.
    Interrupt,
    /// Regions wrapping past the end of the address space.
    Wrapping,
    /// Memory regions backed by the core module's memory.
    Coverage,
}

impl ObligationFamily {
    /// All families, in report order.
    pub const ALL: [ObligationFamily; 5] = [
        ObligationFamily::Syntactic,
        ObligationFamily::Collision,
        ObligationFamily::Interrupt,
        ObligationFamily::Wrapping,
        ObligationFamily::Coverage,
    ];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            ObligationFamily::Syntactic => "syntactic",
            ObligationFamily::Collision => "collision",
            ObligationFamily::Interrupt => "interrupt",
            ObligationFamily::Wrapping => "wrapping",
            ObligationFamily::Coverage => "coverage",
        }
    }

    fn index(self) -> usize {
        match self {
            ObligationFamily::Syntactic => 0,
            ObligationFamily::Collision => 1,
            ObligationFamily::Interrupt => 2,
            ObligationFamily::Wrapping => 3,
            ObligationFamily::Coverage => 4,
        }
    }
}

impl std::fmt::Display for ObligationFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One violated rule family, with the configuration that violates it.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyFinding {
    /// The violated family.
    pub family: ObligationFamily,
    /// The witness configuration (selected feature names). In lifted
    /// mode this is the solver model of the family query; in
    /// enumerating mode, the first violating product.
    pub witness: Vec<String>,
    /// The diagnostics of replaying the witness product through the
    /// per-product checkers — the differential-oracle cross-check.
    pub diagnostics: Vec<Diagnostic>,
}

/// Counters of one family check, summing exactly to the run's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FamilyStats {
    /// Lifted obligation sites encoded across all families (violation
    /// nodes, candidate pairs, interrupt user pairs, wrapping regions,
    /// uncovered regions). Zero when enumerating or fallen back.
    pub obligations_lifted: u64,
    /// Family-level satisfiability queries issued (at most one per
    /// rule family; families with no obligation sites cost none).
    pub family_solves: u64,
    /// `Sat` family verdicts turned into witness configurations.
    pub witnesses_extracted: u64,
    /// Products derived and checked by the enumeration loop — the
    /// witness replays in lifted mode, every product otherwise.
    pub products_checked: u64,
    /// Total SAT-solver work of the run (family queries plus every
    /// sub-checker solve).
    pub solver: SolverStats,
    /// Session reuse counters aggregated over every session the run
    /// touched.
    pub session: SessionStats,
}

impl FamilyStats {
    /// Field-wise sum, for aggregating across runs.
    pub fn merge(&mut self, other: &FamilyStats) {
        self.obligations_lifted += other.obligations_lifted;
        self.family_solves += other.family_solves;
        self.witnesses_extracted += other.witnesses_extracted;
        self.products_checked += other.products_checked;
        self.solver.merge(&other.solver);
        self.session.merge(&other.session);
    }
}

/// The verdict of one family check.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyReport {
    /// The mode that was requested.
    pub mode: CheckMode,
    /// `true` when the lifted encoding decided the verdict. `false`
    /// when enumerating, or when a [`CheckMode::Family`] run fell back
    /// (see [`fallback`](FamilyReport::fallback)).
    pub lifted: bool,
    /// Why lifting was not possible, when it was not.
    pub fallback: Option<String>,
    /// Number of valid products of the feature model (budgeted count).
    pub products: u64,
    /// `true` when [`products`](FamilyReport::products) is exact.
    pub products_exact: bool,
    /// Violated families, in [`ObligationFamily::ALL`] order; empty
    /// means every derivable product passes every family.
    pub findings: Vec<FamilyFinding>,
    /// Cost counters of the run.
    pub stats: FamilyStats,
}

impl FamilyReport {
    /// `true` when no family is violated by any product.
    pub fn is_ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// The set of violated families — the mode-independent verdict
    /// (lifted and enumerating runs must agree on it exactly).
    pub fn violated(&self) -> Vec<ObligationFamily> {
        self.findings.iter().map(|f| f.family).collect()
    }
}

impl std::fmt::Display for FamilyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let how = if self.lifted {
            "lifted".to_string()
        } else if let Some(r) = &self.fallback {
            format!("enumerated; fallback: {r}")
        } else {
            "enumerated".to_string()
        };
        let exact = if self.products_exact { "" } else { "~" };
        writeln!(
            f,
            "family check ({how}): {exact}{} products, {} family solves, {} findings",
            self.products,
            self.stats.family_solves,
            self.findings.len()
        )?;
        for finding in &self.findings {
            writeln!(
                f,
                "  {} violated by configuration {{{}}}",
                finding.family,
                finding.witness.join(", ")
            )?;
            for d in &finding.diagnostics {
                writeln!(f, "    {d}")?;
            }
        }
        Ok(())
    }
}

/// The liftability analysis result: the family tree plus the presence
/// formula of every conditionally present subtree root.
struct LiftPlan {
    family_tree: DeviceTree,
    /// `(subtree root path, presence formula)`; paths are pairwise
    /// non-nested, so at most one entry governs any node.
    presence: Vec<(String, WhenExpr)>,
}

/// The family checker. Owns the persistent session holding the feature
/// formula and the family queries, so repeated checks (daemon, bench
/// warm runs) reuse the imported CNF slice.
#[derive(Debug)]
pub struct FamilyChecker {
    session: SolverSession,
    /// The options the checker was built from: the trace parents each
    /// check's `family_check` span, the solver configuration and
    /// progress sink also reach the per-product sub-checkers.
    options: CheckOptions,
}

/// Enumeration budget for the product count reported alongside the
/// verdict (the verdict itself never enumerates in lifted mode).
const COUNT_BUDGET: u64 = 1 << 16;

impl Default for FamilyChecker {
    fn default() -> FamilyChecker {
        FamilyChecker::new()
    }
}

impl FamilyChecker {
    /// A checker over a plain session.
    pub fn new() -> FamilyChecker {
        FamilyChecker::with_options(&CheckOptions::default())
    }

    /// A checker whose family session is built from `opts`. With
    /// `certify`, every `Unsat` family verdict carries a DRAT proof —
    /// "this family is clean for every derivable product" becomes a
    /// checkable certificate. With a trace, each check records a
    /// `family_check` span under it, with the lifted counters and every
    /// family query's `solve` span nested inside.
    pub fn with_options(opts: &CheckOptions) -> FamilyChecker {
        FamilyChecker {
            session: SolverSession::with_options(&CheckOptions {
                trace: None,
                ..opts.clone()
            }),
            options: opts.clone(),
        }
    }

    /// Options of the per-product sub-checkers: the family's solver
    /// configuration and progress sink under `trace`. Only family
    /// verdicts are certified.
    fn sub_options(&self, trace: Option<&TraceCtx>) -> CheckOptions {
        CheckOptions {
            certify: false,
            clause_log: false,
            trace: trace.cloned(),
            ..self.options.clone()
        }
    }

    /// Certification counters of the family session (zero unless
    /// created with [`CheckOptions::certify`] set).
    pub fn cert_stats(&self) -> CertStats {
        self.session.cert_stats()
    }

    /// The family session's formula and DRAT proof; `None` for
    /// non-certifying checkers.
    pub fn export_proof(&self) -> Option<(Cnf, Vec<ProofStep>)> {
        self.session.export_proof()
    }

    /// Checks the whole product line in the given mode. The `vms` of
    /// the input are ignored: the family is the set of *all* valid
    /// feature-model configurations, which subsumes any listed VM
    /// selection (the platform union tree is not a family member and
    /// stays with the enumerating pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when the input itself is unusable
    /// (underivable products, undecodable `reg` properties) — the same
    /// failures the enumerating pipeline reports.
    pub fn check(
        &mut self,
        input: &PipelineInput,
        mode: CheckMode,
    ) -> Result<FamilyReport, PipelineError> {
        let span = self.options.trace.as_ref().map(|t| {
            let id = t.begin("family_check");
            (t.clone(), id)
        });
        let scoped = span.as_ref().map(|(t, id)| t.at(*id));
        let result = self.check_inner(input, mode, scoped.as_ref());
        if let Some((t, id)) = &span {
            if let Ok(report) = &result {
                t.add(*id, "obligations_lifted", report.stats.obligations_lifted);
                t.add(*id, "family_solves", report.stats.family_solves);
                t.add(*id, "witnesses_extracted", report.stats.witnesses_extracted);
                t.add(*id, "products_checked", report.stats.products_checked);
            }
            t.finish(*id);
        }
        result
    }

    /// [`FamilyChecker::check`] behind a [`PipelineCache`]: family
    /// verdicts are pure functions of (core, deltas, model, schemas,
    /// mode), so a hit replays the stored report — counters included —
    /// without touching the solver. `certify` is part of the key (a
    /// certifying run does strictly more work).
    pub fn check_cached(
        &mut self,
        input: &PipelineInput,
        mode: CheckMode,
        cache: Option<&dyn PipelineCache>,
    ) -> Result<FamilyReport, PipelineError> {
        let key = family_key(input, mode, self.options.certify);
        if let Some(CacheEntry::Family(hit)) = cache.and_then(|c| c.get(CacheClass::Family, key)) {
            return hit.map_err(|diagnostics| PipelineError { diagnostics });
        }
        let result = self.check(input, mode);
        if let Some(c) = cache {
            let entry = match &result {
                Ok(report) => CacheEntry::Family(Ok(report.clone())),
                Err(e) => CacheEntry::Family(Err(e.diagnostics.clone())),
            };
            c.put(CacheClass::Family, key, entry);
        }
        result
    }

    fn check_inner(
        &mut self,
        input: &PipelineInput,
        mode: CheckMode,
        trace: Option<&TraceCtx>,
    ) -> Result<FamilyReport, PipelineError> {
        let mut an = Analyzer::new(&input.model);
        let count = an.count_products_budgeted(COUNT_BUDGET);
        let mut stats = FamilyStats::default();

        let (lifted, fallback, findings) = match mode {
            CheckMode::Enumerate => {
                let findings = self.enumerate(input, &mut an, None, &mut stats, trace)?;
                (false, None, findings)
            }
            CheckMode::Family => match liftability(input) {
                Ok(plan) => {
                    let findings = self.lift(input, &mut an, &plan, &mut stats, trace)?;
                    (true, None, findings)
                }
                Err(reason) => {
                    let findings = self.enumerate(input, &mut an, None, &mut stats, trace)?;
                    (false, Some(reason), findings)
                }
            },
        };

        Ok(FamilyReport {
            mode,
            lifted,
            fallback,
            products: count.models,
            products_exact: count.exact,
            findings,
            stats,
        })
    }

    /// The lifted path: family tree + presence formulas + one solve per
    /// non-empty rule family, witnesses replayed through the
    /// per-product checkers.
    fn lift(
        &mut self,
        input: &PipelineInput,
        an: &mut Analyzer,
        plan: &LiftPlan,
        stats: &mut FamilyStats,
        trace: Option<&TraceCtx>,
    ) -> Result<Vec<FamilyFinding>, PipelineError> {
        // Import the feature formula as a session slice, keyed on the
        // model content so warm repeats reuse the encoded clauses.
        let (cnf, proj) = an.export_cnf();
        let fm_key = slice_key(&{
            let mut bytes = b"family-fm".to_vec();
            bytes.extend_from_slice(&input.model.stable_hash().to_le_bytes());
            bytes
        });
        let (fm_slice, feat_terms) = self.session.import_cnf("fm", fm_key, &cnf, &proj);
        let feat_by_name: HashMap<String, TermId> = input
            .model
            .ids()
            .zip(&feat_terms)
            .map(|(id, t)| (input.model.name(id).to_string(), *t))
            .collect();

        // The obligation sites of each family: presence terms of the
        // sites whose simultaneous presence violates the family.
        let session_base = self.session.stats();
        let solver_base = self.session.ctx().solver_stats();
        if let Some(t) = trace {
            self.session.ctx_mut().set_trace(t.clone());
        }
        let mut atoms: [Vec<TermId>; 5] = Default::default();

        // Syntactic (§IV-B): all schema rules are node-local, so a rule
        // violated in the family tree is violated in exactly the
        // products containing its node — its lifted obligation is the
        // node's presence formula.
        let mut syn = SyntacticChecker::with_session(
            &plan.family_tree,
            &input.schemas,
            SolverSession::with_options(&self.sub_options(None)),
        );
        if let Some(t) = trace {
            syn.context_mut().set_trace(t.clone());
        }
        let syn_report = syn.check();
        stats.solver.merge(&syn.solver_stats());
        stats.session.merge(&syn.session_stats());
        for v in &syn_report.violations {
            let t = presence_term(self.session.ctx_mut(), plan, &feat_by_name, &v.path);
            atoms[ObligationFamily::Syntactic.index()].push(t);
        }

        // Formula (7): the family tree's region contents are
        // configuration-independent, so the sweep prefilter's exact
        // numeric-overlap pairs are the real collisions; pair (i, j)
        // happens in exactly the products containing both regions.
        let sem = SemanticChecker::new();
        let refs = sem
            .collect_refs(&plan.family_tree)
            .map_err(|e| input_error(e.to_string()))?;
        for &(i, j) in &sweep::candidate_pairs(&refs) {
            let pi = presence_term(self.session.ctx_mut(), plan, &feat_by_name, &refs[i].path);
            let pj = presence_term(self.session.ctx_mut(), plan, &feat_by_name, &refs[j].path);
            let both = self.session.ctx_mut().and([pi, pj]);
            atoms[ObligationFamily::Collision.index()].push(both);
        }

        // Interrupts: a (domain, line) group conflicts in products
        // containing at least two of its users.
        for (_line, users) in interrupt_users(&plan.family_tree) {
            if users.len() < 2 {
                continue;
            }
            for a in 0..users.len() {
                for b in (a + 1)..users.len() {
                    let pa = presence_term(self.session.ctx_mut(), plan, &feat_by_name, &users[a]);
                    let pb = presence_term(self.session.ctx_mut(), plan, &feat_by_name, &users[b]);
                    let both = self.session.ctx_mut().and([pa, pb]);
                    atoms[ObligationFamily::Interrupt.index()].push(both);
                }
            }
        }

        // Wrapping: a per-region (hence node-local) property.
        for r in refs.iter().filter(|r| r.region.wraps()) {
            let t = presence_term(self.session.ctx_mut(), plan, &feat_by_name, &r.path);
            atoms[ObligationFamily::Wrapping.index()].push(t);
        }

        // Coverage: every memory region must be backed by the *core
        // module's* memory (constant across products); whether a family
        // region is covered is therefore a constant, and the lifted
        // obligation ranges over the uncovered ones.
        let outer =
            SemanticChecker::memory_regions(&input.core).map_err(|e| input_error(e.to_string()))?;
        let family_mem = SemanticChecker::memory_regions(&plan.family_tree)
            .map_err(|e| input_error(e.to_string()))?;
        {
            let mut cov = SemanticChecker::with_options(&self.sub_options(trace));
            for r in &family_mem {
                let (gaps, cov_solver) =
                    cov.check_coverage_with_stats(std::slice::from_ref(r), &outer);
                stats.solver.merge(&cov_solver);
                if !gaps.is_empty() {
                    let t = presence_term(self.session.ctx_mut(), plan, &feat_by_name, &r.path);
                    atoms[ObligationFamily::Coverage.index()].push(t);
                }
            }
            stats.session.merge(&cov.session_stats());
        }

        // One satisfiability question per non-empty family: does any
        // valid configuration contain a violating site?
        let line = ProductLine::new(input.core.clone(), input.deltas.clone());
        let mut witnesses: Vec<(ObligationFamily, Vec<String>)> = Vec::new();
        for family in ObligationFamily::ALL {
            let sites = &atoms[family.index()];
            stats.obligations_lifted += sites.len() as u64;
            if sites.is_empty() {
                continue;
            }
            let violated = self.session.ctx_mut().or(sites.iter().copied());
            stats.family_solves += 1;
            match self.session.check(&[fm_slice], &[violated]) {
                CheckResult::Unsat => {} // family certified clean in one solve
                CheckResult::Sat => {
                    let model = self.session.model().expect("model after Sat");
                    let witness: Vec<String> = input
                        .model
                        .ids()
                        .zip(&feat_terms)
                        .filter(|(_, t)| model.eval_bool(**t) == Some(true))
                        .map(|(id, _)| input.model.name(id).to_string())
                        .collect();
                    stats.witnesses_extracted += 1;
                    witnesses.push((family, witness));
                }
            }
        }
        if trace.is_some() {
            self.session.ctx_mut().clear_trace();
        }
        stats
            .session
            .merge(&self.session.stats().delta_since(&session_base));
        stats
            .solver
            .merge(&self.session.ctx().solver_stats().delta_since(&solver_base));

        // Replay every witness configuration through the per-product
        // path: the enumeration machinery as differential oracle and
        // diagnostic source.
        let mut findings = Vec::new();
        let mut syn_session = SolverSession::with_options(&self.sub_options(None));
        let mut sem = SemanticChecker::with_options(&self.sub_options(None));
        for (family, witness) in witnesses {
            let refs: Vec<&str> = witness.iter().map(String::as_str).collect();
            let product = line
                .derive(&refs)
                .map_err(|e| input_error(format!("witness product underivable: {e}")))?;
            stats.products_checked += 1;
            let by_family =
                check_product_families(&product, input, &outer, &mut syn_session, &mut sem, stats)?;
            let mut diagnostics = by_family[family.index()].clone();
            if diagnostics.is_empty() {
                // The differential oracle disagrees with the lifted
                // verdict — surface it loudly instead of hiding it.
                diagnostics.push(Diagnostic::error(
                    Stage::Semantic,
                    format!(
                        "lifted {family} verdict not reproduced by witness replay \
                         (lifting bug; configuration {{{}}})",
                        witness.join(", ")
                    ),
                ));
            }
            dedup_diagnostics(&mut diagnostics);
            findings.push(FamilyFinding {
                family,
                witness,
                diagnostics,
            });
        }
        stats.session.merge(&sem.session_stats());
        Ok(findings)
    }

    /// The enumerating oracle: every valid product is derived and
    /// checked; the first violating product per family becomes its
    /// witness.
    fn enumerate(
        &mut self,
        input: &PipelineInput,
        an: &mut Analyzer,
        only: Option<ObligationFamily>,
        stats: &mut FamilyStats,
        trace: Option<&TraceCtx>,
    ) -> Result<Vec<FamilyFinding>, PipelineError> {
        let _ = trace;
        let outer =
            SemanticChecker::memory_regions(&input.core).map_err(|e| input_error(e.to_string()))?;
        let line = ProductLine::new(input.core.clone(), input.deltas.clone());
        let mut found: [Option<FamilyFinding>; 5] = Default::default();
        let mut syn_session = SolverSession::with_options(&self.sub_options(None));
        let mut sem = SemanticChecker::with_options(&self.sub_options(None));
        for product_ids in an.products() {
            let names: Vec<String> = product_ids
                .iter()
                .map(|id| input.model.name(*id).to_string())
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let product = line.derive(&refs).map_err(|e| input_error(e.to_string()))?;
            stats.products_checked += 1;
            let by_family =
                check_product_families(&product, input, &outer, &mut syn_session, &mut sem, stats)?;
            for family in ObligationFamily::ALL {
                if only.is_some_and(|f| f != family) {
                    continue;
                }
                let diags = &by_family[family.index()];
                if !diags.is_empty() && found[family.index()].is_none() {
                    found[family.index()] = Some(FamilyFinding {
                        family,
                        witness: names.clone(),
                        diagnostics: diags.clone(),
                    });
                }
            }
        }
        stats.session.merge(&sem.session_stats());
        Ok(found.into_iter().flatten().collect())
    }
}

/// An input-level failure, reported the way the pipeline reports it.
fn input_error(message: String) -> PipelineError {
    PipelineError {
        diagnostics: vec![Diagnostic::error(Stage::Semantic, message)],
    }
}

/// Runs the family-relevant per-product checks over one derived tree,
/// returning the diagnostics bucketed by rule family (in
/// [`ObligationFamily::ALL`] order). Shared by the enumerating oracle
/// and the lifted mode's witness replay, so the two modes read the same
/// evidence. Page-alignment warnings are not family obligations and are
/// deliberately absent.
fn check_product_families(
    product: &DerivedProduct,
    input: &PipelineInput,
    outer: &[RegionRef],
    syn_session: &mut SolverSession,
    sem: &mut SemanticChecker,
    stats: &mut FamilyStats,
) -> Result<[Vec<Diagnostic>; 5], PipelineError> {
    let mut out: [Vec<Diagnostic>; 5] = Default::default();

    // Syntactic, threading one session through every product so the
    // shared schema-rule encodings are bit-blasted once.
    let session = std::mem::take(syn_session);
    let session_base = session.stats();
    let mut syn = SyntacticChecker::with_session(&product.tree, &input.schemas, session);
    let solver_base = syn.solver_stats();
    let report = syn.check();
    stats
        .solver
        .merge(&syn.solver_stats().delta_since(&solver_base));
    stats
        .session
        .merge(&syn.session_stats().delta_since(&session_base));
    *syn_session = syn.into_session();
    for v in report.violations {
        out[ObligationFamily::Syntactic.index()].push(
            Diagnostic::error(Stage::Syntactic, v.to_string()).blame(
                product
                    .blame_subtree(&v.path)
                    .into_iter()
                    .cloned()
                    .collect(),
            ),
        );
    }

    // Semantic: collisions, interrupts and wrapping in one pass.
    let (sem_report, sem_stats) = sem
        .check_tree_with_stats(&product.tree)
        .map_err(|e| input_error(e.to_string()))?;
    stats.solver.merge(&sem_stats.solver);
    for c in sem_report.collisions {
        let mut blamed: Vec<llhsc_delta::Provenance> = product
            .blame_subtree(&c.a.path)
            .into_iter()
            .cloned()
            .collect();
        blamed.extend(product.blame_subtree(&c.b.path).into_iter().cloned());
        blamed.dedup();
        out[ObligationFamily::Collision.index()]
            .push(Diagnostic::error(Stage::Semantic, c.to_string()).blame(blamed));
    }
    for (line_no, users) in sem_report.interrupt_conflicts {
        out[ObligationFamily::Interrupt.index()].push(Diagnostic::error(
            Stage::Semantic,
            format!(
                "interrupt line {line_no} claimed by multiple devices: {}",
                users.join(", ")
            ),
        ));
    }
    for r in sem_report.wrapping {
        out[ObligationFamily::Wrapping.index()].push(Diagnostic::error(
            Stage::Semantic,
            format!("region wraps past the end of the address space: {r}"),
        ));
    }

    // Coverage against the core module's memory.
    let mem =
        SemanticChecker::memory_regions(&product.tree).map_err(|e| input_error(e.to_string()))?;
    let (gaps, cov_solver) = sem.check_coverage_with_stats(&mem, outer);
    stats.solver.merge(&cov_solver);
    for gap in gaps {
        out[ObligationFamily::Coverage.index()].push(
            Diagnostic::error(Stage::Semantic, gap.to_string()).blame(
                product
                    .blame_subtree(&gap.region.path)
                    .into_iter()
                    .cloned()
                    .collect(),
            ),
        );
    }
    Ok(out)
}

/// Decides whether the product line is in the liftable class and, if
/// so, builds the family tree and presence map.
///
/// The class: every delta with a non-trivial `when` may only
///
/// * `adds` a property-free fragment under a node of the base tree
///   (core + unconditional deltas), introducing child names absent from
///   the base, or
/// * `removes` a whole base subtree,
///
/// with all touched subtree roots pairwise non-nested, untouched by
/// unconditional deltas, and free of interrupt-controller declarations
/// and labels (which other nodes could resolve through). Everything
/// else falls back to enumeration with a reason.
fn liftability(input: &PipelineInput) -> Result<LiftPlan, String> {
    let (uncond, cond): (Vec<DeltaModule>, Vec<DeltaModule>) = input
        .deltas
        .iter()
        .cloned()
        .partition(|d| matches!(d.when, WhenExpr::True));

    // The base tree: core plus the deltas active in *every* product.
    // Not `derive(&[])` of the full line — a `when !f` delta fires
    // under the empty selection but not in products selecting `f`.
    let base = ProductLine::new(input.core.clone(), uncond.clone())
        .derive(&[])
        .map_err(|e| format!("base derivation failed: {e}"))?;

    let mut family_tree = base.tree.clone();
    let mut presence: Vec<(String, WhenExpr)> = Vec::new();
    let mut claimed: Vec<String> = Vec::new();

    for d in &cond {
        for op in &d.ops {
            match op {
                DeltaOp::Adds { path, fragment } => {
                    let target_path = normalise(path);
                    if !fragment.properties.is_empty() {
                        return Err(format!(
                            "delta {} conditionally adds properties to {target_path}",
                            d.name
                        ));
                    }
                    if family_tree.find(&target_path).is_none() {
                        return Err(format!(
                            "delta {} adds under {target_path}, which is not in the base tree",
                            d.name
                        ));
                    }
                    if base.tree.find(&target_path).is_none() {
                        return Err(format!(
                            "delta {} adds under conditionally added node {target_path}",
                            d.name
                        ));
                    }
                    for child in &fragment.children {
                        let child_path = join_path(&target_path, &child.name);
                        if base.tree.find(&child_path).is_some() {
                            return Err(format!(
                                "delta {} conditionally merges into existing node {child_path}",
                                d.name
                            ));
                        }
                        check_subtree_inert(&d.name, child)?;
                        claim(&mut claimed, &child_path, &d.name)?;
                        presence.push((child_path.clone(), d.when.clone()));
                        family_tree
                            .find_mut(&target_path)
                            .expect("target checked above")
                            .children
                            .push(child.clone());
                    }
                }
                DeltaOp::RemovesNode { path } => {
                    let target_path = normalise(path);
                    if target_path == "/" {
                        return Err(format!("delta {} conditionally removes the root", d.name));
                    }
                    let Some(node) = base.tree.find(&target_path) else {
                        return Err(format!(
                            "delta {} removes {target_path}, which is not in the base tree",
                            d.name
                        ));
                    };
                    check_subtree_inert(&d.name, node)?;
                    claim(&mut claimed, &target_path, &d.name)?;
                    presence.push((target_path, WhenExpr::Not(Box::new(d.when.clone()))));
                }
                DeltaOp::Modifies { path, .. } | DeltaOp::RemovesProperty { path, .. } => {
                    return Err(format!(
                        "delta {} conditionally {} {} (not node-presence-only)",
                        d.name,
                        op.verb(),
                        normalise(path)
                    ));
                }
            }
        }
    }

    // Unconditional deltas must not reach inside conditionally present
    // subtrees, or the base application itself would become
    // configuration-dependent.
    for d in &uncond {
        for op in &d.ops {
            let p = normalise(op.path());
            if claimed
                .iter()
                .any(|c| p == *c || p.starts_with(&format!("{c}/")))
            {
                return Err(format!(
                    "unconditional delta {} touches conditional subtree {p}",
                    d.name
                ));
            }
        }
    }

    Ok(LiftPlan {
        family_tree,
        presence,
    })
}

/// Registers a conditional subtree root, rejecting nesting/overlap with
/// previously claimed roots (disjointness keeps presence formulas
/// independent and application order immaterial).
fn claim(claimed: &mut Vec<String>, path: &str, delta: &str) -> Result<(), String> {
    for c in claimed.iter() {
        if path == c || path.starts_with(&format!("{c}/")) || c.starts_with(&format!("{path}/")) {
            return Err(format!(
                "delta {delta} touches {path}, overlapping conditional subtree {c}"
            ));
        }
    }
    claimed.push(path.to_string());
    Ok(())
}

/// A conditionally present subtree must not declare an interrupt
/// controller (its `#interrupt-cells` shapes how *other* nodes'
/// specifiers are decoded) or carry labels (other nodes could resolve
/// through them) — either would make unrelated nodes'
/// semantics configuration-dependent.
fn check_subtree_inert(delta: &str, node: &Node) -> Result<(), String> {
    for (path, n) in node.walk() {
        if n.prop("#interrupt-cells").is_some() {
            return Err(format!(
                "delta {delta}: conditional node {path} declares an interrupt controller"
            ));
        }
        if !n.labels.is_empty() {
            return Err(format!(
                "delta {delta}: conditional node {path} carries labels"
            ));
        }
    }
    Ok(())
}

fn normalise(path: &str) -> String {
    if path.starts_with('/') {
        path.to_string()
    } else {
        format!("/{path}")
    }
}

fn join_path(parent: &str, child: &str) -> String {
    if parent == "/" {
        format!("/{child}")
    } else {
        format!("{parent}/{child}")
    }
}

/// The presence formula of a node path as a solver term: the `when`
/// formula of the conditional subtree containing it, or `true`.
fn presence_term(
    ctx: &mut Context,
    plan: &LiftPlan,
    feats: &HashMap<String, TermId>,
    path: &str,
) -> TermId {
    for (root, when) in &plan.presence {
        if path == root || path.starts_with(&format!("{root}/")) {
            return when_term(ctx, when, feats);
        }
    }
    ctx.bool_const(true)
}

/// Encodes a delta `when` formula over the imported feature variables.
/// Features the model does not know are never selected, hence `false` —
/// matching [`WhenExpr::eval`] over model-produced selections.
fn when_term(ctx: &mut Context, when: &WhenExpr, feats: &HashMap<String, TermId>) -> TermId {
    match when {
        WhenExpr::True => ctx.bool_const(true),
        WhenExpr::Feature(name) => feats
            .get(name)
            .copied()
            .unwrap_or_else(|| ctx.bool_const(false)),
        WhenExpr::Not(a) => {
            let t = when_term(ctx, a, feats);
            ctx.not(t)
        }
        WhenExpr::And(a, b) => {
            let ta = when_term(ctx, a, feats);
            let tb = when_term(ctx, b, feats);
            ctx.and([ta, tb])
        }
        WhenExpr::Or(a, b) => {
            let ta = when_term(ctx, a, feats);
            let tb = when_term(ctx, b, feats);
            ctx.or([ta, tb])
        }
    }
}

/// The content-addressed cache key of a family verdict: the complete
/// input the verdict is a function of — core tree, every delta module
/// (name, guard, ordering constraints and ops), the feature model, the
/// schema set — plus the mode and whether the run certifies (a
/// certifying run does strictly more solver work).
pub fn family_key(input: &PipelineInput, mode: CheckMode, certify: bool) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = llhsc_dts::hash::Fnv1a::new();
    input.core.hash(&mut h);
    input.deltas.len().hash(&mut h);
    for d in &input.deltas {
        d.name.hash(&mut h);
        d.when.to_string().hash(&mut h);
        d.after.hash(&mut h);
        d.ops.len().hash(&mut h);
        for op in &d.ops {
            op.verb().hash(&mut h);
            op.path().hash(&mut h);
            match op {
                DeltaOp::Adds { fragment, .. } | DeltaOp::Modifies { fragment, .. } => {
                    fragment.hash(&mut h);
                }
                DeltaOp::RemovesNode { .. } => {}
                DeltaOp::RemovesProperty { name, .. } => name.hash(&mut h),
            }
        }
    }
    input.model.stable_hash().hash(&mut h);
    input.schemas.stable_hash().hash(&mut h);
    mode.name().hash(&mut h);
    certify.hash(&mut h);
    h.finish()
}

/// Asserts, in process, that a lifted and an enumerated run agree on
/// the verdict: same clean flag, same set of violated families, and
/// every lifted witness reproduced real diagnostics. Used by the bench
/// harness before results are written and by the equivalence tests.
///
/// # Panics
///
/// Panics when the two reports disagree.
pub fn assert_verdict_identity(lifted: &FamilyReport, enumerated: &FamilyReport) {
    assert_eq!(
        lifted.violated(),
        enumerated.violated(),
        "family-mode and enumerating verdicts disagree"
    );
    assert_eq!(lifted.is_ok(), enumerated.is_ok());
    for f in &lifted.findings {
        assert!(
            !f.diagnostics.is_empty()
                && !f
                    .diagnostics
                    .iter()
                    .any(|d| d.message.contains("lifting bug")),
            "lifted {} witness did not reproduce diagnostics",
            f.family
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadcore;

    fn modes_agree(input: &PipelineInput) -> (FamilyReport, FamilyReport) {
        let mut fam = FamilyChecker::new();
        let lifted = fam
            .check(input, CheckMode::Family)
            .expect("family mode runs");
        let mut en = FamilyChecker::new();
        let enumerated = en
            .check(input, CheckMode::Enumerate)
            .expect("enumerating mode runs");
        assert_verdict_identity(&lifted, &enumerated);
        (lifted, enumerated)
    }

    #[test]
    fn quadcore_family_is_certified_clean_without_enumeration() {
        let input = quadcore::pipeline_input();
        let (lifted, enumerated) = modes_agree(&input);
        assert!(lifted.lifted);
        assert!(lifted.fallback.is_none());
        assert!(lifted.is_ok());
        assert_eq!(lifted.products, 60);
        assert!(lifted.products_exact);
        // The quadcore board is conflict-free at the family level, so
        // no obligation sites survive and no product is ever derived.
        assert_eq!(lifted.stats.products_checked, 0);
        // The enumerating oracle pays for all 60 products.
        assert_eq!(enumerated.stats.products_checked, 60);
        assert_eq!(enumerated.stats.family_solves, 0);
    }

    /// Two UARTs at the same address, each feature-guarded: whether the
    /// collision is reachable depends only on the feature model.
    fn overlapping_board(model: &str) -> PipelineInput {
        let core = llhsc_dts::parse(
            r#"
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@80000000 { device_type = "memory"; reg = <0x80000000 0x1000000>; };
    uart@a0000000 { compatible = "ns16550a"; reg = <0xa0000000 0x1000>; };
    uart2@a0000000 { compatible = "ns16550a"; reg = <0xa0000000 0x1000>; };
};
"#,
        )
        .expect("core parses");
        let deltas = DeltaModule::parse_all(
            "delta drop_a when !ua { removes /uart@a0000000; }\n\
             delta drop_b when !ub { removes /uart2@a0000000; }\n",
        )
        .expect("deltas parse");
        PipelineInput {
            core,
            deltas,
            model: llhsc_fm::parse_model(model).expect("model parses"),
            schemas: llhsc_schema::SchemaSet::standard(),
            vms: Vec::new(),
        }
    }

    #[test]
    fn exclusive_features_certify_the_collision_unreachable() {
        // ua xor ub: no product contains both UARTs, so one UNSAT
        // family solve certifies the whole line despite the numeric
        // overlap in the family tree.
        let input = overlapping_board("feature B { g xor exclusive { ua? ub? } }");
        let (lifted, _) = modes_agree(&input);
        assert!(lifted.lifted);
        assert!(lifted.is_ok());
        assert_eq!(lifted.stats.family_solves, 1);
        assert_eq!(lifted.stats.obligations_lifted, 1);
        assert_eq!(lifted.stats.witnesses_extracted, 0);
    }

    #[test]
    fn reachable_collision_yields_replayed_witness() {
        // Independent optional features: the product selecting both
        // UARTs exists and collides.
        let input = overlapping_board("feature B { ua? ub? }");
        let (lifted, enumerated) = modes_agree(&input);
        assert!(lifted.lifted);
        assert_eq!(lifted.violated(), vec![ObligationFamily::Collision]);
        assert_eq!(lifted.stats.witnesses_extracted, 1);
        assert_eq!(lifted.stats.products_checked, 1);
        let f = &lifted.findings[0];
        assert!(f.witness.contains(&"ua".to_string()));
        assert!(f.witness.contains(&"ub".to_string()));
        assert!(f.diagnostics[0].message.contains("address collision"));
        // The enumerating oracle found the same family violated.
        assert_eq!(enumerated.findings[0].family, ObligationFamily::Collision);
    }

    #[test]
    fn certifying_checker_proves_unsat_family_verdicts() {
        let input = overlapping_board("feature B { g xor exclusive { ua? ub? } }");
        let mut fam = FamilyChecker::with_options(&CheckOptions {
            certify: true,
            ..CheckOptions::default()
        });
        let report = fam.check(&input, CheckMode::Family).expect("runs");
        assert!(report.is_ok());
        assert_eq!(fam.cert_stats().proofs, 1);
        let (cnf, proof) = fam.export_proof().expect("certifying session exports");
        assert!(llhsc_sat::check_drat(&cnf, &proof, llhsc_sat::CheckMode::Last).is_ok());
    }

    #[test]
    fn running_example_falls_back_to_enumeration() {
        // d3 `modifies /` conditionally — outside the liftable class.
        let input = crate::running_example::pipeline_input();
        let mut fam = FamilyChecker::new();
        let report = fam.check(&input, CheckMode::Family).expect("runs");
        assert!(!report.lifted);
        let reason = report
            .fallback
            .as_deref()
            .expect("fallback reason recorded");
        assert!(reason.contains("delta d"), "reason: {reason}");
        assert!(report.stats.products_checked > 0);
        // The fallback still agrees with an explicit enumerating run.
        let mut en = FamilyChecker::new();
        let enumerated = en.check(&input, CheckMode::Enumerate).expect("runs");
        assert_verdict_identity(&report, &enumerated);
    }

    #[test]
    fn counters_sum_to_run_totals() {
        let input = overlapping_board("feature B { ua? ub? }");
        let mut fam = FamilyChecker::new();
        let report = fam.check(&input, CheckMode::Family).expect("runs");
        // One pair site, one solve, one witness, one replayed product.
        assert_eq!(report.stats.obligations_lifted, 1);
        assert_eq!(report.stats.family_solves, 1);
        assert_eq!(report.stats.witnesses_extracted, 1);
        assert_eq!(report.stats.products_checked, 1);
        assert!(report.stats.solver.solves > 0);
    }
}
