//! One tree's check: the syntactic checker (§IV-B), then the semantic
//! checker (§IV-C) over regions decoded once. `llhsc check`, the
//! daemon, the pipeline's checking stage and the family walk all check
//! a tree through [`TreeChecker::check`], and only render, stamp or
//! index its findings.

use std::time::{Duration, Instant};

use llhsc_delta::Provenance;
use llhsc_dts::DeviceTree;
use llhsc_obs::TraceCtx;
use llhsc_sat::{Cnf, ProofStep, SolverStats};
use llhsc_schema::{SchemaSet, SyntacticChecker};
use llhsc_smt::{CertStats, CheckOptions, SessionStats, SolverSession};

use crate::family::ObligationFamily;
use crate::pipeline::StageSpan;
use crate::report::{Diagnostic, Stage};
use crate::semantic::{tree_regions, RegionCheckStats, RegionRef, SemanticChecker};

/// What one tree's check found, and what it cost.
#[derive(Debug, Clone, Default)]
pub struct TreeCheck {
    /// Error findings per [`ObligationFamily`], in
    /// [`ObligationFamily::ALL`] order; coverage only when asked.
    pub findings: [Vec<Diagnostic>; 5],
    /// Why the tree's regions could not be decoded, in which case the
    /// semantic checker did not run: the input is unusable.
    pub input_error: Option<Diagnostic>,
    /// The tree's non-empty regions at the addresses the CPU sees.
    pub regions: Vec<RegionRef>,
    /// Schema rules the syntactic checker evaluated.
    pub rules_checked: usize,
    /// Cost counters of the region-disjointness check.
    pub stats: RegionCheckStats,
    /// Solver work of both checkers, coverage included.
    pub solver: SolverStats,
    /// Session reuse of both checkers.
    pub session: SessionStats,
    /// Wall-clock time of the semantic check; zero when it did not run.
    pub elapsed: Duration,
}

/// One stage's exported refutation material: the accumulated formula
/// and the DRAT proof the stage's solver emitted over it.
#[derive(Debug, Clone)]
pub struct ProofBundle {
    /// `"syntactic"` or `"semantic"`.
    pub stage: &'static str,
    /// Every problem clause the stage's solver was given.
    pub cnf: Cnf,
    /// The DRAT derivation over `cnf`.
    pub proof: Vec<ProofStep>,
}

/// Checks trees against one schema set. Its syntactic session and
/// semantic checker serve every tree it checks: the family walk keeps
/// one for all its products, `check` and `build` build one per tree.
#[derive(Debug)]
pub struct TreeChecker<'a> {
    schemas: &'a SchemaSet,
    /// Memory that every memory region of a tree must lie in.
    coverage: Option<&'a [RegionRef]>,
    syntactic: SolverSession,
    semantic: SemanticChecker,
}

impl<'a> TreeChecker<'a> {
    /// A checker whose sessions are built from `opts`, except its trace:
    /// each check records under the trace it is given.
    pub fn new(schemas: &'a SchemaSet, opts: &CheckOptions) -> TreeChecker<'a> {
        let opts = CheckOptions {
            trace: None,
            ..opts.clone()
        };
        TreeChecker {
            schemas,
            coverage: None,
            syntactic: SolverSession::with_options(&opts),
            semantic: SemanticChecker::with_options(&opts),
        }
    }

    /// Also checks each tree's memory regions against `memory`.
    pub fn with_coverage(mut self, memory: &'a [RegionRef]) -> TreeChecker<'a> {
        self.coverage = Some(memory);
        self
    }

    /// Checks one tree. Each finding is blamed on `blame` of the paths
    /// it names (a node, a region, both regions of a collision, or
    /// every device sharing an interrupt line), each provenance once.
    /// With a trace, records a `"syntactic"` and a `"semantic"` span
    /// under it, each parenting its checker's `"solve"` spans and
    /// carrying its session's `asserts_encoded` and `asserts_reused`.
    pub fn check(
        &mut self,
        tree: &DeviceTree,
        blame: &dyn Fn(&str) -> Vec<Provenance>,
        trace: Option<&TraceCtx>,
    ) -> TreeCheck {
        let mut out = TreeCheck::default();
        let span = StageSpan::begin(trace, "syntactic");
        let session = std::mem::take(&mut self.syntactic);
        let session_base = session.stats();
        let mut checker = SyntacticChecker::with_session(tree, self.schemas, session);
        if let Some(span) = &span {
            checker.context_mut().set_trace(span.child());
        }
        let solver_base = checker.solver_stats();
        let report = checker.check();
        out.solver = checker.solver_stats().delta_since(&solver_base);
        out.session = checker.session_stats().delta_since(&session_base);
        checker.context_mut().clear_trace();
        self.syntactic = checker.into_session();
        finish(span, &out.session);
        out.rules_checked = report.rules_checked;
        out.findings[ObligationFamily::Syntactic.index()] = report
            .violations
            .iter()
            .map(|v| Diagnostic::error(Stage::Syntactic, v.to_string()).blame(blame(&v.path)))
            .collect();

        let started = Instant::now();
        let span = StageSpan::begin(trace, "semantic");
        self.semantic.trace = span.as_ref().map(StageSpan::child);
        let session_base = self.semantic.session_stats();
        let error = |message: String| Diagnostic::error(Stage::Semantic, message);
        let blame_all = |paths: &[&str]| {
            let mut blamed: Vec<Provenance> = Vec::new();
            for p in paths.iter().flat_map(|path| blame(path)) {
                if !blamed.contains(&p) {
                    blamed.push(p);
                }
            }
            blamed
        };
        match tree_regions(tree) {
            Ok((regions, memory)) => {
                let (report, stats) = self.semantic.check_decoded(tree, &regions);
                out.findings[ObligationFamily::Collision.index()] = report
                    .collisions
                    .iter()
                    .map(|c| error(c.to_string()).blame(blame_all(&[&c.a.path, &c.b.path])))
                    .collect();
                out.findings[ObligationFamily::Interrupt.index()] = report
                    .interrupt_conflicts
                    .iter()
                    .map(|(line, users)| {
                        let paths: Vec<&str> = users.iter().map(String::as_str).collect();
                        error(format!(
                            "interrupt line {line} claimed by {}",
                            users.join(", ")
                        ))
                        .blame(blame_all(&paths))
                    })
                    .collect();
                out.findings[ObligationFamily::Wrapping.index()] = report
                    .wrapping
                    .iter()
                    .map(|r| {
                        error(format!(
                            "region wraps past the end of the address space: {r}"
                        ))
                        .blame(blame(&r.path))
                    })
                    .collect();
                if let Some(outer) = self.coverage {
                    let (gaps, solver) = self.semantic.check_coverage_with_stats(&memory, outer);
                    out.solver.merge(&solver);
                    out.findings[ObligationFamily::Coverage.index()] = gaps
                        .iter()
                        .map(|g| error(g.to_string()).blame(blame(&g.region.path)))
                        .collect();
                }
                out.solver.merge(&stats.solver);
                out.stats = stats;
                out.regions = regions;
                out.elapsed = started.elapsed();
            }
            Err(e) => out.input_error = Some(error(e.to_string())),
        }
        self.semantic.trace = None;
        let session = self.semantic.session_stats().delta_since(&session_base);
        out.session.merge(&session);
        finish(span, &session);
        out
    }

    /// DRAT certification counters of both sessions.
    pub fn cert_stats(&self) -> CertStats {
        let mut cert = self.syntactic.cert_stats();
        cert.merge(&self.semantic.cert_stats());
        cert
    }

    /// The proof bundle of each certifying session, syntactic then
    /// semantic.
    pub fn export_proofs(&self) -> Vec<ProofBundle> {
        [
            ("syntactic", self.syntactic.export_proof()),
            ("semantic", self.semantic.export_proof()),
        ]
        .into_iter()
        .filter_map(|(stage, bundle)| bundle.map(|(cnf, proof)| ProofBundle { stage, cnf, proof }))
        .collect()
    }
}

/// Closes a stage span with its session's reuse counters.
fn finish(span: Option<StageSpan>, session: &SessionStats) {
    if let Some(span) = &span {
        span.add("asserts_encoded", session.asserts_encoded);
        span.add("asserts_reused", session.asserts_reused);
    }
    StageSpan::finish(span);
}
