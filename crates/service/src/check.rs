//! Single-tree checking with the exact rendering of `llhsc check`.
//!
//! Both the local CLI command and the daemon's `check` op produce their
//! output through [`check_tree`], so `llhsc client check` is
//! byte-identical to `llhsc check` by construction — the bytes come
//! from one function, only the transport differs.

use std::time::{Duration, Instant};

use llhsc::{
    CertStats, CheckOptions, Cnf, ProofStep, RegionCheckStats, SemanticChecker, SessionStats,
    SolverSession, SolverStats,
};
use llhsc_dts::DeviceTree;
use llhsc_schema::{SchemaSet, SyntacticChecker};

/// The rendered result of checking one tree: the exact bytes `llhsc
/// check` writes to each stream, plus the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Bytes for stdout (the `checked … : ok|INVALID` summary).
    pub stdout: String,
    /// Bytes for stderr (one `error[…]: …` line per finding).
    pub stderr: String,
    /// `true` when no finding was produced (exit code 0 vs 1).
    pub clean: bool,
    /// `true` when the input itself could not be interpreted (e.g.
    /// `#address-cells` out of range): the tool-failure case of the
    /// exit-code contract, exit 2 rather than 1.
    pub input_error: bool,
}

/// A [`CheckReport`] plus the instrumentation `--stats` renders.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The rendered report.
    pub report: CheckReport,
    /// Semantic-checker cost counters (zero if the check aborted).
    pub stats: RegionCheckStats,
    /// Total solver work this check performed (syntactic rule solves
    /// plus semantic disjointness queries). Equals the sum over the
    /// check's `"solve"` trace spans when a trace context is attached.
    pub solver: SolverStats,
    /// Solver-session reuse counters: how much of the check's encoding
    /// and assertion work was amortized against already bit-blasted
    /// slices (summed over the syntactic and semantic sessions).
    pub session: SessionStats,
    /// Wall-clock time of the semantic check.
    pub elapsed: Duration,
    /// DRAT certification counters, summed over the syntactic and
    /// semantic sessions. `None` unless the check ran with
    /// [`CheckOptions::certify`] set. When present, every `Unsat` verdict the
    /// check produced was replayed through the in-tree DRAT checker
    /// before being reported (an invalid proof panics — a verdict never
    /// silently survives a failed certification).
    pub cert: Option<CertStats>,
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

/// Runs the syntactic + semantic checkers over one tree against the
/// standard schema set, rendering findings exactly as `llhsc check`
/// always has.
pub fn check_tree(tree: &DeviceTree) -> CheckOutcome {
    check_tree_with(tree, &CheckOptions::default()).0
}

/// [`check_tree`] with both stages' solver sessions built from `opts`.
/// The rendered bytes are identical whatever the options:
///
/// * with a trace, the run records a `"check"` span parenting one
///   `"syntactic"` and one `"semantic"` stage span, each parenting the
///   `"solve"` spans of its checker's solver calls;
/// * with a progress sink, both stages' solvers heartbeat through it;
/// * with `certify`, every `Unsat` verdict either checker produces is
///   replayed through the in-tree DRAT checker before it is reported,
///   [`CheckOutcome::cert`] is populated and the per-stage
///   formula/proof pairs are returned for archival (e.g. `llhsc check
///   --proof`); otherwise the bundle list is empty.
pub fn check_tree_with(tree: &DeviceTree, opts: &CheckOptions) -> (CheckOutcome, Vec<ProofBundle>) {
    use std::fmt::Write as _;
    let mut stdout = String::new();
    let mut stderr = String::new();
    let mut failed = false;
    let mut input_error = false;

    let root = opts.trace.as_ref().map(|t| (t.clone(), t.begin("check")));
    let scoped = root.as_ref().map(|(t, id)| t.at(*id));
    let trace = scoped.as_ref();
    let mut solver = SolverStats::default();
    let mut session = SessionStats::default();

    let syn_span = trace.map(|t| (t, t.begin("syntactic")));
    let syn_session = SolverSession::with_options(&CheckOptions {
        trace: None,
        ..opts.clone()
    });
    let mut syn_checker = SyntacticChecker::with_session(tree, &SchemaSet::standard(), syn_session);
    if let Some((t, id)) = &syn_span {
        syn_checker.context_mut().set_trace(t.at(*id));
    }
    let solver_base = syn_checker.solver_stats();
    let syntactic = syn_checker.check();
    solver.merge(&syn_checker.solver_stats().delta_since(&solver_base));
    session.merge(&syn_checker.session_stats());
    if let Some((t, id)) = syn_span {
        let stats = syn_checker.session_stats();
        t.add(id, "asserts_encoded", stats.asserts_encoded);
        t.add(id, "asserts_reused", stats.asserts_reused);
        t.finish(id);
    }
    for v in &syntactic.violations {
        let _ = writeln!(stderr, "error[syntactic]: {v}");
        failed = true;
    }

    let started = Instant::now();
    let mut stats = RegionCheckStats::default();
    let mut elapsed = Duration::ZERO;
    let sem_span = trace.map(|t| (t, t.begin("semantic")));
    let mut sem_checker = SemanticChecker::with_options(&CheckOptions {
        trace: sem_span.as_ref().map(|(t, id)| t.at(*id)),
        ..opts.clone()
    });
    let outcome = sem_checker.check_tree_with_stats(tree);
    session.merge(&sem_checker.session_stats());
    if let Some((t, id)) = sem_span {
        let stats = sem_checker.session_stats();
        t.add(id, "asserts_encoded", stats.asserts_encoded);
        t.add(id, "asserts_reused", stats.asserts_reused);
        t.finish(id);
    }
    match outcome {
        Ok((report, check_stats)) => {
            elapsed = started.elapsed();
            solver.merge(&check_stats.solver);
            stats = check_stats;
            for c in &report.collisions {
                let _ = writeln!(stderr, "error[semantic]: {c}");
                failed = true;
            }
            for (line, users) in &report.interrupt_conflicts {
                let _ = writeln!(
                    stderr,
                    "error[semantic]: interrupt line {line} claimed by {}",
                    users.join(", ")
                );
                failed = true;
            }
            for r in &report.wrapping {
                let _ = writeln!(
                    stderr,
                    "error[semantic]: region wraps past the end of the address space: {r}"
                );
                failed = true;
            }
            let _ = writeln!(
                stdout,
                "checked {} nodes, {} regions, {} schema rules: {}",
                tree.size(),
                report.regions_checked,
                syntactic.rules_checked,
                if failed { "INVALID" } else { "ok" }
            );
        }
        Err(e) => {
            // The tree itself is uninterpretable (bad cell counts, bad
            // reg shapes): a tool-failure under the exit-code contract,
            // not a checker finding.
            let _ = writeln!(stderr, "error[semantic]: {e}");
            failed = true;
            input_error = true;
        }
    }
    if let Some((t, id)) = root {
        t.finish(id);
    }
    let mut cert = None;
    let mut bundles = Vec::new();
    if opts.certify {
        let mut c = syn_checker.cert_stats();
        c.merge(&sem_checker.cert_stats());
        cert = Some(c);
        if let Some((cnf, proof)) = syn_checker.export_proof() {
            bundles.push(ProofBundle {
                stage: "syntactic",
                cnf,
                proof,
            });
        }
        if let Some((cnf, proof)) = sem_checker.export_proof() {
            bundles.push(ProofBundle {
                stage: "semantic",
                cnf,
                proof,
            });
        }
    }
    (
        CheckOutcome {
            report: CheckReport {
                stdout,
                stderr,
                clean: !failed,
                input_error,
            },
            stats,
            solver,
            session,
            elapsed,
            cert,
        },
        bundles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_tree_reports_ok() {
        let tree = llhsc_dts::parse(
            "/ { #address-cells = <1>; #size-cells = <1>;\n\
             \x20   memory@1000 { device_type = \"memory\"; reg = <0x1000 0x1000>; }; };",
        )
        .unwrap();
        let out = check_tree(&tree);
        assert!(out.report.clean);
        assert!(
            out.report.stdout.ends_with(": ok\n"),
            "{}",
            out.report.stdout
        );
        assert!(out.report.stderr.is_empty());
    }

    #[test]
    fn traced_check_matches_untraced_and_sums_solve_spans() {
        use llhsc_obs::{TraceCtx, Tracer};
        use std::sync::Arc;

        let tree = llhsc_dts::parse(
            "/ { #address-cells = <1>; #size-cells = <1>;\n\
             \x20   memory@1000 { device_type = \"memory\"; reg = <0x1000 0x1000>; };\n\
             \x20   uart@2000 { reg = <0x2000 0x1000>; }; };",
        )
        .unwrap();
        let tracer = Arc::new(Tracer::zeroed());
        let ctx = TraceCtx::new(Arc::clone(&tracer));
        let (traced, _) = check_tree_with(
            &tree,
            &CheckOptions {
                trace: Some(ctx),
                ..CheckOptions::default()
            },
        );
        let plain = check_tree(&tree);
        assert_eq!(traced.report, plain.report);
        assert_eq!(traced.solver, plain.solver);

        let spans = tracer.spans();
        assert!(spans.iter().all(|s| s.dur_us.is_some()), "all spans closed");
        for name in ["check", "syntactic", "semantic"] {
            assert!(spans.iter().any(|s| s.name == name), "missing {name} span");
        }
        let solves: Vec<_> = spans.iter().filter(|s| s.name == "solve").collect();
        assert!(!solves.is_empty(), "checking must solve");
        let sum = |key: &str| -> u64 { solves.iter().filter_map(|s| s.counter(key)).sum() };
        assert_eq!(sum("solves"), traced.solver.solves);
        assert_eq!(sum("decisions"), traced.solver.decisions);
        assert_eq!(sum("propagations"), traced.solver.propagations);
        assert_eq!(sum("conflicts"), traced.solver.conflicts);
    }

    #[test]
    fn certified_check_renders_identically_and_proves_unsat_verdicts() {
        use llhsc::{check_drat, CheckMode};

        // A colliding board: the semantic stage's disjointness check is
        // UNSAT, so the certified run must carry a verified proof.
        let tree = llhsc_dts::parse(
            "/ {\n\
             \x20   #address-cells = <2>; #size-cells = <2>;\n\
             \x20   memory@40000000 { device_type = \"memory\";\n\
             \x20       reg = <0x0 0x40000000 0x0 0x20000000>; };\n\
             \x20   uart@40000000 { reg = <0x0 0x40000000 0x0 0x1000>; };\n\
             };",
        )
        .unwrap();
        let plain = check_tree(&tree);
        let (certified, bundles) = check_tree_with(
            &tree,
            &CheckOptions {
                certify: true,
                ..CheckOptions::default()
            },
        );
        assert_eq!(certified.report, plain.report, "bytes must not change");
        let cert = certified.cert.expect("certified run populates counters");
        assert!(cert.proofs > 0, "UNSAT verdicts must be certified");
        assert!(cert.checked > 0);
        assert_eq!(bundles.len(), 2, "one bundle per stage");
        for b in &bundles {
            check_drat(&b.cnf, &b.proof, CheckMode::Last)
                .map(|_| ())
                .or_else(|e| match e {
                    // A stage that never answered Unsat has no lemma to
                    // certify — its (possibly empty) proof is vacuous.
                    llhsc::DratError::NoLemma => Ok(()),
                    other => Err(other),
                })
                .unwrap_or_else(|e| panic!("stage {} proof rejected: {e:?}", b.stage));
        }
        assert!(
            bundles
                .iter()
                .any(|b| check_drat(&b.cnf, &b.proof, CheckMode::Last).is_ok()),
            "at least one stage carries a real refutation"
        );
    }

    #[test]
    fn colliding_tree_reports_invalid() {
        let tree = llhsc_dts::parse(
            "/ {\n\
             \x20   #address-cells = <2>; #size-cells = <2>;\n\
             \x20   memory@40000000 { device_type = \"memory\";\n\
             \x20       reg = <0x0 0x40000000 0x0 0x20000000>; };\n\
             \x20   uart@50000000 { reg = <0x0 0x50000000 0x0 0x1000>; };\n\
             };",
        )
        .unwrap();
        let out = check_tree(&tree);
        assert!(!out.report.clean);
        assert!(out.report.stderr.contains("error[semantic]:"));
        assert!(out.report.stdout.ends_with(": INVALID\n"));
    }
}
