//! `llhsc check`'s rendering of [`llhsc::TreeChecker`], the tree check
//! `build` and the family walk run too. The local CLI command and the
//! daemon's `check` op both render through [`check_tree_with`], so
//! `llhsc client check` is byte-identical to `llhsc check` by
//! construction: only the transport differs.

use llhsc::{CertStats, CheckOptions, RegionCheckStats, SessionStats, SolverStats, TreeChecker};
use llhsc_dts::DeviceTree;
use llhsc_schema::SchemaSet;

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
    /// DRAT certification counters, summed over the syntactic and
    /// semantic sessions. `None` unless the check ran with
    /// [`CheckOptions::certify`] set. When present, every `Unsat` verdict the
    /// check produced was replayed through the in-tree DRAT checker
    /// before being reported (an invalid proof panics — a verdict never
    /// silently survives a failed certification).
    pub cert: Option<CertStats>,
}

pub use llhsc::ProofBundle;

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
    let root = opts.trace.as_ref().map(|t| (t, t.begin("check")));
    let scoped = root.map(|(t, id)| t.at(id));
    let schemas = SchemaSet::standard();
    let mut checker = TreeChecker::new(&schemas, opts);
    let checked = checker.check(tree, &|_| Vec::new(), scoped.as_ref());
    if let Some((t, id)) = root {
        t.finish(id);
    }

    let mut stderr = String::new();
    for d in checked
        .findings
        .iter()
        .flatten()
        .chain(&checked.input_error)
    {
        let _ = writeln!(stderr, "{d}");
    }
    let clean = stderr.is_empty();
    // An uninterpretable tree (bad cell counts, bad reg shapes) is a
    // tool failure under the exit-code contract, not a checker finding,
    // and gets no summary.
    let input_error = checked.input_error.is_some();
    let stdout = if input_error {
        String::new()
    } else {
        format!(
            "checked {} nodes, {} regions, {} schema rules: {}\n",
            tree.size(),
            checked.regions.len(),
            checked.rules_checked,
            if clean { "ok" } else { "INVALID" }
        )
    };
    let (cert, bundles) = if opts.certify {
        (Some(checker.cert_stats()), checker.export_proofs())
    } else {
        (None, Vec::new())
    };
    (
        CheckOutcome {
            report: CheckReport {
                stdout,
                stderr,
                clean,
                input_error,
            },
            stats: checked.stats,
            solver: checked.solver,
            session: checked.session,
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
        let tracer = Arc::new(Tracer::wall());
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

    /// A one-VM project whose board holds an SRAM based at 0x50000800,
    /// half a page off.
    fn misaligned_project() -> llhsc::PipelineInput {
        llhsc::PipelineInput {
            core: llhsc_dts::parse(
                "/ {\n\
                 \x20   #address-cells = <1>; #size-cells = <1>;\n\
                 \x20   memory@40000000 { device_type = \"memory\"; reg = <0x40000000 0x10000000>; };\n\
                 \x20   sram@50000800 { compatible = \"mmio-sram\"; reg = <0x50000800 0x800>; };\n\
                 \x20   cpus { #address-cells = <1>; #size-cells = <0>;\n\
                 \x20       cpu@0 { device_type = \"cpu\"; compatible = \"arm,cortex-a53\"; reg = <0x0>; }; };\n\
                 };",
            )
            .unwrap(),
            deltas: Vec::new(),
            model: llhsc_fm::parse_model("feature Board { memory cpus xor exclusive { cpu@0? } }")
                .unwrap(),
            schemas: SchemaSet::standard(),
            vms: vec![llhsc::VmSpec {
                name: "vm1".into(),
                features: vec!["memory".into(), "cpu@0".into()],
            }],
        }
    }

    #[test]
    fn misaligned_region_warns_in_build_but_not_in_check() {
        let out = llhsc::Pipeline::new()
            .run(&misaligned_project())
            .expect("a warning does not fail the build");
        // One warning per product (the VM and the platform), naming the
        // region.
        let warnings: Vec<String> = out
            .diagnostics
            .iter()
            .filter(|d| d.severity == llhsc::Severity::Warning)
            .map(ToString::to_string)
            .collect();
        let message = "/sram@50000800#reg[0] = [0x50000800, 0x50001000) is not \
                       0x1000-aligned; stage-2 mapping will round it to page boundaries";
        assert_eq!(
            warnings,
            [
                format!("warning[semantic][vm1]: {message}"),
                format!("warning[semantic]: {message}")
            ]
        );
        // `check` of the derived tree prints error lines only, so it
        // prints nothing.
        let checked = check_tree(&out.vm_trees[0]);
        assert!(checked.report.clean);
        assert_eq!(checked.report.stderr, "");
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
