//! Beyond the paper's 2-CPU example: a synthetic quad-core SBC with
//! four VMs, exercising the pipeline's generality (the paper claims
//! the approach works "without sacrificing its generality", §Abstract).
//!
//! The board itself lives in `llhsc::quadcore`, shared with the
//! service end-to-end tests.

use llhsc::quadcore::{input, vm, MODEL};
use llhsc::{Pipeline, PipelineInput, RegionCheckStats, SemanticChecker, Severity, Stage, VmSpec};
use llhsc_delta::{DerivedProduct, ProductLine};
use llhsc_fm::{parse_model, MultiModel};
use llhsc_schema::{SchemaSet, SyntacticChecker};

#[test]
fn four_vms_partition_the_quadcore() {
    let vms = llhsc::quadcore::vm_specs();
    let out = Pipeline::new()
        .run(&input(vms))
        .expect("4-way partition works");
    assert_eq!(out.vm_configs.len(), 4);
    // Pairwise disjoint CPU affinities covering the whole cluster.
    let mut union = 0u64;
    for (i, a) in out.vm_configs.iter().enumerate() {
        for b in &out.vm_configs[i + 1..] {
            assert_eq!(a.cpu_affinity & b.cpu_affinity, 0);
        }
        union |= a.cpu_affinity;
    }
    assert_eq!(union, 0b1111);
    // Each VM sees exactly its own UART.
    for (i, tree) in out.vm_trees.iter().enumerate() {
        let uarts = tree
            .nodes()
            .into_iter()
            .filter(|(_, n)| n.base_name() == "uart")
            .count();
        assert_eq!(uarts, 1, "vm{i} must keep exactly one uart");
    }
    // The platform keeps all four.
    assert_eq!(out.platform_config.cpu_num, 4);
}

#[test]
fn fifth_vm_is_rejected() {
    let mut vms = llhsc::quadcore::vm_specs();
    vms.push(VmSpec {
        name: "vm4".into(),
        features: vec!["memory".into(), "uart@10000000".into()],
    });
    let err = Pipeline::new().run(&input(vms)).unwrap_err();
    assert!(err.diagnostics.iter().any(|d| d.stage == Stage::Allocation));
}

#[test]
fn max_vms_matches_cpu_count() {
    let model = parse_model(MODEL).unwrap();
    assert_eq!(MultiModel::max_vms(&model, 16), Some(4));
}

#[test]
fn shared_uart_between_vms_is_allowed() {
    // UARTs are not marked exclusive: two VMs may share a console.
    let vms = vec![vm("a", 0, 0), vm("b", 1, 0)];
    let out = Pipeline::new().run(&input(vms)).expect("shared uart ok");
    assert_eq!(out.vm_configs[0].devs, out.vm_configs[1].devs);
}

/// Renders a diagnostic stream for byte-level comparison.
fn rendered(diags: &[llhsc::Diagnostic]) -> Vec<String> {
    diags.iter().map(ToString::to_string).collect()
}

/// The running example with the §I-A clash planted: a physical device
/// on top of the second memory bank, so stage 3+4 finds errors in more
/// than one tree.
fn sabotaged_running_example() -> PipelineInput {
    let mut re = llhsc::running_example::pipeline_input();
    let deltas_src = llhsc::running_example::DELTAS.replace(
        "compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
        "compatible = \"pci\";\n            reg = <0x60000000 0x10000000>;",
    );
    re.deltas = llhsc_delta::DeltaModule::parse_all(&deltas_src).expect("deltas parse");
    re
}

/// The products stage 3+4 checks, in the pipeline's slot order (every
/// VM, then the platform), allocated and derived on the caller's thread.
fn allocated_products(input: &PipelineInput) -> Vec<DerivedProduct> {
    let selections: Vec<Vec<_>> = input
        .vms
        .iter()
        .map(|vm| {
            vm.features
                .iter()
                .map(|f| input.model.by_name(f).expect("known feature"))
                .collect()
        })
        .collect();
    let parts = MultiModel::new(&input.model, input.vms.len())
        .complete(&selections)
        .expect("allocation succeeds");
    let line = ProductLine::new(input.core.clone(), input.deltas.clone());
    parts
        .vms
        .iter()
        .chain(std::iter::once(&parts.platform))
        .map(|p| {
            let names: Vec<&str> = p.iter().map(|id| input.model.name(*id)).collect();
            line.derive(&names).expect("product derives")
        })
        .collect()
}

/// One product checked directly with fresh checkers on the caller's
/// thread: the syntactic violations, the semantic error count and the
/// semantic region-check counters.
fn direct_check(
    product: &DerivedProduct,
    schemas: &SchemaSet,
) -> (Vec<String>, usize, RegionCheckStats) {
    let syntactic = SyntacticChecker::new(&product.tree, schemas).check();
    let (report, stats) = SemanticChecker::new()
        .check_tree_with_stats(&product.tree)
        .expect("regs decode");
    let semantic_errors =
        report.collisions.len() + report.interrupt_conflicts.len() + report.wrapping.len();
    let violations = syntactic
        .violations
        .iter()
        .map(ToString::to_string)
        .collect();
    (violations, semantic_errors, stats)
}

#[test]
fn threaded_checking_matches_direct_checks_on_quadcore() {
    let input = llhsc::quadcore::pipeline_input();
    let out = Pipeline::new().run(&input).expect("quadcore passes");
    let products = allocated_products(&input);
    assert_eq!(products.len(), out.vm_dts.len() + 1);
    let (platform, vms) = products.split_last().expect("platform product");
    for (k, product) in vms.iter().enumerate() {
        assert_eq!(llhsc_dts::print(&product.tree), out.vm_dts[k], "vm{k}");
    }
    assert_eq!(llhsc_dts::print(&platform.tree), out.platform_dts);

    let mut direct = RegionCheckStats::default();
    for product in &products {
        let (violations, semantic_errors, stats) = direct_check(product, &input.schemas);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(semantic_errors, 0);
        direct.merge(&stats);
    }
    assert_eq!(direct.regions, out.semantic_stats.regions);
    assert_eq!(direct.pairs_considered, out.semantic_stats.pairs_considered);
    assert_eq!(direct.pairs_encoded, out.semantic_stats.pairs_encoded);
}

#[test]
fn threaded_checking_matches_direct_checks_on_failing_input() {
    let re = sabotaged_running_example();
    let err = Pipeline::new().run(&re).expect_err("sabotaged run fails");
    let products = allocated_products(&re);
    let slots = products.len();
    let mut failing = 0;
    for (i, product) in products.iter().enumerate() {
        let slot = (i + 1 < slots).then_some(i);
        let in_slot = |stage: Stage| -> Vec<&str> {
            err.diagnostics
                .iter()
                .filter(|d| d.vm == slot && d.stage == stage && d.severity == Severity::Error)
                .map(|d| d.message.as_str())
                .collect()
        };
        let (violations, semantic_errors, _) = direct_check(product, &re.schemas);
        assert_eq!(in_slot(Stage::Syntactic), violations, "slot {slot:?}");
        assert_eq!(
            in_slot(Stage::Semantic).len(),
            semantic_errors,
            "slot {slot:?}"
        );
        failing += usize::from(!violations.is_empty() || semantic_errors > 0);
    }
    assert!(failing > 1, "the clash must show in more than one tree");
}

#[test]
fn threaded_checking_is_deterministic_and_in_vm_order() {
    // Each tree of the sabotaged running example is checked on a thread
    // of its own; the merged stream must not depend on scheduling.
    let re = sabotaged_running_example();
    let first = Pipeline::new().run(&re).expect_err("sabotaged run fails");
    let second = Pipeline::new().run(&re).expect_err("sabotaged run fails");
    assert_eq!(rendered(&first.diagnostics), rendered(&second.diagnostics));

    // The merged checking-stage errors come in VM order, with the
    // platform's (`vm: None`) last.
    let slots: Vec<Option<usize>> = first
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .filter(|d| matches!(d.stage, Stage::Syntactic | Stage::Semantic))
        .map(|d| d.vm)
        .collect();
    assert!(
        slots.contains(&Some(0)) && slots.contains(&None),
        "{slots:?}"
    );
    let rank = |vm: &Option<usize>| vm.unwrap_or(usize::MAX);
    assert!(
        slots.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])),
        "{slots:?}"
    );
}
