//! E10 — Fig. 2: the full llhsc workflow, from core module + deltas +
//! feature configurations to checked DTSs and hypervisor configuration
//! files, including failure paths with delta provenance.

use llhsc::running_example;
use llhsc::{Pipeline, PipelineInput, Severity, Stage, VmSpec};
use llhsc_delta::{DerivedProduct, ProductLine};
use llhsc_schema::SyntacticChecker;

#[test]
fn happy_path_produces_all_artifacts() {
    let out = Pipeline::new()
        .run(&running_example::pipeline_input())
        .expect("Fig. 2 workflow succeeds on the running example");
    // "the output consists of DTSs and a hypervisor configuration file"
    assert_eq!(out.vm_dts.len(), 2);
    assert!(!out.platform_dts.is_empty());
    assert!(out.platform_c.contains("platform_desc"));
    assert_eq!(out.vm_c.len(), 2);
    // Every produced DTS reparses.
    for dts in out.vm_dts.iter().chain([&out.platform_dts]) {
        assert!(llhsc_dts::parse(dts).is_ok());
    }
    // No error-severity diagnostics on success.
    assert!(out
        .diagnostics
        .iter()
        .all(|d| d.severity != Severity::Error));
}

#[test]
fn every_stage_can_reject() {
    // Allocation stage.
    let mut input = running_example::pipeline_input();
    input.vms[1].features = vec!["memory".into(), "cpu@0".into(), "uart@20000000".into()];
    let err = Pipeline::new().run(&input).unwrap_err();
    assert!(err.diagnostics.iter().any(|d| d.stage == Stage::Allocation));

    // Delta stage (missing prerequisite).
    let mut input = running_example::pipeline_input();
    input.deltas.retain(|d| d.name != "d3");
    let err = Pipeline::new().run(&input).unwrap_err();
    assert!(err
        .diagnostics
        .iter()
        .any(|d| d.stage == Stage::DeltaApplication));

    // Syntactic stage (schema violation introduced by a delta).
    let mut input = running_example::pipeline_input();
    let src = running_example::DELTAS.replace("id = <0>;", "");
    input.deltas = llhsc_delta::DeltaModule::parse_all(&src).unwrap();
    let err = Pipeline::new().run(&input).unwrap_err();
    assert!(err.diagnostics.iter().any(|d| d.stage == Stage::Syntactic));

    // Semantic stage (collision introduced by a delta).
    let mut input = running_example::pipeline_input();
    input.deltas.retain(|d| d.name != "d4");
    let err = Pipeline::new().run(&input).unwrap_err();
    assert!(err.diagnostics.iter().any(|d| d.stage == Stage::Semantic));
}

#[test]
fn syntactic_failures_carry_delta_blame() {
    let mut input = running_example::pipeline_input();
    let src = running_example::DELTAS.replace("id = <0>;", "");
    input.deltas = llhsc_delta::DeltaModule::parse_all(&src).unwrap();
    let err = Pipeline::new().run(&input).unwrap_err();
    let syn: Vec<_> = err
        .diagnostics
        .iter()
        .filter(|d| d.stage == Stage::Syntactic)
        .collect();
    assert!(!syn.is_empty());
    assert!(
        syn.iter().any(|d| d.blamed.iter().any(|p| p.delta == "d1")),
        "the violation must be traced to d1, which added the veth node"
    );
}

#[test]
fn single_vm_configuration() {
    // One VM using everything it may (cpu@0 side of the model).
    let mut input = running_example::pipeline_input();
    input.vms = vec![VmSpec {
        name: "solo".into(),
        features: vec![
            "memory".into(),
            "cpu@0".into(),
            "uart@20000000".into(),
            "uart@30000000".into(),
            "veth0".into(),
        ],
    }];
    let out = Pipeline::new().run(&input).expect("single VM works");
    assert_eq!(out.vm_configs.len(), 1);
    assert_eq!(out.vm_configs[0].cpu_affinity, 0b01);
    assert!(out.vm_c[0].contains("VM_IMAGE(solo, soloimage.bin);"));
}

#[test]
fn vm_without_veth_keeps_64bit_layout() {
    // A VM that selects no virtual Ethernet never activates d3/d4, so
    // its DTS keeps the 64-bit core layout and still checks clean.
    let mut input = running_example::pipeline_input();
    input.vms = vec![VmSpec {
        name: "plain".into(),
        features: vec!["memory".into(), "cpu@0".into(), "uart@20000000".into()],
    }];
    let out = Pipeline::new().run(&input).expect("plain VM works");
    assert_eq!(
        out.vm_trees[0].root.prop_u32("#address-cells"),
        Some(2),
        "d3 must not have run"
    );
    assert!(out.vm_trees[0].find("/vEthernet").is_none());
    // Deselected devices were dropped by the housekeeping deltas.
    assert!(out.vm_trees[0].find("/uart@30000000").is_none());
    assert!(out.vm_trees[0].find("/cpus/cpu@1").is_none());
}

#[test]
fn ablation_matrix() {
    // The paper's comparison table in miniature, on the d4-less input:
    // llhsc rejects it, while the dt-schema baseline (the structural
    // rules alone) and the dtc baseline (derivation and printing alone)
    // accept every product.
    let mut input = running_example::pipeline_input();
    input.deltas.retain(|d| d.name != "d4");

    let err = Pipeline::new().run(&input).unwrap_err();
    assert!(err.diagnostics.iter().any(|d| d.stage == Stage::Semantic));

    for product in derived_products(&input) {
        let report = SyntacticChecker::new(&product.tree, &input.schemas).check();
        assert!(
            report.violations.is_empty(),
            "dt-schema mode must not catch the truncation: {:?}",
            report.violations
        );
        let printed = llhsc_dts::print(&product.tree);
        assert!(
            llhsc_dts::parse(&printed).is_ok(),
            "dtc mode prints {printed}"
        );
    }
}

/// Every VM product of `input` and the platform product (the union of
/// the VM selections), derived without the checking stages.
fn derived_products(input: &PipelineInput) -> Vec<DerivedProduct> {
    let line = ProductLine::new(input.core.clone(), input.deltas.clone());
    let mut platform: Vec<&str> = Vec::new();
    let mut products = Vec::new();
    for vm in &input.vms {
        let names: Vec<&str> = vm.features.iter().map(String::as_str).collect();
        products.push(line.derive(&names).expect("VM product derives"));
        platform.extend(names);
    }
    platform.sort_unstable();
    platform.dedup();
    products.push(line.derive(&platform).expect("platform product derives"));
    products
}

#[test]
fn diagnostics_render_human_readably() {
    let mut input = running_example::pipeline_input();
    input.deltas.retain(|d| d.name != "d4");
    let err = Pipeline::new().run(&input).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("llhsc pipeline failed"));
    assert!(text.contains("error[semantic]"));
    assert!(text.contains("collision"));
}
