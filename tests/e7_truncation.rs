//! E7 — §IV-C: the 64→32-bit truncation error. Applying d3 (which
//! switches the root to 32-bit cells) while "the user forgets to update
//! the memory node … omitting the delta d4" makes the unchanged 64-bit
//! `reg` parse as **four** banks instead of two, colliding at address
//! 0x0. dt-schema accepts the file ("any multiple of the sum … is
//! valid"); the semantic checker rejects it.

use llhsc::running_example;
use llhsc::SemanticChecker;
use llhsc_delta::{DeltaModule, ProductLine};
use llhsc_dts::cells::collect_regions;
use llhsc_schema::{check_structural, SchemaSet, SyntacticChecker};

/// The Listing 4 deltas minus d4 — the user's mistake.
fn deltas_without_d4() -> Vec<DeltaModule> {
    running_example::deltas()
        .into_iter()
        .filter(|d| d.name != "d4")
        .collect()
}

fn broken_tree() -> llhsc_dts::DeviceTree {
    let line = ProductLine::new(running_example::core_tree(), deltas_without_d4());
    line.derive(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"])
        .unwrap()
        .tree
}

#[test]
fn four_banks_found_instead_of_two() {
    // "four banks of memory are found, instead of the original two".
    let tree = broken_tree();
    let devices = collect_regions(&tree).unwrap();
    let mem = devices
        .iter()
        .find(|d| d.path == "/memory@40000000")
        .unwrap();
    assert_eq!(mem.cells, (1, 1), "d3 switched the root to 1+1 cells");
    assert_eq!(mem.regions.len(), 4);
    // Every misparsed bank is based at 0x0: under 1+1 cells the high
    // half of each 64-bit quantity (always 0x0 here) becomes the
    // address — hence the paper's "collision on the address 0x0".
    let at_zero = mem.regions.iter().filter(|r| r.address == 0).count();
    assert_eq!(at_zero, 4);
}

#[test]
fn dt_schema_accepts_the_truncated_reg() {
    // "Because dt-schema assumes that any multiple of the sum obtained
    // from #address-cells and #size-cells is valid, it fails to capture
    // the truncation" — 8 cells divide evenly into 1+1 entries.
    let tree = broken_tree();
    let schemas = SchemaSet::standard();
    let memory_violations: Vec<_> = check_structural(&tree, &schemas)
        .into_iter()
        .filter(|v| v.path.contains("memory"))
        .collect();
    assert!(memory_violations.is_empty(), "{memory_violations:?}");
    let report = SyntacticChecker::new(&tree, &schemas).check();
    let memory_smt: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.path.contains("memory"))
        .collect();
    assert!(memory_smt.is_empty(), "{memory_smt:?}");
}

#[test]
fn semantic_checker_finds_collision_at_zero() {
    // "our checker can find an actual collision on the address 0x0".
    let tree = broken_tree();
    let report = SemanticChecker::new()
        .check_tree_with_stats(&tree)
        .unwrap()
        .0;
    assert!(!report.is_ok());
    let zero_collision = report
        .collisions
        .iter()
        .find(|c| c.a.region.address == 0 && c.b.region.address == 0)
        .expect("collision between the two banks misparsed to base 0x0");
    assert_eq!(zero_collision.a.path, "/memory@40000000");
    assert_eq!(zero_collision.b.path, "/memory@40000000");
}

#[test]
fn with_d4_the_product_is_clean() {
    // The correct product line (d4 present) has no collisions.
    let p = running_example::product_line()
        .derive(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"])
        .unwrap();
    let report = SemanticChecker::new()
        .check_tree_with_stats(&p.tree)
        .unwrap()
        .0;
    assert!(report.is_ok(), "{:?}", report.collisions);
}

#[test]
fn reverse_hazard_d4_without_d3() {
    // The dual mistake: the verbatim Listing 4 guards d4 only on
    // `memory`, so a no-veth product applies the 32-bit relayout under
    // the 64-bit root cells — 4 cells parse as one bogus 2+2 entry.
    let verbatim_d4 = DeltaModule::parse_all(
        r#"delta d4 when memory {
            modifies memory@40000000 {
                reg = <0x40000000 0x20000000
                       0x60000000 0x20000000>;
            };
        }"#,
    )
    .unwrap();
    let line = ProductLine::new(running_example::core_tree(), verbatim_d4);
    let p = line.derive(&["memory"]).unwrap();
    let devices = collect_regions(&p.tree).unwrap();
    let mem = devices
        .iter()
        .find(|d| d.path == "/memory@40000000")
        .unwrap();
    // One entry whose address is the concatenation 0x40000000_20000000.
    assert_eq!(mem.cells, (2, 2));
    assert_eq!(mem.regions.len(), 1);
    assert_eq!(mem.regions[0].address, 0x4000_0000_2000_0000);
}

#[test]
fn pipeline_rejects_the_mistake_with_provenance() {
    // End to end: the pipeline fails and the diagnostic points at the
    // deltas that touched the colliding node.
    let mut input = running_example::pipeline_input();
    input.deltas = deltas_without_d4();
    let err = llhsc::Pipeline::new().run(&input).unwrap_err();
    let semantic: Vec<_> = err
        .diagnostics
        .iter()
        .filter(|d| d.stage == llhsc::Stage::Semantic)
        .collect();
    assert!(!semantic.is_empty());
    // d3 modified the root (cells change) — it appears in the blame of
    // the memory collision (root ancestry).
    assert!(semantic
        .iter()
        .any(|d| d.blamed.iter().any(|p| p.delta == "d3")));
}
