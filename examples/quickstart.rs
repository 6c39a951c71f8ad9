//! Quickstart: parse a DeviceTree source, check it syntactically and
//! semantically, and compile it to a flattened blob.
//!
//! Run with: `cargo run --example quickstart`

use llhsc::SemanticChecker;
use llhsc_schema::{SchemaSet, SyntacticChecker};

const BOARD: &str = r#"
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    model = "quickstart-board";

    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000>;
    };

    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 {
            compatible = "arm,cortex-a53";
            device_type = "cpu";
            enable-method = "psci";
            reg = <0x0>;
        };
    };

    uart@20000000 {
        compatible = "ns16550a";
        reg = <0x0 0x20000000 0x0 0x1000>;
    };
};
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse (the dtc front end).
    let tree = llhsc_dts::parse(BOARD)?;
    println!("parsed {} nodes", tree.size());

    // 2. Syntactic check against the binding schemas (§IV-B).
    let schemas = SchemaSet::standard();
    let report = SyntacticChecker::new(&tree, &schemas).check();
    println!(
        "syntactic: {} rules checked, {} violations",
        report.rules_checked,
        report.violations.len()
    );
    for v in &report.violations {
        println!("  {v}");
    }

    // 3. Semantic check: no two devices may claim the same address
    //    (§IV-C, formula (7) via bit-vectors).
    let (semantic, _) = SemanticChecker::new().check_tree_with_stats(&tree)?;
    println!(
        "semantic: {} regions checked, {} collisions",
        semantic.regions_checked,
        semantic.collisions.len()
    );
    for c in &semantic.collisions {
        println!("  {c}");
    }

    // 4. Compile to a flattened DeviceTree blob (what the kernel boots
    //    with) and round-trip it.
    let blob = llhsc_dts::fdt::encode(&tree);
    let back = llhsc_dts::fdt::decode(&blob)?;
    println!(
        "FDT blob: {} bytes, decodes to {} nodes",
        blob.len(),
        back.size()
    );

    // 5. Print the canonical source form.
    println!("\n{}", llhsc_dts::print(&tree));
    Ok(())
}
