//! The §I-A motivating bug: a serial port whose base address clashes
//! with the second memory bank. Three tools look at the same file —
//! a dtc-like syntax check, a dt-schema-like structural check, and the
//! llhsc semantic checker. Only the last one finds the bug.
//!
//! Run with: `cargo run --example address_clash`

use llhsc::SemanticChecker;
use llhsc_schema::{check_structural, SchemaSet, SyntacticChecker};

const BUGGY: &str = r#"
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000
               0x0 0x60000000 0x0 0x20000000>;   // second bank: [0x60000000, 0x80000000)
    };
    uart@60000000 {
        compatible = "ns16550a";
        reg = <0x0 0x60000000 0x0 0x1000>;       // oops: inside the bank
    };
};
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("checking a DTS where the uart base (0x60000000) sits inside");
    println!("the second memory bank [0x60000000, 0x80000000)…\n");

    // Tool 1: dtc — syntax only.
    match llhsc_dts::parse(BUGGY) {
        Ok(tree) => println!(
            "dtc-like syntax check:      ACCEPTS ({} nodes parse, blob compiles: {} bytes)",
            tree.size(),
            llhsc_dts::fdt::encode(&tree).len()
        ),
        Err(e) => println!("dtc-like syntax check:      rejects: {e}"),
    }

    let tree = llhsc_dts::parse(BUGGY)?;
    let schemas = SchemaSet::standard();

    // Tool 2: dt-schema — structural rules, no cross-node relations.
    let structural = check_structural(&tree, &schemas);
    let smt_syntactic = SyntacticChecker::new(&tree, &schemas).check();
    println!(
        "dt-schema-like check:       {} ({} structural violations, {} SMT rule violations)",
        if structural.is_empty() && smt_syntactic.is_ok() {
            "ACCEPTS"
        } else {
            "rejects"
        },
        structural.len(),
        smt_syntactic.violations.len()
    );

    // Tool 3: llhsc — formula (7) over bit-vectors.
    let (semantic, _) = SemanticChecker::new().check_tree_with_stats(&tree)?;
    println!(
        "llhsc semantic check:       {} ({} collision{})",
        if semantic.is_ok() {
            "accepts"
        } else {
            "REJECTS"
        },
        semantic.collisions.len(),
        if semantic.collisions.len() == 1 {
            ""
        } else {
            "s"
        },
    );
    for c in &semantic.collisions {
        println!("\n  {c}");
        println!(
            "  the solver's counterexample: address {:#x} belongs to both regions",
            c.witness
        );
    }
    Ok(())
}
