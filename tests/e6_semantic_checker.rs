//! E6 — §I-A / §IV-C: the address clash between the serial port and
//! the second memory bank. The semantic checker (formula (7)) finds it;
//! the dtc-like and dt-schema-like baselines both accept the file.

use llhsc::SemanticChecker;
use llhsc_dts::parse;
use llhsc_schema::{check_structural, SchemaSet, SyntacticChecker};

/// Listing 1 with the §I-A mistake: uart moved onto the second bank.
const CLASHING: &str = r#"
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000
               0x0 0x60000000 0x0 0x20000000>;
    };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { compatible = "arm,cortex-a53"; device_type = "cpu";
                enable-method = "psci"; reg = <0x0>; };
        cpu@1 { compatible = "arm,cortex-a53"; device_type = "cpu";
                enable-method = "psci"; reg = <0x1>; };
    };
    uart@60000000 {
        compatible = "ns16550a";
        reg = <0x0 0x60000000 0x0 0x1000>;
    };
};
"#;

#[test]
fn dtc_baseline_accepts_the_clash() {
    // "A purely syntactic tool, such as the DT Compiler (dtc) itself,
    // is unable to detect this kind of error."
    let tree = parse(CLASHING).expect("syntactically valid");
    // It even compiles to a blob.
    let blob = llhsc_dts::fdt::encode(&tree);
    assert!(llhsc_dts::fdt::decode(&blob).is_ok());
}

#[test]
fn dt_schema_baseline_accepts_the_clash() {
    // "the tool dt-schema is unable to detect the address clash …
    // because the schema constraints cannot express relations between
    // addresses."
    let tree = parse(CLASHING).unwrap();
    let schemas = SchemaSet::standard();
    assert!(check_structural(&tree, &schemas).is_empty());
    assert!(SyntacticChecker::new(&tree, &schemas).check().is_ok());
}

#[test]
fn semantic_checker_finds_the_clash_with_witness() {
    // "it cannot define some rule that would verify that 0x60000000
    // (base address of uart) is lower than 0x80000000 (the ending
    // address of memory)" — formula (7) can.
    let tree = parse(CLASHING).unwrap();
    let report = SemanticChecker::new()
        .check_tree_with_stats(&tree)
        .unwrap()
        .0;
    assert_eq!(report.collisions.len(), 1);
    let c = &report.collisions[0];
    assert_eq!(c.a.path, "/memory@40000000");
    assert_eq!(c.b.path, "/uart@60000000");
    // The witness lies in the intersection [0x60000000, 0x60001000).
    assert!(c.witness >= 0x6000_0000);
    assert!(c.witness < 0x6000_1000);
}

#[test]
fn corrected_file_is_clean() {
    let fixed = CLASHING.replace("uart@60000000", "uart@20000000").replace(
        "reg = <0x0 0x60000000 0x0 0x1000>;",
        "reg = <0x0 0x20000000 0x0 0x1000>;",
    );
    let tree = parse(&fixed).unwrap();
    let report = SemanticChecker::new()
        .check_tree_with_stats(&tree)
        .unwrap()
        .0;
    assert!(report.is_ok());
}

#[test]
fn boundary_precision() {
    // One byte before the bank is fine; the first byte of the bank is
    // not — the bit-vector comparison is exact.
    let fine = CLASHING.replace(
        "reg = <0x0 0x60000000 0x0 0x1000>;",
        "reg = <0x0 0x3ffff000 0x0 0x1000>;",
    );
    let tree = parse(&fine).unwrap();
    assert!(SemanticChecker::new()
        .check_tree_with_stats(&tree)
        .unwrap()
        .0
        .is_ok());

    let off_by_one = CLASHING.replace(
        "reg = <0x0 0x60000000 0x0 0x1000>;",
        "reg = <0x0 0x3ffff001 0x0 0x1000>;",
    );
    let tree = parse(&off_by_one).unwrap();
    let report = SemanticChecker::new()
        .check_tree_with_stats(&tree)
        .unwrap()
        .0;
    assert_eq!(report.collisions.len(), 1);
    assert_eq!(report.collisions[0].witness, 0x4000_0000);
}

#[test]
fn virtual_devices_may_alias_memory() {
    // veth IPC regions live in RAM by design (Listing 6's shmem); only
    // virtual-virtual overlap is an error.
    let src = r#"
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x40000000>; };
    vEthernet {
        #address-cells = <1>;
        #size-cells = <1>;
        veth0@70000000 { compatible = "veth"; reg = <0x70000000 0x10000>; id = <0>; };
        veth1@70008000 { compatible = "veth"; reg = <0x70008000 0x10000>; id = <1>; };
    };
};
"#;
    let tree = parse(src).unwrap();
    let report = SemanticChecker::new()
        .check_tree_with_stats(&tree)
        .unwrap()
        .0;
    // The two veths overlap each other (error); neither vs memory is
    // reported.
    assert_eq!(report.collisions.len(), 1);
    assert!(report.collisions[0].a.path.contains("veth"));
    assert!(report.collisions[0].b.path.contains("veth"));
}
