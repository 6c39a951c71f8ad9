//! E1 — Listings 1 and 2: the running-example DTS parses, includes
//! resolve, printing round-trips, and the FDT blob codec is stable.

use llhsc::running_example;
use llhsc_dts::cells::{collect_regions, RegEntry};
use llhsc_dts::{fdt, parse, print};

#[test]
fn listing1_parses_with_includes() {
    let tree = running_example::core_tree();
    // Three top-level device groups: memory, cpus, the two uarts.
    assert!(tree.find("/memory@40000000").is_some());
    assert!(tree.find("/cpus").is_some());
    assert!(tree.find("/uart@20000000").is_some());
    assert!(tree.find("/uart@30000000").is_some());
}

#[test]
fn listing1_memory_reg_is_two_64bit_banks() {
    // "reg specifies a memory consisting of two 64-bit memory banks,
    // each one defined by four 32-bit addresses" (§I-A).
    let tree = running_example::core_tree();
    let devices = collect_regions(&tree).unwrap();
    let mem = devices
        .iter()
        .find(|d| d.path == "/memory@40000000")
        .unwrap();
    assert_eq!(mem.cells, (2, 2));
    assert_eq!(
        mem.regions,
        vec![
            RegEntry::new(0x4000_0000, 0x2000_0000),
            RegEntry::new(0x6000_0000, 0x2000_0000),
        ]
    );
}

#[test]
fn listing2_cpu_reg_is_volume_name() {
    // Under #address-cells=1/#size-cells=0 the cpu reg is the
    // processor's number, not an address range (§II-A).
    let tree = running_example::core_tree();
    let devices = collect_regions(&tree).unwrap();
    let cpu1 = devices.iter().find(|d| d.path == "/cpus/cpu@1").unwrap();
    assert_eq!(cpu1.cells, (1, 0));
    assert_eq!(cpu1.regions, vec![RegEntry::new(1, 0)]);
    let node = tree.find("/cpus/cpu@1").unwrap();
    assert_eq!(node.prop_str("compatible"), Some("arm,cortex-a53"));
    assert_eq!(node.prop_str("enable-method"), Some("psci"));
}

#[test]
fn print_parse_roundtrip() {
    let tree = running_example::core_tree();
    let text = print(&tree);
    let back = parse(&text).unwrap();
    assert_eq!(tree, back);
}

#[test]
fn fdt_blob_roundtrip_is_stable() {
    let tree = running_example::core_tree();
    let b1 = fdt::encode(&tree);
    let decoded = fdt::decode(&b1).unwrap();
    let b2 = fdt::encode(&decoded);
    assert_eq!(b1, b2);
    assert_eq!(decoded.size(), tree.size());
}

#[test]
fn unit_addresses_match_reg() {
    let tree = running_example::core_tree();
    assert!(llhsc_dts::cells::unit_address_mismatches(&tree).is_empty());
}
