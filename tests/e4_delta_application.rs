//! E4 — Listing 4: delta activation, ordering and application.
//!
//! Note on the paper text: §III-B prints the induced orders as
//! "d3 < d4 < d2" for the first VM (Fig. 1b, veth0) and "d3 < d4 < d1"
//! for the second (Fig. 1c, veth1), but Listing 4 itself guards d1 with
//! `when veth0` and d2 with `when veth1` — so by the listing's own
//! semantics the first VM applies d1 and the second d2. We follow the
//! listing; the *shape* (d3 first, then d4, then the veth delta) is
//! exactly the paper's.

use llhsc::running_example;
use llhsc_delta::{DeltaError, DeltaModule, ProductLine};

fn order_of(selection: &[&str]) -> Vec<String> {
    running_example::product_line()
        .order(selection)
        .unwrap()
        .iter()
        .map(|d| d.name.clone())
        .collect()
}

fn project<'a>(order: &'a [String], of: &[&str]) -> Vec<&'a str> {
    order
        .iter()
        .map(String::as_str)
        .filter(|n| of.contains(n))
        .collect()
}

#[test]
fn vm1_order_projected_is_d3_d4_then_veth_delta() {
    let order = order_of(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"]);
    assert_eq!(
        project(&order, &["d1", "d2", "d3", "d4"]),
        vec!["d3", "d4", "d1"]
    );
}

#[test]
fn vm2_order_projected_is_d3_d4_then_veth_delta() {
    let order = order_of(&["memory", "veth1", "uart@20000000", "uart@30000000", "cpu@1"]);
    assert_eq!(
        project(&order, &["d1", "d2", "d3", "d4"]),
        vec!["d3", "d4", "d2"]
    );
}

#[test]
fn d3_modifies_root_to_32bit_and_adds_vethernet() {
    // "The first delta, d3, modifies the root DT node (/) … 32-bit
    // addresses … and introduces a new DT node called vEthernet."
    let p = running_example::product_line()
        .derive(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"])
        .unwrap();
    assert_eq!(p.tree.root.prop_u32("#address-cells"), Some(1));
    assert_eq!(p.tree.root.prop_u32("#size-cells"), Some(1));
    assert!(p.tree.find("/vEthernet").is_some());
}

#[test]
fn d4_defines_two_32bit_banks() {
    // "The second delta, d4, then modifies the memory DT node and
    // defines two banks of 32-bit addressed memory."
    let p = running_example::product_line()
        .derive(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"])
        .unwrap();
    let mem = p.tree.find("/memory@40000000").unwrap();
    assert_eq!(
        mem.prop("reg").unwrap().flat_cells().unwrap(),
        vec![0x4000_0000, 0x2000_0000, 0x6000_0000, 0x2000_0000]
    );
}

#[test]
fn d1_adds_veth0_binding() {
    // "the third delta … adds a DT node called veth0@80000000 to the
    // vEthernet node."
    let p = running_example::product_line()
        .derive(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"])
        .unwrap();
    let v = p.tree.find("/vEthernet/veth0@80000000").unwrap();
    assert_eq!(v.prop_str("compatible"), Some("veth"));
    assert_eq!(
        v.prop("reg").unwrap().flat_cells().unwrap(),
        vec![0x8000_0000, 0x1000_0000]
    );
    assert_eq!(v.prop_u32("id"), Some(0));
}

#[test]
fn vm2_gets_the_other_veth() {
    let p = running_example::product_line()
        .derive(&["memory", "veth1", "uart@20000000", "uart@30000000", "cpu@1"])
        .unwrap();
    let v = p.tree.find("/vEthernet/veth0@70000000").unwrap();
    assert_eq!(v.prop_u32("id"), Some(1));
    assert!(p.tree.find("/vEthernet/veth0@80000000").is_none());
}

#[test]
fn provenance_traces_every_touched_node() {
    let p = running_example::product_line()
        .derive(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"])
        .unwrap();
    assert_eq!(p.blame("/memory@40000000")[0].delta, "d4");
    assert_eq!(p.blame("/vEthernet/veth0@80000000")[0].delta, "d1");
    assert_eq!(p.blame("/vEthernet")[0].delta, "d3");
    let root_blame = p.blame("/");
    assert!(root_blame.iter().any(|pr| pr.delta == "d3"));
}

#[test]
fn missing_prerequisite_delta_is_traced() {
    // d1 without d3: the adds has no vEthernet target. The error names
    // the failing delta (the paper's traceability requirement).
    let deltas = DeltaModule::parse_all(
        r#"delta d1 when veth0 {
            adds binding vEthernet { veth0@80000000 { }; };
        }"#,
    )
    .unwrap();
    let line = ProductLine::new(running_example::core_tree(), deltas);
    match line.derive(&["veth0"]) {
        Err(DeltaError::MissingTarget { delta, path, .. }) => {
            assert_eq!(delta, "d1");
            assert_eq!(path, "vEthernet");
        }
        other => panic!("expected MissingTarget, got {other:?}"),
    }
}

#[test]
fn derived_dts_prints_and_reparses() {
    let p = running_example::product_line()
        .derive(&["memory", "veth0", "uart@20000000", "uart@30000000", "cpu@0"])
        .unwrap();
    let text = llhsc_dts::print(&p.tree);
    let back = llhsc_dts::parse(&text).unwrap();
    assert_eq!(p.tree, back);
}
