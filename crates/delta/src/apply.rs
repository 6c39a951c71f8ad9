//! Activation, ordering and application of delta modules.

use std::collections::BTreeSet;

use llhsc_dts::DeviceTree;

use crate::module::{DeltaError, DeltaModule, DeltaOp};

/// Records which delta performed which operation on which node — the
/// paper's traceability requirement: "if an error is detected by the
/// checker, it can easily be traced back to the delta-module causing
/// it" (§III-B).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// The delta module.
    pub delta: String,
    /// The operation verb (`adds`, `modifies`, …).
    pub op: String,
    /// The node path the operation touched: the target of a `removes`;
    /// for an `adds`/`modifies`, each child its fragment names, and
    /// the target itself only when the fragment sets a property on it.
    pub path: String,
}

/// A derived product: the resulting tree, the application order and the
/// operation provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DerivedProduct {
    /// The tree after all active deltas were applied.
    pub tree: DeviceTree,
    /// Delta names in application order.
    pub order: Vec<String>,
    /// One record per node an applied operation touched, in
    /// application order.
    pub provenance: Vec<Provenance>,
}

impl DerivedProduct {
    /// A stable content hash of the product — tree, application order
    /// and provenance together. Two products with this hash in common
    /// are interchangeable for checking *and* blame reporting, which is
    /// what a per-product result cache needs as its key.
    pub fn stable_hash(&self) -> u64 {
        llhsc_dts::hash::stable_hash_of(&(&self.tree, &self.order, &self.provenance))
    }

    /// The deltas that touched `path` (exact match), most recent last.
    pub fn blame(&self, path: &str) -> Vec<&Provenance> {
        self.provenance.iter().filter(|p| p.path == path).collect()
    }

    /// The deltas that touched `path` or any ancestor of it.
    pub fn blame_subtree(&self, path: &str) -> Vec<&Provenance> {
        self.provenance
            .iter()
            .filter(|p| {
                path == p.path || path.starts_with(&format!("{}/", p.path)) || p.path == "/"
            })
            .collect()
    }
}

/// A DTS product line: a core module plus delta modules (§III-B).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductLine {
    core: DeviceTree,
    deltas: Vec<DeltaModule>,
}

impl ProductLine {
    /// Creates a product line.
    pub fn new(core: DeviceTree, deltas: Vec<DeltaModule>) -> ProductLine {
        ProductLine { core, deltas }
    }

    /// The core module.
    pub fn core(&self) -> &DeviceTree {
        &self.core
    }

    /// The delta modules, in declaration order.
    pub fn deltas(&self) -> &[DeltaModule] {
        &self.deltas
    }

    /// The deltas activated by a feature selection, in declaration
    /// order (before `after` sorting).
    pub fn active(&self, selection: &[&str]) -> Vec<&DeltaModule> {
        let set: BTreeSet<&str> = selection.iter().copied().collect();
        self.deltas.iter().filter(|d| d.active(&set)).collect()
    }

    /// Computes the application order of the active deltas: a linear
    /// extension of the `after` partial order. Ties are broken
    /// deterministically: deltas that only refine existing structure
    /// (`modifies`/`removes`) apply before deltas that extend it
    /// (`adds`), so extensions always see the fully refined base;
    /// remaining ties follow declaration order. This reproduces the
    /// paper's printed orders d3 < d4 < d1 / d3 < d4 < d2 for the
    /// running example. `after` references to inactive deltas are
    /// ignored, per DOP semantics ("the application order is determined
    /// using the subset of active deltas").
    ///
    /// # Errors
    ///
    /// [`DeltaError::Cycle`] when the active `after` relation is cyclic.
    pub fn order(&self, selection: &[&str]) -> Result<Vec<&DeltaModule>, DeltaError> {
        let active = self.active(selection);
        let active_names: BTreeSet<&str> = active.iter().map(|d| d.name.as_str()).collect();
        let mut remaining: Vec<&DeltaModule> = active;
        let mut out: Vec<&DeltaModule> = Vec::new();
        let mut placed: BTreeSet<&str> = BTreeSet::new();
        let extends = |d: &DeltaModule| d.ops.iter().any(|op| matches!(op, DeltaOp::Adds { .. }));
        while !remaining.is_empty() {
            let ready = |d: &&DeltaModule| {
                d.after
                    .iter()
                    .all(|a| !active_names.contains(a.as_str()) || placed.contains(a.as_str()))
            };
            let ready_idx = remaining
                .iter()
                .position(|d| ready(d) && !extends(d))
                .or_else(|| remaining.iter().position(ready));
            match ready_idx {
                Some(i) => {
                    let d = remaining.remove(i);
                    placed.insert(d.name.as_str());
                    out.push(d);
                }
                None => {
                    return Err(DeltaError::Cycle {
                        involved: remaining.iter().map(|d| d.name.clone()).collect(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Derives the product for a feature selection: activates deltas,
    /// orders them and applies their operations to a copy of the core.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Cycle`] for unsortable `after` relations and
    /// [`DeltaError::MissingTarget`] when an operation addresses a node
    /// that does not exist — the error names the responsible delta.
    pub fn derive(&self, selection: &[&str]) -> Result<DerivedProduct, DeltaError> {
        let ordered = self.order(selection)?;
        let mut tree = self.core.clone();
        let mut provenance = Vec::new();
        let order: Vec<String> = ordered.iter().map(|d| d.name.clone()).collect();
        for delta in ordered {
            for op in &delta.ops {
                apply_op(&mut tree, &delta.name, op)?;
                provenance.extend(touched(op).into_iter().map(|path| Provenance {
                    delta: delta.name.clone(),
                    op: op.verb().to_string(),
                    path,
                }));
            }
        }
        Ok(DerivedProduct {
            tree,
            order,
            provenance,
        })
    }
}

fn normalise(path: &str) -> String {
    if path.starts_with('/') {
        path.to_string()
    } else {
        format!("/{path}")
    }
}

/// The nodes `op` touches (see [`Provenance::path`]). An `adds` under
/// `/` thus blames the devices it adds, not every node of the tree.
fn touched(op: &DeltaOp) -> Vec<String> {
    let target = normalise(op.path());
    let fragment = match op {
        DeltaOp::Adds { fragment, .. } | DeltaOp::Modifies { fragment, .. } => fragment,
        DeltaOp::RemovesNode { .. } | DeltaOp::RemovesProperty { .. } => return vec![target],
    };
    let prefix = target.trim_end_matches('/');
    let children = fragment
        .children
        .iter()
        .map(|child| format!("{prefix}/{}", child.name));
    let own = (!fragment.properties.is_empty()).then(|| target.clone());
    own.into_iter().chain(children).collect()
}

fn apply_op(tree: &mut DeviceTree, delta: &str, op: &DeltaOp) -> Result<(), DeltaError> {
    let missing = |path: &str| DeltaError::MissingTarget {
        delta: delta.to_string(),
        op: op.verb().to_string(),
        path: path.to_string(),
    };
    match op {
        DeltaOp::Adds { path, fragment } => {
            let target = tree.find_mut(path).ok_or_else(|| missing(path))?;
            // `adds` introduces the fragment's children (and any
            // properties) under the target node. Re-adding an existing
            // child merges, mirroring DTS source semantics.
            target.merge(with_name(fragment, &target.name.clone()));
            Ok(())
        }
        DeltaOp::Modifies { path, fragment } => {
            let target = if path == "/" {
                Some(&mut tree.root)
            } else {
                tree.find_mut(path)
            };
            let target = target.ok_or_else(|| missing(path))?;
            target.merge(with_name(fragment, &target.name.clone()));
            Ok(())
        }
        DeltaOp::RemovesNode { path } => {
            tree.remove(path).map_err(|_| missing(path))?;
            Ok(())
        }
        DeltaOp::RemovesProperty { path, name } => {
            let target = tree.find_mut(path).ok_or_else(|| missing(path))?;
            target
                .remove_prop(name)
                .ok_or_else(|| missing(&format!("{path}#{name}")))?;
            Ok(())
        }
    }
}

/// Clones a fragment under the target's name so `Node::merge` applies.
fn with_name(fragment: &llhsc_dts::Node, name: &str) -> llhsc_dts::Node {
    let mut f = fragment.clone();
    f.name = name.to_string();
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::tests::LISTING_4;
    use crate::module::DeltaModule;
    use llhsc_dts::parse;

    /// The running example core module (Listing 1).
    pub(crate) const CORE: &str = r#"
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
        cpu@0 {
            compatible = "arm,cortex-a53";
            device_type = "cpu";
            enable-method = "psci";
            reg = <0x0>;
        };
        cpu@1 {
            compatible = "arm,cortex-a53";
            device_type = "cpu";
            enable-method = "psci";
            reg = <0x1>;
        };
    };
    uart@20000000 {
        compatible = "ns16550a";
        reg = <0x0 0x20000000 0x0 0x1000>;
    };
};
"#;

    fn product_line() -> ProductLine {
        ProductLine::new(
            parse(CORE).unwrap(),
            DeltaModule::parse_all(LISTING_4).unwrap(),
        )
    }

    #[test]
    fn activation_for_vm1() {
        // VM1 (Fig. 1b) selects veth0 and memory: d1, d3, d4 activate.
        let pl = product_line();
        let names: Vec<&str> = pl
            .active(&["memory", "veth0"])
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(names, vec!["d1", "d3", "d4"]);
    }

    #[test]
    fn order_for_vm1_is_d3_d4_d1() {
        // The paper (§III-B) prints the orders as d3 < d4 < d2 for the
        // first VM and d3 < d4 < d1 for the second, but its own Listing 4
        // guards d1 with `when veth0` (the first VM's feature) and d2
        // with `when veth1`; we follow the listing, so VM1 gets
        // d3 < d4 < d1. See EXPERIMENTS.md E4.
        let pl = product_line();
        let order: Vec<String> = pl
            .order(&["memory", "veth0"])
            .unwrap()
            .iter()
            .map(|d| d.name.clone())
            .collect();
        assert_eq!(order, vec!["d3", "d4", "d1"]);
    }

    #[test]
    fn order_for_vm2_is_d3_d4_d2() {
        let pl = product_line();
        let order: Vec<String> = pl
            .order(&["memory", "veth1"])
            .unwrap()
            .iter()
            .map(|d| d.name.clone())
            .collect();
        assert_eq!(order, vec!["d3", "d4", "d2"]);
    }

    #[test]
    fn derive_vm1_product() {
        let pl = product_line();
        let p = pl.derive(&["memory", "veth0"]).unwrap();
        // d3: root switched to 32-bit cells, vEthernet added.
        assert_eq!(p.tree.root.prop_u32("#address-cells"), Some(1));
        assert_eq!(p.tree.root.prop_u32("#size-cells"), Some(1));
        assert!(p.tree.find("/vEthernet").is_some());
        // d4: memory reg rewritten to 32-bit layout.
        let mem = p.tree.find("/memory@40000000").unwrap();
        assert_eq!(
            mem.prop("reg")
                .unwrap()
                .flat_cells()
                .unwrap()
                .collect::<Vec<_>>(),
            vec![0x4000_0000, 0x2000_0000, 0x6000_0000, 0x2000_0000]
        );
        // d1: veth0 added under vEthernet.
        let veth = p.tree.find("/vEthernet/veth0@80000000").unwrap();
        assert_eq!(veth.prop_str("compatible"), Some("veth"));
        assert_eq!(veth.prop_u32("id"), Some(0));
        // The untouched core parts survive.
        assert!(p.tree.find("/cpus/cpu@0").is_some());
        assert!(p.tree.find("/uart@20000000").is_some());
    }

    #[test]
    fn derive_vm2_product() {
        let pl = product_line();
        let p = pl.derive(&["memory", "veth1"]).unwrap();
        let veth = p.tree.find("/vEthernet/veth0@70000000").unwrap();
        assert_eq!(veth.prop_u32("id"), Some(1));
        assert!(p.tree.find("/vEthernet/veth0@80000000").is_none());
    }

    #[test]
    fn no_veth_features_leaves_core_cells() {
        let pl = product_line();
        let p = pl.derive(&["memory"]).unwrap();
        assert_eq!(p.order, vec!["d4"]);
        // d3 did not run: root cells stay 64-bit…
        assert_eq!(p.tree.root.prop_u32("#address-cells"), Some(2));
        // …but d4 still rewrote the memory reg with 32-bit-shaped data —
        // exactly the §IV-C truncation hazard the semantic checker must
        // catch.
        let mem = p.tree.find("/memory@40000000").unwrap();
        assert_eq!(mem.prop("reg").unwrap().flat_cells().unwrap().len(), 4);
    }

    #[test]
    fn provenance_blames_the_right_delta() {
        let pl = product_line();
        let p = pl.derive(&["memory", "veth0"]).unwrap();
        let blame = p.blame("/memory@40000000");
        assert_eq!(blame.len(), 1);
        assert_eq!(blame[0].delta, "d4");
        assert_eq!(blame[0].op, "modifies");
        // d1 added veth0 under /vEthernet; d3 added /vEthernet and set
        // its cells, and set the root's.
        let veth_blame = p.blame("/vEthernet/veth0@80000000");
        assert_eq!(veth_blame.len(), 1);
        assert_eq!(veth_blame[0].delta, "d1");
        let bus_blame = p.blame("/vEthernet");
        assert_eq!(bus_blame.len(), 1);
        assert_eq!(bus_blame[0].delta, "d3");
        assert_eq!(p.blame("/")[0].delta, "d3");
        let subtree = p.blame_subtree("/vEthernet/veth0@80000000");
        assert!(subtree.iter().any(|pr| pr.delta == "d1"));
        assert!(subtree.iter().any(|pr| pr.delta == "d3"));
    }

    #[test]
    fn adds_under_root_blames_only_the_added_nodes() {
        let deltas = DeltaModule::parse_all(
            "delta add_b { adds binding / { b@0 { }; c@1 { }; }; } \
             delta cells { modifies / { #size-cells = <1>; }; }",
        )
        .unwrap();
        let p = ProductLine::new(parse(CORE).unwrap(), deltas)
            .derive(&[])
            .unwrap();
        let paths: Vec<(&str, &str)> = p
            .provenance
            .iter()
            .map(|pr| (pr.delta.as_str(), pr.path.as_str()))
            .collect();
        assert_eq!(
            paths,
            [("cells", "/"), ("add_b", "/b@0"), ("add_b", "/c@1")]
        );
        // Only the root property edit reaches an unrelated node.
        let uart = p.blame_subtree("/uart@20000000");
        assert_eq!(uart.len(), 1);
        assert_eq!(uart[0].delta, "cells");
    }

    #[test]
    fn missing_target_names_delta() {
        // d1 without d3 (manually built): adds under a node that never
        // appeared.
        let deltas = DeltaModule::parse_all(
            "delta d1 when veth0 { adds binding vEthernet { veth0@0 { }; }; }",
        )
        .unwrap();
        let pl = ProductLine::new(parse(CORE).unwrap(), deltas);
        let err = pl.derive(&["veth0"]).unwrap_err();
        match err {
            DeltaError::MissingTarget { delta, path, .. } => {
                assert_eq!(delta, "d1");
                assert_eq!(path, "vEthernet");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cycle_detected() {
        let deltas = DeltaModule::parse_all(
            "delta a after b { modifies / { }; } delta b after a { modifies / { }; }",
        )
        .unwrap();
        let pl = ProductLine::new(parse(CORE).unwrap(), deltas);
        let err = pl.derive(&[]).unwrap_err();
        match err {
            DeltaError::Cycle { involved } => {
                assert_eq!(involved.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn after_to_inactive_delta_is_ignored() {
        let deltas = DeltaModule::parse_all(
            "delta late after ghost when x { modifies / { marker = <1>; }; } \
             delta ghost when never_selected { modifies / { }; }",
        )
        .unwrap();
        let pl = ProductLine::new(parse(CORE).unwrap(), deltas);
        let p = pl.derive(&["x"]).unwrap();
        assert_eq!(p.order, vec!["late"]);
        assert_eq!(p.tree.root.prop_u32("marker"), Some(1));
    }

    #[test]
    fn removes_ops_apply() {
        let deltas = DeltaModule::parse_all(
            "delta strip { removes /uart@20000000; removes memory@40000000 property reg; }",
        )
        .unwrap();
        let pl = ProductLine::new(parse(CORE).unwrap(), deltas);
        let p = pl.derive(&[]).unwrap();
        assert!(p.tree.find("/uart@20000000").is_none());
        assert!(p
            .tree
            .find("/memory@40000000")
            .unwrap()
            .prop("reg")
            .is_none());
    }

    #[test]
    fn deterministic_order_among_unconstrained() {
        let deltas =
            DeltaModule::parse_all("delta z { modifies / { }; } delta a { modifies / { }; }")
                .unwrap();
        let pl = ProductLine::new(parse(CORE).unwrap(), deltas);
        // Declaration order, not alphabetical.
        assert_eq!(pl.derive(&[]).unwrap().order, vec!["z", "a"]);
    }
}
