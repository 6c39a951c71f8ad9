//! Interpretation of `reg` under `#address-cells` / `#size-cells`.
//!
//! The paper's central observation (§II-A) is that `reg` has *dynamic*
//! semantics: the same property text denotes different address layouts
//! depending on the `#address-cells`/`#size-cells` values of the parent
//! node. The running example's killer bug (§IV-C) is exactly a cells
//! reinterpretation: a delta switches the root to 32-bit cells but the
//! memory node still carries 64-bit-shaped data, so "four banks of
//! memory are found, instead of the original two" — with a collision at
//! address 0.
//!
//! This module performs that interpretation faithfully so the semantic
//! checker sees the same (mis)parse the hypervisor would.

use crate::error::DtsError;
use crate::tree::{DeviceTree, Node, NodePath};

/// Default `#address-cells` when a parent does not specify it
/// (DeviceTree specification §2.3.5).
pub const DEFAULT_ADDRESS_CELLS: u32 = 2;
/// Default `#size-cells` when a parent does not specify it.
pub const DEFAULT_SIZE_CELLS: u32 = 1;
/// Largest supported `#address-cells`/`#size-cells`. Cells are 32 bits
/// and addresses fit in `u128`, so four cells is the ceiling; anything
/// larger would silently truncate in `take_cells` — exactly the value
/// loss this checker exists to catch, so it is an error instead.
pub const MAX_CELLS: u32 = 4;

/// One `(address, size)` pair decoded from a `reg` property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegEntry {
    /// Base address (up to 64 bits with 2 address cells).
    pub address: u128,
    /// Region length in bytes.
    pub size: u128,
}

impl RegEntry {
    /// Creates an entry.
    pub fn new(address: u128, size: u128) -> RegEntry {
        RegEntry { address, size }
    }

    /// One-past-the-end address, saturating at `u128::MAX`. A 4-cell
    /// region near the top of the address space can make `address +
    /// size` overflow even `u128`; saturating keeps [`RegEntry::overlaps`]
    /// total, and [`RegEntry::wraps`] reports the wrap as a finding.
    pub fn end(&self) -> u128 {
        self.address.saturating_add(self.size)
    }

    /// `true` when the region wraps past the end of the address space
    /// (`address + size` overflows `u128`).
    pub fn wraps(&self) -> bool {
        self.address.checked_add(self.size).is_none()
    }

    /// `true` when two regions share at least one address. Empty
    /// regions overlap nothing.
    pub fn overlaps(&self, other: &RegEntry) -> bool {
        self.size != 0
            && other.size != 0
            && self.address < other.end()
            && other.address < self.end()
    }
}

/// A `reg`-bearing device with its decoded regions, as discovered by
/// [`collect_regions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceRegions<'a> {
    /// Path of the node that carried `reg`.
    pub path: NodePath,
    /// The node that carried `reg`, so consumers read its other
    /// properties without looking the path up again.
    pub node: &'a Node,
    /// Decoded regions.
    pub regions: Vec<RegEntry>,
    /// The `#address-cells`/`#size-cells` pair used to decode.
    pub cells: (u32, u32),
}

/// The `(#address-cells, #size-cells)` that apply to children of
/// `parent`.
pub fn cell_counts(parent: &Node) -> (u32, u32) {
    (
        parent
            .prop_u32("#address-cells")
            .unwrap_or(DEFAULT_ADDRESS_CELLS),
        parent.prop_u32("#size-cells").unwrap_or(DEFAULT_SIZE_CELLS),
    )
}

/// Like [`cell_counts`], but rejects declarations outside `0..=MAX_CELLS`
/// with an error naming the declaring node. `#address-cells = <5>` would
/// make `take_cells` drop high bits; `#address-cells = <0xffffffff>`
/// would overflow the `address_cells + size_cells` stride arithmetic.
///
/// # Errors
///
/// [`DtsError::BadValue`] naming `path` when either count exceeds
/// [`MAX_CELLS`].
pub fn checked_cell_counts(path: &NodePath, parent: &Node) -> Result<(u32, u32), DtsError> {
    let (ac, sc) = cell_counts(parent);
    for (name, v) in [("#address-cells", ac), ("#size-cells", sc)] {
        if v > MAX_CELLS {
            return Err(DtsError::BadValue {
                path: path.to_string(),
                message: format!("{name} = {v} outside supported range 0..={MAX_CELLS}"),
            });
        }
    }
    Ok((ac, sc))
}

fn take_cells(cells: &[u32], n: u32) -> u128 {
    let mut v: u128 = 0;
    for &c in &cells[..n as usize] {
        v = (v << 32) | u128::from(c);
    }
    v
}

/// Decodes a node's `reg` property under the given cell counts.
///
/// # Errors
///
/// Returns [`DtsError::BadValue`] if `reg` is present but is not a cell
/// list, contains unresolved references, its length is not a multiple
/// of `address_cells + size_cells` — the arity check `dt-schema`
/// performs (§IV-B) — or either cell count exceeds [`MAX_CELLS`]. A
/// missing `reg` yields an empty vector.
pub fn decode_reg(
    path: &NodePath,
    node: &Node,
    address_cells: u32,
    size_cells: u32,
) -> Result<Vec<RegEntry>, DtsError> {
    for (name, v) in [
        ("#address-cells", address_cells),
        ("#size-cells", size_cells),
    ] {
        if v > MAX_CELLS {
            return Err(DtsError::BadValue {
                path: path.to_string(),
                message: format!("{name} = {v} outside supported range 0..={MAX_CELLS}"),
            });
        }
    }
    let Some(prop) = node.prop("reg") else {
        return Ok(Vec::new());
    };
    let flat = prop.flat_cells().ok_or_else(|| DtsError::BadValue {
        path: path.to_string(),
        message: "reg must be a cell array of literals".into(),
    })?;
    let stride = address_cells as usize + size_cells as usize;
    if stride == 0 {
        return Err(DtsError::BadValue {
            path: path.to_string(),
            message: "#address-cells + #size-cells must be positive".into(),
        });
    }
    if flat.len() % stride != 0 {
        return Err(DtsError::BadValue {
            path: path.to_string(),
            message: format!(
                "reg has {} cells, not a multiple of #address-cells ({address_cells}) + #size-cells ({size_cells})",
                flat.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(flat.len() / stride);
    for chunk in flat.chunks(stride) {
        let address = take_cells(chunk, address_cells);
        let size = if size_cells == 0 {
            0
        } else {
            take_cells(&chunk[address_cells as usize..], size_cells)
        };
        out.push(RegEntry { address, size });
    }
    Ok(out)
}

/// Walks the whole tree and decodes every `reg` property under its
/// parent's cell counts.
///
/// # Errors
///
/// Propagates the first decoding error (see [`decode_reg`]).
pub fn collect_regions(tree: &DeviceTree) -> Result<Vec<DeviceRegions<'_>>, DtsError> {
    let mut out = Vec::new();
    fn rec<'a>(
        node: &'a Node,
        path: &NodePath,
        parent_cells: (u32, u32),
        out: &mut Vec<DeviceRegions<'a>>,
    ) -> Result<(), DtsError> {
        let here = if node.name.is_empty() {
            NodePath::root()
        } else {
            path.join(&node.name)
        };
        if node.prop("reg").is_some() {
            let regions = decode_reg(&here, node, parent_cells.0, parent_cells.1)?;
            out.push(DeviceRegions {
                path: here.clone(),
                node,
                regions,
                cells: parent_cells,
            });
        }
        let my_cells = checked_cell_counts(&here, node)?;
        for c in &node.children {
            rec(c, &here, my_cells, out)?;
        }
        Ok(())
    }
    rec(
        &tree.root,
        &NodePath::root(),
        (DEFAULT_ADDRESS_CELLS, DEFAULT_SIZE_CELLS),
        &mut out,
    )?;
    Ok(out)
}

/// One `ranges` translation entry: addresses `child_base..child_base+size`
/// in the child bus map to `parent_base..` in the parent bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeEntry {
    /// Start of the window in the child address space.
    pub child_base: u128,
    /// Start of the window in the parent address space.
    pub parent_base: u128,
    /// Window length.
    pub size: u128,
}

/// Decodes a node's `ranges` property. `None` means the property is
/// absent (no translation across this bus); `Some(vec![])` is the empty
/// property (identity mapping).
///
/// Layout per the DeviceTree specification §2.3.8: each entry is
/// `child-address parent-address size`, where the child address uses
/// the node's own `#address-cells`, the parent address the *parent's*
/// `#address-cells`, and the size the node's `#size-cells`.
///
/// # Errors
///
/// Returns [`DtsError::BadValue`] on non-cell values or arity mismatch.
pub fn decode_ranges(
    path: &NodePath,
    node: &Node,
    parent_address_cells: u32,
) -> Result<Option<Vec<RangeEntry>>, DtsError> {
    let Some(prop) = node.prop("ranges") else {
        return Ok(None);
    };
    if prop.values.is_empty() {
        return Ok(Some(Vec::new())); // identity
    }
    let flat = prop.flat_cells().ok_or_else(|| DtsError::BadValue {
        path: path.to_string(),
        message: "ranges must be a cell array of literals".into(),
    })?;
    if parent_address_cells > MAX_CELLS {
        return Err(DtsError::BadValue {
            path: path.to_string(),
            message: format!(
                "parent #address-cells = {parent_address_cells} outside supported range 0..={MAX_CELLS}"
            ),
        });
    }
    let (child_ac, child_sc) = checked_cell_counts(path, node)?;
    let stride = child_ac as usize + parent_address_cells as usize + child_sc as usize;
    if stride == 0 || flat.len() % stride != 0 {
        return Err(DtsError::BadValue {
            path: path.to_string(),
            message: format!(
                "ranges has {} cells, not a multiple of child #address-cells \
                 ({child_ac}) + parent #address-cells ({parent_address_cells}) \
                 + child #size-cells ({child_sc})",
                flat.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(flat.len() / stride);
    for chunk in flat.chunks(stride) {
        let child_base = take_cells(chunk, child_ac);
        let parent_base = take_cells(&chunk[child_ac as usize..], parent_address_cells);
        let size = if child_sc == 0 {
            0
        } else {
            take_cells(
                &chunk[(child_ac + parent_address_cells) as usize..],
                child_sc,
            )
        };
        out.push(RangeEntry {
            child_base,
            parent_base,
            size,
        });
    }
    Ok(Some(out))
}

/// Translates a bus-local address through a `ranges` table. `None` when
/// the address falls outside every window (the device is not reachable
/// from the parent bus).
pub fn translate(address: u128, ranges: &[RangeEntry]) -> Option<u128> {
    if ranges.is_empty() {
        return Some(address); // empty ranges = identity
    }
    for r in ranges {
        if address >= r.child_base && address - r.child_base < r.size {
            // Saturating: a window whose parent side sits at the top of
            // the address space must not wrap the translated address
            // back to zero (that would manufacture phantom collisions).
            return Some(r.parent_base.saturating_add(address - r.child_base));
        }
    }
    None
}

/// Like [`collect_regions`], but translates every region through the
/// `ranges` tables of its ancestor buses, yielding CPU-visible absolute
/// addresses. Regions on buses without a `ranges` property are skipped
/// (not addressable from the root — e.g. `cpus` unit numbers), matching
/// the kernel's `of_translate_address` behaviour.
///
/// # Errors
///
/// Propagates decoding errors from `reg` and `ranges` properties.
pub fn collect_regions_translated(tree: &DeviceTree) -> Result<Vec<DeviceRegions<'_>>, DtsError> {
    #[derive(Clone)]
    enum Xlat {
        /// Compose these range tables innermost-first.
        Tables(Vec<Vec<RangeEntry>>),
        /// Some ancestor bus has no ranges: not root-addressable.
        Opaque,
    }

    fn rec<'a>(
        node: &'a Node,
        path: &NodePath,
        parent_cells: (u32, u32),
        xlat: &Xlat,
        out: &mut Vec<DeviceRegions<'a>>,
    ) -> Result<(), DtsError> {
        let here = if node.name.is_empty() {
            NodePath::root()
        } else {
            path.join(&node.name)
        };
        if node.prop("reg").is_some() {
            if let Xlat::Tables(tables) = xlat {
                let regions = decode_reg(&here, node, parent_cells.0, parent_cells.1)?;
                let mut translated = Vec::new();
                let mut all_ok = true;
                for r in &regions {
                    let mut addr = Some(r.address);
                    for table in tables {
                        addr = addr.and_then(|a| translate(a, table));
                    }
                    match addr {
                        Some(a) => translated.push(RegEntry {
                            address: a,
                            size: r.size,
                        }),
                        None => all_ok = false,
                    }
                }
                if all_ok {
                    out.push(DeviceRegions {
                        path: here.clone(),
                        node,
                        regions: translated,
                        cells: parent_cells,
                    });
                }
            }
        }
        // Compute the child translation state.
        let child_xlat = if node.name.is_empty() {
            // The root bus needs no translation.
            Xlat::Tables(Vec::new())
        } else {
            match (xlat, decode_ranges(&here, node, parent_cells.0)?) {
                (Xlat::Opaque, _) => Xlat::Opaque,
                (Xlat::Tables(tables), Some(table)) => {
                    let mut t = vec![table];
                    t.extend(tables.iter().cloned());
                    Xlat::Tables(t)
                }
                (Xlat::Tables(_), None) => Xlat::Opaque,
            }
        };
        let my_cells = checked_cell_counts(&here, node)?;
        for c in &node.children {
            rec(c, &here, my_cells, &child_xlat, out)?;
        }
        Ok(())
    }

    let mut out = Vec::new();
    rec(
        &tree.root,
        &NodePath::root(),
        (DEFAULT_ADDRESS_CELLS, DEFAULT_SIZE_CELLS),
        &Xlat::Tables(Vec::new()),
        &mut out,
    )?;
    Ok(out)
}

/// Checks that every node's `@unit-address` matches the first `reg`
/// address, a well-formedness rule `dtc -W` warns about. Returns the
/// paths that violate it.
pub fn unit_address_mismatches(tree: &DeviceTree) -> Vec<NodePath> {
    let Ok(devices) = collect_regions(tree) else {
        return Vec::new();
    };
    let mut bad = Vec::new();
    for d in devices {
        let Some(unit) = d.node.unit_address() else {
            continue;
        };
        let Ok(unit_val) = u128::from_str_radix(unit, 16) else {
            continue;
        };
        if let Some(first) = d.regions.first() {
            if first.address != unit_val {
                bad.push(d.path);
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn reg_entry_overlap() {
        let a = RegEntry::new(0x4000_0000, 0x2000_0000);
        let b = RegEntry::new(0x6000_0000, 0x2000_0000);
        assert!(!a.overlaps(&b));
        let c = RegEntry::new(0x5000_0000, 0x2000_0000);
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
        let empty = RegEntry::new(0x4000_0000, 0);
        assert!(!a.overlaps(&empty));
        assert_eq!(a.end(), 0x6000_0000);
    }

    #[test]
    fn decode_64bit_memory() {
        // The running example: 2+2 cells, two banks.
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions(&t).unwrap();
        assert_eq!(devs.len(), 1);
        assert_eq!(devs[0].cells, (2, 2));
        assert_eq!(
            devs[0].regions,
            vec![
                RegEntry::new(0x4000_0000, 0x2000_0000),
                RegEntry::new(0x6000_0000, 0x2000_0000),
            ]
        );
    }

    #[test]
    fn truncation_misparse_from_the_paper() {
        // §IV-C: root switched to 1+1 cells by delta d3 but the memory
        // node still carries 64-bit-shaped data -> four banks, one at 0.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                memory@40000000 {
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions(&t).unwrap();
        let banks = &devs[0].regions;
        assert_eq!(banks.len(), 4, "four banks found instead of two");
        assert_eq!(banks[0], RegEntry::new(0x0, 0x4000_0000));
        assert_eq!(banks[2], RegEntry::new(0x0, 0x6000_0000));
        assert!(banks[0].overlaps(&banks[2]), "collision at address 0x0");
    }

    #[test]
    fn cpu_reg_with_zero_size_cells() {
        let t = parse(
            r#"/ {
                cpus {
                    #address-cells = <0x1>;
                    #size-cells = <0x0>;
                    cpu@0 { reg = <0x0>; };
                    cpu@1 { reg = <0x1>; };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions(&t).unwrap();
        assert_eq!(devs.len(), 2);
        assert_eq!(devs[0].regions, vec![RegEntry::new(0, 0)]);
        assert_eq!(devs[1].regions, vec![RegEntry::new(1, 0)]);
    }

    #[test]
    fn defaults_apply_when_unspecified() {
        let t = parse("/ { uart@20000000 { reg = <0x0 0x20000000 0x1000>; }; };").unwrap();
        // Default 2+1 cells: one entry.
        let devs = collect_regions(&t).unwrap();
        assert_eq!(devs[0].cells, (2, 1));
        assert_eq!(devs[0].regions, vec![RegEntry::new(0x2000_0000, 0x1000)]);
    }

    #[test]
    fn arity_error_detected() {
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 { reg = <0x0 0x40000000 0x0>; };
            };"#,
        )
        .unwrap();
        let err = collect_regions(&t).unwrap_err();
        assert!(matches!(err, DtsError::BadValue { .. }));
        assert!(err.to_string().contains("multiple"));
    }

    #[test]
    fn unresolved_ref_in_reg_rejected() {
        let t = parse("/ { x@0 { reg = <&foo 0x1000>; }; };").unwrap();
        assert!(collect_regions(&t).is_err());
    }

    #[test]
    fn region_records_carry_their_own_node() {
        // Siblings that share a name, as a decoded blob may hold: each
        // record points at its own node, not at the first namesake.
        let mut t = parse("/ { #address-cells = <1>; #size-cells = <1>; };").unwrap();
        for (compatible, base) in [("acme,a", 0x1000), ("acme,b", 0x2000)] {
            let mut dev = Node::new("dev@1000");
            dev.set_prop(crate::Property::string("compatible", compatible));
            dev.set_prop(crate::Property::cells("reg", [base, 0x100]));
            t.root.children.push(dev);
        }
        let devs = collect_regions(&t).unwrap();
        let compatibles: Vec<_> = devs.iter().map(|d| d.node.prop_str("compatible")).collect();
        assert_eq!(compatibles, [Some("acme,a"), Some("acme,b")]);
    }

    #[test]
    fn unit_address_check() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                uart@20000000 { reg = <0x20000000 0x1000>; };
                bad@30000000 { reg = <0x40000000 0x1000>; };
            };"#,
        )
        .unwrap();
        let bad = unit_address_mismatches(&t);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].to_string(), "/bad@30000000");
    }

    #[test]
    fn ranges_identity_when_empty() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges;
                    uart@1000 { reg = <0x1000 0x100>; };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions_translated(&t).unwrap();
        assert_eq!(devs.len(), 1);
        assert_eq!(devs[0].regions, vec![RegEntry::new(0x1000, 0x100)]);
    }

    #[test]
    fn ranges_offset_translation() {
        // The soc bus maps child 0x0..0x10000 to parent 0xf000_0000.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0xf0000000 0x10000>;
                    uart@1000 { reg = <0x1000 0x100>; };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions_translated(&t).unwrap();
        assert_eq!(devs[0].regions, vec![RegEntry::new(0xf000_1000, 0x100)]);
    }

    #[test]
    fn ranges_mixed_cell_widths() {
        // 64-bit root, 32-bit soc bus: ranges entries are
        // child(1) + parent(2) + size(1) = 4 cells.
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x1 0x00000000 0x10000>;
                    dev@2000 { reg = <0x2000 0x100>; };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions_translated(&t).unwrap();
        assert_eq!(devs[0].regions, vec![RegEntry::new(0x1_0000_2000, 0x100)]);
    }

    #[test]
    fn nested_ranges_compose() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x40000000 0x1000000>;
                    apb {
                        #address-cells = <1>;
                        #size-cells = <1>;
                        ranges = <0x0 0x100000 0x10000>;
                        timer@40 { reg = <0x40 0x20>; };
                    };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions_translated(&t).unwrap();
        let timer = devs
            .iter()
            .find(|d| d.path.to_string().ends_with("timer@40"))
            .unwrap();
        assert_eq!(timer.regions, vec![RegEntry::new(0x4010_0040, 0x20)]);
    }

    #[test]
    fn missing_ranges_makes_bus_opaque() {
        // cpus has no ranges: the cpu unit numbers are not addresses
        // and must not leak into the root address map.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                memory@80000000 { reg = <0x80000000 0x1000>; };
                cpus {
                    #address-cells = <1>;
                    #size-cells = <0>;
                    cpu@0 { reg = <0x0>; };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions_translated(&t).unwrap();
        assert_eq!(devs.len(), 1);
        assert!(devs[0].path.to_string().contains("memory"));
    }

    #[test]
    fn address_outside_every_window_drops_device() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0xf0000000 0x1000>;
                    ghost@8000 { reg = <0x8000 0x100>; };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions_translated(&t).unwrap();
        assert!(devs.is_empty());
    }

    #[test]
    fn bad_ranges_arity_rejected() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0xf0000000>;
                    dev@0 { reg = <0x0 0x10>; };
                };
            };"#,
        )
        .unwrap();
        assert!(collect_regions_translated(&t).is_err());
    }

    #[test]
    fn translate_helper() {
        let table = vec![RangeEntry {
            child_base: 0x100,
            parent_base: 0x1000,
            size: 0x100,
        }];
        assert_eq!(translate(0x100, &table), Some(0x1000));
        assert_eq!(translate(0x1ff, &table), Some(0x10ff));
        assert_eq!(translate(0x200, &table), None);
        assert_eq!(translate(0xdead, &[]), Some(0xdead));
    }

    #[test]
    fn take_cells_concatenates_big_endian() {
        assert_eq!(take_cells(&[0x1, 0x2], 2), 0x1_0000_0002);
        assert_eq!(take_cells(&[0xdead_beef], 1), 0xdead_beef);
    }

    #[test]
    fn huge_address_cells_rejected_not_overflowed() {
        // Regression: `(address_cells + size_cells) as usize` used to
        // overflow u32 (debug panic) for #address-cells = <0xffffffff>.
        let t = parse(
            r#"/ {
                #address-cells = <0xffffffff>;
                #size-cells = <1>;
                dev@0 { reg = <0x0 0x10>; };
            };"#,
        )
        .unwrap();
        let err = collect_regions(&t).unwrap_err();
        match &err {
            DtsError::BadValue { path, message } => {
                assert_eq!(path, "/");
                assert!(message.contains("#address-cells"), "{message}");
                assert!(message.contains("0..=4"), "{message}");
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn five_cell_addresses_rejected_not_truncated() {
        // Regression: take_cells silently dropped the high cell of a
        // 5-cell address — the truncation class the paper targets.
        let t = parse(
            r#"/ {
                #address-cells = <5>;
                #size-cells = <1>;
                dev@0 { reg = <0x1 0x0 0x0 0x0 0x0 0x10>; };
            };"#,
        )
        .unwrap();
        let err = collect_regions(&t).unwrap_err();
        assert!(
            matches!(&err, DtsError::BadValue { path, .. } if path == "/"),
            "{err:?}"
        );
        // Same guard on the direct decode entry point.
        let t2 = parse("/ { dev@0 { reg = <0x0 0x10>; }; };").unwrap();
        let node = t2.find("/dev@0").unwrap();
        let r = decode_reg(&NodePath::root().join("dev@0"), node, 5, 1);
        assert!(r.is_err());
    }

    #[test]
    fn region_end_saturates_instead_of_wrapping() {
        // Regression: end() overflowed u128 for 4-cell regions near the
        // top of the address space (debug panic, bogus overlap in
        // release).
        let top = RegEntry::new(u128::MAX - 0xfff, 0x2000);
        assert_eq!(top.end(), u128::MAX);
        assert!(top.wraps());
        let sane = RegEntry::new(0x4000_0000, 0x1000);
        assert!(!sane.wraps());
        // overlaps stays total and meaningful against a wrapping region.
        assert!(top.overlaps(&RegEntry::new(u128::MAX - 1, 1)));
        assert!(!top.overlaps(&sane));
    }

    #[test]
    fn translate_saturates_at_address_space_end() {
        let table = vec![RangeEntry {
            child_base: 0x0,
            parent_base: u128::MAX - 0x10,
            size: 0x100,
        }];
        assert_eq!(translate(0x20, &table), Some(u128::MAX));
    }

    #[test]
    fn checked_cell_counts_accepts_spec_range() {
        for ac in 0..=4u32 {
            let t = parse(&format!(
                "/ {{ #address-cells = <{ac}>; #size-cells = <2>; }};"
            ))
            .unwrap();
            assert!(checked_cell_counts(&NodePath::root(), &t.root).is_ok());
        }
    }
}
