//! Interpretation of `reg` under `#address-cells` / `#size-cells`, and
//! of `ranges` on the way to the CPU.
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
//! checker sees the same (mis)parse the hypervisor would. Formula (7)
//! is about the addresses the CPU sees, so [`collect_regions`] also maps
//! every non-empty region through the `ranges` windows of the buses
//! above it.

use crate::error::DtsError;
use crate::tree::{DeviceTree, Node};

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

/// A `reg`-bearing device with its regions at the addresses the CPU
/// sees, as [`for_each_device`] meets it. It borrows the walk's path and
/// region buffers, which serve every device in turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device<'t, 'w> {
    /// Path of the node that carried `reg`.
    pub path: &'w str,
    /// The node that carried `reg`.
    pub node: &'t Node,
    /// Decoded regions, each non-empty one at its CPU address.
    pub regions: &'w [RegEntry],
    /// The `#address-cells`/`#size-cells` pair used to decode.
    pub cells: (u32, u32),
}

/// A [`Device`] that owns its path and regions, as [`collect_regions`]
/// lists them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceRegions<'a> {
    /// Path of the node that carried `reg`.
    pub path: String,
    /// The node that carried `reg`, so consumers read its other
    /// properties without looking the path up again.
    pub node: &'a Node,
    /// Decoded regions, each non-empty one at its CPU address.
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

/// `cells` when both counts lie in `0..=MAX_CELLS`, else an error naming
/// `path`. `#address-cells = <5>` would make `take_cells` drop high
/// bits; `#address-cells = <0xffffffff>` would overflow the
/// `address_cells + size_cells` stride arithmetic.
fn check_cells(path: &str, cells: (u32, u32)) -> Result<(u32, u32), DtsError> {
    for (name, v) in [("#address-cells", cells.0), ("#size-cells", cells.1)] {
        if v > MAX_CELLS {
            return Err(DtsError::BadValue {
                path: path.to_string(),
                message: format!("{name} = {v} outside supported range 0..={MAX_CELLS}"),
            });
        }
    }
    Ok(cells)
}

/// The next `n` cells, most significant first, as one number.
fn take_cells(cells: &mut impl Iterator<Item = u32>, n: u32) -> u128 {
    cells
        .take(n as usize)
        .fold(0, |v, c| (v << 32) | u128::from(c))
}

/// Decodes a node's `reg` property under the given cell counts, at the
/// addresses of its parent bus. `path` names the node in errors.
///
/// # Errors
///
/// Returns [`DtsError::BadValue`] if `reg` is present but is not a cell
/// list, contains unresolved references, its length is not a multiple
/// of `address_cells + size_cells` — the arity check `dt-schema`
/// performs (§IV-B) — or either cell count exceeds [`MAX_CELLS`]. A
/// missing `reg` yields an empty vector.
pub fn decode_reg(
    path: &str,
    node: &Node,
    address_cells: u32,
    size_cells: u32,
) -> Result<Vec<RegEntry>, DtsError> {
    let mut out = Vec::new();
    decode_reg_into(path, node, (address_cells, size_cells), &mut out)?;
    Ok(out)
}

/// [`decode_reg`], appending the entries to `out`.
fn decode_reg_into(
    path: &str,
    node: &Node,
    cells: (u32, u32),
    out: &mut Vec<RegEntry>,
) -> Result<(), DtsError> {
    let (address_cells, size_cells) = check_cells(path, cells)?;
    let Some(prop) = node.prop("reg") else {
        return Ok(());
    };
    let mut flat = prop.flat_cells().ok_or_else(|| DtsError::BadValue {
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
    out.reserve(flat.len() / stride);
    while flat.len() > 0 {
        let address = take_cells(&mut flat, address_cells);
        let size = take_cells(&mut flat, size_cells);
        out.push(RegEntry { address, size });
    }
    Ok(())
}

/// Walks the whole tree, decodes every `reg` property under its
/// parent's cell counts and maps each non-empty region to the address
/// the CPU sees, through the `ranges` of its ancestor buses, innermost
/// first.
///
/// `ranges;` is the identity. A bus without `ranges` passes addresses
/// through unchanged, as the paper's listings assume (its
/// `veth0@80000000` sits under `vEthernet`, which has none). The
/// root's `ranges` is ignored. An empty region takes up no address
/// space and keeps its address as written: the children of I2C, SPI
/// and MDIO controllers (`#size-cells = <0>`) carry a bus number there,
/// not something a window maps.
///
/// # Errors
///
/// Propagates the first error decoding a `reg` (see [`decode_reg`]) or
/// a `ranges` property, or in a node's cell counts. A non-empty region
/// that does not lie inside one window of each translating ancestor
/// has no CPU address: [`DtsError::BadValue`] names the device, the
/// region (at the addresses of that bus's children) and the bus.
pub fn collect_regions(tree: &DeviceTree) -> Result<Vec<DeviceRegions<'_>>, DtsError> {
    let mut out = Vec::new();
    for_each_device(tree, |d| {
        out.push(DeviceRegions {
            path: d.path.to_string(),
            node: d.node,
            regions: d.regions.to_vec(),
            cells: d.cells,
        });
    })?;
    Ok(out)
}

/// The walk of [`collect_regions`], handing each `reg`-bearing device to
/// `visit` in depth-first order instead of listing it. A device costs no
/// allocation of its own: its path and regions borrow buffers that the
/// walk reuses.
///
/// # Errors
///
/// As [`collect_regions`]; devices met before the error have been
/// visited.
pub fn for_each_device<'t>(
    tree: &'t DeviceTree,
    visit: impl FnMut(Device<'t, '_>),
) -> Result<(), DtsError> {
    Walk {
        path: String::new(),
        buses: Vec::new(),
        regions: Vec::new(),
        visit,
    }
    .visit(&tree.root, (DEFAULT_ADDRESS_CELLS, DEFAULT_SIZE_CELLS))
}

/// The depth-first walk of [`for_each_device`].
struct Walk<F> {
    /// The visited node's path, extended on the way in and cut back on
    /// the way out; empty at the root.
    path: String,
    /// Every translating ancestor bus, outermost first: its path and
    /// its windows.
    buses: Vec<(String, Vec<RangeEntry>)>,
    /// The visited device's regions.
    regions: Vec<RegEntry>,
    visit: F,
}

impl<'t, F: FnMut(Device<'t, '_>)> Walk<F> {
    fn visit(&mut self, node: &'t Node, parent_cells: (u32, u32)) -> Result<(), DtsError> {
        // An unnamed node is the root wherever it sits: it starts from
        // an empty path, gives its parent's back afterwards, and its
        // `ranges` is ignored.
        let outer = node.name.is_empty().then(|| std::mem::take(&mut self.path));
        let (mark, depth) = (self.path.len(), self.buses.len());
        if !node.name.is_empty() {
            self.path.push('/');
            self.path.push_str(&node.name);
        }
        let here = if self.path.is_empty() {
            "/"
        } else {
            &self.path
        };
        if node.prop("reg").is_some() {
            let regions = &mut self.regions;
            regions.clear();
            decode_reg_into(here, node, parent_cells, regions)?;
            // Empty regions take up no address space: they stay as
            // written.
            for r in regions.iter_mut().filter(|r| r.size != 0) {
                for (bus, windows) in self.buses.iter().rev() {
                    r.address = translate(r, windows).ok_or_else(|| DtsError::BadValue {
                        path: here.to_string(),
                        message: format!(
                            "reg [{:#x}, {:#x}) lies outside every window of {bus}'s ranges",
                            r.address,
                            r.end()
                        ),
                    })?;
                }
            }
            (self.visit)(Device {
                path: here,
                node,
                regions,
                cells: parent_cells,
            });
        }
        let my_cells = check_cells(here, cell_counts(node))?;
        if outer.is_none() {
            let windows = decode_ranges(here, node, parent_cells.0, my_cells)?;
            if !windows.is_empty() {
                self.buses.push((here.to_string(), windows));
            }
        }
        for c in &node.children {
            self.visit(c, my_cells)?;
        }
        self.path.truncate(mark);
        self.buses.truncate(depth);
        if let Some(outer) = outer {
            self.path = outer;
        }
        Ok(())
    }
}

/// One `ranges` window: addresses `child_base..child_base+size` on the
/// child bus map to `parent_base..` on the parent bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeEntry {
    child_base: u128,
    parent_base: u128,
    size: u128,
}

/// Decodes a node's `ranges` into its windows. An empty vector means
/// addresses pass through unchanged: the property is absent, or is the
/// empty `ranges;` (the identity).
///
/// Layout per the DeviceTree specification §2.3.8: each entry is
/// `child-address parent-address size`, where the child address uses
/// the node's own `#address-cells`, the parent address the *parent's*
/// `#address-cells`, and the size the node's `#size-cells`. All three
/// counts have already been checked against [`MAX_CELLS`].
fn decode_ranges(
    path: &str,
    node: &Node,
    parent_address_cells: u32,
    (child_ac, child_sc): (u32, u32),
) -> Result<Vec<RangeEntry>, DtsError> {
    let Some(prop) = node.prop("ranges") else {
        return Ok(Vec::new());
    };
    if prop.values().len() == 0 {
        return Ok(Vec::new());
    }
    let mut flat = prop.flat_cells().ok_or_else(|| DtsError::BadValue {
        path: path.to_string(),
        message: "ranges must be a cell array of literals".into(),
    })?;
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
    let mut windows = Vec::with_capacity(flat.len() / stride);
    while flat.len() > 0 {
        windows.push(RangeEntry {
            child_base: take_cells(&mut flat, child_ac),
            parent_base: take_cells(&mut flat, parent_address_cells),
            size: take_cells(&mut flat, child_sc),
        });
    }
    Ok(windows)
}

/// The parent-bus address of `region`, mapped by the window that holds
/// all of it; `None` when no window does.
fn translate(region: &RegEntry, windows: &[RangeEntry]) -> Option<u128> {
    windows.iter().find_map(|w| {
        let offset = region.address.checked_sub(w.child_base)?;
        // Saturating: a window whose parent side sits at the top of the
        // address space must not wrap the address back to zero (that
        // would manufacture phantom collisions).
        (offset < w.size && region.size <= w.size - offset)
            .then(|| w.parent_base.saturating_add(offset))
    })
}

/// Checks that every node's `@unit-address` matches its first `reg`
/// address, a well-formedness rule `dtc -W` warns about. Returns the
/// paths that violate it. Unit addresses are bus-local, so this
/// compares against `reg` as written, not the CPU addresses of
/// [`collect_regions`]; a node whose `reg` does not decode is skipped.
pub fn unit_address_mismatches(tree: &DeviceTree) -> Vec<String> {
    fn visit(node: &Node, path: &mut String, parent_cells: (u32, u32), bad: &mut Vec<String>) {
        let mark = path.len();
        path.push('/');
        path.push_str(&node.name);
        let unit = node
            .unit_address()
            .and_then(|u| u128::from_str_radix(u, 16).ok());
        if let Some(unit) = unit {
            let first = decode_reg(path, node, parent_cells.0, parent_cells.1)
                .ok()
                .and_then(|regions| regions.first().copied());
            if first.is_some_and(|r| r.address != unit) {
                bad.push(path.clone());
            }
        }
        let cells = cell_counts(node);
        for c in &node.children {
            visit(c, path, cells, bad);
        }
        path.truncate(mark);
    }
    let mut bad = Vec::new();
    let cells = cell_counts(&tree.root);
    for c in &tree.root.children {
        visit(c, &mut String::new(), cells, &mut bad);
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
        assert_eq!(unit_address_mismatches(&t), ["/bad@30000000"]);
    }

    #[test]
    fn unit_addresses_stay_bus_local() {
        // `uart@0` names its bus-local address, not the 0x10000000 the
        // CPU sees it at.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x10000000 0x100000>;
                    uart@0 { reg = <0x0 0x1000>; };
                };
            };"#,
        )
        .unwrap();
        assert_eq!(
            collect_regions(&t).unwrap()[0].regions,
            [RegEntry::new(0x1000_0000, 0x1000)]
        );
        assert!(unit_address_mismatches(&t).is_empty());
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
        let devs = collect_regions(&t).unwrap();
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
        let devs = collect_regions(&t).unwrap();
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
        let devs = collect_regions(&t).unwrap();
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
        let devs = collect_regions(&t).unwrap();
        let timer = devs
            .iter()
            .find(|d| d.path.to_string().ends_with("timer@40"))
            .unwrap();
        assert_eq!(timer.regions, vec![RegEntry::new(0x4010_0040, 0x20)]);
    }

    #[test]
    fn missing_ranges_passes_addresses_through() {
        // Neither `cpus` nor `vEthernet` has `ranges`: the cpu unit
        // numbers (size 0) and the veth window keep their addresses,
        // and under a translating bus the outer window still applies.
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
                vEthernet {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    veth0@80000000 { reg = <0x80000000 0x1000>; };
                };
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x40000000 0x10000>;
                    plain {
                        #address-cells = <1>;
                        #size-cells = <1>;
                        dev@100 { reg = <0x100 0x10>; };
                    };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions(&t).unwrap();
        let regions: Vec<(&str, Vec<RegEntry>)> = devs
            .iter()
            .map(|d| (d.path.as_str(), d.regions.clone()))
            .collect();
        assert_eq!(
            regions,
            [
                ("/memory@80000000", vec![RegEntry::new(0x8000_0000, 0x1000)]),
                ("/cpus/cpu@0", vec![RegEntry::new(0, 0)]),
                (
                    "/vEthernet/veth0@80000000",
                    vec![RegEntry::new(0x8000_0000, 0x1000)]
                ),
                ("/soc/plain/dev@100", vec![RegEntry::new(0x4000_0100, 0x10)]),
            ]
        );
    }

    #[test]
    fn address_outside_every_window_is_rejected() {
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
        let err = collect_regions(&t).unwrap_err();
        assert_eq!(
            err.to_string(),
            "/soc/ghost@8000: reg [0x8000, 0x8100) lies outside every window of /soc's ranges"
        );
    }

    #[test]
    fn region_must_end_inside_its_window() {
        // The window is [0x0, 0x1000): a region ending exactly at its
        // end maps, one byte more crosses it and has no CPU address.
        let board = |reg: &str| {
            parse(&format!(
                r#"/ {{
                    #address-cells = <1>;
                    #size-cells = <1>;
                    soc {{
                        #address-cells = <1>;
                        #size-cells = <1>;
                        ranges = <0x0 0x20000000 0x1000>;
                        dev@f00 {{ reg = <{reg}>; }};
                    }};
                }};"#
            ))
            .unwrap()
        };
        let t = board("0xf00 0x100");
        assert_eq!(
            collect_regions(&t).unwrap()[0].regions,
            [RegEntry::new(0x2000_0f00, 0x100)]
        );
        let err = collect_regions(&board("0xf00 0x101")).unwrap_err();
        assert!(
            err.to_string()
                .contains("[0xf00, 0x1001) lies outside every window of /soc's ranges"),
            "{err}"
        );
    }

    #[test]
    fn empty_regions_keep_their_bus_numbers() {
        // A BCM283x-style soc window starts at child 0x7e000000. The
        // i2c controller maps through it; its eeprom's `reg` is an I2C
        // address under `#size-cells = <0>`, which no window holds and
        // none needs to. An empty region under a sized bus stays too.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x7e000000 0x3f000000 0x1000000>;
                    i2c@7e205000 {
                        reg = <0x7e205000 0x1000>;
                        #address-cells = <1>;
                        #size-cells = <0>;
                        eeprom@50 { reg = <0x50>; };
                    };
                    stub@0 { reg = <0x0 0x0>; };
                };
            };"#,
        )
        .unwrap();
        let devs = collect_regions(&t).unwrap();
        let regions: Vec<(&str, Vec<RegEntry>)> = devs
            .iter()
            .map(|d| (d.path.as_str(), d.regions.clone()))
            .collect();
        assert_eq!(
            regions,
            [
                (
                    "/soc/i2c@7e205000",
                    vec![RegEntry::new(0x3f20_5000, 0x1000)]
                ),
                ("/soc/i2c@7e205000/eeprom@50", vec![RegEntry::new(0x50, 0)]),
                ("/soc/stub@0", vec![RegEntry::new(0x0, 0)]),
            ]
        );
    }

    #[test]
    fn nested_miss_names_the_outer_bus() {
        // The inner window maps dev@0 to 0x5000 on `soc`, which `soc`'s
        // own window [0x0, 0x1000) does not hold.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x40000000 0x1000>;
                    apb {
                        #address-cells = <1>;
                        #size-cells = <1>;
                        ranges = <0x0 0x5000 0x100>;
                        dev@0 { reg = <0x0 0x10>; };
                    };
                };
            };"#,
        )
        .unwrap();
        let err = collect_regions(&t).unwrap_err();
        assert_eq!(
            err.to_string(),
            "/soc/apb/dev@0: reg [0x5000, 0x5010) lies outside every window of /soc's ranges"
        );
    }

    #[test]
    fn root_ranges_is_ignored() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                ranges = <0x0 0x40000000 0x1000>;
                dev@8000 { reg = <0x8000 0x10>; };
            };"#,
        )
        .unwrap();
        assert_eq!(
            collect_regions(&t).unwrap()[0].regions,
            [RegEntry::new(0x8000, 0x10)]
        );
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
                };
            };"#,
        )
        .unwrap();
        let err = collect_regions(&t).unwrap_err();
        assert!(
            err.to_string().starts_with("/soc: ranges has 2 cells"),
            "{err}"
        );
    }

    #[test]
    fn translate_needs_the_whole_region_in_one_window() {
        let windows = [
            RangeEntry {
                child_base: 0x100,
                parent_base: 0x1000,
                size: 0x100,
            },
            RangeEntry {
                child_base: 0x200,
                parent_base: 0x8000,
                size: 0x100,
            },
        ];
        let at = |address, size| translate(&RegEntry::new(address, size), &windows);
        assert_eq!(at(0x100, 0x100), Some(0x1000));
        assert_eq!(at(0x1ff, 0), Some(0x10ff));
        assert_eq!(at(0x280, 0x80), Some(0x8080));
        assert_eq!(at(0xff, 0x10), None, "starts below the first window");
        // Adjacent windows are not stitched together.
        assert_eq!(at(0x1f0, 0x20), None);
        assert_eq!(at(0x300, 0), None);
    }

    #[test]
    fn take_cells_concatenates_big_endian() {
        assert_eq!(take_cells(&mut [0x1, 0x2].into_iter(), 2), 0x1_0000_0002);
        assert_eq!(take_cells(&mut [0xdead_beef].into_iter(), 1), 0xdead_beef);
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
        let r = decode_reg("/dev@0", node, 5, 1);
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
        let windows = [RangeEntry {
            child_base: 0x0,
            parent_base: u128::MAX - 0x10,
            size: 0x100,
        }];
        let region = RegEntry::new(0x20, 0x10);
        assert_eq!(translate(&region, &windows), Some(u128::MAX));
    }

    #[test]
    fn check_cells_accepts_spec_range() {
        for ac in 0..=4u32 {
            let t = parse(&format!(
                "/ {{ #address-cells = <{ac}>; #size-cells = <2>; }};"
            ))
            .unwrap();
            assert!(check_cells("/", cell_counts(&t.root)).is_ok());
        }
    }
}
