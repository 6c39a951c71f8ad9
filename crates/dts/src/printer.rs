//! Pretty-printer producing round-trippable DTS source.

use std::fmt::Write as _;

use crate::tree::{DeviceTree, Node};

/// Renders a tree as DTS source text.
///
/// The output parses back ([`parse`](crate::parse)) to an equal tree,
/// which the property tests in this crate verify.
///
/// ```
/// let mut tree = llhsc_dts::DeviceTree::new();
/// tree.ensure("/chosen");
/// let text = llhsc_dts::print(&tree);
/// assert!(text.contains("chosen {"));
/// ```
pub fn print(tree: &DeviceTree) -> String {
    let mut out = String::new();
    if tree.has_version_tag {
        out.push_str("/dts-v1/;\n\n");
    }
    for &(addr, size) in &tree.reservations {
        let _ = writeln!(out, "/memreserve/ {addr:#x} {size:#x};");
    }
    out.push_str("/ {\n");
    print_body(&tree.root, 1, &mut out);
    out.push_str("};\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_body(node: &Node, depth: usize, out: &mut String) {
    for p in &node.properties {
        indent(out, depth);
        out.push_str(p.name());
        for (i, v) in p.values().enumerate() {
            out.push_str(if i > 0 { ", " } else { " = " });
            let _ = write!(out, "{v}");
        }
        out.push_str(";\n");
    }
    for c in &node.children {
        out.push('\n');
        indent(out, depth);
        for l in &c.labels {
            let _ = write!(out, "{l}: ");
        }
        let _ = writeln!(out, "{} {{", c.name);
        print_body(c, depth + 1, out);
        indent(out, depth);
        out.push_str("};\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::property::{Property, PropertyBuilder};

    #[test]
    fn print_empty() {
        let t = DeviceTree::new();
        assert_eq!(print(&t), "/dts-v1/;\n\n/ {\n};\n");
    }

    #[test]
    fn print_parse_roundtrip_basic() {
        let mut t = DeviceTree::new();
        {
            let mem = t.ensure("/memory@40000000");
            mem.set_prop(Property::string("device_type", "memory"));
            mem.set_prop(Property::cells("reg", [0, 0x4000_0000, 0, 0x2000_0000]));
        }
        {
            let cpu = t.ensure("/cpus/cpu@0");
            cpu.labels.push("boot_cpu".into());
            cpu.set_prop(Property::flag("enable"));
        }
        let text = print(&t);
        let back = parse(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn print_escapes_strings() {
        let mut t = DeviceTree::new();
        t.root.set_prop(Property::string("weird", "a\"b\\c\nd"));
        let text = print(&t);
        let back = parse(&text).unwrap();
        assert_eq!(back.root.prop_str("weird"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn print_refs_and_bytes() {
        let mut t = DeviceTree::new();
        t.ensure("/intc").labels.push("intc".into());
        let u = t.ensure("/uart@0");
        u.set_prop(
            PropertyBuilder::new()
                .begin_cells()
                .phandle("intc")
                .finish("interrupt-parent"),
        );
        u.set_prop(Property::bytes("mac", &[0xde, 0xad]));
        let text = print(&t);
        assert!(text.contains("<&intc>"));
        assert!(text.contains("[de ad]"));
        let back = parse(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn print_memreserve() {
        let mut t = DeviceTree::new();
        t.reservations.push((0x1000, 0x2000));
        let text = print(&t);
        assert!(text.contains("/memreserve/ 0x1000 0x2000;"));
    }
}
