//! Property tests: printer/parser and FDT codec round-trips over
//! randomly generated trees, and sibling merging checked against a
//! linear-scan reference.

use std::fmt::Write as _;

use llhsc_dts::{
    fdt, parse, parse_with_includes, print, DeviceTree, MapFileProvider, Node, Property,
    PropertyBuilder,
};
use proptest::prelude::*;

/// Names safe for nodes/properties in generated trees.
fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}".prop_map(|s| s)
}

fn arb_unit() -> impl Strategy<Value = Option<u32>> {
    prop::option::of(0u32..=0xffff_ffff)
}

/// One generated property value.
#[derive(Debug, Clone)]
enum Value {
    Cells(Vec<u32>),
    Str(String),
    Bytes(Vec<u8>),
}

fn arb_prop() -> impl Strategy<Value = Property> {
    let value = prop_oneof![
        prop::collection::vec(any::<u32>(), 0..5).prop_map(Value::Cells),
        "[ -~&&[^\"\\\\]]{0,12}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 1..6).prop_map(Value::Bytes),
    ];
    (arb_name(), prop::collection::vec(value, 0..3)).prop_map(|(name, values)| {
        let mut b = PropertyBuilder::new();
        for v in values {
            match v {
                Value::Cells(cells) => {
                    b.begin_cells();
                    for c in cells {
                        b.cell(c);
                    }
                }
                Value::Str(s) => {
                    b.string(&s);
                }
                Value::Bytes(bytes) => {
                    b.begin_bytes();
                    for byte in bytes {
                        b.byte(byte);
                    }
                }
            }
        }
        b.finish(&name)
    })
}

fn arb_node(depth: u32) -> BoxedStrategy<Node> {
    let leaf = (
        arb_name(),
        arb_unit(),
        prop::collection::vec(arb_prop(), 0..4),
    )
        .prop_map(|(name, unit, props)| {
            let full = match unit {
                Some(u) => format!("{name}@{u:x}"),
                None => name,
            };
            let mut n = Node::new(&full);
            for p in props {
                n.set_prop(p);
            }
            n
        });
    if depth == 0 {
        leaf.boxed()
    } else {
        (leaf, prop::collection::vec(arb_node(depth - 1), 0..3))
            .prop_map(|(mut n, children)| {
                for c in children {
                    // Avoid duplicate child names (they would merge on parse).
                    if n.child(&c.name).is_none() {
                        n.children.push(c);
                    }
                }
                n
            })
            .boxed()
    }
}

fn arb_tree() -> impl Strategy<Value = DeviceTree> {
    prop::collection::vec(arb_node(2), 0..4).prop_map(|tops| {
        let mut t = DeviceTree::new();
        for n in tops {
            if t.root.child(&n.name).is_none() {
                t.root.children.push(n);
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print → parse is the identity on trees.
    #[test]
    fn print_parse_roundtrip(tree in arb_tree()) {
        let text = print(&tree);
        let back = parse(&text).unwrap();
        prop_assert_eq!(tree, back);
    }

    /// encode → decode → encode is byte-stable.
    #[test]
    fn fdt_roundtrip_stable(tree in arb_tree()) {
        let b1 = fdt::encode(&tree);
        let t2 = fdt::decode(&b1).unwrap();
        let b2 = fdt::encode(&t2);
        prop_assert_eq!(b1, b2);
    }

    /// Decoding preserves the node skeleton (names and counts).
    #[test]
    fn fdt_preserves_structure(tree in arb_tree()) {
        let back = fdt::decode(&fdt::encode(&tree)).unwrap();
        prop_assert_eq!(back.size(), tree.size());
        let orig: Vec<String> = tree.nodes().iter().map(|(p, _)| p.to_string()).collect();
        let dec: Vec<String> = back.nodes().iter().map(|(p, _)| p.to_string()).collect();
        prop_assert_eq!(orig, dec);
    }

    /// Truncating a blob anywhere never panics, only errors.
    #[test]
    fn fdt_truncation_never_panics(tree in arb_tree(), frac in 0.0f64..1.0) {
        let blob = fdt::encode(&tree);
        let cut = ((blob.len() as f64) * frac) as usize;
        let _ = fdt::decode(&blob[..cut.min(blob.len().saturating_sub(1))]);
    }
}

// ---- sibling merging -------------------------------------------------
//
// `arb_tree` never repeats a child name, so the round trips above never
// merge. These generators draw child names from a pool of four, so
// namesakes are the rule, and mix in `/delete-node/`, repeated root
// blocks and `&label` overlays. A reference builder that finds each
// namesake with a linear scan says what the parsed tree must be.

const CHILD_NAMES: [&str; 4] = ["a", "b@1", "b@2", "c"];
const PROP_NAMES: [&str; 3] = ["x", "y", "z"];
const LABELS: [&str; 3] = ["l0", "l1", "l2"];

/// One statement of a generated node body; names index the pools.
#[derive(Debug, Clone)]
enum Stmt {
    Prop(usize, u32),
    Child(Vec<usize>, usize, Vec<Stmt>),
    DeleteNode(usize),
    DeleteProp(usize),
}

/// One top-level block: `/ { … }` or `&label { … }`.
#[derive(Debug, Clone)]
enum Top {
    Root(Vec<Stmt>),
    Overlay(usize, Vec<Stmt>),
}

fn arb_body(depth: u32) -> BoxedStrategy<Vec<Stmt>> {
    let prop = || (0..PROP_NAMES.len(), 0u32..16).prop_map(|(p, v)| Stmt::Prop(p, v));
    let delete_node = (0..CHILD_NAMES.len()).prop_map(Stmt::DeleteNode);
    let delete_prop = (0..PROP_NAMES.len()).prop_map(Stmt::DeleteProp);
    if depth == 0 {
        return prop::collection::vec(prop_oneof![prop(), delete_prop], 0..4).boxed();
    }
    let child = || {
        (
            prop::collection::vec(0..LABELS.len(), 0..2),
            0..CHILD_NAMES.len(),
            arb_body(depth - 1),
        )
            .prop_map(|(labels, name, body)| Stmt::Child(labels, name, body))
    };
    // Children twice as likely as each other statement.
    let stmt = prop_oneof![prop(), child(), child(), delete_node, delete_prop];
    prop::collection::vec(stmt, 0..8).boxed()
}

fn arb_document() -> impl Strategy<Value = Vec<Top>> {
    let top = prop_oneof![
        arb_body(2).prop_map(Top::Root),
        (0..LABELS.len(), arb_body(2)).prop_map(|(l, body)| Top::Overlay(l, body)),
    ];
    // Always a first root block, then more roots and overlays.
    (arb_body(3), prop::collection::vec(top, 0..4)).prop_map(|(first, rest)| {
        let mut tops = vec![Top::Root(first)];
        tops.extend(rest);
        tops
    })
}

/// Renders `body`, recording in `cuts` the offset of every statement
/// boundary: where each statement starts, and where the list ends.
fn render_body(body: &[Stmt], out: &mut String, cuts: &mut Vec<usize>) {
    out.push_str("{ ");
    for stmt in body {
        cuts.push(out.len());
        match stmt {
            Stmt::Prop(p, v) => {
                let _ = write!(out, "{} = <{v:#x}>; ", PROP_NAMES[*p]);
            }
            Stmt::Child(labels, name, body) => {
                for l in labels {
                    let _ = write!(out, "{}: ", LABELS[*l]);
                }
                let _ = write!(out, "{} ", CHILD_NAMES[*name]);
                render_body(body, out, cuts);
                out.push_str("; ");
            }
            Stmt::DeleteNode(n) => {
                let _ = write!(out, "/delete-node/ {}; ", CHILD_NAMES[*n]);
            }
            Stmt::DeleteProp(p) => {
                let _ = write!(out, "/delete-property/ {}; ", PROP_NAMES[*p]);
            }
        }
    }
    cuts.push(out.len());
    out.push('}');
}

/// The document's text and the offsets of its statement boundaries, top
/// level and in every body, ascending.
fn render_document(tops: &[Top]) -> (String, Vec<usize>) {
    let mut out = String::from("/dts-v1/;\n");
    let mut cuts = vec![0, out.len()];
    for top in tops {
        let body = match top {
            Top::Root(body) => {
                out.push_str("/ ");
                body
            }
            Top::Overlay(l, body) => {
                let _ = write!(out, "&{} ", LABELS[*l]);
                body
            }
        };
        render_body(body, &mut out, &mut cuts);
        out.push_str(";\n");
        cuts.push(out.len());
    }
    (out, cuts)
}

fn ref_set_prop(node: &mut Node, prop: Property) {
    match node.properties.iter_mut().find(|p| p.name() == prop.name()) {
        Some(existing) => *existing = prop,
        None => node.properties.push(prop),
    }
}

/// Adds `child` to `children`, merging it into the first namesake
/// found by a linear scan.
fn ref_add_child(children: &mut Vec<Node>, child: Node) {
    match children.iter_mut().find(|c| c.name == child.name) {
        Some(existing) => ref_merge(existing, child),
        None => children.push(child),
    }
}

fn ref_merge(into: &mut Node, other: Node) {
    for l in other.labels {
        if !into.labels.contains(&l) {
            into.labels.push(l);
        }
    }
    for p in other.properties {
        ref_set_prop(into, p);
    }
    for c in other.children {
        ref_add_child(&mut into.children, c);
    }
}

/// The node a body declares, merging namesakes as they arrive and
/// deleting from the state accumulated so far.
fn ref_body(name: &str, body: &[Stmt]) -> Node {
    let mut node = Node::new(name);
    for stmt in body {
        match stmt {
            Stmt::Prop(p, v) => ref_set_prop(&mut node, Property::cells(PROP_NAMES[*p], [*v])),
            Stmt::Child(labels, name, body) => {
                let mut child = ref_body(CHILD_NAMES[*name], body);
                child.labels = labels.iter().map(|l| LABELS[*l].to_string()).collect();
                ref_add_child(&mut node.children, child);
            }
            Stmt::DeleteNode(n) => {
                if let Some(i) = node.children.iter().position(|c| c.name == CHILD_NAMES[*n]) {
                    node.children.remove(i);
                }
            }
            Stmt::DeleteProp(p) => {
                if let Some(i) = node
                    .properties
                    .iter()
                    .position(|q| q.name() == PROP_NAMES[*p])
                {
                    node.properties.remove(i);
                }
            }
        }
    }
    node
}

/// The first node carrying `label`, depth first.
fn ref_find_label<'a>(node: &'a mut Node, label: &str) -> Option<&'a mut Node> {
    if node.labels.iter().any(|l| l == label) {
        return Some(node);
    }
    node.children
        .iter_mut()
        .find_map(|c| ref_find_label(c, label))
}

/// The tree a document denotes, or `None` when an overlay names a label
/// no node carries.
fn ref_document(tops: &[Top]) -> Option<DeviceTree> {
    let mut tree = DeviceTree::new();
    for top in tops {
        match top {
            Top::Root(body) => ref_merge(&mut tree.root, ref_body("", body)),
            Top::Overlay(l, body) => {
                let target = ref_find_label(&mut tree.root, LABELS[*l])?;
                ref_merge(target, ref_body("", body));
            }
        }
    }
    Some(tree)
}

/// A node built without any merging, so its child list may repeat
/// names, as a decoded blob's can.
fn raw_node(name: &str, body: &[Stmt]) -> Node {
    let mut node = Node::new(name);
    for stmt in body {
        match stmt {
            Stmt::Prop(p, v) => ref_set_prop(&mut node, Property::cells(PROP_NAMES[*p], [*v])),
            Stmt::Child(labels, name, body) => {
                let mut child = raw_node(CHILD_NAMES[*name], body);
                child.labels = labels.iter().map(|l| LABELS[*l].to_string()).collect();
                node.children.push(child);
            }
            Stmt::DeleteNode(_) | Stmt::DeleteProp(_) => {}
        }
    }
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parsing merges namesakes exactly as the linear-scan reference:
    /// same child order, merged properties and labels, and the same
    /// unknown-label failures.
    #[test]
    fn sibling_merging_matches_linear_reference(tops in arb_document()) {
        let (text, _) = render_document(&tops);
        prop_assert_eq!(parse(&text).ok(), ref_document(&tops), "{}", text);
    }

    /// Textual inclusion: cut at four statement boundaries a ≤ b ≤ c ≤ d,
    /// the document is a main file that includes `[a, d)`, which in turn
    /// includes `[b, c)`. The cuts may split bodies anywhere, leave a
    /// part empty or hand the version tag to an included file; parsing
    /// through the includes gives the whole text's tree (the reference
    /// builder's), or fails as the whole text does.
    #[test]
    fn included_parts_parse_as_the_whole(
        tops in arb_document(),
        picks in (
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        ),
    ) {
        let (text, cuts) = render_document(&tops);
        let mut at = [picks.0, picks.1, picks.2, picks.3].map(|i| cuts[i.index(cuts.len())]);
        at.sort_unstable();
        let [a, b, c, d] = at;
        let mut files = MapFileProvider::new();
        files.insert("inner.dtsi", &text[b..c]);
        files.insert(
            "outer.dtsi",
            &format!("{}/include/ \"inner.dtsi\"\n{}", &text[a..b], &text[c..d]),
        );
        let main = format!("{}/include/ \"outer.dtsi\"\n{}", &text[..a], &text[d..]);
        let whole = parse(&text).ok();
        prop_assert_eq!(&whole, &ref_document(&tops), "{}", text);
        prop_assert_eq!(
            parse_with_includes(&main, &files).ok(),
            whole,
            "{} split at {:?}",
            text,
            at
        );
    }

    /// `Node::merge` into a child list that already repeats names merges
    /// into the first namesake, as the linear scan does.
    #[test]
    fn node_merge_matches_linear_reference(a in arb_body(3), b in arb_body(3)) {
        let (mut got, mut want) = (raw_node("n", &a), raw_node("n", &a));
        got.merge(raw_node("n", &b));
        ref_merge(&mut want, raw_node("n", &b));
        prop_assert_eq!(got, want);
    }
}
