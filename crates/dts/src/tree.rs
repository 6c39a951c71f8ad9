//! The DeviceTree data model: nodes, properties, values and paths.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasher;

use crate::error::DtsError;
use crate::property::{Property, Value};

/// A device node: a name (with optional `@unit-address`), labels,
/// properties and children. Property and child order is preserved.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Node {
    /// Full node name including the unit address, e.g.
    /// `memory@40000000`. The root node's name is empty.
    pub name: String,
    /// Labels attached to this node (`uart0:`).
    pub labels: Vec<String>,
    /// Properties in source order.
    pub properties: Vec<Property>,
    /// Child nodes in source order.
    pub children: Vec<Node>,
}

impl Node {
    /// Creates an empty node with the given name.
    pub fn new(name: &str) -> Node {
        Node {
            name: name.to_string(),
            ..Node::default()
        }
    }

    /// The name part before `@`.
    pub fn base_name(&self) -> &str {
        self.name.split('@').next().unwrap_or("")
    }

    /// The unit address part after `@`, if present.
    pub fn unit_address(&self) -> Option<&str> {
        let mut it = self.name.splitn(2, '@');
        it.next();
        it.next()
    }

    /// Looks up a property by name.
    pub fn prop(&self, name: &str) -> Option<&Property> {
        self.properties.iter().find(|p| p.is_named(name))
    }

    /// Mutable property lookup.
    pub fn prop_mut(&mut self, name: &str) -> Option<&mut Property> {
        self.properties.iter_mut().find(|p| p.is_named(name))
    }

    /// Shorthand for `prop(name).and_then(Property::as_u32)`.
    pub fn prop_u32(&self, name: &str) -> Option<u32> {
        self.prop(name).and_then(Property::as_u32)
    }

    /// Shorthand for `prop(name).and_then(Property::as_str)`.
    pub fn prop_str(&self, name: &str) -> Option<&str> {
        self.prop(name).and_then(Property::as_str)
    }

    /// Inserts or replaces a property (by name).
    pub fn set_prop(&mut self, prop: Property) {
        match self.prop_mut(prop.name()) {
            Some(existing) => *existing = prop,
            None => self.properties.push(prop),
        }
    }

    /// Removes a property by name; returns it if present.
    pub fn remove_prop(&mut self, name: &str) -> Option<Property> {
        let i = self.properties.iter().position(|p| p.is_named(name))?;
        Some(self.properties.remove(i))
    }

    /// Looks up a direct child by full name, or by base name when the
    /// query contains no `@` and exactly one child matches.
    pub fn child(&self, name: &str) -> Option<&Node> {
        if let Some(c) = self.children.iter().find(|c| c.name == name) {
            return Some(c);
        }
        if !name.contains('@') {
            let mut matches = self.children.iter().filter(|c| c.base_name() == name);
            if let (Some(c), None) = (matches.next(), matches.next()) {
                return Some(c);
            }
        }
        None
    }

    /// Mutable child lookup with the same name semantics as
    /// [`Node::child`].
    pub fn child_mut(&mut self, name: &str) -> Option<&mut Node> {
        if self.children.iter().any(|c| c.name == name) {
            return self.children.iter_mut().find(|c| c.name == name);
        }
        if !name.contains('@') {
            let count = self
                .children
                .iter()
                .filter(|c| c.base_name() == name)
                .count();
            if count == 1 {
                return self.children.iter_mut().find(|c| c.base_name() == name);
            }
        }
        None
    }

    /// Gets or creates a direct child with the exact given name.
    pub fn ensure_child(&mut self, name: &str) -> &mut Node {
        let i = match self.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.children.push(Node::new(name));
                self.children.len() - 1
            }
        };
        &mut self.children[i]
    }

    /// Removes a direct child by name; returns it if present.
    pub fn remove_child(&mut self, name: &str) -> Option<Node> {
        let i = self.children.iter().position(|c| c.name == name)?;
        Some(self.children.remove(i))
    }

    /// Merges `other` into this node: other's properties overwrite
    /// same-named ones, children are merged recursively by name, labels
    /// are unioned. This is the semantics of writing the same node twice
    /// in DTS source (and of delta `modifies`).
    pub fn merge(&mut self, other: Node) {
        for l in other.labels {
            if !self.labels.contains(&l) {
                self.labels.push(l);
            }
        }
        for p in other.properties {
            self.set_prop(p);
        }
        if other.children.is_empty() {
            return;
        }
        let mut siblings = SiblingIndex::new(&self.children);
        for c in other.children {
            siblings.add(&mut self.children, c);
        }
    }

    /// Depth-first iteration over this node and all descendants, with
    /// each node's path.
    pub fn walk(&self) -> Vec<(NodePath, &Node)> {
        let mut out = Vec::new();
        fn rec<'a>(node: &'a Node, path: &NodePath, out: &mut Vec<(NodePath, &'a Node)>) {
            let here = if node.name.is_empty() {
                NodePath::root()
            } else {
                path.join(&node.name)
            };
            out.push((here.clone(), node));
            for c in &node.children {
                rec(c, &here, out);
            }
        }
        rec(self, &NodePath::root(), &mut out);
        out
    }

    /// Total number of nodes in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Node::size).sum::<usize>()
    }
}

/// Where each name first occurs in a list of sibling nodes, so that a
/// node declared twice finds its namesake without scanning the list.
///
/// This is the one sibling-merging routine: the parser keeps one per
/// node body it reads, and [`Node::merge`] builds one over the children
/// it merges into. Either way a list of n children costs O(n) to build,
/// where a scan per child costs n²/2 name comparisons. The index keys on
/// a hash of the name, so it borrows nothing from the list; a hit is
/// confirmed against the name, and a hash collision falls back to a
/// scan. Keying on a copy of each name instead cost ~10 % more CPU per
/// `llhsc check` of a 250–6 000-device board and ~0.4 MB of peak RSS
/// (2-vCPU VM): one allocation per indexed name.
#[derive(Debug, Default)]
pub(crate) struct SiblingIndex {
    first: HashMap<u64, usize>,
    hasher: RandomState,
}

impl SiblingIndex {
    /// Indexes `children` as they stand.
    pub(crate) fn new(children: &[Node]) -> SiblingIndex {
        let mut index = SiblingIndex {
            first: HashMap::with_capacity(children.len()),
            hasher: RandomState::new(),
        };
        for (i, c) in children.iter().enumerate() {
            let key = index.hasher.hash_one(&c.name);
            index.first.entry(key).or_insert(i);
        }
        index
    }

    /// Position of the first child called `name`, whose hash is `key`.
    fn position(&self, children: &[Node], key: u64, name: &str) -> Option<usize> {
        let &i = self.first.get(&key)?;
        if children.get(i).is_some_and(|c| c.name == name) {
            Some(i)
        } else {
            children.iter().position(|c| c.name == name)
        }
    }

    /// Merges `child` into the first of `children` with the same name,
    /// or appends it when there is none.
    pub(crate) fn add(&mut self, children: &mut Vec<Node>, child: Node) {
        let key = self.hasher.hash_one(&child.name);
        match self.position(children, key, &child.name) {
            Some(i) => children[i].merge(child),
            None => {
                self.first.entry(key).or_insert(children.len());
                children.push(child);
            }
        }
    }

    /// Removes the first of `children` called `name`, as `/delete-node/`
    /// does. The children after it move up one place, so the index is
    /// rebuilt: a delete costs O(n), as removing from a vector does.
    pub(crate) fn remove(&mut self, children: &mut Vec<Node>, name: &str) {
        let key = self.hasher.hash_one(name);
        if let Some(i) = self.position(children, key, name) {
            children.remove(i);
            *self = SiblingIndex::new(children);
        }
    }
}

/// An absolute node path such as `/cpus/cpu@0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodePath(Vec<String>);

impl NodePath {
    /// The root path `/`.
    pub fn root() -> NodePath {
        NodePath(Vec::new())
    }

    /// Parses a path from `/`-separated segments.
    pub fn parse(s: &str) -> NodePath {
        NodePath(
            s.split('/')
                .filter(|seg| !seg.is_empty())
                .map(str::to_string)
                .collect(),
        )
    }

    /// The path one level deeper.
    pub fn join(&self, segment: &str) -> NodePath {
        let mut v = self.0.clone();
        v.push(segment.to_string());
        NodePath(v)
    }

    /// Path segments.
    pub fn segments(&self) -> &[String] {
        &self.0
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<NodePath> {
        if self.0.is_empty() {
            None
        } else {
            Some(NodePath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// The last segment, or `None` for the root.
    pub fn leaf(&self) -> Option<&str> {
        self.0.last().map(String::as_str)
    }

    /// `true` for the root path.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "/");
        }
        for seg in &self.0 {
            write!(f, "/{seg}")?;
        }
        Ok(())
    }
}

/// A whole DeviceTree: the root node plus document-level metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DeviceTree {
    /// The root node (its `name` is empty).
    pub root: Node,
    /// Whether the source carried a `/dts-v1/;` tag.
    pub has_version_tag: bool,
    /// Memory reservation entries (`/memreserve/`), kept for FDT
    /// encoding. Each entry is `(address, size)`.
    pub reservations: Vec<(u64, u64)>,
}

impl DeviceTree {
    /// Creates an empty tree with a version tag.
    pub fn new() -> DeviceTree {
        DeviceTree {
            has_version_tag: true,
            ..DeviceTree::default()
        }
    }

    /// Finds a node by absolute path (string or [`NodePath`]).
    pub fn find(&self, path: &str) -> Option<&Node> {
        self.find_path(&NodePath::parse(path))
    }

    /// Finds a node by parsed path.
    pub fn find_path(&self, path: &NodePath) -> Option<&Node> {
        let mut cur = &self.root;
        for seg in path.segments() {
            cur = cur.child(seg)?;
        }
        Some(cur)
    }

    /// Mutable path lookup.
    pub fn find_mut(&mut self, path: &str) -> Option<&mut Node> {
        self.find_path_mut(&NodePath::parse(path))
    }

    /// Mutable parsed-path lookup.
    pub fn find_path_mut(&mut self, path: &NodePath) -> Option<&mut Node> {
        let mut cur = &mut self.root;
        for seg in path.segments() {
            cur = cur.child_mut(seg)?;
        }
        Some(cur)
    }

    /// Gets or creates the node at `path`, creating intermediate nodes.
    pub fn ensure(&mut self, path: &str) -> &mut Node {
        let path = NodePath::parse(path);
        let mut cur = &mut self.root;
        for seg in path.segments() {
            cur = cur.ensure_child(seg);
        }
        cur
    }

    /// Removes the node at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`DtsError::NoSuchNode`] if the path (or its parent) does
    /// not resolve, and a [`DtsError::BadValue`] when asked to remove the
    /// root.
    pub fn remove(&mut self, path: &str) -> Result<Node, DtsError> {
        let parsed = NodePath::parse(path);
        let Some(leaf) = parsed.leaf().map(str::to_string) else {
            return Err(DtsError::BadValue {
                path: "/".into(),
                message: "cannot remove the root node".into(),
            });
        };
        // A path with a leaf always has a parent, but spell the
        // fallback out rather than panic on a future invariant slip.
        let Some(parent) = parsed.parent() else {
            return Err(DtsError::NoSuchNode {
                path: path.to_string(),
            });
        };
        let parent_node = self
            .find_path_mut(&parent)
            .ok_or_else(|| DtsError::NoSuchNode {
                path: parent.to_string(),
            })?;
        // Resolve base-name queries to the exact child name first.
        let exact = parent_node
            .child(&leaf)
            .map(|c| c.name.clone())
            .ok_or_else(|| DtsError::NoSuchNode {
                path: path.to_string(),
            })?;
        parent_node
            .remove_child(&exact)
            .ok_or_else(|| DtsError::NoSuchNode {
                path: path.to_string(),
            })
    }

    /// Resolves a `&label` to the path of the labelled node.
    pub fn resolve_label(&self, label: &str) -> Option<NodePath> {
        self.root
            .walk()
            .into_iter()
            .find(|(_, n)| n.labels.iter().any(|l| l == label))
            .map(|(p, _)| p)
    }

    /// All nodes with their paths, depth first.
    pub fn nodes(&self) -> Vec<(NodePath, &Node)> {
        self.root.walk()
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Resolves an alias from the `/aliases` node (DeviceTree spec
    /// §3.3): the property value is an absolute node path, or a bare
    /// `&label` that dtc compiles to the labelled node's path. Returns
    /// the aliased node, or `None` when the alias or its target is
    /// absent.
    ///
    /// ```
    /// let t = llhsc_dts::parse(r#"/ {
    ///     aliases { serial0 = "/uart@20000000"; serial1 = &uart1; };
    ///     uart@20000000 { };
    ///     uart1: uart@30000000 { };
    /// };"#).unwrap();
    /// assert_eq!(t.resolve_alias("serial0").unwrap().name, "uart@20000000");
    /// assert_eq!(t.resolve_alias("serial1").unwrap().name, "uart@30000000");
    /// ```
    pub fn resolve_alias(&self, alias: &str) -> Option<&Node> {
        let prop = self.find("/aliases")?.prop(alias)?;
        match prop.values().next()? {
            Value::PathRef(label) => self.find_path(&self.resolve_label(label)?),
            _ => self.find(prop.as_str()?),
        }
    }

    /// The phandle of every node that has or needs one, as the FDT
    /// encoder assigns them: a node's phandle is its own `phandle` cell,
    /// and every other labelled node gets a fresh value, in depth-first
    /// order, that skips every explicit one.
    pub fn phandles(&self) -> Phandles<'_> {
        fn preorder<'t>(node: &'t Node, out: &mut Vec<&'t Node>) {
            out.push(node);
            for c in &node.children {
                preorder(c, out);
            }
        }
        let mut nodes = Vec::new();
        preorder(&self.root, &mut nodes);
        let explicit: HashSet<u32> = nodes.iter().filter_map(|n| n.prop_u32("phandle")).collect();
        let mut fresh = 1u32..;
        let mut out = Phandles::default();
        for n in nodes {
            let phandle = n.prop_u32("phandle").or_else(|| {
                let labelled = !n.labels.is_empty();
                labelled.then(|| fresh.find(|v| !explicit.contains(v)).unwrap_or(0))
            });
            if let Some(ph) = phandle {
                out.nodes.entry(ph).or_insert(n);
                for l in &n.labels {
                    out.labels.entry(l.as_str()).or_insert(ph);
                }
            }
            out.of_node.push(phandle);
        }
        out
    }
}

/// The phandles of a tree's nodes, from [`DeviceTree::phandles`].
#[derive(Debug, Default)]
pub struct Phandles<'t> {
    /// Each node's phandle, in depth-first order.
    of_node: Vec<Option<u32>>,
    /// Each label's phandle: that of the first node to carry it.
    labels: HashMap<&'t str, u32>,
    /// Each phandle's node: the first to have it.
    nodes: HashMap<u32, &'t Node>,
}

impl<'t> Phandles<'t> {
    /// The phandle a `&label` reference resolves to.
    pub fn of_label(&self, label: &str) -> Option<u32> {
        self.labels.get(label).copied()
    }

    /// The node with phandle `phandle`.
    pub fn node(&self, phandle: u32) -> Option<&'t Node> {
        self.nodes.get(&phandle).copied()
    }

    /// The phandle of the node at position `index` of a depth-first
    /// walk from the root (the root is 0).
    pub fn of_index(&self, index: usize) -> Option<u32> {
        self.of_node.get(index).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeviceTree {
        let mut t = DeviceTree::new();
        {
            let mem = t.ensure("/memory@40000000");
            mem.set_prop(Property::string("device_type", "memory"));
            mem.set_prop(Property::cells("reg", [0, 0x4000_0000, 0, 0x2000_0000]));
        }
        {
            let cpu0 = t.ensure("/cpus/cpu@0");
            cpu0.set_prop(Property::string("compatible", "arm,cortex-a53"));
            cpu0.set_prop(Property::cells("reg", [0]));
        }
        t.ensure("/cpus/cpu@1");
        t
    }

    #[test]
    fn path_parse_display() {
        let p = NodePath::parse("/cpus/cpu@0");
        assert_eq!(p.segments(), ["cpus", "cpu@0"]);
        assert_eq!(p.to_string(), "/cpus/cpu@0");
        assert_eq!(NodePath::root().to_string(), "/");
        assert_eq!(p.parent().unwrap().to_string(), "/cpus");
        assert_eq!(p.leaf(), Some("cpu@0"));
        assert!(NodePath::root().is_root());
    }

    #[test]
    fn find_and_ensure() {
        let t = sample();
        assert!(t.find("/memory@40000000").is_some());
        assert!(t.find("/cpus/cpu@0").is_some());
        assert!(t.find("/nope").is_none());
        assert_eq!(t.size(), 5); // root, memory, cpus, cpu@0, cpu@1
    }

    #[test]
    fn base_name_lookup_when_unique() {
        let t = sample();
        // "memory" has a unique match even without the unit address.
        assert!(t.find("/memory").is_some());
        // "cpu" is ambiguous under /cpus.
        assert!(t.find("/cpus/cpu").is_none());
    }

    #[test]
    fn unit_address_split() {
        let n = Node::new("memory@40000000");
        assert_eq!(n.base_name(), "memory");
        assert_eq!(n.unit_address(), Some("40000000"));
        let n = Node::new("cpus");
        assert_eq!(n.unit_address(), None);
    }

    #[test]
    fn prop_accessors() {
        let t = sample();
        let mem = t.find("/memory@40000000").unwrap();
        assert_eq!(mem.prop_str("device_type"), Some("memory"));
        assert_eq!(
            mem.prop("reg")
                .unwrap()
                .flat_cells()
                .unwrap()
                .collect::<Vec<_>>(),
            [0, 0x4000_0000, 0, 0x2000_0000]
        );
        let cpu = t.find("/cpus/cpu@0").unwrap();
        assert_eq!(cpu.prop_u32("reg"), Some(0));
    }

    #[test]
    fn set_prop_replaces() {
        let mut n = Node::new("x");
        n.set_prop(Property::cells("reg", [1]));
        n.set_prop(Property::cells("reg", [2]));
        assert_eq!(n.properties.len(), 1);
        assert_eq!(n.prop_u32("reg"), Some(2));
    }

    #[test]
    fn remove_prop_and_child() {
        let mut t = sample();
        let mem = t.find_mut("/memory@40000000").unwrap();
        assert!(mem.remove_prop("device_type").is_some());
        assert!(mem.remove_prop("device_type").is_none());
        assert!(t.remove("/cpus/cpu@1").is_ok());
        assert!(t.find("/cpus/cpu@1").is_none());
        assert!(matches!(
            t.remove("/cpus/cpu@1"),
            Err(DtsError::NoSuchNode { .. })
        ));
    }

    #[test]
    fn remove_root_rejected() {
        let mut t = sample();
        assert!(matches!(t.remove("/"), Err(DtsError::BadValue { .. })));
    }

    #[test]
    fn merge_semantics() {
        let mut a = Node::new("uart@20000000");
        a.set_prop(Property::cells("reg", [0x2000_0000, 0x1000]));
        a.ensure_child("sub");
        let mut b = Node::new("uart@20000000");
        b.set_prop(Property::cells("reg", [0x3000_0000, 0x1000]));
        b.set_prop(Property::string("status", "okay"));
        b.labels.push("uart1".into());
        let mut bsub = Node::new("sub");
        bsub.set_prop(Property::flag("present"));
        b.children.push(bsub);
        a.merge(b);
        assert_eq!(
            a.prop("reg")
                .unwrap()
                .flat_cells()
                .unwrap()
                .collect::<Vec<_>>(),
            [0x3000_0000, 0x1000]
        );
        assert_eq!(a.prop_str("status"), Some("okay"));
        assert_eq!(a.labels, vec!["uart1".to_string()]);
        assert_eq!(a.children.len(), 1);
        assert!(a.children[0].prop("present").is_some());
    }

    #[test]
    fn walk_paths() {
        let t = sample();
        let paths: Vec<String> = t.nodes().iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            paths,
            vec![
                "/",
                "/memory@40000000",
                "/cpus",
                "/cpus/cpu@0",
                "/cpus/cpu@1"
            ]
        );
    }

    #[test]
    fn labels_resolve() {
        let mut t = sample();
        t.find_mut("/cpus/cpu@0")
            .unwrap()
            .labels
            .push("boot_cpu".into());
        assert_eq!(
            t.resolve_label("boot_cpu").unwrap().to_string(),
            "/cpus/cpu@0"
        );
        assert!(t.resolve_label("nope").is_none());
        assert_eq!(t.phandles().of_label("boot_cpu"), Some(1));

        // A nested node behind earlier siblings; a later holder of the
        // same label in depth-first order does not win.
        t.find_mut("/cpus/cpu@1")
            .unwrap()
            .labels
            .push("second_cpu".into());
        t.ensure("/zz").labels.push("second_cpu".into());
        assert_eq!(
            t.resolve_label("second_cpu").unwrap().to_string(),
            "/cpus/cpu@1"
        );
    }

    #[test]
    fn alias_resolution() {
        let mut t = DeviceTree::new();
        t.ensure("/uart@20000000");
        let aliases = t.ensure("/aliases");
        aliases.set_prop(Property::string("serial0", "/uart@20000000"));
        aliases.set_prop(Property::string("ghost", "/nope"));
        assert_eq!(t.resolve_alias("serial0").unwrap().name, "uart@20000000");
        assert!(t.resolve_alias("ghost").is_none());
        assert!(t.resolve_alias("unknown").is_none());
    }
}
