//! Flattened DeviceTree blob (DTB) encoding and decoding, version 17.
//!
//! Stands in for `dtc -O dtb` / `dtc -I dtb`: the binary ABI through
//! which an OS or hypervisor (Bao, Linux) consumes the tree at boot.
//! Layout per the DeviceTree specification chapter 5: a header, a memory
//! reservation block, a structure block of `BEGIN_NODE`/`PROP`/
//! `END_NODE` tokens, and a deduplicated strings block.

use std::collections::BTreeMap;

use crate::property::{Property, PropertyBuilder, Value};
use crate::tree::{DeviceTree, Node, Phandles};

/// The FDT magic number.
pub const FDT_MAGIC: u32 = 0xd00d_feed;
/// Blob format version emitted by [`encode`].
pub const FDT_VERSION: u32 = 17;
const FDT_LAST_COMP_VERSION: u32 = 16;

const FDT_BEGIN_NODE: u32 = 1;
const FDT_END_NODE: u32 = 2;
const FDT_PROP: u32 = 3;
const FDT_NOP: u32 = 4;
const FDT_END: u32 = 9;

/// Errors produced while decoding a blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdtError {
    /// The magic number was wrong.
    BadMagic(u32),
    /// The blob is truncated or an offset points outside it.
    Truncated,
    /// An unknown structure token was encountered.
    BadToken(u32),
    /// A string (node name, property name or value) was not valid UTF-8.
    BadString,
    /// The structure block was malformed (unbalanced nodes, missing END).
    Malformed(&'static str),
}

impl std::fmt::Display for FdtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FdtError::BadMagic(m) => write!(f, "bad FDT magic {m:#010x}"),
            FdtError::Truncated => write!(f, "truncated FDT blob"),
            FdtError::BadToken(t) => write!(f, "unknown FDT token {t}"),
            FdtError::BadString => write!(f, "non-UTF-8 string in FDT blob"),
            FdtError::Malformed(m) => write!(f, "malformed FDT structure: {m}"),
        }
    }
}

impl std::error::Error for FdtError {}

fn align4(v: &mut Vec<u8>) {
    while !v.len().is_multiple_of(4) {
        v.push(0);
    }
}

/// Encodes a tree as a DTB v17 blob.
///
/// Each property's stored bytes are copied as they are, with its
/// references filled in: a `&label` cell becomes the labelled node's
/// phandle (see [`DeviceTree::phandles`]), a bare `&label` value the
/// node's full path, NUL-terminated, as dtc writes them. A labelled node
/// without a `phandle` property gets one.
pub fn encode(tree: &DeviceTree) -> Vec<u8> {
    let mut enc = Encoder {
        tree,
        phandles: tree.phandles(),
        next_index: 0,
        structure: Vec::new(),
        strings: Vec::new(),
        string_off: BTreeMap::new(),
    };
    enc.node(&tree.root);
    enc.structure.extend_from_slice(&FDT_END.to_be_bytes());
    let Encoder {
        structure, strings, ..
    } = enc;

    // Memory reservation block (terminated by a zero entry).
    let mut rsvmap: Vec<u8> = Vec::new();
    for &(addr, size) in &tree.reservations {
        rsvmap.extend_from_slice(&addr.to_be_bytes());
        rsvmap.extend_from_slice(&size.to_be_bytes());
    }
    rsvmap.extend_from_slice(&0u64.to_be_bytes());
    rsvmap.extend_from_slice(&0u64.to_be_bytes());

    // Assemble: header (40 bytes) | rsvmap | structure | strings.
    let header_len = 40u32;
    let off_rsvmap = header_len;
    let off_struct = off_rsvmap + rsvmap.len() as u32;
    let off_strings = off_struct + structure.len() as u32;
    let total = off_strings + strings.len() as u32;

    let mut out = Vec::with_capacity(total as usize);
    for word in [
        FDT_MAGIC,
        total,
        off_struct,
        off_strings,
        off_rsvmap,
        FDT_VERSION,
        FDT_LAST_COMP_VERSION,
        0, // boot_cpuid_phys
        strings.len() as u32,
        structure.len() as u32,
    ] {
        out.extend_from_slice(&word.to_be_bytes());
    }
    out.extend_from_slice(&rsvmap);
    out.extend_from_slice(&structure);
    out.extend_from_slice(&strings);
    out
}

/// The state of [`encode`]: the structure and strings blocks so far.
struct Encoder<'t> {
    tree: &'t DeviceTree,
    phandles: Phandles<'t>,
    /// The depth-first index of the next node to encode.
    next_index: usize,
    structure: Vec<u8>,
    strings: Vec<u8>,
    /// Offsets of the names already in `strings`.
    string_off: BTreeMap<String, u32>,
}

impl Encoder<'_> {
    fn node(&mut self, node: &Node) {
        let phandle = self.phandles.of_index(self.next_index);
        self.next_index += 1;
        self.structure
            .extend_from_slice(&FDT_BEGIN_NODE.to_be_bytes());
        self.structure.extend_from_slice(node.name.as_bytes());
        self.structure.push(0);
        align4(&mut self.structure);
        for p in &node.properties {
            self.prop(p.name(), |enc| enc.value(p));
        }
        if let Some(ph) = phandle.filter(|_| node.prop("phandle").is_none()) {
            self.prop("phandle", |enc| {
                enc.structure.extend_from_slice(&ph.to_be_bytes());
            });
        }
        for c in &node.children {
            self.node(c);
        }
        self.structure
            .extend_from_slice(&FDT_END_NODE.to_be_bytes());
    }

    /// Emits a `PROP` token whose value `write` appends.
    fn prop(&mut self, name: &str, write: impl FnOnce(&mut Self)) {
        self.structure.extend_from_slice(&FDT_PROP.to_be_bytes());
        let len_at = self.structure.len();
        self.structure.extend_from_slice(&[0; 4]);
        let off = match self.string_off.get(name) {
            Some(&off) => off,
            None => {
                let off = self.strings.len() as u32;
                self.strings.extend_from_slice(name.as_bytes());
                self.strings.push(0);
                self.string_off.insert(name.to_string(), off);
                off
            }
        };
        self.structure.extend_from_slice(&off.to_be_bytes());
        let start = self.structure.len();
        write(self);
        let len = (self.structure.len() - start) as u32;
        self.structure[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
        align4(&mut self.structure);
    }

    /// Appends a property's stored bytes with its references filled in;
    /// a reference to an unknown label stays a zero cell.
    fn value(&mut self, p: &Property) {
        let data = p.data();
        let mut copied = 0;
        for (at, label, path) in p.refs() {
            let out = &mut self.structure;
            out.extend_from_slice(data.get(copied..at).unwrap_or_default());
            copied = at + 4;
            match path.then(|| self.tree.resolve_label(label)).flatten() {
                Some(target) => {
                    out.extend_from_slice(target.to_string().as_bytes());
                    out.push(0);
                }
                None if path => out.extend_from_slice(&[0; 4]),
                None => {
                    let phandle = self.phandles.of_label(label).unwrap_or(0);
                    out.extend_from_slice(&phandle.to_be_bytes());
                }
            }
        }
        self.structure
            .extend_from_slice(data.get(copied..).unwrap_or_default());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, FdtError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FdtError> {
        let hi = self.u32()? as u64;
        let lo = self.u32()? as u64;
        Ok((hi << 32) | lo)
    }

    fn cstr(&mut self) -> Result<String, FdtError> {
        let start = self.pos;
        while *self.data.get(self.pos).ok_or(FdtError::Truncated)? != 0 {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.data[start..self.pos])
            .map_err(|_| FdtError::BadString)?
            .to_string();
        self.pos += 1; // NUL
        Ok(s)
    }

    fn align4(&mut self) {
        self.pos = (self.pos + 3) & !3;
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FdtError> {
        // checked_add: `pos` and `n` both derive from untrusted header
        // words, so the sum must not be allowed to wrap.
        let end = self.pos.checked_add(n).ok_or(FdtError::Truncated)?;
        let b = self.data.get(self.pos..end).ok_or(FdtError::Truncated)?;
        self.pos = end;
        Ok(b)
    }
}

/// Decodes a DTB blob back into a tree.
///
/// Property values come back as raw [`Value::Bytes`] — the blob
/// format does not retain value typing. Encoding the result again
/// yields a byte-identical structure block, which the round-trip
/// property test checks.
///
/// # Errors
///
/// Returns an [`FdtError`] for malformed input.
pub fn decode(blob: &[u8]) -> Result<DeviceTree, FdtError> {
    let mut r = Reader { data: blob, pos: 0 };
    let magic = r.u32()?;
    if magic != FDT_MAGIC {
        return Err(FdtError::BadMagic(magic));
    }
    let _total = r.u32()?;
    let off_struct = r.u32()? as usize;
    let off_strings = r.u32()? as usize;
    let off_rsvmap = r.u32()? as usize;
    let _version = r.u32()?;
    let _last_comp = r.u32()?;
    let _boot_cpu = r.u32()?;
    let _size_strings = r.u32()?;
    let _size_struct = r.u32()?;

    // Reservations.
    let mut tree = DeviceTree {
        has_version_tag: true,
        ..DeviceTree::default()
    };
    let mut rr = Reader {
        data: blob,
        pos: off_rsvmap,
    };
    loop {
        let addr = rr.u64()?;
        let size = rr.u64()?;
        if addr == 0 && size == 0 {
            break;
        }
        tree.reservations.push((addr, size));
    }

    let strings = blob.get(off_strings..).ok_or(FdtError::Truncated)?;
    let prop_name = |off: u32| -> Result<&str, FdtError> {
        let s = strings.get(off as usize..).ok_or(FdtError::Truncated)?;
        let end = s.iter().position(|&b| b == 0).ok_or(FdtError::Truncated)?;
        std::str::from_utf8(&s[..end]).map_err(|_| FdtError::BadString)
    };

    let mut sr = Reader {
        data: blob,
        pos: off_struct,
    };
    let mut stack: Vec<Node> = Vec::new();
    loop {
        let token = sr.u32()?;
        match token {
            FDT_BEGIN_NODE => {
                // Same ceiling as the DTS parser: decoded trees feed
                // the same recursive printers and walkers, so a blob
                // must not smuggle in nesting the text path rejects.
                if stack.len() >= crate::parser::MAX_NODE_DEPTH {
                    return Err(FdtError::Malformed("node nesting too deep"));
                }
                let name = sr.cstr()?;
                sr.align4();
                stack.push(Node::new(&name));
            }
            FDT_END_NODE => {
                let done = stack
                    .pop()
                    .ok_or(FdtError::Malformed("unbalanced END_NODE"))?;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => {
                        tree.root = done;
                        // Expect FDT_END (possibly after NOPs).
                        loop {
                            match sr.u32()? {
                                FDT_NOP => continue,
                                FDT_END => return Ok(tree),
                                t => return Err(FdtError::BadToken(t)),
                            }
                        }
                    }
                }
            }
            FDT_PROP => {
                let len = sr.u32()? as usize;
                let name_off = sr.u32()?;
                let raw = sr.bytes(len)?;
                sr.align4();
                let name = prop_name(name_off)?;
                let node = stack
                    .last_mut()
                    .ok_or(FdtError::Malformed("property outside node"))?;
                node.properties.push(if raw.is_empty() {
                    Property::flag(name)
                } else {
                    Property::bytes(name, raw)
                });
            }
            FDT_NOP => {}
            FDT_END => {
                return Err(FdtError::Malformed("END before root completed"));
            }
            t => return Err(FdtError::BadToken(t)),
        }
    }
}

/// Decodes a blob and re-types property values heuristically: a value
/// that looks like one or more NUL-terminated printable strings becomes
/// [`Value::Str`] values, a multiple of 4 bytes becomes a cell
/// list, anything else stays raw bytes. This is what `dtc -I dtb -O
/// dts` does to make decompiled sources readable; the raw-preserving
/// [`decode`] remains the round-trip-exact API.
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_typed(blob: &[u8]) -> Result<DeviceTree, FdtError> {
    let mut tree = decode(blob)?;
    fn retype(node: &mut Node, typed: &mut PropertyBuilder) {
        for p in &mut node.properties {
            let raw = match p.values().next() {
                Some(Value::Bytes(b)) if p.values().len() == 1 => b,
                _ => continue,
            };
            if let Some(strings) = as_string_list(raw) {
                for s in strings {
                    typed.string(s);
                }
            } else if raw.len().is_multiple_of(4) && !raw.is_empty() {
                typed.begin_cells();
                for c in raw.chunks(4) {
                    typed.cell(u32::from_be_bytes([c[0], c[1], c[2], c[3]]));
                }
            } else {
                continue;
            }
            *p = typed.finish(p.name());
        }
        for c in &mut node.children {
            retype(c, typed);
        }
    }
    retype(&mut tree.root, &mut PropertyBuilder::new());
    Ok(tree)
}

/// Interprets bytes as a list of NUL-terminated printable strings.
fn as_string_list(raw: &[u8]) -> Option<impl Iterator<Item = &str>> {
    let (&0, body) = raw.split_last()? else {
        return None;
    };
    let printable =
        |part: &[u8]| !part.is_empty() && part.iter().all(|&b| (0x20..0x7f).contains(&b));
    if body.is_empty() || !body.split(|&b| b == 0).all(printable) {
        return None;
    }
    Some(
        body.split(|&b| b == 0)
            .filter_map(|part| std::str::from_utf8(part).ok()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sample() -> DeviceTree {
        parse(
            r#"/dts-v1/;
            / {
                #address-cells = <2>;
                #size-cells = <2>;
                model = "custom-sbc";
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000>;
                };
                cpus {
                    #address-cells = <1>;
                    #size-cells = <0>;
                    cpu@0 { compatible = "arm,cortex-a53"; reg = <0x0>; };
                };
            };"#,
        )
        .unwrap()
    }

    #[test]
    fn header_fields() {
        let blob = encode(&sample());
        assert_eq!(
            u32::from_be_bytes([blob[0], blob[1], blob[2], blob[3]]),
            FDT_MAGIC
        );
        let total = u32::from_be_bytes([blob[4], blob[5], blob[6], blob[7]]);
        assert_eq!(total as usize, blob.len());
        let version = u32::from_be_bytes([blob[20], blob[21], blob[22], blob[23]]);
        assert_eq!(version, 17);
    }

    #[test]
    fn decode_recovers_structure() {
        let t = sample();
        let blob = encode(&t);
        let back = decode(&blob).unwrap();
        assert_eq!(back.size(), t.size());
        let mem = back.find("/memory@40000000").unwrap();
        // Values come back as raw bytes.
        assert_eq!(
            mem.prop("device_type").unwrap(),
            &Property::bytes("device_type", b"memory\0")
        );
        let reg = mem.prop("reg").unwrap();
        assert_eq!(
            reg,
            &Property::bytes(
                "reg",
                &[0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x20, 0, 0, 0]
            )
        );
    }

    #[test]
    fn encode_decode_encode_is_stable() {
        let t = sample();
        let b1 = encode(&t);
        let t2 = decode(&b1).unwrap();
        let b2 = encode(&t2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn phandles_resolve_references() {
        let t = parse(
            r#"/ {
                intc: pic@10000000 { };
                uart@20000000 { interrupt-parent = <&intc>; };
            };"#,
        )
        .unwrap();
        let blob = encode(&t);
        let back = decode(&blob).unwrap();
        let pic = back.find("/pic@10000000").unwrap();
        assert_eq!(pic.prop("phandle").unwrap().data(), 1u32.to_be_bytes());
        let uart = back.find("/uart@20000000").unwrap();
        assert_eq!(
            uart.prop("interrupt-parent").unwrap().data(),
            1u32.to_be_bytes()
        );
    }

    #[test]
    fn references_follow_explicit_phandles() {
        // `a` holds phandle 1 explicitly, so `&intc` must resolve to
        // intc's own 7, and the fresh phandle of `clk` skips both.
        let t = parse(
            r#"/ {
                a { phandle = <1>; };
                intc: interrupt-controller { phandle = <7>; };
                clk: clock { };
                dev { interrupt-parent = <&intc>; clocks = <&clk>; };
            };"#,
        )
        .unwrap();
        let back = decode_typed(&encode(&t)).unwrap();
        let dev = back.find("/dev").unwrap();
        assert_eq!(dev.prop_u32("interrupt-parent"), Some(7));
        assert_eq!(dev.prop_u32("clocks"), Some(2));
        let phandles: Vec<u32> = back
            .nodes()
            .iter()
            .filter_map(|(_, n)| n.prop_u32("phandle"))
            .collect();
        assert_eq!(phandles, [1, 7, 2]);
    }

    #[test]
    fn bare_reference_is_the_target_path() {
        let t = parse(
            r#"/ {
                aliases { serial0 = &uart0; ghost = &nope; };
                soc { uart0: uart@1000 { }; };
            };"#,
        )
        .unwrap();
        assert_eq!(t.resolve_alias("serial0").unwrap().name, "uart@1000");
        let back = decode_typed(&encode(&t)).unwrap();
        let aliases = back.find("/aliases").unwrap();
        assert_eq!(aliases.prop_str("serial0"), Some("/soc/uart@1000"));
        assert_eq!(back.resolve_alias("serial0").unwrap().name, "uart@1000");
        // An unknown label stays a zero cell.
        assert_eq!(aliases.prop("ghost").unwrap().data(), [0, 0, 0, 0]);
        // `uart0` is referenced by path only, but is labelled, so it
        // still gets a phandle.
        let uart = back.find("/soc/uart@1000").unwrap();
        assert_eq!(uart.prop_u32("phandle"), Some(1));
    }

    #[test]
    fn reservations_roundtrip() {
        let mut t = sample();
        t.reservations.push((0x1000, 0x4000));
        t.reservations.push((0x8000, 0x100));
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(back.reservations, vec![(0x1000, 0x4000), (0x8000, 0x100)]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = encode(&sample());
        blob[0] = 0;
        assert!(matches!(decode(&blob), Err(FdtError::BadMagic(_))));
    }

    #[test]
    fn truncation_rejected() {
        let blob = encode(&sample());
        for cut in [8, 40, blob.len() / 2] {
            assert!(decode(&blob[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn flag_property_is_empty_not_missing() {
        let t = parse("/ { chosen { ranges; }; };").unwrap();
        let back = decode(&encode(&t)).unwrap();
        let chosen = back.find("/chosen").unwrap();
        let p = chosen.prop("ranges").unwrap();
        assert_eq!(p.values().len(), 0);
    }

    #[test]
    fn decode_typed_recovers_value_kinds() {
        let t = sample();
        let blob = encode(&t);
        let typed = decode_typed(&blob).unwrap();
        let mem = typed.find("/memory@40000000").unwrap();
        assert_eq!(mem.prop_str("device_type"), Some("memory"));
        assert_eq!(
            mem.prop("reg")
                .unwrap()
                .flat_cells()
                .unwrap()
                .collect::<Vec<_>>(),
            [0, 0x4000_0000, 0, 0x2000_0000]
        );
        // The typed tree prints to readable DTS that reparses.
        let text = crate::printer::print(&typed);
        assert!(text.contains("device_type = \"memory\";"));
        assert!(crate::parser::parse(&text).is_ok());
    }

    #[test]
    fn decode_typed_string_lists() {
        let t = parse(r#"/ { compatible = "vendor,board", "generic"; };"#).unwrap();
        let typed = decode_typed(&encode(&t)).unwrap();
        let p = typed.root.prop("compatible").unwrap();
        assert_eq!(
            p.values().collect::<Vec<_>>(),
            [Value::Str("vendor,board"), Value::Str("generic")]
        );
    }

    #[test]
    fn decode_typed_keeps_odd_bytes_raw() {
        let mut t = DeviceTree::new();
        t.ensure("/x").set_prop(Property::bytes("blob", &[1, 2, 3]));
        let typed = decode_typed(&encode(&t)).unwrap();
        assert_eq!(
            typed.find("/x").unwrap().prop("blob").unwrap(),
            &Property::bytes("blob", &[1, 2, 3])
        );
    }

    #[test]
    fn deeply_nested_blob_rejected() {
        // A structure block of nothing but BEGIN_NODE tokens must hit
        // the depth ceiling, not exhaust the stack in a later walk.
        let mut structure: Vec<u8> = Vec::new();
        for _ in 0..(crate::parser::MAX_NODE_DEPTH + 8) {
            structure.extend_from_slice(&FDT_BEGIN_NODE.to_be_bytes());
            structure.extend_from_slice(b"n\0\0\0");
        }
        let mut rsvmap = Vec::new();
        rsvmap.extend_from_slice(&[0u8; 16]);
        let off_struct = 40 + rsvmap.len() as u32;
        let off_strings = off_struct + structure.len() as u32;
        let mut blob = Vec::new();
        for word in [
            FDT_MAGIC,
            off_strings,
            off_struct,
            off_strings,
            40,
            FDT_VERSION,
            FDT_LAST_COMP_VERSION,
            0,
            0,
            structure.len() as u32,
        ] {
            blob.extend_from_slice(&word.to_be_bytes());
        }
        blob.extend_from_slice(&rsvmap);
        blob.extend_from_slice(&structure);
        assert_eq!(
            decode(&blob),
            Err(FdtError::Malformed("node nesting too deep"))
        );
    }

    #[test]
    fn ref_cells_unknown_label_encodes_zero() {
        let mut t = DeviceTree::new();
        let n = t.ensure("/x");
        n.set_prop(
            PropertyBuilder::new()
                .begin_cells()
                .phandle("ghost")
                .finish("link"),
        );
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(
            back.find("/x").unwrap().prop("link").unwrap().data(),
            [0, 0, 0, 0]
        );
    }
}
