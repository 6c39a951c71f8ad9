//! Properties packed as dtc packs them: one buffer per property holding
//! its name, its value bytes in FDT layout and the markers that keep its
//! values apart.
//!
//! A property's buffer is `name | data | labels | values | refs`:
//!
//! * `data` is what the FDT encoder writes: big-endian cells,
//!   NUL-terminated strings and raw bytes, with a zero cell where a
//!   `&label` reference stands;
//! * `values` holds one 5-byte record per value, its kind and the end of
//!   its bytes in `data`, so `<1 2>` and `<1>, <2>` stay apart;
//! * `refs` holds one 8-byte record per reference, the offset of its zero
//!   cell in `data` and the end of its label in `labels`.
//!
//! Short buffers, which most properties of a board have, live inside the
//! [`Property`] itself, so reading one allocates nothing.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::slice::ChunksExact;

/// What one value of a property is, as written in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `< … >`
    Cells,
    /// `"…"`
    Str,
    /// `[ … ]`
    Bytes,
    /// A bare `&label`.
    Path,
}

impl Kind {
    fn from_byte(b: u8) -> Kind {
        match b {
            0 => Kind::Cells,
            1 => Kind::Str,
            2 => Kind::Bytes,
            _ => Kind::Path,
        }
    }

    fn byte(self) -> u8 {
        match self {
            Kind::Cells => 0,
            Kind::Str => 1,
            Kind::Bytes => 2,
            Kind::Path => 3,
        }
    }
}

/// Bytes of a value record: the kind, then the end of the value's bytes.
const VALUE_RECORD: usize = 5;
/// Bytes of a reference record: the offset of its zero cell, then the
/// end of its label.
const REF_RECORD: usize = 8;

/// The longest buffer kept inside a [`Property`]. With it a property is
/// 48 bytes, and `compatible = "arm,cortex-a53"` still fits.
const INLINE: usize = 30;

/// A property's buffer: inline when short, on the heap otherwise.
#[derive(Clone)]
enum Storage {
    Inline(u8, [u8; INLINE]),
    Heap(Box<[u8]>),
}

impl Storage {
    fn new(bytes: &[u8]) -> Storage {
        match u8::try_from(bytes.len()) {
            Ok(len) if bytes.len() <= INLINE => {
                let mut inline = [0; INLINE];
                inline[..bytes.len()].copy_from_slice(bytes);
                Storage::Inline(len, inline)
            }
            _ => Storage::Heap(bytes.into()),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Inline(len, bytes) => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Storage::Heap(bytes) => bytes,
        }
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Storage) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Storage {}

impl Hash for Storage {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A little-endian `u32` of a record table; 0 past its end, which a
/// buffer built by [`PropertyBuilder`] never reaches.
fn word(table: &[u8], at: usize) -> u32 {
    table
        .get(at..at + 4)
        .and_then(|w| w.try_into().ok())
        .map_or(0, u32::from_le_bytes)
}

/// `n` as a buffer offset. Values past 4 GiB are not supported.
fn offset(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// A property: a name and zero or more values. A property with no values
/// (`foo;`) is a Boolean flag per the DeviceTree specification.
///
/// The name and values live in one buffer (see the module docs); two
/// properties are equal when they have the same name and the same values
/// with the same boundaries and kinds.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Property {
    buf: Storage,
    /// Lengths of the name, the data and the labels in `buf`.
    name_len: u32,
    data_len: u32,
    labels_len: u32,
    /// Number of values.
    values: u32,
}

impl Property {
    /// Creates a property holding a single cell list of `u32`s.
    pub fn cells<I: IntoIterator<Item = u32>>(name: &str, vals: I) -> Property {
        let mut b = PropertyBuilder::new();
        b.begin_cells();
        for v in vals {
            b.cell(v);
        }
        b.finish(name)
    }

    /// Creates a string-valued property.
    pub fn string(name: &str, val: &str) -> Property {
        PropertyBuilder::new().string(val).finish(name)
    }

    /// Creates a property holding one byte string.
    pub fn bytes(name: &str, val: &[u8]) -> Property {
        let mut b = PropertyBuilder::new();
        b.begin_bytes();
        for &byte in val {
            b.byte(byte);
        }
        b.finish(name)
    }

    /// Creates an empty (flag) property.
    pub fn flag(name: &str) -> Property {
        PropertyBuilder::new().finish(name)
    }

    fn region(&self, start: usize, len: usize) -> &[u8] {
        self.buf
            .as_slice()
            .get(start..start.saturating_add(len))
            .unwrap_or_default()
    }

    /// Where the data, the labels and the value table start in `buf`.
    fn data_start(&self) -> usize {
        self.name_len as usize
    }

    fn labels_start(&self) -> usize {
        self.data_start() + self.data_len as usize
    }

    fn values_start(&self) -> usize {
        self.labels_start() + self.labels_len as usize
    }

    fn name_bytes(&self) -> &[u8] {
        self.region(0, self.name_len as usize)
    }

    /// The property's name, e.g. `#address-cells`.
    pub fn name(&self) -> &str {
        std::str::from_utf8(self.name_bytes()).unwrap_or_default()
    }

    /// `true` when the property is called `name`.
    pub(crate) fn is_named(&self, name: &str) -> bool {
        self.name_bytes() == name.as_bytes()
    }

    /// The value bytes in FDT layout: big-endian cells, NUL-terminated
    /// strings and raw bytes, with a zero cell where a `&label`
    /// reference stands (an unresolved phandle or path).
    pub fn data(&self) -> &[u8] {
        self.region(self.data_start(), self.data_len as usize)
    }

    fn labels(&self) -> &[u8] {
        self.region(self.labels_start(), self.labels_len as usize)
    }

    fn value_table(&self) -> &[u8] {
        self.region(self.values_start(), self.value_count() * VALUE_RECORD)
    }

    fn ref_table(&self) -> &[u8] {
        let start = self.values_start() + self.value_count() * VALUE_RECORD;
        self.buf.as_slice().get(start..).unwrap_or_default()
    }

    fn value_count(&self) -> usize {
        self.values as usize
    }

    /// The kind and byte range in [`Property::data`] of each value.
    fn spans(&self) -> Spans<'_> {
        Spans {
            records: self.value_table(),
            start: 0,
        }
    }

    fn ref_count(&self) -> usize {
        self.ref_table().len() / REF_RECORD
    }

    /// The offset in [`Property::data`] of reference `i`'s zero cell.
    fn ref_offset(&self, i: usize) -> usize {
        word(self.ref_table(), i * REF_RECORD) as usize
    }

    /// The label reference `i` names.
    fn ref_label(&self, i: usize) -> &str {
        let table = self.ref_table();
        let start = match i {
            0 => 0,
            _ => word(table, i * REF_RECORD - 4) as usize,
        };
        let end = word(table, i * REF_RECORD + 4) as usize;
        let label = self.labels().get(start..end).unwrap_or_default();
        std::str::from_utf8(label).unwrap_or_default()
    }

    /// The index of the first reference at or after `at` in the data.
    fn first_ref_from(&self, at: usize) -> usize {
        (0..self.ref_count())
            .find(|&i| self.ref_offset(i) >= at)
            .unwrap_or(self.ref_count())
    }

    /// Every reference, in data order: the offset of its zero cell in
    /// [`Property::data`], its label, and whether it stands for the
    /// label's path (a bare `&label` value) rather than its phandle.
    pub(crate) fn refs(&self) -> impl Iterator<Item = (usize, &str, bool)> {
        (0..self.ref_count()).map(move |i| {
            let at = self.ref_offset(i);
            (at, self.ref_label(i), self.kind_at(at) == Kind::Path)
        })
    }

    /// The kind of the value holding data offset `at`.
    fn kind_at(&self, at: usize) -> Kind {
        self.spans()
            .find(|&(_, start, end)| (start..end).contains(&at))
            .map_or(Kind::Cells, |(kind, ..)| kind)
    }

    /// The values, in source order.
    pub fn values(&self) -> Values<'_> {
        Values {
            prop: self,
            spans: self.spans(),
        }
    }

    /// The property's single `u32` value, if it is exactly `<n>`.
    pub fn as_u32(&self) -> Option<u32> {
        let mut cells = self.flat_cells()?;
        match (self.values, cells.len()) {
            (1, 1) => cells.next(),
            _ => None,
        }
    }

    /// The property's first string value, if any.
    pub fn as_str(&self) -> Option<&str> {
        self.values().find_map(|v| match v {
            Value::Str(s) => Some(s),
            _ => None,
        })
    }

    /// All literal cells across all cell-list values, or `None` if any
    /// cell is a reference or a value is not a cell list. Reads the
    /// stored bytes in place.
    pub fn flat_cells(&self) -> Option<FlatCells<'_>> {
        let all_cells = self.spans().all(|(kind, ..)| kind == Kind::Cells);
        (all_cells && self.ref_count() == 0).then(|| FlatCells(self.data().chunks_exact(4)))
    }
}

impl fmt::Debug for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values: Vec<String> = self.values().map(|v| v.to_string()).collect();
        f.debug_struct("Property")
            .field("name", &self.name())
            .field("values", &values)
            .finish()
    }
}

/// The cells of a property whose values are all literal cell lists, as
/// [`Property::flat_cells`] returns them.
#[derive(Debug, Clone)]
pub struct FlatCells<'a>(ChunksExact<'a, u8>);

impl Iterator for FlatCells<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let cell = self.0.next()?;
        cell.try_into().ok().map(u32::from_be_bytes)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for FlatCells<'_> {}

/// One value of a property, borrowed from its buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<'a> {
    /// `< c1 c2 … >`
    Cells(Cells<'a>),
    /// `"…"`, without its terminating NUL.
    Str(&'a str),
    /// `[ aa bb … ]`
    Bytes(&'a [u8]),
    /// A bare `&label` outside a cell list: the labelled node's path.
    PathRef(&'a str),
}

/// A value as DTS source writes it, strings escaped.
impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Cells(cells) => {
                write!(f, "<")?;
                for (i, c) in cells.clone().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ">")
            }
            Value::Str(s) => {
                f.write_str("\"")?;
                let mut rest = *s;
                while let Some(i) = rest.find(['"', '\\', '\n', '\t', '\r', '\0']) {
                    // Every escaped character is one byte.
                    let (run, tail) = rest.split_at(i);
                    f.write_str(run)?;
                    f.write_str(match tail.as_bytes()[0] {
                        b'"' => "\\\"",
                        b'\\' => "\\\\",
                        b'\n' => "\\n",
                        b'\t' => "\\t",
                        b'\r' => "\\r",
                        _ => "\\0",
                    })?;
                    rest = &tail[1..];
                }
                f.write_str(rest)?;
                f.write_str("\"")
            }
            Value::Bytes(bs) => {
                write!(f, "[")?;
                for (i, b) in bs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{b:02x}")?;
                }
                write!(f, "]")
            }
            Value::PathRef(l) => write!(f, "&{l}"),
        }
    }
}

/// The values of a property, as [`Property::values`] returns them.
#[derive(Debug, Clone)]
pub struct Values<'a> {
    prop: &'a Property,
    spans: Spans<'a>,
}

impl<'a> Iterator for Values<'a> {
    type Item = Value<'a>;

    fn next(&mut self) -> Option<Value<'a>> {
        let prop = self.prop;
        let (kind, start, end) = self.spans.next()?;
        let bytes = prop.data().get(start..end).unwrap_or_default();
        Some(match kind {
            Kind::Cells => Value::Cells(Cells {
                prop,
                at: start,
                end,
                next_ref: prop.first_ref_from(start),
            }),
            Kind::Str => {
                let text = bytes.split_last().map_or(bytes, |(_, text)| text);
                Value::Str(std::str::from_utf8(text).unwrap_or_default())
            }
            Kind::Bytes => Value::Bytes(bytes),
            Kind::Path => Value::PathRef(prop.ref_label(prop.first_ref_from(start))),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl ExactSizeIterator for Values<'_> {}

/// The kind and byte range of each value, decoded from its record.
#[derive(Debug, Clone)]
struct Spans<'a> {
    /// The records of the values not yet visited.
    records: &'a [u8],
    /// Where the next value's bytes start in the data.
    start: usize,
}

impl Iterator for Spans<'_> {
    type Item = (Kind, usize, usize);

    fn next(&mut self) -> Option<(Kind, usize, usize)> {
        let ([kind, end @ ..], rest) = self.records.split_first_chunk::<VALUE_RECORD>()?;
        self.records = rest;
        let end = u32::from_le_bytes(*end) as usize;
        Some((
            Kind::from_byte(*kind),
            std::mem::replace(&mut self.start, end),
            end,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.records.len() / VALUE_RECORD;
        (left, Some(left))
    }
}

/// The cells of one `< … >` value.
#[derive(Debug, Clone)]
pub struct Cells<'a> {
    prop: &'a Property,
    /// The offset in the data of the next cell, and the end of the value.
    at: usize,
    end: usize,
    /// The index of the first reference not yet passed.
    next_ref: usize,
}

impl<'a> Iterator for Cells<'a> {
    type Item = Cell<'a>;

    fn next(&mut self) -> Option<Cell<'a>> {
        if self.at + 4 > self.end {
            return None;
        }
        let at = self.at;
        self.at += 4;
        if self.next_ref < self.prop.ref_count() && self.prop.ref_offset(self.next_ref) == at {
            self.next_ref += 1;
            return Some(Cell::Ref(self.prop.ref_label(self.next_ref - 1)));
        }
        let cell = self.prop.data().get(at..at + 4)?;
        cell.try_into()
            .ok()
            .map(|c| Cell::U32(u32::from_be_bytes(c)))
    }
}

impl PartialEq for Cells<'_> {
    fn eq(&self, other: &Cells<'_>) -> bool {
        self.clone().eq(other.clone())
    }
}

impl Eq for Cells<'_> {}

/// One 32-bit cell inside a `< … >` list: a literal or a `&label`
/// reference (phandle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell<'a> {
    /// A literal 32-bit value.
    U32(u32),
    /// A reference to a labelled node, resolved to a phandle when the
    /// tree is flattened.
    Ref(&'a str),
}

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::U32(v) => write!(f, "{v:#x}"),
            Cell::Ref(l) => write!(f, "&{l}"),
        }
    }
}

/// Assembles a [`Property`] value by value, as the parser reads them.
/// [`PropertyBuilder::finish`] packs the values into a property and
/// empties the builder, which keeps its buffers for the next one.
///
/// ```
/// let mut b = llhsc_dts::PropertyBuilder::new();
/// b.begin_cells().cell(0x10).phandle("clk");
/// b.string("fast");
/// let p = b.finish("clocks");
/// let values: Vec<String> = p.values().map(|v| v.to_string()).collect();
/// assert_eq!(values, ["<0x10 &clk>", "\"fast\""]);
/// ```
#[derive(Debug, Default)]
pub struct PropertyBuilder {
    data: Vec<u8>,
    labels: Vec<u8>,
    /// Each value's kind and the end of its bytes in `data`.
    values: Vec<(Kind, u32)>,
    /// Each reference's offset in `data` and the end of its label in
    /// `labels`.
    refs: Vec<(u32, u32)>,
    /// The buffer `finish` packs before copying it into the property.
    packed: Vec<u8>,
}

impl PropertyBuilder {
    /// An empty builder.
    pub fn new() -> PropertyBuilder {
        PropertyBuilder::default()
    }

    fn begin(&mut self, kind: Kind) -> &mut PropertyBuilder {
        self.values.push((kind, offset(self.data.len())));
        self
    }

    /// Appends `bytes` to the last value, which must be of `kind`; opens
    /// one of that kind when it is not.
    fn extend(&mut self, kind: Kind, bytes: &[u8]) -> &mut PropertyBuilder {
        if self.values.last().map(|&(k, _)| k) != Some(kind) {
            self.begin(kind);
        }
        self.data.extend_from_slice(bytes);
        let end = offset(self.data.len());
        if let Some(last) = self.values.last_mut() {
            last.1 = end;
        }
        self
    }

    /// Appends a zero cell to the last value, marked as a reference to
    /// `label`.
    fn reference(&mut self, kind: Kind, label: &str) -> &mut PropertyBuilder {
        if self.values.last().map(|&(k, _)| k) != Some(kind) || kind == Kind::Path {
            self.begin(kind);
        }
        self.labels.extend_from_slice(label.as_bytes());
        let labels_end = offset(self.labels.len());
        self.refs.push((offset(self.data.len()), labels_end));
        self.extend(kind, &[0; 4])
    }

    /// Starts a cell-list value, `<`.
    pub fn begin_cells(&mut self) -> &mut PropertyBuilder {
        self.begin(Kind::Cells)
    }

    /// Appends a literal cell to the open cell list, opening one if the
    /// last value is not a cell list.
    pub fn cell(&mut self, v: u32) -> &mut PropertyBuilder {
        self.extend(Kind::Cells, &v.to_be_bytes())
    }

    /// Appends a `&label` cell to the open cell list: a zero cell that
    /// the FDT encoder patches with the label's phandle.
    pub fn phandle(&mut self, label: &str) -> &mut PropertyBuilder {
        self.reference(Kind::Cells, label)
    }

    /// Appends a string value.
    pub fn string(&mut self, s: &str) -> &mut PropertyBuilder {
        self.begin(Kind::Str);
        self.extend(Kind::Str, s.as_bytes()).extend(Kind::Str, &[0])
    }

    /// Starts a byte-string value, `[`.
    pub fn begin_bytes(&mut self) -> &mut PropertyBuilder {
        self.begin(Kind::Bytes)
    }

    /// Appends a byte to the open byte string, opening one if the last
    /// value is not a byte string.
    pub fn byte(&mut self, b: u8) -> &mut PropertyBuilder {
        self.extend(Kind::Bytes, &[b])
    }

    /// Appends a bare `&label` value: a reference to the labelled node's
    /// path, which the FDT encoder writes as a string.
    pub fn path(&mut self, label: &str) -> &mut PropertyBuilder {
        self.reference(Kind::Path, label)
    }

    /// Packs the values added so far into a property called `name`, and
    /// empties the builder.
    pub fn finish(&mut self, name: &str) -> Property {
        let packed = &mut self.packed;
        packed.clear();
        packed.extend_from_slice(name.as_bytes());
        packed.extend_from_slice(&self.data);
        packed.extend_from_slice(&self.labels);
        for &(kind, end) in &self.values {
            packed.push(kind.byte());
            packed.extend_from_slice(&end.to_le_bytes());
        }
        for &(at, label_end) in &self.refs {
            packed.extend_from_slice(&at.to_le_bytes());
            packed.extend_from_slice(&label_end.to_le_bytes());
        }
        let prop = Property {
            buf: Storage::new(packed),
            name_len: offset(name.len()),
            data_len: offset(self.data.len()),
            labels_len: offset(self.labels.len()),
            values: offset(self.values.len()),
        };
        self.data.clear();
        self.labels.clear();
        self.values.clear();
        self.refs.clear();
        prop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shown(p: &Property) -> Vec<String> {
        p.values().map(|v| v.to_string()).collect()
    }

    #[test]
    fn values_keep_their_boundaries_and_kinds() {
        let mut b = PropertyBuilder::new();
        b.begin_cells().cell(1).cell(2);
        let one = b.finish("x");
        b.begin_cells().cell(1);
        b.begin_cells().cell(2);
        let two = b.finish("x");
        assert_eq!(one.data(), two.data());
        assert_ne!(one, two);
        assert_eq!(shown(&one), ["<0x1 0x2>"]);
        assert_eq!(shown(&two), ["<0x1>", "<0x2>"]);

        let empty_cells = PropertyBuilder::new().begin_cells().finish("x");
        let empty_bytes = PropertyBuilder::new().begin_bytes().finish("x");
        assert_ne!(empty_cells, empty_bytes);
        assert_ne!(empty_cells, Property::flag("x"));
        assert_eq!(shown(&empty_cells), ["<>"]);
        assert_eq!(shown(&empty_bytes), ["[]"]);
    }

    #[test]
    fn references_are_zero_cells_with_labels() {
        let mut b = PropertyBuilder::new();
        b.begin_cells().cell(0x10).phandle("clk").cell(3);
        b.path("uart0");
        b.begin_cells().phandle("gic");
        let p = b.finish("mixed");
        assert_eq!(shown(&p), ["<0x10 &clk 0x3>", "&uart0", "<&gic>"]);
        let mut want = Vec::new();
        for cell in [0x10u32, 0, 3, 0, 0] {
            want.extend_from_slice(&cell.to_be_bytes());
        }
        assert_eq!(p.data(), want);
        let refs: Vec<_> = p.refs().collect();
        assert_eq!(
            refs,
            [(4, "clk", false), (12, "uart0", true), (16, "gic", false)]
        );
        assert!(p.flat_cells().is_none());
        assert_ne!(
            p,
            PropertyBuilder::new()
                .begin_cells()
                .cell(0x10)
                .finish("mixed")
        );
    }

    #[test]
    fn strings_hold_their_nul_and_any_embedded_one() {
        let mut b = PropertyBuilder::new();
        b.string("a\0b").string("");
        let p = b.finish("s");
        assert_eq!(p.data(), b"a\0b\0\0");
        assert_eq!(
            p.values().collect::<Vec<_>>(),
            [Value::Str("a\0b"), Value::Str("")]
        );
        assert_eq!(p.as_str(), Some("a\0b"));
    }

    #[test]
    fn accessors_read_the_packed_bytes() {
        let p = Property::cells("reg", [0x12345678, 0x1000]);
        assert_eq!(p.name(), "reg");
        assert_eq!(p.data(), [0x12, 0x34, 0x56, 0x78, 0x00, 0x00, 0x10, 0x00]);
        assert_eq!(
            p.flat_cells().unwrap().collect::<Vec<_>>(),
            [0x12345678, 0x1000]
        );
        assert_eq!(p.as_u32(), None);
        assert_eq!(Property::cells("n", [7]).as_u32(), Some(7));
        assert_eq!(
            Property::string("device_type", "memory").data(),
            b"memory\0"
        );
        assert!(Property::flag("ranges").data().is_empty());
        assert_eq!(Property::flag("ranges").values().len(), 0);
        assert_eq!(Property::flag("ranges").flat_cells().unwrap().len(), 0);
        let mac = Property::bytes("mac", &[0xde, 0xad]);
        assert_eq!(mac.values().next(), Some(Value::Bytes(&[0xde, 0xad])));
        assert_eq!(shown(&mac), ["[de ad]"]);
        assert_eq!(shown(&Property::string("ok", "ok")), ["\"ok\""]);
    }

    #[test]
    fn long_buffers_move_to_the_heap_unchanged() {
        let long = "x".repeat(100);
        let p = Property::string(&long, &long);
        assert!(matches!(p.buf, Storage::Heap(_)));
        assert_eq!(p.name(), long);
        assert_eq!(p.as_str(), Some(long.as_str()));
        let short = Property::string("compatible", "arm,cortex-a53");
        assert!(matches!(short.buf, Storage::Inline(..)));
        assert_eq!(short.as_str(), Some("arm,cortex-a53"));
        assert_eq!(std::mem::size_of::<Property>(), 48);
    }

    #[test]
    fn builder_is_empty_after_finish() {
        let mut b = PropertyBuilder::new();
        b.begin_cells().phandle("a");
        let _ = b.finish("first");
        let second = b.finish("second");
        assert_eq!(second, Property::flag("second"));
    }
}
