//! Recursive-descent parser for DTS source, with `/include/` resolution.
//!
//! The parser pulls each token from a stack of lexers when it needs it:
//! one for the main file and one per open `/include/`.

use std::collections::HashMap;

use crate::error::DtsError;
use crate::lexer::{Lexer, Token, TokenKind};
use crate::property::PropertyBuilder;
use crate::tree::{DeviceTree, Node, SiblingIndex};

/// Supplies the contents of `/include/`d files.
///
/// The paper's running example includes `cpus.dtsi` from the main DTS;
/// in tests and the product-line engine the included sources come from
/// memory, so the provider abstracts over the source of file contents.
pub trait FileProvider {
    /// Returns the contents of `name`, or `None` if unknown.
    fn read(&self, name: &str) -> Option<String>;
}

/// A [`FileProvider`] backed by an in-memory map.
#[derive(Debug, Clone, Default)]
pub struct MapFileProvider {
    files: HashMap<String, String>,
}

impl MapFileProvider {
    /// Creates an empty provider.
    pub fn new() -> MapFileProvider {
        MapFileProvider::default()
    }

    /// Adds (or replaces) a file.
    pub fn insert(&mut self, name: &str, contents: &str) -> &mut MapFileProvider {
        self.files.insert(name.to_string(), contents.to_string());
        self
    }
}

impl FileProvider for MapFileProvider {
    fn read(&self, name: &str) -> Option<String> {
        self.files.get(name).cloned()
    }
}

/// An empty provider: any `/include/` fails.
struct NoIncludes;

impl FileProvider for NoIncludes {
    fn read(&self, _name: &str) -> Option<String> {
        None
    }
}

/// Maximum `/include/` nesting before assuming a cycle.
const MAX_INCLUDE_DEPTH: usize = 32;

/// Maximum node-body nesting. Real trees are a handful of levels deep;
/// the cap keeps the recursive-descent parser (and every recursive
/// consumer of the resulting tree: printer, FDT encoder, walkers) clear
/// of stack exhaustion on adversarial input. Stack overflow aborts the
/// process and cannot be caught, so this must be an explicit check.
pub(crate) const MAX_NODE_DEPTH: usize = 128;

/// Parses a standalone DTS document (no `/include/` support).
///
/// # Errors
///
/// Returns a [`DtsError`] on lexical or syntactic problems; an
/// `/include/` directive yields [`DtsError::MissingInclude`].
pub fn parse(src: &str) -> Result<DeviceTree, DtsError> {
    parse_with_includes(src, &NoIncludes)
}

/// Parses a DTS document, resolving `/include/` directives through the
/// given provider.
///
/// # Errors
///
/// Returns a [`DtsError`] on lexical or syntactic problems, missing
/// include files, or overly deep include nesting.
pub fn parse_with_includes(src: &str, provider: &dyn FileProvider) -> Result<DeviceTree, DtsError> {
    Parser {
        main: Lexer::new(src),
        includes: Vec::new(),
        provider,
        look: None,
        depth: 0,
        values: PropertyBuilder::new(),
    }
    .parse_document()
}

/// Pulls tokens from the lexers on demand, so no token vector is ever
/// built, and reports the first problem in source order: a lexical error
/// surfaces when the parser reaches the token it spoils.
struct Parser<'a> {
    /// The main file's lexer.
    main: Lexer<'a>,
    /// One lexer per open `/include/`, innermost last. The innermost
    /// one, or `main` when none is open, supplies the next token; an
    /// included file's end of input pops its lexer (textual inclusion,
    /// like dtc).
    includes: Vec<Lexer<'a>>,
    provider: &'a dyn FileProvider,
    /// The next token, once the parser has looked at it.
    look: Option<Token<'a>>,
    /// Current node-body nesting, checked against [`MAX_NODE_DEPTH`].
    depth: usize,
    /// The property being read; each value goes straight into it.
    values: PropertyBuilder,
}

impl<'a> Parser<'a> {
    /// Lexes the next token of the whole input, entering and leaving
    /// included files as their directives and ends are reached.
    fn lex(&mut self) -> Result<Token<'a>, DtsError> {
        loop {
            let open = self.includes.len();
            let lexer = self.includes.last_mut().unwrap_or(&mut self.main);
            let t = lexer.next_token()?;
            match t.kind {
                TokenKind::Eof if open > 0 => {
                    self.includes.pop();
                }
                TokenKind::Include => {
                    let name = lexer.next_token()?;
                    let TokenKind::Str(file) = name.kind else {
                        return Err(Parser::unexpected(&name, "include file name"));
                    };
                    if open >= MAX_INCLUDE_DEPTH {
                        return Err(DtsError::IncludeDepth {
                            file: file.into_owned(),
                        });
                    }
                    let Some(contents) = self.provider.read(&file) else {
                        return Err(DtsError::MissingInclude {
                            at: t.at,
                            file: file.into_owned(),
                        });
                    };
                    self.includes.push(Lexer::new(contents));
                }
                _ => return Ok(t),
            }
        }
    }

    fn peek(&mut self) -> Result<&Token<'a>, DtsError> {
        let t = match self.look.take() {
            Some(t) => t,
            None => self.lex()?,
        };
        Ok(self.look.insert(t))
    }

    fn bump(&mut self) -> Result<Token<'a>, DtsError> {
        match self.look.take() {
            Some(t) => Ok(t),
            None => self.lex(),
        }
    }

    fn expect(&mut self, kind: &TokenKind<'_>, what: &str) -> Result<Token<'a>, DtsError> {
        let t = self.bump()?;
        if &t.kind == kind {
            Ok(t)
        } else {
            Err(Parser::unexpected(&t, what))
        }
    }

    fn unexpected(t: &Token, expected: &str) -> DtsError {
        DtsError::Unexpected {
            at: t.at,
            expected: expected.to_string(),
            found: t.kind.describe(),
        }
    }

    /// document := '/dts-v1/' ';' toplevel* EOF
    fn parse_document(mut self) -> Result<DeviceTree, DtsError> {
        let mut tree = DeviceTree::default();
        if self.peek()?.kind == TokenKind::DtsV1 {
            self.bump()?;
            self.expect(&TokenKind::Semi, "';' after /dts-v1/")?;
            tree.has_version_tag = true;
        }
        loop {
            match &self.peek()?.kind {
                TokenKind::Eof => break,
                TokenKind::Slash => {
                    self.bump()?;
                    let body = self.parse_node_body(String::new())?;
                    self.expect(&TokenKind::Semi, "';' after node")?;
                    // While the root is empty, a body is the root as it
                    // stands: merging would re-index each of its
                    // children. Later bodies merge into it.
                    if tree.root.properties.is_empty() && tree.root.children.is_empty() {
                        tree.root = body;
                    } else {
                        tree.root.merge(body);
                    }
                }
                TokenKind::MemReserve => {
                    self.bump()?;
                    let a = self.bump()?;
                    let TokenKind::Num(addr) = a.kind else {
                        return Err(Parser::unexpected(&a, "address after /memreserve/"));
                    };
                    let b = self.bump()?;
                    let TokenKind::Num(size) = b.kind else {
                        return Err(Parser::unexpected(&b, "size after /memreserve/"));
                    };
                    self.expect(&TokenKind::Semi, "';' after /memreserve/")?;
                    tree.reservations.push((addr, size));
                }
                TokenKind::Ref(_) => {
                    let t = self.bump()?;
                    let TokenKind::Ref(label) = t.kind else {
                        unreachable!("peeked a reference")
                    };
                    let patch = self.parse_node_body(String::new())?;
                    self.expect(&TokenKind::Semi, "';' after node")?;
                    let path =
                        tree.resolve_label(&label)
                            .ok_or_else(|| DtsError::UnknownLabel {
                                label: label.into_owned(),
                            })?;
                    let target = tree
                        .find_path_mut(&path)
                        .ok_or_else(|| DtsError::NoSuchNode {
                            path: path.to_string(),
                        })?;
                    target.merge(patch);
                }
                _ => {
                    let t = self.bump()?;
                    return Err(Parser::unexpected(&t, "'/' or '&label' at top level"));
                }
            }
        }
        Ok(tree)
    }

    /// node-body := '{' (property | child-node | delete)* '}'
    ///
    /// The leading name/labels are consumed by the caller; `name` is the
    /// node's name.
    fn parse_node_body(&mut self, name: String) -> Result<Node, DtsError> {
        let open = self.expect(&TokenKind::LBrace, "'{'")?;
        self.depth += 1;
        if self.depth > MAX_NODE_DEPTH {
            return Err(DtsError::TooDeep { at: open.at });
        }
        let mut node = Node {
            name,
            ..Node::default()
        };
        let mut siblings = SiblingIndex::default();
        loop {
            let t = self.bump()?;
            match t.kind {
                TokenKind::RBrace => {
                    self.depth -= 1;
                    return Ok(node);
                }
                TokenKind::DeleteNode => {
                    let t = self.bump()?;
                    let TokenKind::Ident(child) = t.kind else {
                        return Err(Parser::unexpected(&t, "node name after /delete-node/"));
                    };
                    siblings.remove(&mut node.children, &child);
                    self.expect(&TokenKind::Semi, "';' after /delete-node/")?;
                }
                TokenKind::DeleteProperty => {
                    let t = self.bump()?;
                    let TokenKind::Ident(prop) = t.kind else {
                        return Err(Parser::unexpected(
                            &t,
                            "property name after /delete-property/",
                        ));
                    };
                    node.remove_prop(&prop);
                    self.expect(&TokenKind::Semi, "';' after /delete-property/")?;
                }
                TokenKind::Label(first) => {
                    // One or more labels, then a child node.
                    let mut labels = vec![first.into_owned()];
                    let child_name = loop {
                        let t = self.bump()?;
                        match t.kind {
                            TokenKind::Label(l) => labels.push(l.into_owned()),
                            TokenKind::Ident(name) => break name.into_owned(),
                            _ => return Err(Parser::unexpected(&t, "node name after label")),
                        }
                    };
                    let mut child = self.parse_node_body(child_name)?;
                    self.expect(&TokenKind::Semi, "';' after node")?;
                    child.labels = labels;
                    siblings.add(&mut node.children, child);
                }
                TokenKind::Ident(ident) => match self.peek()?.kind {
                    TokenKind::LBrace => {
                        let child = self.parse_node_body(ident.into_owned())?;
                        self.expect(&TokenKind::Semi, "';' after node")?;
                        siblings.add(&mut node.children, child);
                    }
                    TokenKind::Eq => {
                        self.bump()?;
                        self.parse_values()?;
                        self.expect(&TokenKind::Semi, "';' after property")?;
                        node.set_prop(self.values.finish(&ident));
                    }
                    TokenKind::Semi => {
                        self.bump()?;
                        node.set_prop(self.values.finish(&ident));
                    }
                    _ => {
                        let t = self.bump()?;
                        return Err(Parser::unexpected(&t, "'{', '=' or ';' after name"));
                    }
                },
                _ => return Err(Parser::unexpected(&t, "property, node or '}'")),
            }
        }
    }

    /// values := value (',' value)*, each into `self.values`.
    fn parse_values(&mut self) -> Result<(), DtsError> {
        loop {
            self.parse_value()?;
            if self.peek()?.kind == TokenKind::Comma {
                self.bump()?;
            } else {
                return Ok(());
            }
        }
    }

    /// value := '<' cell* '>' | string | '[' byte* ']' | '&label'
    fn parse_value(&mut self) -> Result<(), DtsError> {
        let t = self.bump()?;
        match t.kind {
            TokenKind::Lt => {
                self.values.begin_cells();
                loop {
                    let t = self.bump()?;
                    match t.kind {
                        TokenKind::Gt => return Ok(()),
                        TokenKind::Num(n) => {
                            let v = u32::try_from(n).map_err(|_| DtsError::BadNumber {
                                at: t.at,
                                text: format!("{n:#x} does not fit in a 32-bit cell"),
                            })?;
                            self.values.cell(v);
                        }
                        TokenKind::Ref(l) => {
                            self.values.phandle(&l);
                        }
                        _ => return Err(Parser::unexpected(&t, "cell value or '>'")),
                    }
                }
            }
            TokenKind::Str(s) => {
                self.values.string(&s);
                Ok(())
            }
            TokenKind::LBracket => {
                self.values.begin_bytes();
                loop {
                    let t = self.bump()?;
                    match t.kind {
                        TokenKind::RBracket => return Ok(()),
                        TokenKind::HexRun(run) => {
                            // Tokens inside [] are raw hex-digit runs;
                            // `1234` denotes the bytes 0x12 0x34, and
                            // `0011` keeps its leading zero byte. Odd
                            // runs are ambiguous — reject them like dtc.
                            if run.len() % 2 == 1 {
                                return Err(DtsError::OddByteString {
                                    at: t.at,
                                    text: run.into_owned(),
                                });
                            }
                            for pair in run.as_bytes().chunks(2) {
                                self.values.byte(hex_pair(pair[0], pair[1]));
                            }
                        }
                        _ => return Err(Parser::unexpected(&t, "hex byte or ']'")),
                    }
                }
            }
            TokenKind::Ref(l) => {
                self.values.path(&l);
                Ok(())
            }
            _ => Err(Parser::unexpected(&t, "property value")),
        }
    }
}

/// Converts one hex-digit pair to its byte. The lexer guarantees both
/// inputs are ASCII hex digits, so the fallback arms are unreachable —
/// they exist to keep this a total function with no panic path.
fn hex_pair(hi: u8, lo: u8) -> u8 {
    let digit = |c: u8| match c {
        b'0'..=b'9' => c - b'0',
        b'a'..=b'f' => c - b'a' + 10,
        b'A'..=b'F' => c - b'A' + 10,
        _ => 0,
    };
    (digit(hi) << 4) | digit(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Position;
    use crate::property::{Cell, Value};

    const RUNNING_EXAMPLE: &str = r#"
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

    #[test]
    fn parses_running_example() {
        let t = parse(RUNNING_EXAMPLE).unwrap();
        assert!(t.has_version_tag);
        assert_eq!(t.root.prop_u32("#address-cells"), Some(2));
        let mem = t.find("/memory@40000000").unwrap();
        assert_eq!(mem.prop_str("device_type"), Some("memory"));
        assert_eq!(mem.prop("reg").unwrap().flat_cells().unwrap().len(), 8);
        assert!(t.find("/cpus/cpu@0").is_some());
        assert!(t.find("/cpus/cpu@1").is_some());
        assert_eq!(t.find("/cpus/cpu@1").unwrap().prop_u32("reg"), Some(1));
    }

    #[test]
    fn parses_flag_property() {
        let t = parse("/ { chosen { interrupt-controller; }; };").unwrap();
        let c = t.find("/chosen").unwrap();
        assert!(c.prop("interrupt-controller").is_some());
        assert_eq!(c.prop("interrupt-controller").unwrap().values().len(), 0);
    }

    #[test]
    fn parses_multiple_values() {
        let t = parse(r#"/ { compatible = "a,b", "c,d"; };"#).unwrap();
        let p = t.root.prop("compatible").unwrap();
        assert_eq!(p.values().len(), 2);
    }

    #[test]
    fn parses_byte_string() {
        let t = parse("/ { mac = [ de ad be ef 12 34 ]; };").unwrap();
        assert_eq!(
            t.root.prop("mac").unwrap().values().next(),
            Some(Value::Bytes(&[0xde, 0xad, 0xbe, 0xef, 0x12, 0x34]))
        );
    }

    #[test]
    fn byte_string_keeps_leading_zero_bytes() {
        // Regression: `[ 0011 ]` used to lex as the number 0x11 and
        // re-derive digits via format!, dropping the 0x00 byte.
        let t = parse("/ { mac = [ 0011 ]; };").unwrap();
        assert_eq!(
            t.root.prop("mac").unwrap().values().next(),
            Some(Value::Bytes(&[0x00, 0x11]))
        );
        let t = parse("/ { mac = [ 00 00 00 01 ]; };").unwrap();
        assert_eq!(
            t.root.prop("mac").unwrap().values().next(),
            Some(Value::Bytes(&[0x00, 0x00, 0x00, 0x01]))
        );
    }

    #[test]
    fn odd_byte_string_run_rejected() {
        let r = parse("/ { mac = [ 011 ]; };");
        assert!(matches!(r, Err(DtsError::OddByteString { .. })), "{r:?}");
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let depth = MAX_NODE_DEPTH + 8;
        let mut src = String::from("/ { ");
        for i in 0..depth {
            src.push_str(&format!("n{i} {{ "));
        }
        for _ in 0..depth {
            src.push_str("}; ");
        }
        src.push_str("};");
        let r = parse(&src);
        assert!(matches!(r, Err(DtsError::TooDeep { .. })), "{r:?}");
    }

    #[test]
    fn parses_labels_and_reference_extension() {
        let src = r#"
/ {
    uart0: uart@20000000 { reg = <0x20000000 0x1000>; };
};
&uart0 {
    status = "okay";
};
"#;
        let t = parse(src).unwrap();
        let u = t.find("/uart@20000000").unwrap();
        assert_eq!(u.labels, vec!["uart0".to_string()]);
        assert_eq!(u.prop_str("status"), Some("okay"));
    }

    #[test]
    fn unknown_label_errors() {
        let r = parse("/ { }; &nope { };");
        assert!(matches!(r, Err(DtsError::UnknownLabel { .. })));
    }

    #[test]
    fn phandle_reference_in_cells() {
        let src = r#"
/ {
    intc: interrupt-controller@10000000 { };
    uart@20000000 { interrupt-parent = <&intc>; };
};
"#;
        let t = parse(src).unwrap();
        let u = t.find("/uart@20000000").unwrap();
        let cells: Vec<Cell<'_>> = match u.prop("interrupt-parent").unwrap().values().next() {
            Some(Value::Cells(cells)) => cells.collect(),
            other => panic!("{other:?}"),
        };
        assert_eq!(cells, [Cell::Ref("intc")]);
    }

    #[test]
    fn includes_are_spliced() {
        let mut files = MapFileProvider::new();
        files.insert(
            "cpus.dtsi",
            r#"
/ {
    cpus {
        #address-cells = <0x1>;
        #size-cells = <0x0>;
        cpu@0 { reg = <0x0>; };
        cpu@1 { reg = <0x1>; };
    };
};
"#,
        );
        let main = r#"
/dts-v1/;
/include/ "cpus.dtsi"
/ {
    memory@40000000 { device_type = "memory"; };
};
"#;
        let t = parse_with_includes(main, &files).unwrap();
        assert!(t.find("/cpus/cpu@0").is_some());
        assert!(t.find("/memory@40000000").is_some());
    }

    #[test]
    fn missing_include_errors() {
        let r = parse("/include/ \"nope.dtsi\"\n/ { };");
        assert!(matches!(r, Err(DtsError::MissingInclude { .. })));
    }

    #[test]
    fn include_cycle_detected() {
        let mut files = MapFileProvider::new();
        files.insert("a.dtsi", "/include/ \"b.dtsi\"");
        files.insert("b.dtsi", "/include/ \"a.dtsi\"");
        let r = parse_with_includes("/include/ \"a.dtsi\"\n/ { };", &files);
        assert!(matches!(r, Err(DtsError::IncludeDepth { .. })));
    }

    #[test]
    fn repeated_root_merges() {
        let t = parse("/ { a { x = <1>; }; }; / { a { y = <2>; }; b { }; };").unwrap();
        let a = t.find("/a").unwrap();
        assert_eq!(a.prop_u32("x"), Some(1));
        assert_eq!(a.prop_u32("y"), Some(2));
        assert!(t.find("/b").is_some());
    }

    #[test]
    fn delete_node_and_property() {
        let src = r#"
/ {
    a { x = <1>; y = <2>; };
    a { /delete-property/ x; };
    b { };
    /delete-node/ b;
};
"#;
        // delete directives act on the state accumulated so far within
        // the same node body; the second `a { … }` merges into the first.
        let t = parse(src).unwrap();
        let a = t.find("/a").unwrap();
        // x survives: the delete happened inside the *second* `a` body
        // before merging. The spec-level behaviour for cross-body deletes
        // requires whole-document ordering, which `dtc` implements and we
        // approximate per body; y must still be present.
        assert_eq!(a.prop_u32("y"), Some(2));
        assert!(t.find("/b").is_none());
    }

    #[test]
    fn cell_overflow_rejected() {
        let r = parse("/ { reg = <0x100000000>; };");
        assert!(matches!(r, Err(DtsError::BadNumber { .. })));
    }

    #[test]
    fn error_position_is_meaningful() {
        let r = parse("/ {\n  bad bad bad\n};");
        match r {
            Err(DtsError::Unexpected { at, .. }) => assert_eq!(at.line, 2),
            other => panic!("expected Unexpected, got {other:?}"),
        }
    }

    /// A provider holding the given `(name, contents)` files.
    fn files(list: &[(&str, &str)]) -> MapFileProvider {
        let mut files = MapFileProvider::new();
        for (name, contents) in list {
            files.insert(name, contents);
        }
        files
    }

    #[test]
    fn syntax_error_outranks_a_later_lexical_error() {
        // The parser stops at the misplaced '}' and never lexes the
        // string that runs off the end of the input.
        let r = parse("/dts-v1/;\n/ { a = <1> }; b = \"unterminated");
        assert_eq!(
            r.unwrap_err().to_string(),
            "2:13: expected ';' after property, found '}'"
        );
    }

    #[test]
    fn missing_include_outranks_a_later_lexical_error() {
        let r = parse("/include/ \"nope.dtsi\"\n/ { a = \"unterminated; };");
        assert_eq!(
            r,
            Err(DtsError::MissingInclude {
                at: Position::new(1, 1),
                file: "nope.dtsi".into(),
            })
        );
    }

    #[test]
    fn include_inside_a_node_body_supplies_a_property_and_a_child() {
        let files = files(&[("uart.dtsi", "status = \"okay\";\nclk { rate = <10>; };")]);
        let main = "/ { uart@0 { reg = <0>; /include/ \"uart.dtsi\" }; };";
        let t = parse_with_includes(main, &files).unwrap();
        let want = parse("/ { uart@0 { reg = <0>; status = \"okay\"; clk { rate = <10>; }; }; };");
        assert_eq!(t, want.unwrap());
        assert_eq!(t.find("/uart@0/clk").unwrap().prop_u32("rate"), Some(10));
    }

    #[test]
    fn included_file_may_close_the_node_the_main_file_opened() {
        let files = files(&[("tail.dtsi", "x = <1>; }; b { };")]);
        let t = parse_with_includes("/ { a { /include/ \"tail.dtsi\" };", &files).unwrap();
        assert_eq!(t, parse("/ { a { x = <1>; }; b { }; };").unwrap());
    }

    #[test]
    fn empty_included_file_adds_nothing() {
        let files = files(&[("empty.dtsi", "")]);
        let main = "/dts-v1/;\n/ { a { /include/ \"empty.dtsi\" x = <1>; }; };";
        let t = parse_with_includes(main, &files).unwrap();
        assert_eq!(t, parse("/dts-v1/; / { a { x = <1>; }; };").unwrap());
    }

    #[test]
    fn nested_includes_splice_in_order() {
        let files = files(&[
            ("outer.dtsi", "a = <1>; /include/ \"inner.dtsi\" c = <3>;"),
            ("inner.dtsi", "b = <2>; /include/ \"leaf.dtsi\""),
            ("leaf.dtsi", "n { };"),
        ]);
        let t = parse_with_includes("/ { /include/ \"outer.dtsi\" d = <4>; };", &files).unwrap();
        assert_eq!(
            t,
            parse("/ { a = <1>; b = <2>; n { }; c = <3>; d = <4>; };").unwrap()
        );
    }

    #[test]
    fn errors_inside_an_include_carry_its_own_positions() {
        let files = files(&[("bad.dtsi", "a = <1>;\n  b = ;")]);
        let r = parse_with_includes("/ {\n /include/ \"bad.dtsi\" };", &files);
        assert_eq!(
            r.unwrap_err().to_string(),
            "2:7: expected property value, found ';'"
        );
    }

    #[test]
    fn include_needs_a_file_name() {
        for (src, found) in [
            ("/ { }; /include/ foo", "identifier \"foo\""),
            ("/ { }; /include/", "end of input"),
        ] {
            let r = parse(src);
            assert!(
                matches!(&r, Err(DtsError::Unexpected { expected, found: f, .. })
                    if expected == "include file name" && f == found),
                "{src}: {r:?}"
            );
        }
    }

    #[test]
    fn number_edge_cases_are_bad_numbers() {
        for src in [
            "/ { reg = <0x10000000000000000>; };",
            "/ { reg = <0x>; };",
            "/ { reg = <18446744073709551616>; };",
        ] {
            let r = parse(src);
            assert!(matches!(r, Err(DtsError::BadNumber { .. })), "{src}: {r:?}");
        }
        let r = parse("/ { reg = <0x100000000>; };");
        assert_eq!(
            r.unwrap_err().to_string(),
            "1:12: malformed number \"0x100000000 does not fit in a 32-bit cell\""
        );
    }

    #[test]
    fn integer_literals_read_as_dtc_reads_them() {
        let t = parse("/ { reg = <010 0x10UL 16U 0 0X1f 07LL>; };").unwrap();
        assert_eq!(
            t.root
                .prop("reg")
                .unwrap()
                .flat_cells()
                .unwrap()
                .collect::<Vec<_>>(),
            [8, 16, 16, 0, 31, 7]
        );
        let r = parse("/ { reg = <08>; };");
        assert!(matches!(r, Err(DtsError::BadNumber { .. })), "{r:?}");
    }

    #[test]
    fn empty_document_is_empty_tree() {
        let t = parse("").unwrap();
        assert!(!t.has_version_tag);
        assert_eq!(t.size(), 1);
    }
}
