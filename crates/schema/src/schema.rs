//! Typed schema model with builder API and YAML parsing.

use std::error::Error;
use std::fmt;

use llhsc_dts::Node;

use crate::yaml::{self, YamlError, YamlValue};

/// What a property value must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropType {
    /// A single `u32` cell.
    U32,
    /// A string.
    Str,
    /// A cell array.
    Cells,
    /// A byte string.
    Bytes,
    /// A valueless flag property.
    Flag,
}

impl PropType {
    fn parse(s: &str) -> Option<PropType> {
        match s {
            "u32" | "uint32" => Some(PropType::U32),
            "string" => Some(PropType::Str),
            "cells" | "array" | "uint32-array" => Some(PropType::Cells),
            "bytes" | "uint8-array" => Some(PropType::Bytes),
            "flag" | "boolean" => Some(PropType::Flag),
            _ => None,
        }
    }
}

/// Rules constraining one property of a node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PropRule {
    /// Property name.
    pub name: String,
    /// The value must be exactly this string (`const: memory`).
    pub const_str: Option<String>,
    /// The value must be exactly this cell value.
    pub const_u32: Option<u32>,
    /// The (string) value must be one of these.
    pub enum_str: Vec<String>,
    /// Shape requirement.
    pub prop_type: Option<PropType>,
    /// Minimum number of items (entries for `reg`, cells/values
    /// otherwise).
    pub min_items: Option<usize>,
    /// Maximum number of items.
    pub max_items: Option<usize>,
}

impl PropRule {
    /// Creates an unconstrained rule for `name`.
    pub fn new(name: &str) -> PropRule {
        PropRule {
            name: name.to_string(),
            ..PropRule::default()
        }
    }

    /// Requires the exact string value.
    pub fn const_string(mut self, v: &str) -> PropRule {
        self.const_str = Some(v.to_string());
        self
    }

    /// Requires the exact `u32` value.
    pub fn const_cell(mut self, v: u32) -> PropRule {
        self.const_u32 = Some(v);
        self
    }

    /// Restricts string values to an enumeration.
    pub fn one_of<I: IntoIterator<Item = S>, S: Into<String>>(mut self, vs: I) -> PropRule {
        self.enum_str = vs.into_iter().map(Into::into).collect();
        self
    }

    /// Requires a value shape.
    pub fn typed(mut self, t: PropType) -> PropRule {
        self.prop_type = Some(t);
        self
    }

    /// Sets the item-count window.
    pub fn items(mut self, min: usize, max: usize) -> PropRule {
        self.min_items = Some(min);
        self.max_items = Some(max);
        self
    }
}

/// How a schema decides whether it applies to a node (dt-schema's
/// `select`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Select {
    /// Applies when the node's base name (before `@`) matches.
    NodeName(String),
    /// Applies when the node's `device_type` matches.
    DeviceType(String),
    /// Applies when any `compatible` string matches.
    Compatible(String),
    /// Applies to every node (rare; used for global rules).
    Always,
}

impl Select {
    /// Whether this selector matches a node.
    pub fn matches(&self, node: &Node) -> bool {
        match self {
            Select::NodeName(n) => node.base_name() == n,
            Select::DeviceType(d) => node.prop_str("device_type") == Some(d),
            Select::Compatible(c) => node
                .prop("compatible")
                .map(|p| p.values().any(|v| v == llhsc_dts::Value::Str(c)))
                .unwrap_or(false),
            Select::Always => true,
        }
    }
}

/// One binding schema: selection rule, per-property rules, required
/// properties (the shape of the paper's Listing 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    /// Identifier used in diagnostics (`$id`).
    pub id: String,
    /// Node selection rules; the schema applies if any matches.
    pub selects: Vec<Select>,
    /// Per-property rules.
    pub properties: Vec<PropRule>,
    /// Names of properties that must be present.
    pub required: Vec<String>,
    /// When `false`, properties not mentioned in `properties` are
    /// rejected (the closure of constraint (6) makes this decidable).
    pub additional_properties: bool,
}

impl Schema {
    /// Creates an empty schema with an id.
    pub fn new(id: &str) -> Schema {
        Schema {
            id: id.to_string(),
            selects: Vec::new(),
            properties: Vec::new(),
            required: Vec::new(),
            additional_properties: true,
        }
    }

    /// Adds a node-name selector.
    pub fn select_node_name(mut self, name: &str) -> Schema {
        self.selects.push(Select::NodeName(name.to_string()));
        self
    }

    /// Adds a `device_type` selector.
    pub fn select_device_type(mut self, dt: &str) -> Schema {
        self.selects.push(Select::DeviceType(dt.to_string()));
        self
    }

    /// Adds a `compatible` selector.
    pub fn select_compatible(mut self, c: &str) -> Schema {
        self.selects.push(Select::Compatible(c.to_string()));
        self
    }

    /// Adds a property rule.
    pub fn prop(mut self, rule: PropRule) -> Schema {
        self.properties.push(rule);
        self
    }

    /// Marks a property required.
    pub fn require(mut self, name: &str) -> Schema {
        self.required.push(name.to_string());
        self
    }

    /// Forbids properties not listed in the schema.
    pub fn closed(mut self) -> Schema {
        self.additional_properties = false;
        self
    }

    /// Whether this schema applies to `node`.
    pub fn applies_to(&self, node: &Node) -> bool {
        self.selects.iter().any(|s| s.matches(node))
    }

    /// The rule for a property name, if declared.
    pub fn rule(&self, name: &str) -> Option<&PropRule> {
        self.properties.iter().find(|r| r.name == name)
    }

    /// Parses a schema from a dt-schema-shaped YAML document.
    ///
    /// Recognised keys: `$id`, `select` (with `nodename`,
    /// `device_type`, `compatible`), `properties` (with `const`,
    /// `enum`, `type`, `minItems`, `maxItems`), `required`,
    /// `additionalProperties`.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError`] for YAML problems or unsupported
    /// constructs.
    pub fn parse(src: &str) -> Result<Schema, SchemaError> {
        let doc = yaml::parse(src).map_err(SchemaError::Yaml)?;
        let id = doc
            .get("$id")
            .and_then(YamlValue::as_str)
            .unwrap_or("anonymous")
            .to_string();
        let mut schema = Schema::new(&id);

        if let Some(sel) = doc.get("select") {
            let map = sel.as_map().ok_or_else(|| SchemaError::Shape {
                what: "select must be a mapping".into(),
            })?;
            for (k, v) in map {
                let s = v.as_str().ok_or_else(|| SchemaError::Shape {
                    what: format!("select.{k} must be a string"),
                })?;
                let select = match k.as_str() {
                    "nodename" => Select::NodeName(s.to_string()),
                    "device_type" => Select::DeviceType(s.to_string()),
                    "compatible" => Select::Compatible(s.to_string()),
                    other => {
                        return Err(SchemaError::Shape {
                            what: format!("unsupported selector {other:?}"),
                        })
                    }
                };
                schema.selects.push(select);
            }
        }
        if schema.selects.is_empty() {
            // dt-schema default: select by the $id as node name.
            schema.selects.push(Select::NodeName(id.clone()));
        }

        if let Some(props) = doc.get("properties") {
            let map = props.as_map().ok_or_else(|| SchemaError::Shape {
                what: "properties must be a mapping".into(),
            })?;
            for (name, body) in map {
                let mut rule = PropRule::new(name);
                if let Some(body) = body.as_map() {
                    for (k, v) in body {
                        match k.as_str() {
                            "const" => match v {
                                YamlValue::Str(s) => rule.const_str = Some(s.clone()),
                                YamlValue::Int(i) => {
                                    rule.const_u32 =
                                        Some(u32::try_from(*i).map_err(|_| SchemaError::Shape {
                                            what: format!("const {i} does not fit in a cell"),
                                        })?)
                                }
                                _ => {
                                    return Err(SchemaError::Shape {
                                        what: format!("unsupported const for {name}"),
                                    })
                                }
                            },
                            "enum" => {
                                let items = v.as_list().ok_or_else(|| SchemaError::Shape {
                                    what: format!("enum of {name} must be a list"),
                                })?;
                                for it in items {
                                    rule.enum_str.push(
                                        it.as_str()
                                            .ok_or_else(|| SchemaError::Shape {
                                                what: format!("enum of {name} must hold strings"),
                                            })?
                                            .to_string(),
                                    );
                                }
                            }
                            "type" => {
                                let t = v.as_str().and_then(PropType::parse).ok_or_else(|| {
                                    SchemaError::Shape {
                                        what: format!("unknown type for {name}"),
                                    }
                                })?;
                                rule.prop_type = Some(t);
                            }
                            "minItems" => {
                                rule.min_items =
                                    Some(v.as_int().ok_or_else(|| SchemaError::Shape {
                                        what: format!("minItems of {name} must be an int"),
                                    })? as usize)
                            }
                            "maxItems" => {
                                rule.max_items =
                                    Some(v.as_int().ok_or_else(|| SchemaError::Shape {
                                        what: format!("maxItems of {name} must be an int"),
                                    })? as usize)
                            }
                            other => {
                                return Err(SchemaError::Shape {
                                    what: format!(
                                        "unsupported property constraint {other:?} on {name}"
                                    ),
                                })
                            }
                        }
                    }
                }
                schema.properties.push(rule);
            }
        }

        if let Some(req) = doc.get("required") {
            let items = req.as_list().ok_or_else(|| SchemaError::Shape {
                what: "required must be a list".into(),
            })?;
            for it in items {
                schema.required.push(
                    it.as_str()
                        .ok_or_else(|| SchemaError::Shape {
                            what: "required entries must be strings".into(),
                        })?
                        .to_string(),
                );
            }
        }

        if let Some(ap) = doc.get("additionalProperties") {
            schema.additional_properties = ap.as_bool().ok_or_else(|| SchemaError::Shape {
                what: "additionalProperties must be a boolean".into(),
            })?;
        }

        Ok(schema)
    }
}

/// Errors from schema parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The document was not valid YAML (subset).
    Yaml(YamlError),
    /// The document was YAML but not a schema we understand.
    Shape {
        /// Explanation.
        what: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Yaml(e) => write!(f, "yaml: {e}"),
            SchemaError::Shape { what } => write!(f, "schema shape: {what}"),
        }
    }
}

impl Error for SchemaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchemaError::Yaml(e) => Some(e),
            SchemaError::Shape { .. } => None,
        }
    }
}

/// A collection of schemas applied together (dt-schema processes a
/// directory of bindings; this is its in-memory equivalent).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SchemaSet {
    schemas: Vec<Schema>,
}

impl SchemaSet {
    /// An empty set.
    pub fn new() -> SchemaSet {
        SchemaSet::default()
    }

    /// Adds a schema.
    pub fn push(&mut self, schema: Schema) {
        self.schemas.push(schema);
    }

    /// The schemas.
    pub fn schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// A stable content hash of the whole set (rules, selectors,
    /// required lists, in order) for content-addressed caching of
    /// syntactic-check results.
    pub fn stable_hash(&self) -> u64 {
        llhsc_dts::hash::stable_hash_of(&self.schemas)
    }

    /// Schemas applicable to a node.
    pub fn applicable<'a>(&'a self, node: &'a Node) -> impl Iterator<Item = &'a Schema> {
        self.schemas.iter().filter(|s| s.applies_to(node))
    }

    /// The binding schemas for the paper's running example hardware:
    /// memory (Listing 5), cpu, serial (uart) and virtual Ethernet.
    pub fn standard() -> SchemaSet {
        let memory = Schema::parse(
            r#"
$id: memory
select:
  nodename: memory
properties:
  device_type:
    const: memory
  reg:
    minItems: 1
    maxItems: 1024
required:
  - device_type
  - reg
"#,
        )
        .expect("builtin memory schema parses");

        let cpu = Schema::parse(
            r#"
$id: cpu
select:
  nodename: cpu
properties:
  device_type:
    const: cpu
  compatible:
    type: string
  enable-method:
    enum: [psci, spin-table]
  reg:
    minItems: 1
    maxItems: 1
required:
  - compatible
  - reg
"#,
        )
        .expect("builtin cpu schema parses");

        let uart = Schema::parse(
            r#"
$id: uart
select:
  nodename: uart
properties:
  compatible:
    type: string
  reg:
    minItems: 1
    maxItems: 4
required:
  - reg
"#,
        )
        .expect("builtin uart schema parses");

        let veth = Schema::parse(
            r#"
$id: veth
select:
  compatible: veth
properties:
  compatible:
    const: veth
  reg:
    minItems: 1
    maxItems: 1
  id:
    type: u32
required:
  - compatible
  - reg
  - id
"#,
        )
        .expect("builtin veth schema parses");

        let mut set = SchemaSet::new();
        set.push(memory);
        set.push(cpu);
        set.push(uart);
        set.push(veth);
        set
    }
}

impl From<Vec<Schema>> for SchemaSet {
    fn from(schemas: Vec<Schema>) -> SchemaSet {
        SchemaSet { schemas }
    }
}

impl Extend<Schema> for SchemaSet {
    fn extend<T: IntoIterator<Item = Schema>>(&mut self, iter: T) {
        self.schemas.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc_dts::parse as parse_dts;

    #[test]
    fn parse_listing5() {
        let s = Schema::parse(
            r#"
$id: memory
properties:
  device_type:
    const: memory
  reg:
    minItems: 1
    maxItems: 1024
required:
  - device_type
  - reg
"#,
        )
        .unwrap();
        assert_eq!(s.id, "memory");
        assert_eq!(
            s.rule("device_type").unwrap().const_str.as_deref(),
            Some("memory")
        );
        assert_eq!(s.rule("reg").unwrap().min_items, Some(1));
        assert_eq!(s.rule("reg").unwrap().max_items, Some(1024));
        assert_eq!(s.required, vec!["device_type", "reg"]);
        // Default select: by $id as node name.
        assert_eq!(s.selects, vec![Select::NodeName("memory".into())]);
    }

    #[test]
    fn selectors_match() {
        let t = parse_dts(
            r#"/ {
                memory@40000000 { device_type = "memory"; };
                serial@0 { compatible = "ns16550a"; };
            };"#,
        )
        .unwrap();
        let mem = t.find("/memory@40000000").unwrap();
        let ser = t.find("/serial@0").unwrap();
        assert!(Select::NodeName("memory".into()).matches(mem));
        assert!(!Select::NodeName("memory".into()).matches(ser));
        assert!(Select::DeviceType("memory".into()).matches(mem));
        assert!(Select::Compatible("ns16550a".into()).matches(ser));
        assert!(Select::Always.matches(mem));
    }

    #[test]
    fn builder_api() {
        let s = Schema::new("uart")
            .select_node_name("uart")
            .select_compatible("ns16550a")
            .prop(PropRule::new("reg").items(1, 4))
            .prop(PropRule::new("status").one_of(["okay", "disabled"]))
            .require("reg")
            .closed();
        assert_eq!(s.selects.len(), 2);
        assert!(!s.additional_properties);
        assert_eq!(s.rule("status").unwrap().enum_str.len(), 2);
    }

    #[test]
    fn schema_set_applicable() {
        let set = SchemaSet::standard();
        let t = parse_dts(
            r#"/ {
                memory@40000000 { device_type = "memory"; };
                cpus { cpu@0 { }; };
            };"#,
        )
        .unwrap();
        let mem = t.find("/memory@40000000").unwrap();
        let ids: Vec<&str> = set.applicable(mem).map(|s| s.id.as_str()).collect();
        assert_eq!(ids, vec!["memory"]);
        let cpu = t.find("/cpus/cpu@0").unwrap();
        let ids: Vec<&str> = set.applicable(cpu).map(|s| s.id.as_str()).collect();
        assert_eq!(ids, vec!["cpu"]);
    }

    #[test]
    fn unsupported_constructs_rejected() {
        assert!(matches!(
            Schema::parse("select: notamap"),
            Err(SchemaError::Shape { .. })
        ));
        assert!(matches!(
            Schema::parse("properties:\n  x:\n    magic: 1"),
            Err(SchemaError::Shape { .. })
        ));
        assert!(matches!(
            Schema::parse("required: notalist"),
            Err(SchemaError::Shape { .. })
        ));
    }

    #[test]
    fn const_cell_parse() {
        let s = Schema::parse("properties:\n  '#address-cells':\n    const: 2").unwrap();
        assert_eq!(s.rule("#address-cells").unwrap().const_u32, Some(2));
    }
}
