//! The structural checker — the `dt-schema` baseline.
//!
//! Walks the tree, finds applicable schemas per node and evaluates the
//! rules directly. This reproduces the class of checks the paper
//! credits to `dt-schema` (§I-A, §IV-B): const values, required
//! properties, item-count windows and `reg` arity under the parent's
//! cell counts. By design it has *no view across nodes* — it cannot
//! relate the `uart` base address to the `memory` range, which is the
//! gap the paper's semantic checker (and our
//! [`llhsc::SemanticChecker`](https://docs.rs/llhsc)) fills.

use std::fmt;

use llhsc_dts::cells::{cell_counts, DEFAULT_ADDRESS_CELLS, DEFAULT_SIZE_CELLS};
use llhsc_dts::{DeviceTree, Node, Property, Value};

use crate::schema::{PropRule, PropType, Schema, SchemaSet};

/// The kind of structural violation found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A `required` property is absent.
    MissingRequired,
    /// A `const` rule did not match the actual value.
    ConstMismatch,
    /// The value is not in the declared `enum`.
    EnumMismatch,
    /// The value has the wrong shape for its declared `type`.
    TypeMismatch,
    /// Fewer items than `minItems`.
    TooFewItems,
    /// More items than `maxItems`.
    TooManyItems,
    /// A property not declared by a closed schema.
    UndeclaredProperty,
    /// `reg` is not a whole number of (address, size) entries.
    BadRegArity,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::MissingRequired => "missing required property",
            ViolationKind::ConstMismatch => "const mismatch",
            ViolationKind::EnumMismatch => "value not in enum",
            ViolationKind::TypeMismatch => "wrong value type",
            ViolationKind::TooFewItems => "too few items",
            ViolationKind::TooManyItems => "too many items",
            ViolationKind::UndeclaredProperty => "undeclared property",
            ViolationKind::BadRegArity => "bad reg arity",
        };
        f.write_str(s)
    }
}

/// One structural violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of the offending node.
    pub path: String,
    /// `$id` of the schema whose rule was violated.
    pub schema: String,
    /// The property involved, if any.
    pub property: Option<String>,
    /// Classification.
    pub kind: ViolationKind,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.path, self.schema, self.kind)?;
        if let Some(p) = &self.property {
            write!(f, " ({p})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Runs the structural (dt-schema-style) check over a whole tree.
///
/// Returns all violations; an empty vector means the tree is
/// structurally valid against the schema set.
pub fn check_structural(tree: &DeviceTree, schemas: &SchemaSet) -> Vec<Violation> {
    let mut out = Vec::new();
    walk(
        &tree.root,
        String::new(),
        (DEFAULT_ADDRESS_CELLS, DEFAULT_SIZE_CELLS),
        schemas,
        &mut out,
    );
    out
}

fn walk(
    node: &Node,
    path: String,
    parent_cells: (u32, u32),
    schemas: &SchemaSet,
    out: &mut Vec<Violation>,
) {
    let here = if node.name.is_empty() {
        "/".to_string()
    } else if path == "/" || path.is_empty() {
        format!("/{}", node.name)
    } else {
        format!("{path}/{}", node.name)
    };
    for schema in schemas.applicable(node) {
        check_node(node, &here, parent_cells, schema, out);
    }
    let my_cells = cell_counts(node);
    for c in &node.children {
        walk(c, here.clone(), my_cells, schemas, out);
    }
}

fn check_node(
    node: &Node,
    path: &str,
    parent_cells: (u32, u32),
    schema: &Schema,
    out: &mut Vec<Violation>,
) {
    for req in &schema.required {
        if node.prop(req).is_none() {
            out.push(Violation {
                path: path.to_string(),
                schema: schema.id.clone(),
                property: Some(req.clone()),
                kind: ViolationKind::MissingRequired,
                message: format!("property {req:?} is required by the schema"),
            });
        }
    }
    if !schema.additional_properties {
        for p in &node.properties {
            if schema.rule(p.name()).is_none() {
                out.push(Violation {
                    path: path.to_string(),
                    schema: schema.id.clone(),
                    property: Some(p.name().to_string()),
                    kind: ViolationKind::UndeclaredProperty,
                    message: format!("property {:?} is not declared by the schema", p.name()),
                });
            }
        }
    }
    for rule in &schema.properties {
        let Some(prop) = node.prop(&rule.name) else {
            continue;
        };
        check_prop(prop, rule, path, parent_cells, schema, out);
    }
}

fn item_count(prop: &Property, parent_cells: (u32, u32)) -> Result<usize, String> {
    // For `reg`, an "item" is one (address, size) entry — the paper's
    // example: "there are 2 subarrays of size 4 inside reg".
    if prop.name() == "reg" {
        let Some(flat) = prop.flat_cells() else {
            return Err("reg must be a literal cell array".to_string());
        };
        let stride = (parent_cells.0 + parent_cells.1) as usize;
        if stride == 0 {
            return Err("#address-cells + #size-cells is zero".to_string());
        }
        if flat.len() % stride != 0 {
            return Err(format!(
                "reg has {} cells, not a multiple of {stride} \
                 (#address-cells {} + #size-cells {})",
                flat.len(),
                parent_cells.0,
                parent_cells.1
            ));
        }
        return Ok(flat.len() / stride);
    }
    // Otherwise count cells (for cell arrays) or values.
    if let Some(flat) = prop.flat_cells() {
        return Ok(flat.len());
    }
    Ok(prop.values().len())
}

fn check_prop(
    prop: &Property,
    rule: &PropRule,
    path: &str,
    parent_cells: (u32, u32),
    schema: &Schema,
    out: &mut Vec<Violation>,
) {
    let mut push = |kind, message: String| {
        out.push(Violation {
            path: path.to_string(),
            schema: schema.id.clone(),
            property: Some(rule.name.clone()),
            kind,
            message,
        });
    };

    if let Some(expected) = &rule.const_str {
        match prop.as_str() {
            Some(actual) if actual == expected => {}
            Some(actual) => push(
                ViolationKind::ConstMismatch,
                format!("expected {expected:?}, found {actual:?}"),
            ),
            None => push(
                ViolationKind::ConstMismatch,
                format!("expected string {expected:?}, found non-string value"),
            ),
        }
    }
    if let Some(expected) = rule.const_u32 {
        match prop.as_u32() {
            Some(actual) if actual == expected => {}
            other => push(
                ViolationKind::ConstMismatch,
                format!("expected <{expected:#x}>, found {other:?}"),
            ),
        }
    }
    if !rule.enum_str.is_empty() {
        match prop.as_str() {
            Some(actual) if rule.enum_str.iter().any(|e| e == actual) => {}
            Some(actual) => push(
                ViolationKind::EnumMismatch,
                format!("{actual:?} not in {:?}", rule.enum_str),
            ),
            None => push(
                ViolationKind::EnumMismatch,
                "expected a string value".to_string(),
            ),
        }
    }
    if let Some(t) = rule.prop_type {
        let ok = match t {
            PropType::U32 => prop.as_u32().is_some(),
            PropType::Str => prop.as_str().is_some(),
            PropType::Cells => {
                prop.values().all(|v| matches!(v, Value::Cells(_))) && prop.values().len() > 0
            }
            PropType::Bytes => {
                prop.values().all(|v| matches!(v, Value::Bytes(_))) && prop.values().len() > 0
            }
            PropType::Flag => prop.values().len() == 0,
        };
        if !ok {
            push(
                ViolationKind::TypeMismatch,
                format!("value does not have shape {t:?}"),
            );
        }
    }
    if rule.min_items.is_some() || rule.max_items.is_some() {
        match item_count(prop, parent_cells) {
            Err(message) => push(ViolationKind::BadRegArity, message),
            Ok(n) => {
                if let Some(min) = rule.min_items {
                    if n < min {
                        push(
                            ViolationKind::TooFewItems,
                            format!("{n} items, schema requires at least {min}"),
                        );
                    }
                }
                if let Some(max) = rule.max_items {
                    if n > max {
                        push(
                            ViolationKind::TooManyItems,
                            format!("{n} items, schema allows at most {max}"),
                        );
                    }
                }
            }
        }
    } else if prop.name() == "reg" {
        // Even without item-count rules, dt-schema validates reg arity.
        if let Err(message) = item_count(prop, parent_cells) {
            push(ViolationKind::BadRegArity, message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{PropRule, Schema, SchemaSet};
    use llhsc_dts::parse;

    fn memory_schema_set() -> SchemaSet {
        SchemaSet::from(vec![Schema::parse(
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
        .unwrap()])
    }

    #[test]
    fn valid_memory_node_passes() {
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
            };"#,
        )
        .unwrap();
        assert!(check_structural(&t, &memory_schema_set()).is_empty());
    }

    #[test]
    fn missing_required_detected() {
        let t = parse("/ { memory@0 { device_type = \"memory\"; }; };").unwrap();
        let v = check_structural(&t, &memory_schema_set());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::MissingRequired);
        assert_eq!(v[0].property.as_deref(), Some("reg"));
        assert!(v[0].to_string().contains("/memory@0"));
    }

    #[test]
    fn const_mismatch_detected() {
        let t = parse(
            "/ { #address-cells = <2>; #size-cells = <2>; \
             memory@0 { device_type = \"ram\"; reg = <0 0 0 1>; }; };",
        )
        .unwrap();
        let v = check_structural(&t, &memory_schema_set());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::ConstMismatch);
    }

    #[test]
    fn reg_arity_detected() {
        // 2+2 cells but 5 cells given.
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@0 { device_type = "memory"; reg = <0 0 0 1 2>; };
            };"#,
        )
        .unwrap();
        let v = check_structural(&t, &memory_schema_set());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::BadRegArity);
    }

    #[test]
    fn max_items_detected() {
        let set = SchemaSet::from(vec![Schema::new("uart")
            .select_node_name("uart")
            .prop(PropRule::new("reg").items(1, 1))]);
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                uart@0 { reg = <0x0 0x1000 0x1000 0x1000>; };
            };"#,
        )
        .unwrap();
        let v = check_structural(&t, &set);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::TooManyItems);
    }

    #[test]
    fn closed_schema_rejects_extras() {
        let set = SchemaSet::from(vec![Schema::new("x")
            .select_node_name("x")
            .prop(PropRule::new("reg"))
            .closed()]);
        let t = parse("/ { x@0 { reg = <1 2 3>; mystery = <3>; }; };").unwrap();
        let v = check_structural(&t, &set);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::UndeclaredProperty);
        assert_eq!(v[0].property.as_deref(), Some("mystery"));
    }

    #[test]
    fn enum_and_type_rules() {
        let set = SchemaSet::from(vec![Schema::new("cpu")
            .select_node_name("cpu")
            .prop(PropRule::new("enable-method").one_of(["psci", "spin-table"]))
            .prop(PropRule::new("reg").typed(PropType::U32))]);
        let ok = parse(
            "/ { cpus { #address-cells = <1>; #size-cells = <0>; \
             cpu@0 { enable-method = \"psci\"; reg = <0>; }; }; };",
        )
        .unwrap();
        assert!(check_structural(&ok, &set).is_empty());
        let bad = parse(
            "/ { cpus { #address-cells = <1>; #size-cells = <0>; \
             cpu@0 { enable-method = \"magic\"; reg = <0 1>; }; }; };",
        )
        .unwrap();
        let v = check_structural(&bad, &set);
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|x| x.kind == ViolationKind::EnumMismatch));
        assert!(v.iter().any(|x| x.kind == ViolationKind::TypeMismatch));
    }

    #[test]
    fn the_paper_gap_addresses_not_relatable() {
        // §I-A: the uart base clashing with the memory range is
        // *structurally* fine — this checker cannot see it. This test
        // pins the baseline's blind spot that motivates the semantic
        // checker.
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
                uart@60000000 { reg = <0x0 0x60000000 0x0 0x1000>; };
            };"#,
        )
        .unwrap();
        let set = SchemaSet::standard();
        assert!(
            check_structural(&t, &set).is_empty(),
            "dt-schema-style checking must NOT flag the address clash"
        );
    }

    #[test]
    fn standard_set_validates_running_example() {
        let t = parse(
            r#"/ {
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
                uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
            };"#,
        )
        .unwrap();
        let v = check_structural(&t, &SchemaSet::standard());
        assert!(v.is_empty(), "{v:?}");
    }
}
