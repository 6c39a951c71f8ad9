//! The constraint-based syntactic checker (§IV-B of the paper).
//!
//! Where [`check_structural`](crate::check_structural) evaluates schema
//! rules directly, this checker reproduces the paper's approach: schema
//! rules and binding instances are both translated into first-order
//! constraints over interned strings and bit-vectors, and a single SMT
//! [`Context`] decides them. The encoding follows constraints (1)–(6):
//!
//! 1. `R(device_type) → (const ↔ "memory")` — const rules guard on the
//!    presence predicate `R`;
//! 2. `memory → R(device_type) ∧ …` — required properties;
//! 3. `memory → R(reg) ∧ …` — ditto;
//! 4. `const ↔ "memory"` — proof obligations: the actual values found in
//!    the binding instance;
//! 5. `∀x. C(x) ↔ (x = "reg" ∨ x = "device_type")` — the condition
//!    predicate enumerating the properties actually present;
//! 6. `∀x. (C(x) → R(x)) ∧ (¬C(x) → ¬R(x))` — the closure: presence is
//!    exactly what the instance provides.
//!
//! The quantifiers in (5)/(6) range over the finite universe of property
//! names mentioned by the schema or the node, so they are instantiated
//! finitely (which is also what makes the problem decidable).
//!
//! Every schema rule is guarded by a fresh *marker* assumption, so an
//! UNSAT answer comes back with a core naming exactly the violated
//! rules — this is the paper's "easily traced back" property.

use std::collections::BTreeSet;
use std::fmt;

use llhsc_dts::cells::{cell_counts, DEFAULT_ADDRESS_CELLS, DEFAULT_SIZE_CELLS};
use llhsc_dts::{DeviceTree, Node, Property};
use llhsc_smt::{
    slice_key, CertStats, CheckResult, Context, SessionStats, Slice, SolverSession, TermId,
};

use crate::schema::{PropRule, PropType, Schema, SchemaSet};

/// One schema rule that the checker can report as violated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RuleInfo {
    /// Node path the rule was instantiated at.
    pub path: String,
    /// Schema `$id`.
    pub schema: String,
    /// Human-readable rule description.
    pub description: String,
}

impl fmt::Display for RuleInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.path, self.schema, self.description)
    }
}

/// Result of a [`SyntacticChecker::check`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntacticReport {
    /// The violated rules (empty when the tree is syntactically valid).
    pub violations: Vec<RuleInfo>,
    /// Number of rule instantiations checked.
    pub rules_checked: usize,
}

impl SyntacticReport {
    /// `true` when no rule was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The constraint-based syntactic checker.
///
/// ```
/// use llhsc_schema::{SchemaSet, SyntacticChecker};
///
/// let tree = llhsc_dts::parse(
///     "/ { memory@0 { device_type = \"ram\"; reg = <0 0 0 1>; }; };",
/// ).unwrap();
/// let mut checker = SyntacticChecker::new(&tree, &SchemaSet::standard());
/// let report = checker.check();
/// assert!(!report.is_ok()); // device_type must be "memory"
/// assert!(report.violations[0].description.contains("device_type"));
/// ```
#[derive(Debug)]
pub struct SyntacticChecker {
    session: SolverSession,
    /// This product's obligation slice (constraints (4)–(6)), activated
    /// by assumption in [`check`](SyntacticChecker::check).
    slice: Slice,
    /// Marker assumption per rule instantiation.
    markers: Vec<(TermId, RuleInfo)>,
}

impl SyntacticChecker {
    /// Builds the constraint system for a tree against a schema set in
    /// a fresh solver session.
    pub fn new(tree: &DeviceTree, schemas: &SchemaSet) -> SyntacticChecker {
        SyntacticChecker::with_session(tree, schemas, SolverSession::new())
    }

    /// Builds the constraint system inside an existing session —
    /// typically one handed over from a previous product's checker via
    /// [`into_session`](SyntacticChecker::into_session). The marker
    /// guarded schema rules are shared terms, so a product that
    /// instantiates the same (node path, schema) bindings as an earlier
    /// one re-uses their encodings and the solver's learnt clauses;
    /// only this product's obligation facts occupy a fresh slice.
    pub fn with_session(
        tree: &DeviceTree,
        schemas: &SchemaSet,
        mut session: SolverSession,
    ) -> SyntacticChecker {
        let mut markers = Vec::new();
        let mut obligations = Vec::new();
        encode_tree(&mut session, &mut markers, &mut obligations, tree, schemas);
        // The obligation slice is keyed by the facts themselves, so a
        // warm repeat of the same product re-activates the existing
        // slice without re-asserting anything.
        let mut content: Vec<u8> = b"schema".to_vec();
        for t in &obligations {
            content.extend_from_slice(session.ctx().display(*t).as_bytes());
            content.push(0);
        }
        let slice = session.slice(slice_key(&content));
        for t in obligations.drain(..) {
            session.assert_in(slice, t);
        }
        SyntacticChecker {
            session,
            slice,
            markers,
        }
    }

    /// Consumes the checker and returns its session, so the next
    /// product's checker can keep the shared context warm.
    pub fn into_session(self) -> SolverSession {
        self.session
    }

    /// Reuse counters of the underlying solver session.
    pub fn session_stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Access to the underlying context (for callers that add further
    /// constraints to the same instance, as the paper's tool does with
    /// its semantic rules, or that attach a trace with
    /// [`Context::set_trace`] so each rule-marker solve in
    /// [`check`](SyntacticChecker::check) records a `"solve"` span).
    pub fn context_mut(&mut self) -> &mut Context {
        self.session.ctx_mut()
    }

    /// Solver counters accumulated by this checker's SMT context.
    pub fn solver_stats(&self) -> llhsc_smt::SolverStats {
        self.session.ctx().solver_stats()
    }

    /// Certification counters of the session (zero unless the checker
    /// was built over a certifying session, see
    /// [`llhsc_smt::CheckOptions::certify`]).
    pub fn cert_stats(&self) -> CertStats {
        self.session.cert_stats()
    }

    /// The session's accumulated formula and DRAT proof; `None` unless
    /// the checker was built over a certifying session.
    pub fn export_proof(&self) -> Option<(llhsc_smt::Cnf, Vec<llhsc_smt::ProofStep>)> {
        self.session.export_proof()
    }
}

fn encode_tree(
    session: &mut SolverSession,
    markers: &mut Vec<(TermId, RuleInfo)>,
    obligations: &mut Vec<TermId>,
    tree: &DeviceTree,
    schemas: &SchemaSet,
) {
    /// Visits `node` with `path` holding its parent's path ("" for the
    /// root's), extended on the way in and cut back on the way out; the
    /// path is rendered only for a node a schema binds.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        session: &mut SolverSession,
        markers: &mut Vec<(TermId, RuleInfo)>,
        obligations: &mut Vec<TermId>,
        node: &Node,
        path: &mut String,
        parent_cells: (u32, u32),
        schemas: &SchemaSet,
    ) {
        // An unnamed node is the root wherever it sits, so it starts
        // from an empty path and gives its parent's back afterwards.
        let outer = node.name.is_empty().then(|| std::mem::take(path));
        let mark = path.len();
        if !node.name.is_empty() {
            path.push('/');
            path.push_str(&node.name);
        }
        for schema in schemas.applicable(node) {
            let here = if path.is_empty() { "/" } else { path.as_str() };
            encode_binding(
                session,
                markers,
                obligations,
                node,
                here,
                parent_cells,
                schema,
            );
        }
        let my_cells = cell_counts(node);
        for c in &node.children {
            rec(session, markers, obligations, c, path, my_cells, schemas);
        }
        path.truncate(mark);
        if let Some(outer) = outer {
            *path = outer;
        }
    }
    rec(
        session,
        markers,
        obligations,
        &tree.root,
        &mut String::new(),
        (DEFAULT_ADDRESS_CELLS, DEFAULT_SIZE_CELLS),
        schemas,
    );
}

/// Creates a marker assumption for one rule. The variable is named by
/// the rule's content (not a per-checker counter), so products that
/// instantiate the same rule share one marker term — and with it the
/// root-asserted guarded constraint — across a session.
fn marker(
    session: &mut SolverSession,
    markers: &mut Vec<(TermId, RuleInfo)>,
    path: &str,
    schema: &str,
    description: String,
) -> TermId {
    let m = session
        .ctx_mut()
        .bool_var(&format!("rule:{path}:{schema}:{description}"));
    markers.push((
        m,
        RuleInfo {
            path: path.to_string(),
            schema: schema.to_string(),
            description,
        },
    ));
    m
}

/// Encodes one (node, schema) pair: schema constraints (marker
/// guarded, root-asserted, shared across products) plus instance proof
/// obligations (buffered for the product's slice).
#[allow(clippy::too_many_arguments)]
fn encode_binding(
    session: &mut SolverSession,
    markers: &mut Vec<(TermId, RuleInfo)>,
    obligations: &mut Vec<TermId>,
    node: &Node,
    path: &str,
    parent_cells: (u32, u32),
    schema: &Schema,
) {
    // Finite universe of property names: schema ∪ instance (the
    // domain of the ∀x in constraints (5) and (6)).
    let mut universe: BTreeSet<String> = schema.properties.iter().map(|r| r.name.clone()).collect();
    universe.extend(schema.required.iter().cloned());
    universe.extend(node.properties.iter().map(|p| p.name().to_string()));

    // Presence predicate R(x), one Boolean per universe member.
    let r_var = |ctx: &mut Context, p: &str| -> TermId { ctx.bool_var(&format!("R:{path}:{p}")) };

    // Node validity variable, asserted: we are checking this node.
    // Shared across products (it carries no per-product information;
    // the per-product facts are the R/val obligations below).
    let node_var = session
        .ctx_mut()
        .bool_var(&format!("node:{path}:{}", schema.id));
    session.assert_root(node_var);

    // Obligations (5)+(6): R(p) fixed by what the instance provides.
    for p in &universe {
        let ctx = session.ctx_mut();
        let rv = r_var(ctx, p);
        let present = node.prop(p).is_some();
        let c = ctx.bool_const(present);
        let closure = ctx.iff(rv, c);
        obligations.push(closure);
    }

    // Obligation (4): actual values. Strings intern; single-cell
    // values become 32-bit bit-vectors; item counts become 32-bit
    // bit-vectors so min/max rules are BV comparisons.
    for prop in &node.properties {
        let ctx = session.ctx_mut();
        if let Some(s) = prop.as_str() {
            let val = ctx.str_var(&format!("val:{path}:{}", prop.name()));
            let actual = ctx.str_const(s);
            let eq = ctx.eq(val, actual);
            obligations.push(eq);
        }
        if let Some(v) = prop.as_u32() {
            let val = ctx.bv_var(&format!("cell:{path}:{}", prop.name()), 32);
            let actual = ctx.bv_const(u128::from(v), 32);
            let eq = ctx.eq(val, actual);
            obligations.push(eq);
        }
        if let Some(n) = item_count(prop, parent_cells) {
            let cnt = ctx.bv_var(&format!("count:{path}:{}", prop.name()), 32);
            let actual = ctx.bv_const(n as u128, 32);
            let eq = ctx.eq(cnt, actual);
            obligations.push(eq);
        }
    }

    // Constraints (2)/(3): required properties, guarded.
    for req in &schema.required {
        let m = marker(
            session,
            markers,
            path,
            &schema.id,
            format!("required property {req:?} must be present"),
        );
        let ctx = session.ctx_mut();
        let rv = r_var(ctx, req);
        let rule = ctx.implies(node_var, rv);
        let guarded = ctx.implies(m, rule);
        session.assert_root(guarded);
    }

    // Closed schemas: node → ¬R(p) for undeclared p.
    if !schema.additional_properties {
        for p in &universe {
            if schema.rule(p).is_none() && !schema.required.contains(p) {
                let m = marker(
                    session,
                    markers,
                    path,
                    &schema.id,
                    format!("property {p:?} is not declared by the (closed) schema"),
                );
                let ctx = session.ctx_mut();
                let rv = r_var(ctx, p);
                let nrv = ctx.not(rv);
                let rule = ctx.implies(node_var, nrv);
                let guarded = ctx.implies(m, rule);
                session.assert_root(guarded);
            }
        }
    }

    // Per-property rules.
    for rule in &schema.properties {
        encode_prop_rule(
            session,
            markers,
            obligations,
            node,
            path,
            parent_cells,
            schema,
            rule,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_prop_rule(
    session: &mut SolverSession,
    markers: &mut Vec<(TermId, RuleInfo)>,
    obligations: &mut Vec<TermId>,
    node: &Node,
    path: &str,
    parent_cells: (u32, u32),
    schema: &Schema,
    rule: &PropRule,
) {
    let rv = session
        .ctx_mut()
        .bool_var(&format!("R:{path}:{}", rule.name));

    // Constraint (1): R(p) → value = const.
    if let Some(expected) = &rule.const_str {
        let m = marker(
            session,
            markers,
            path,
            &schema.id,
            format!("property {:?} must be the string {expected:?}", rule.name),
        );
        let ctx = session.ctx_mut();
        let val = ctx.str_var(&format!("val:{path}:{}", rule.name));
        let want = ctx.str_const(expected);
        let eq = ctx.eq(val, want);
        let body = ctx.implies(rv, eq);
        let guarded = ctx.implies(m, body);
        session.assert_root(guarded);
    }
    if let Some(expected) = rule.const_u32 {
        let m = marker(
            session,
            markers,
            path,
            &schema.id,
            format!("property {:?} must be the cell <{expected:#x}>", rule.name),
        );
        let ctx = session.ctx_mut();
        let val = ctx.bv_var(&format!("cell:{path}:{}", rule.name), 32);
        let want = ctx.bv_const(u128::from(expected), 32);
        let eq = ctx.eq(val, want);
        let body = ctx.implies(rv, eq);
        let guarded = ctx.implies(m, body);
        session.assert_root(guarded);
    }
    if !rule.enum_str.is_empty() {
        let m = marker(
            session,
            markers,
            path,
            &schema.id,
            format!(
                "property {:?} must be one of {:?}",
                rule.name, rule.enum_str
            ),
        );
        let ctx = session.ctx_mut();
        let val = ctx.str_var(&format!("val:{path}:{}", rule.name));
        let alts: Vec<TermId> = rule
            .enum_str
            .iter()
            .map(|e| {
                let c = ctx.str_const(e);
                ctx.eq(val, c)
            })
            .collect();
        let any = ctx.or(alts);
        let body = ctx.implies(rv, any);
        let guarded = ctx.implies(m, body);
        session.assert_root(guarded);
    }

    // Type rules are decided structurally; the verdict enters the
    // constraint system as a Boolean fact so cores still name them.
    // The verdict is a *per-product* fact baked into the rule body,
    // so (unlike the purely symbolic rules above) it belongs to the
    // product's obligation slice: another product with the same
    // node but a different shape asserts its own variant in its own
    // slice instead of contradicting this one at the root.
    if let Some(t) = rule.prop_type {
        if let Some(prop) = node.prop(&rule.name) {
            let ok = match t {
                PropType::U32 => prop.as_u32().is_some(),
                PropType::Str => prop.as_str().is_some(),
                PropType::Cells => prop.flat_cells().is_some(),
                PropType::Bytes => {
                    prop.values()
                        .all(|v| matches!(v, llhsc_dts::Value::Bytes(_)))
                        && prop.values().len() > 0
                }
                PropType::Flag => prop.values().len() == 0,
            };
            let m = marker(
                session,
                markers,
                path,
                &schema.id,
                format!("property {:?} must have shape {t:?}", rule.name),
            );
            let ctx = session.ctx_mut();
            let fact = ctx.bool_const(ok);
            let body = ctx.implies(rv, fact);
            let guarded = ctx.implies(m, body);
            obligations.push(guarded);
        }
    }

    // Item-count rules as bit-vector comparisons over the count
    // obligation ("accepted values for the array size are expressed
    // in the form of an assertion", §I-A).
    if rule.min_items.is_some() || rule.max_items.is_some() {
        if let Some(prop) = node.prop(&rule.name) {
            match item_count(prop, parent_cells) {
                None => {
                    let m = marker(
                        session,
                        markers,
                        path,
                        &schema.id,
                        format!(
                            "property {:?} must be a whole number of \
                                 (address, size) entries",
                            rule.name
                        ),
                    );
                    let ctx = session.ctx_mut();
                    let fact = ctx.bool_const(false);
                    let body = ctx.implies(rv, fact);
                    let guarded = ctx.implies(m, body);
                    session.assert_root(guarded);
                }
                Some(_) => {
                    let cnt = session
                        .ctx_mut()
                        .bv_var(&format!("count:{path}:{}", rule.name), 32);
                    if let Some(min) = rule.min_items {
                        let m = marker(
                            session,
                            markers,
                            path,
                            &schema.id,
                            format!("property {:?} needs at least {min} items", rule.name),
                        );
                        let ctx = session.ctx_mut();
                        let lo = ctx.bv_const(min as u128, 32);
                        let ge = ctx.bv_ule(lo, cnt);
                        let body = ctx.implies(rv, ge);
                        let guarded = ctx.implies(m, body);
                        session.assert_root(guarded);
                    }
                    if let Some(max) = rule.max_items {
                        let m = marker(
                            session,
                            markers,
                            path,
                            &schema.id,
                            format!("property {:?} allows at most {max} items", rule.name),
                        );
                        let ctx = session.ctx_mut();
                        let hi = ctx.bv_const(max as u128, 32);
                        let le = ctx.bv_ule(cnt, hi);
                        let body = ctx.implies(rv, le);
                        let guarded = ctx.implies(m, body);
                        session.assert_root(guarded);
                    }
                }
            }
        }
    }
}

impl SyntacticChecker {
    /// Solves the constraint system, enumerating all violated rules by
    /// iteratively removing unsat-core markers. The product's
    /// obligation slice is activated by assumption alongside the
    /// markers, so checking is non-destructive: the session can keep
    /// serving other products afterwards.
    pub fn check(&mut self) -> SyntacticReport {
        let rules_checked = self.markers.len();
        let mut active: Vec<(TermId, RuleInfo)> = self.markers.clone();
        let mut violations = Vec::new();
        loop {
            let assumptions: Vec<TermId> = active.iter().map(|(m, _)| *m).collect();
            if assumptions.is_empty() {
                break;
            }
            match self.session.check(&[self.slice], &assumptions) {
                CheckResult::Sat => break,
                CheckResult::Unsat => {
                    let core: BTreeSet<TermId> =
                        self.session.unsat_core().iter().copied().collect();
                    let (bad, rest): (Vec<_>, Vec<_>) =
                        active.into_iter().partition(|(m, _)| core.contains(m));
                    if bad.is_empty() {
                        // Defensive: obligations alone are inconsistent
                        // (cannot happen — they are facts about one tree).
                        break;
                    }
                    for (_, info) in bad {
                        violations.push(info);
                    }
                    active = rest;
                }
            }
        }
        violations.sort();
        SyntacticReport {
            violations,
            rules_checked,
        }
    }
}

/// Number of items of a property: entries for `reg`, cells or values
/// otherwise; `None` when `reg` does not divide evenly.
fn item_count(prop: &Property, parent_cells: (u32, u32)) -> Option<usize> {
    if prop.name() == "reg" {
        let flat = prop.flat_cells()?;
        let stride = (parent_cells.0 + parent_cells.1) as usize;
        if stride == 0 || flat.len() % stride != 0 {
            return None;
        }
        return Some(flat.len() / stride);
    }
    if let Some(flat) = prop.flat_cells() {
        return Some(flat.len());
    }
    Some(prop.values().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaSet;
    use llhsc_dts::parse;

    fn run(src: &str) -> SyntacticReport {
        let tree = parse(src).unwrap();
        SyntacticChecker::new(&tree, &SchemaSet::standard()).check()
    }

    #[test]
    fn valid_running_example_passes() {
        let report = run(r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
                uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
            };"#);
        assert!(report.is_ok(), "{:?}", report.violations);
        assert!(report.rules_checked > 0);
    }

    #[test]
    fn missing_required_named_in_core() {
        let report = run("/ { memory@0 { device_type = \"memory\"; }; };");
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.schema, "memory");
        assert!(v.description.contains("\"reg\""), "{v}");
        assert_eq!(v.path, "/memory@0");
    }

    #[test]
    fn const_violation_named_in_core() {
        let report = run("/ { #address-cells = <2>; #size-cells = <2>; \
             memory@0 { device_type = \"ram\"; reg = <0 0 0 1>; }; };");
        assert_eq!(report.violations.len(), 1);
        assert!(
            report.violations[0].description.contains("device_type"),
            "{}",
            report.violations[0]
        );
    }

    #[test]
    fn multiple_violations_all_enumerated() {
        // Missing reg AND wrong device_type on one node, plus a bad
        // uart elsewhere.
        let report = run(r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                memory@0 { device_type = "ram"; };
                uart@10 { compatible = "ns16550a"; };
            };"#);
        assert_eq!(report.violations.len(), 3, "{:?}", report.violations);
        let texts: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        assert!(texts
            .iter()
            .any(|t| t.contains("/memory@0") && t.contains("reg")));
        assert!(texts.iter().any(|t| t.contains("device_type")));
        assert!(texts.iter().any(|t| t.contains("/uart@10")));
    }

    #[test]
    fn item_count_window_as_bitvectors() {
        // The cpu schema caps reg at 1 item; under 1+0 cells a 2-cell
        // reg is 2 items.
        let report = run(r#"/ {
                cpus {
                    #address-cells = <1>;
                    #size-cells = <0>;
                    cpu@0 { compatible = "arm,cortex-a53"; reg = <0 1>; };
                };
            };"#);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].description.contains("at most 1"));
    }

    #[test]
    fn reg_arity_violation() {
        let report = run(r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@0 { device_type = "memory"; reg = <0 0 0 1 2>; };
            };"#);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0]
            .description
            .contains("(address, size) entries"));
    }

    #[test]
    fn agreement_with_structural_checker() {
        // Both checkers agree on a mixed corpus (the paper's claim that
        // the constraint encoding generalises dt-schema's checks).
        let sources = [
            "/ { memory@0 { device_type = \"memory\"; reg = <0 0 0 1>; }; };",
            "/ { memory@0 { device_type = \"memory\"; }; };",
            "/ { memory@0 { reg = <0 0 0 1>; }; };",
            "/ { memory@0 { device_type = \"wrong\"; reg = <0 0 0 1>; }; };",
            "/ { uart@0 { compatible = \"x\"; reg = <0 0 0 1>; }; };",
            "/ { uart@0 { compatible = \"x\"; }; };",
        ];
        for src in sources {
            let tree = parse(src).unwrap();
            let structural = crate::checker::check_structural(&tree, &SchemaSet::standard());
            let smt = SyntacticChecker::new(&tree, &SchemaSet::standard()).check();
            assert_eq!(
                structural.is_empty(),
                smt.is_ok(),
                "checkers disagree on {src}: structural={structural:?} smt={:?}",
                smt.violations
            );
        }
    }

    #[test]
    fn veth_binding_from_listing4() {
        // The delta d1 adds this binding; its schema requires
        // compatible, reg and id.
        let ok = run(r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                vEthernet {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    veth0@80000000 {
                        compatible = "veth";
                        reg = <0x80000000 0x10000000>;
                        id = <0>;
                    };
                };
            };"#);
        assert!(ok.is_ok(), "{:?}", ok.violations);
        let missing_id = run(r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                vEthernet {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    veth0@80000000 {
                        compatible = "veth";
                        reg = <0x80000000 0x10000000>;
                    };
                };
            };"#);
        assert_eq!(missing_id.violations.len(), 1);
        assert!(missing_id.violations[0].description.contains("\"id\""));
    }
    #[test]
    fn session_reuse_across_products_matches_fresh() {
        let good = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000>;
                };
                uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
            };"#,
        )
        .unwrap();
        let bad = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "ram";
                    reg = <0x0 0x40000000 0x0 0x20000000>;
                };
                uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
            };"#,
        )
        .unwrap();
        let schemas = SchemaSet::standard();

        let fresh_good = SyntacticChecker::new(&good, &schemas).check();
        let fresh_bad = SyntacticChecker::new(&bad, &schemas).check();

        // Same two products through one shared session.
        let mut c1 = SyntacticChecker::new(&good, &schemas);
        let warm_good = c1.check();
        let mut c2 = SyntacticChecker::with_session(&bad, &schemas, c1.into_session());
        let warm_bad = c2.check();
        assert_eq!(warm_good, fresh_good);
        assert_eq!(warm_bad, fresh_bad);
        // The second product re-used the shared rule encodings: the
        // session saw term-level reuse, and only the differing
        // obligation facts required a fresh slice.
        let stats = c2.session_stats();
        assert!(stats.asserts_reused > 0, "{stats:?}");
        assert_eq!(stats.slices_created, 2);

        // Replaying an identical product re-activates its slice.
        let mut c3 = SyntacticChecker::with_session(&bad, &schemas, c2.into_session());
        assert_eq!(c3.check(), fresh_bad);
        let stats = c3.session_stats();
        assert_eq!(stats.slices_created, 2, "{stats:?}");
        assert_eq!(stats.slices_reused, 1, "{stats:?}");
    }
}
