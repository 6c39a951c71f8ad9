//! Automated analyses over a single feature model (§II-B).

use std::collections::{BTreeSet, HashMap};

use llhsc_count::{approx_count, count_exact, ApproxParams};
use llhsc_sat::{Cnf, Lit};
use llhsc_smt::{CheckOptions, CheckResult, Context, TermId};

use crate::model::{FeatureId, FeatureModel};

/// A product: the set of selected features (always contains the root).
pub type Product = BTreeSet<FeatureId>;

/// Outcome of a [budgeted product count](Analyzer::count_products_budgeted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductCount {
    /// Number of valid products (exact, or an (ε, δ) estimate when
    /// `approximate` is set and `exact` is not).
    pub models: u64,
    /// True when `models` is the exact count.
    pub exact: bool,
    /// True when the enumeration budget was exceeded and the count
    /// came from XOR-hash estimation instead.
    pub approximate: bool,
}

/// SAT-backed analyser for one feature model.
///
/// Owns an incremental [`Context`] holding the model's propositional
/// encoding with the root asserted; individual queries run in push/pop
/// scopes, mirroring how the paper adds constraints "incrementally to
/// the same solver instance".
#[derive(Debug)]
pub struct Analyzer {
    model: FeatureModel,
    ctx: Context,
    vars: HashMap<FeatureId, TermId>,
    ordered: Vec<FeatureId>,
}

impl Analyzer {
    /// Builds the analyser (encodes the model once).
    pub fn new(model: &FeatureModel) -> Analyzer {
        let mut ctx = Context::new();
        let vars = model.encode(&mut ctx, "");
        let root = vars[&model.root()];
        ctx.assert(root);
        let ordered: Vec<FeatureId> = model.ids().collect();
        Analyzer {
            model: model.clone(),
            ctx,
            vars,
            ordered,
        }
    }

    /// The model under analysis.
    pub fn model(&self) -> &FeatureModel {
        &self.model
    }

    /// A model is *void* if it admits no product at all.
    pub fn is_void(&mut self) -> bool {
        self.ctx.check() == CheckResult::Unsat
    }

    fn selection_assumptions(&mut self, selected: &[FeatureId]) -> Vec<TermId> {
        let set: BTreeSet<FeatureId> = selected.iter().copied().collect();
        self.ordered
            .iter()
            .map(|id| {
                let v = self.vars[id];
                if set.contains(id) {
                    v
                } else {
                    self.ctx.not(v)
                }
            })
            .collect()
    }

    /// Checks whether an exact selection (features listed are selected,
    /// all others deselected) is a valid product.
    pub fn is_valid(&mut self, selected: &[FeatureId]) -> bool {
        let assumptions = self.selection_assumptions(selected);
        self.ctx.check_assuming(&assumptions) == CheckResult::Sat
    }

    /// Explains why a selection is invalid: returns the names of the
    /// selection decisions in the unsat core (prefixed with `!` for
    /// "deselected"), or an empty vector if the selection is valid.
    pub fn explain_invalid(&mut self, selected: &[FeatureId]) -> Vec<String> {
        let assumptions = self.selection_assumptions(selected);
        if self.ctx.check_assuming(&assumptions) == CheckResult::Sat {
            return Vec::new();
        }
        let set: BTreeSet<FeatureId> = selected.iter().copied().collect();
        let core: Vec<TermId> = self.ctx.unsat_core().to_vec();
        let mut out = Vec::new();
        for (i, id) in self.ordered.iter().enumerate() {
            if core.contains(&assumptions[i]) {
                let name = self.model.name(*id);
                if set.contains(id) {
                    out.push(name.to_string());
                } else {
                    out.push(format!("!{name}"));
                }
            }
        }
        out
    }

    /// Completes a partial selection into a full product, if possible
    /// (the paper's "automatic assignment" of grayed-out features).
    ///
    /// The completion is *greedily minimal*: beyond the requested
    /// features, only features forced by the model's constraints are
    /// selected — optional extras stay deselected.
    pub fn complete(&mut self, selected: &[FeatureId]) -> Option<Product> {
        let mut assumptions: Vec<TermId> = selected.iter().map(|id| self.vars[id]).collect();
        if self.ctx.check_assuming(&assumptions) != CheckResult::Sat {
            return None;
        }
        // Greedy minimisation: try to switch off every feature that was
        // not explicitly requested; keep the negation when satisfiable.
        let requested: BTreeSet<FeatureId> = selected.iter().copied().collect();
        for id in self.ordered.clone() {
            if requested.contains(&id) {
                continue;
            }
            let neg = self.ctx.not(self.vars[&id]);
            let mut attempt = assumptions.clone();
            attempt.push(neg);
            if self.ctx.check_assuming(&attempt) == CheckResult::Sat {
                assumptions = attempt;
            }
        }
        // Final model under the minimised assumptions.
        if self.ctx.check_assuming(&assumptions) != CheckResult::Sat {
            return None; // unreachable: last attempt was satisfiable
        }
        let m = self.ctx.model().expect("model after sat");
        let mut product = Product::new();
        for id in &self.ordered {
            if m.eval_bool(self.vars[id]) == Some(true) {
                product.insert(*id);
            }
        }
        Some(product)
    }

    /// Counts the valid products of the model.
    ///
    /// Routed through the bounded All-SAT path
    /// ([`Analyzer::count_products_budgeted`]) with a generous default
    /// budget, so the count benefits from component decomposition and
    /// degrades to an approximation instead of hanging on astronomically
    /// large spaces. Callers that care about exactness flags should call
    /// the budgeted method directly.
    pub fn count_products(&mut self) -> usize {
        self.count_products_budgeted(1 << 20).models as usize
    }

    /// Exports the model's propositional encoding (with the root
    /// asserted) as a CNF plus the product projection: one positive
    /// literal per feature, in [`FeatureModel::ids`] order.
    ///
    /// The export re-encodes the model into a fresh clause-logged
    /// [`Context`], so the analyser's own incremental solver stays
    /// untouched and pays no logging overhead on the hot query paths.
    pub fn export_cnf(&self) -> (Cnf, Vec<Lit>) {
        let mut ctx = Context::with_options(&CheckOptions {
            clause_log: true,
            ..CheckOptions::default()
        });
        let vars = self.model.encode(&mut ctx, "");
        ctx.assert(vars[&self.model.root()]);
        let over: Vec<TermId> = self.ordered.iter().map(|id| vars[id]).collect();
        ctx.export_cnf(&over, &[])
            .expect("context was created with clause logging enabled")
    }

    /// Counts valid products with an explicit enumeration budget.
    ///
    /// Up to `budget` models are enumerated exactly (with component
    /// decomposition, so the effective budget applies per independent
    /// sub-model). When the space is larger, the count falls back to
    /// XOR-hash approximate counting under the default (ε, δ) and the
    /// result is flagged `approximate` — this is how family-level
    /// counts stay tractable where naive enumeration would not.
    pub fn count_products_budgeted(&mut self, budget: u64) -> ProductCount {
        let (cnf, proj) = self.export_cnf();
        let exact = count_exact(&cnf, &proj, budget);
        if exact.exact {
            return ProductCount {
                models: exact.models,
                exact: true,
                approximate: false,
            };
        }
        let est = approx_count(&cnf, &proj, &ApproxParams::default(), None);
        ProductCount {
            models: est.estimate,
            exact: est.exact,
            approximate: true,
        }
    }

    /// Enumerates all valid products.
    pub fn products(&mut self) -> Vec<Product> {
        let over: Vec<TermId> = self.ordered.iter().map(|id| self.vars[id]).collect();
        self.ctx
            .all_models(&over, None)
            .into_iter()
            .map(|values| {
                self.ordered
                    .iter()
                    .zip(values)
                    .filter(|(_, v)| *v)
                    .map(|(id, _)| *id)
                    .collect()
            })
            .collect()
    }

    /// *Dead* features appear in no product (§II-B's example analysis).
    pub fn dead_features(&mut self) -> Vec<FeatureId> {
        let mut dead = Vec::new();
        for id in self.ordered.clone() {
            let v = self.vars[&id];
            if self.ctx.check_assuming(&[v]) == CheckResult::Unsat {
                dead.push(id);
            }
        }
        dead
    }

    /// *Core* features appear in every product.
    pub fn core_features(&mut self) -> Vec<FeatureId> {
        let mut core = Vec::new();
        for id in self.ordered.clone() {
            let nv = self.ctx.not(self.vars[&id]);
            if self.ctx.check_assuming(&[nv]) == CheckResult::Unsat {
                core.push(id);
            }
        }
        core
    }

    /// Renders a product as sorted feature names (diagnostics, tests).
    pub fn product_names(&self, product: &Product) -> Vec<String> {
        product
            .iter()
            .map(|id| self.model.name(*id).to_string())
            .collect()
    }

    /// Explains why the model is void: a set of model rules that are
    /// jointly unsatisfiable together with the root (from iterated
    /// unsat cores over a marker-guarded encoding). Empty when the
    /// model is not void.
    pub fn explain_void(&mut self) -> Vec<String> {
        if !self.is_void() {
            return Vec::new();
        }
        let mut ctx = llhsc_smt::Context::new();
        let (vars, markers) = self.model.encode_with_markers(&mut ctx);
        ctx.assert(vars[&self.model.root()]);
        let assumptions: Vec<TermId> = markers.iter().map(|(m, _)| *m).collect();
        if ctx.check_assuming(&assumptions) == CheckResult::Sat {
            return vec!["(inconsistency not attributable to a rule subset)".to_string()];
        }
        let core: std::collections::BTreeSet<TermId> = ctx.unsat_core().iter().copied().collect();
        markers
            .into_iter()
            .filter(|(m, _)| core.contains(m))
            .map(|(_, d)| d)
            .collect()
    }

    /// *False-optional* features: modelled as optional but present in
    /// every product (their optionality is an illusion created by
    /// constraints) — a standard feature-model anomaly alongside dead
    /// features.
    pub fn false_optional(&mut self) -> Vec<FeatureId> {
        let core: std::collections::BTreeSet<FeatureId> =
            self.core_features().into_iter().collect();
        self.ordered
            .iter()
            .copied()
            .filter(|id| self.model.feature(*id).optional && core.contains(id))
            .collect()
    }

    /// The *commonality* of a feature: the fraction of valid products
    /// that contain it (1.0 for core features, 0.0 for dead ones) — a
    /// standard product-line metric over the §II-B analyses.
    ///
    /// Returns `None` for a void model (no products to take a fraction
    /// of).
    pub fn commonality(&mut self, feature: FeatureId) -> Option<f64> {
        let products = self.products();
        if products.is_empty() {
            return None;
        }
        let containing = products.iter().filter(|p| p.contains(&feature)).count();
        Some(containing as f64 / products.len() as f64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::GroupKind;

    /// The paper's Fig. 1a feature model. `uarts` is an abstract OR
    /// group over the two serial ports (physically present on the SBC),
    /// `vEthernet` an abstract optional XOR group over the two virtual
    /// Ethernet devices, with the paper's cross constraints
    /// `veth0 ⇒ cpu@0` and `veth1 ⇒ cpu@1`. This model has exactly the
    /// 12 valid products the paper reports.
    pub(crate) fn custom_sbc() -> FeatureModel {
        let mut fm = FeatureModel::new("CustomSBC");
        let root = fm.root();
        let _memory = fm.add_mandatory(root, "memory");
        let cpus = fm.add_mandatory(root, "cpus");
        fm.set_group(cpus, GroupKind::Xor);
        fm.set_cross_vm_exclusive(cpus, true);
        let cpu0 = fm.add_optional(cpus, "cpu@0");
        let cpu1 = fm.add_optional(cpus, "cpu@1");
        let uarts = fm.add_mandatory(root, "uarts");
        fm.set_abstract(uarts, true);
        fm.set_group(uarts, GroupKind::Or);
        fm.add_optional(uarts, "uart@20000000");
        fm.add_optional(uarts, "uart@30000000");
        let veth = fm.add_optional(root, "vEthernet");
        fm.set_abstract(veth, true);
        fm.set_group(veth, GroupKind::Xor);
        let veth0 = fm.add_optional(veth, "veth0");
        let veth1 = fm.add_optional(veth, "veth1");
        fm.requires(veth0, cpu0);
        fm.requires(veth1, cpu1);
        fm
    }

    #[test]
    fn custom_sbc_is_not_void() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        assert!(!an.is_void());
    }

    #[test]
    fn custom_sbc_has_12_products() {
        // The paper: "In this feature model there are 12 valid products".
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        assert_eq!(an.count_products(), 12);
    }

    #[test]
    fn fig1b_product_is_valid() {
        // Fig. 1b: cpu@0, both uarts, veth0.
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let sel: Vec<FeatureId> = [
            "CustomSBC",
            "memory",
            "cpus",
            "cpu@0",
            "uarts",
            "uart@20000000",
            "uart@30000000",
            "vEthernet",
            "veth0",
        ]
        .iter()
        .map(|n| fm.by_name(n).unwrap())
        .collect();
        assert!(an.is_valid(&sel));
    }

    #[test]
    fn fig1c_product_is_valid() {
        // Fig. 1c: cpu@1, both uarts, veth1.
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let sel: Vec<FeatureId> = [
            "CustomSBC",
            "memory",
            "cpus",
            "cpu@1",
            "uarts",
            "uart@20000000",
            "uart@30000000",
            "vEthernet",
            "veth1",
        ]
        .iter()
        .map(|n| fm.by_name(n).unwrap())
        .collect();
        assert!(an.is_valid(&sel));
    }

    #[test]
    fn wrong_veth_cpu_pairing_invalid() {
        // veth0 with cpu@1 violates veth0 ⇒ cpu@0.
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let sel: Vec<FeatureId> = [
            "CustomSBC",
            "memory",
            "cpus",
            "cpu@1",
            "uarts",
            "uart@20000000",
            "vEthernet",
            "veth0",
        ]
        .iter()
        .map(|n| fm.by_name(n).unwrap())
        .collect();
        assert!(!an.is_valid(&sel));
        let why = an.explain_invalid(&sel);
        assert!(!why.is_empty());
        // The explanation mentions the conflicting decisions.
        assert!(
            why.iter()
                .any(|n| n.contains("veth0") || n.contains("cpu@0")),
            "unhelpful core: {why:?}"
        );
    }

    #[test]
    fn both_cpus_invalid() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let sel: Vec<FeatureId> = [
            "CustomSBC",
            "memory",
            "cpus",
            "cpu@0",
            "cpu@1",
            "uarts",
            "uart@20000000",
        ]
        .iter()
        .map(|n| fm.by_name(n).unwrap())
        .collect();
        assert!(!an.is_valid(&sel));
    }

    #[test]
    fn missing_mandatory_memory_invalid() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let sel: Vec<FeatureId> = ["CustomSBC", "cpus", "cpu@0", "uarts", "uart@20000000"]
            .iter()
            .map(|n| fm.by_name(n).unwrap())
            .collect();
        assert!(!an.is_valid(&sel));
        let why = an.explain_invalid(&sel);
        assert!(why.iter().any(|n| n.contains("memory")), "{why:?}");
    }

    #[test]
    fn budgeted_count_matches_enumeration() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let c = an.count_products_budgeted(1 << 20);
        assert!(c.exact);
        assert!(!c.approximate);
        assert_eq!(c.models, 12);
        // The exported CNF agrees with the incremental context.
        assert_eq!(an.count_products(), 12);
    }

    #[test]
    fn budgeted_count_falls_back_to_approximation() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        // A budget of 1 cannot hold 12 products, so the count switches
        // to the XOR-hash estimator; 12 models sit below the pivot, so
        // the estimate itself is still exact.
        let c = an.count_products_budgeted(1);
        assert!(c.approximate);
        assert!(c.exact);
        assert_eq!(c.models, 12);
    }

    #[test]
    fn budgeted_count_of_void_model_is_zero() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_mandatory(r, "a");
        let b = fm.add_mandatory(r, "b");
        fm.excludes(a, b);
        let mut an = Analyzer::new(&fm);
        let c = an.count_products_budgeted(16);
        assert!(c.exact);
        assert_eq!(c.models, 0);
    }

    #[test]
    fn exported_cnf_projection_covers_every_feature() {
        let fm = custom_sbc();
        let an = Analyzer::new(&fm);
        let (_, proj) = an.export_cnf();
        assert_eq!(proj.len(), fm.ids().count());
    }

    #[test]
    fn products_match_count_and_are_valid() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let products = an.products();
        assert_eq!(products.len(), 12);
        // Each enumerated product validates individually.
        for p in &products {
            let sel: Vec<FeatureId> = p.iter().copied().collect();
            assert!(an.is_valid(&sel), "{:?}", an.product_names(p));
        }
        // All products are distinct.
        let set: BTreeSet<_> = products.iter().cloned().collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn no_dead_features_in_custom_sbc() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        assert!(an.dead_features().is_empty());
    }

    #[test]
    fn core_features_are_root_memory_cpus_uarts() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let core: BTreeSet<String> = an
            .core_features()
            .into_iter()
            .map(|id| fm.name(id).to_string())
            .collect();
        let expected: BTreeSet<String> = ["CustomSBC", "memory", "cpus", "uarts"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(core, expected);
    }

    #[test]
    fn dead_feature_detected() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_optional(r, "a");
        let b = fm.add_optional(r, "b");
        fm.requires(a, b);
        fm.excludes(a, b); // a can never be selected
        let mut an = Analyzer::new(&fm);
        assert_eq!(an.dead_features(), vec![a]);
        assert!(!an.is_void());
    }

    #[test]
    fn void_model_detected() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_mandatory(r, "a");
        let b = fm.add_mandatory(r, "b");
        fm.excludes(a, b);
        let mut an = Analyzer::new(&fm);
        assert!(an.is_void());
        assert_eq!(an.count_products(), 0);
    }

    #[test]
    fn complete_partial_selection() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let veth0 = fm.by_name("veth0").unwrap();
        let p = an.complete(&[veth0]).expect("completable");
        // The completion must auto-select cpu@0 (the paper's automatic
        // assignment of grayed-out CPU features).
        assert!(p.contains(&fm.by_name("cpu@0").unwrap()));
        assert!(!p.contains(&fm.by_name("cpu@1").unwrap()));
    }

    #[test]
    fn commonality_values() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        // Core features have commonality 1.
        let memory = fm.by_name("memory").unwrap();
        assert_eq!(an.commonality(memory), Some(1.0));
        // Each CPU appears in exactly half of the 12 products.
        let cpu0 = fm.by_name("cpu@0").unwrap();
        assert_eq!(an.commonality(cpu0), Some(0.5));
        // veth0 appears in 3 of 12 products: cpu@0 fixed, the three
        // non-empty uart subsets, vEthernet selected with veth0.
        let veth0 = fm.by_name("veth0").unwrap();
        let c = an.commonality(veth0).unwrap();
        assert!((c - 3.0 / 12.0).abs() < 1e-9, "got {c}");
    }

    #[test]
    fn explain_void_names_the_conflicting_rules() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_mandatory(r, "a");
        let b = fm.add_mandatory(r, "b");
        fm.excludes(a, b);
        let c = fm.add_optional(r, "c");
        let _ = c;
        let mut an = Analyzer::new(&fm);
        let why = an.explain_void();
        assert!(!why.is_empty());
        let text = why.join("; ");
        assert!(text.contains("a excludes b"), "{text}");
        assert!(
            text.contains("mandatory"),
            "mandatory rules are part of the conflict: {text}"
        );
        // The optional feature plays no role in the conflict.
        assert!(!why.iter().any(|w| w.starts_with("c ")), "{text}");
    }

    #[test]
    fn explain_void_empty_for_satisfiable_model() {
        let mut an = Analyzer::new(&custom_sbc());
        assert!(an.explain_void().is_empty());
    }

    #[test]
    fn false_optional_detected() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_mandatory(r, "a");
        let b = fm.add_optional(r, "b"); // drawn optional…
        fm.requires(a, b); // …but the mandatory a drags it in always
        let c = fm.add_optional(r, "c"); // genuinely optional
        let mut an = Analyzer::new(&fm);
        assert_eq!(an.false_optional(), vec![b]);
        assert!(!an.false_optional().contains(&c));
        // The running example has none.
        let mut an = Analyzer::new(&custom_sbc());
        assert!(an.false_optional().is_empty());
    }

    #[test]
    fn commonality_of_void_model_is_none() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_mandatory(r, "a");
        let b = fm.add_mandatory(r, "b");
        fm.excludes(a, b);
        let mut an = Analyzer::new(&fm);
        assert_eq!(an.commonality(a), None);
    }

    #[test]
    fn complete_impossible_selection() {
        let fm = custom_sbc();
        let mut an = Analyzer::new(&fm);
        let v0 = fm.by_name("veth0").unwrap();
        let c1 = fm.by_name("cpu@1").unwrap();
        assert!(an.complete(&[v0, c1]).is_none());
    }
}
