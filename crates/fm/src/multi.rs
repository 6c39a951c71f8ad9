//! Multi-product feature models for static partitioning (§IV-A).
//!
//! One hypervisor configuration with `k` VMs needs `k + 1` feature
//! models: every VM instantiates the same base model, and the platform
//! model is derived as the union of the VM selections. Static
//! partitioning adds the paper's exclusive-resource constraint
//!
//! ```text
//! (f₁¹ ∨ … ∨ fₙᵐ ⇔ f) ∧ ⋀ᵢ<ⱼ ¬(fᵢᵏ ∧ fⱼᵏ) ∧ ⋀ᵏ<ˡ ¬(fᵢᵏ ∧ fᵢˡ)
//! ```
//!
//! for every XOR group marked
//! [`cross_vm_exclusive`](crate::FeatureModel::set_cross_vm_exclusive):
//! within a VM the children stay alternatives (the middle conjunct, from
//! the base XOR encoding), and across VMs the same child may be selected
//! at most once (the right conjunct). The left biconditional is realised
//! by the platform-union definition.
//!
//! VMs that request the same selection are interchangeable: swapping
//! their variable blocks maps allocations to allocations. Placing more
//! of them than there are exclusive resources is the pigeonhole
//! formula, which has no polynomial-size resolution refutation (Haken,
//! 1985), so CDCL would refute every permutation separately. The
//! feasibility probe of [`MultiModel::complete`] and every probe of
//! [`MultiModel::max_vms`] therefore order each group of interchangeable
//! VMs lexicographically (lex-leader symmetry breaking; Crawford,
//! Ginsberg, Luks & Roy, KR 1996). Every allocation can be permuted into
//! that order, so the probe's verdict is unchanged.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

use llhsc_smt::{CheckOptions, CheckResult, Context, TermId};

use crate::analysis::Product;
use crate::model::{FeatureId, FeatureModel};

/// A satisfying resource allocation: one product per VM plus the derived
/// platform product (the union).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Product selected by each VM, in VM order.
    pub vms: Vec<Product>,
    /// The platform product (union of the VM products).
    pub platform: Product,
}

/// Why an allocation query failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// The requested selections are jointly unsatisfiable; the payload
    /// is the conflicting decisions (`vmK:feature` / `vmK:!feature`).
    Unsatisfiable(Vec<String>),
    /// No allocation of this many VMs exists, whatever they select: the
    /// refutation needed none of the requested decisions.
    Infeasible {
        /// VMs in the model.
        vms: usize,
    },
    /// A selection list was supplied for a VM index that does not exist.
    WrongVmCount {
        /// VMs in the model.
        expected: usize,
        /// Selection lists supplied.
        got: usize,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::Unsatisfiable(core) => {
                write!(f, "allocation is unsatisfiable; conflicting decisions: ")?;
                for (i, c) in core.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            AllocationError::Infeasible { vms: 1 } => {
                write!(f, "no allocation of 1 VM exists, whatever it selects")
            }
            AllocationError::Infeasible { vms } => {
                write!(f, "no allocation of {vms} VMs exists, whatever they select")
            }
            AllocationError::WrongVmCount { expected, got } => {
                write!(f, "expected selections for {expected} VMs, got {got}")
            }
        }
    }
}

impl Error for AllocationError {}

/// The `k + 1` model system: `k` VM copies of a base feature model plus
/// the derived platform model, with exclusive-resource constraints.
///
/// ```
/// use llhsc_fm::{FeatureModel, GroupKind, MultiModel};
///
/// let mut fm = FeatureModel::new("SBC");
/// let root = fm.root();
/// let cpus = fm.add_mandatory(root, "cpus");
/// fm.set_group(cpus, GroupKind::Xor);
/// fm.set_cross_vm_exclusive(cpus, true);
/// fm.add_optional(cpus, "cpu@0");
/// fm.add_optional(cpus, "cpu@1");
/// // Two VMs fit (one CPU each); three cannot.
/// assert!(MultiModel::new(&fm, 2).check());
/// assert!(!MultiModel::new(&fm, 3).check());
/// ```
#[derive(Debug)]
pub struct MultiModel {
    model: FeatureModel,
    num_vms: usize,
    ctx: Context,
    vm_vars: Vec<HashMap<FeatureId, TermId>>,
    platform_vars: HashMap<FeatureId, TermId>,
    ordered: Vec<FeatureId>,
    /// Whether the context certifies every `Unsat` answer, which keeps
    /// [`complete`](MultiModel::complete)'s probe unbroken.
    certify: bool,
    /// Symmetry-breaking literals minted so far; see [`Lex`].
    lex: Lex,
}

/// Mints the fresh Boolean variables of lex-leader chains.
/// [`Context::bool_var`] interns by name, so reusing a name would return
/// a guard that an earlier call already retired.
#[derive(Debug, Default)]
struct Lex {
    minted: u64,
}

impl Lex {
    /// Tag of the guard that activates one probe's chains.
    const GUARD: &'static str = "lex-guard";
    /// Tag of the chains' "prefix equal" variables.
    const PREFIX: &'static str = "lex-eq";

    fn fresh(&mut self, ctx: &mut Context, tag: &str) -> TermId {
        self.minted += 1;
        ctx.bool_var_i(tag, self.minted)
    }

    /// Asserts `a ≥lex b` (true above false, first position most
    /// significant) under `start`, or unconditionally when `start` is
    /// `None`. Position `i` costs one "prefix equal" variable `eᵢ` and
    /// three clauses: `eᵢ₋₁ → aᵢ ∨ ¬bᵢ`, `eᵢ₋₁ ∧ ¬aᵢ → eᵢ` and
    /// `eᵢ₋₁ ∧ bᵢ → eᵢ`, where `e₀` is `start`. An `eᵢ` is only ever
    /// forced, never forbidden, so with `start` false the chain allows
    /// everything.
    fn assert_geq(&mut self, ctx: &mut Context, start: Option<TermId>, a: &[TermId], b: &[TermId]) {
        let mut prefix_differs = start.map(|s| ctx.not(s));
        for (i, (&ai, &bi)) in a.iter().zip(b).enumerate() {
            let not_bi = ctx.not(bi);
            let clause = |tail: [TermId; 2]| -> Vec<TermId> {
                prefix_differs.into_iter().chain(tail).collect()
            };
            ctx.assert_clause(&clause([ai, not_bi]));
            if i + 1 == a.len() {
                break;
            }
            let equal = self.fresh(ctx, Lex::PREFIX);
            ctx.assert_clause(&clause([ai, equal]));
            ctx.assert_clause(&clause([not_bi, equal]));
            prefix_differs = Some(ctx.not(equal));
        }
    }
}

impl MultiModel {
    /// Instantiates the base model for `num_vms` VMs.
    ///
    /// # Panics
    ///
    /// Panics if `num_vms` is zero.
    pub fn new(model: &FeatureModel, num_vms: usize) -> MultiModel {
        MultiModel::with_options(model, num_vms, &CheckOptions::default())
    }

    /// [`MultiModel::new`] over a context built from `opts`. The trace
    /// is attached once the model is encoded, so every solver call made
    /// by [`validate`](MultiModel::validate),
    /// [`complete`](MultiModel::complete) (including its greedy
    /// minimisation loop) and [`count_allocations`](MultiModel::count_allocations)
    /// records a `"solve"` span with its counter delta.
    ///
    /// # Panics
    ///
    /// Panics if `num_vms` is zero.
    pub fn with_options(model: &FeatureModel, num_vms: usize, opts: &CheckOptions) -> MultiModel {
        assert!(
            num_vms > 0,
            "a hypervisor configuration needs at least one VM"
        );
        let mut ctx = Context::with_options(&CheckOptions {
            trace: None,
            ..opts.clone()
        });
        let mut vm_vars = Vec::with_capacity(num_vms);
        for k in 0..num_vms {
            let vars = model.encode(&mut ctx, &format!("vm{}:", k + 1));
            // Every VM is a complete product of the model.
            ctx.assert(vars[&model.root()]);
            vm_vars.push(vars);
        }

        // Platform model: union of the VM selections.
        let mut platform_vars = HashMap::new();
        for id in model.ids() {
            let p = ctx.bool_var(&format!("platform:{}", model.name(id)));
            let any_parts: Vec<TermId> = vm_vars.iter().map(|v| v[&id]).collect();
            let any = ctx.or(any_parts);
            let def = ctx.iff(p, any);
            ctx.assert(def);
            platform_vars.insert(id, p);
        }

        // Exclusive resources: a child of a marked group belongs to at
        // most one VM.
        for id in model.ids() {
            let f = model.feature(id);
            if !f.cross_vm_exclusive {
                continue;
            }
            for &child in &f.children {
                for k in 0..num_vms {
                    for l in (k + 1)..num_vms {
                        let both = ctx.and([vm_vars[k][&child], vm_vars[l][&child]]);
                        let not_both = ctx.not(both);
                        ctx.assert(not_both);
                    }
                }
            }
        }

        if let Some(trace) = &opts.trace {
            ctx.set_trace(trace.clone());
        }
        MultiModel {
            model: model.clone(),
            num_vms,
            ctx,
            vm_vars,
            platform_vars,
            ordered: model.ids().collect(),
            certify: opts.certify,
            lex: Lex::default(),
        }
    }

    /// The number of VMs.
    pub fn num_vms(&self) -> usize {
        self.num_vms
    }

    /// Solver counters accumulated by this model's SMT context.
    pub fn solver_stats(&self) -> llhsc_sat::SolverStats {
        self.ctx.solver_stats()
    }

    /// Whether any allocation exists at all.
    ///
    /// This check stays on the unbroken formula, with no symmetry
    /// breaking: with one VM more than exclusive CPUs it is the
    /// pigeonhole formula, which CDCL refutes only in time exponential
    /// in the CPU count.
    pub fn check(&mut self) -> bool {
        self.ctx.check() == CheckResult::Sat
    }

    /// The largest VM count `1..=limit` for which the model still admits
    /// an allocation, or `None` if even one VM is impossible.
    ///
    /// Rather than bit-blasting a fresh `m`-VM model per probe, this
    /// grows a single context monotonically: step `m` adds only VM
    /// `m`'s encoding plus its exclusivity constraints against the
    /// earlier VMs, so the solver keeps its clause database (and learnt
    /// clauses) across probes. The platform-union definitions of
    /// [`MultiModel::new`] are omitted — they define fresh variables by
    /// equivalence and never affect satisfiability. The VMs select
    /// nothing, so all of them are interchangeable: step `m` also
    /// asserts VM `m − 1` ≥lex VM `m`, unguarded, because only the
    /// existence of an allocation matters here.
    pub fn max_vms(model: &FeatureModel, limit: usize) -> Option<usize> {
        let mut ctx = Context::new();
        let mut lex = Lex::default();
        // One row of variables per VM, indexed by feature id.
        let mut rows: Vec<Vec<TermId>> = Vec::new();
        let mut best = None;
        for m in 1..=limit {
            let vars = model.encode(&mut ctx, &format!("vm{m}:"));
            ctx.assert(vars[&model.root()]);
            let row: Vec<TermId> = model.ids().map(|id| vars[&id]).collect();
            for id in model.ids() {
                let f = model.feature(id);
                if !f.cross_vm_exclusive {
                    continue;
                }
                for &child in &f.children {
                    for prev in &rows {
                        let both = ctx.and([prev[child.index()], row[child.index()]]);
                        let not_both = ctx.not(both);
                        ctx.assert(not_both);
                    }
                }
            }
            if let Some(prev) = rows.last() {
                lex.assert_geq(&mut ctx, None, prev, &row);
            }
            rows.push(row);
            if ctx.check() == CheckResult::Sat {
                best = Some(m);
            } else {
                break;
            }
        }
        best
    }

    fn exact_assumptions(&mut self, selections: &[Vec<FeatureId>]) -> Vec<TermId> {
        let mut assumptions = Vec::new();
        for (k, sel) in selections.iter().enumerate() {
            let set: BTreeSet<FeatureId> = sel.iter().copied().collect();
            for id in &self.ordered {
                let v = self.vm_vars[k][id];
                if set.contains(id) {
                    assumptions.push(v);
                } else {
                    assumptions.push(self.ctx.not(v));
                }
            }
        }
        assumptions
    }

    /// Validates one exact selection per VM (jointly, under the
    /// exclusive-resource constraints).
    ///
    /// # Errors
    ///
    /// [`AllocationError::WrongVmCount`] if `selections.len()` differs
    /// from the VM count; [`AllocationError::Unsatisfiable`] with the
    /// conflicting decisions otherwise.
    pub fn validate(
        &mut self,
        selections: &[Vec<FeatureId>],
    ) -> Result<Partitioning, AllocationError> {
        if selections.len() != self.num_vms {
            return Err(AllocationError::WrongVmCount {
                expected: self.num_vms,
                got: selections.len(),
            });
        }
        let assumptions = self.exact_assumptions(selections);
        match self.ctx.check_assuming(&assumptions) {
            CheckResult::Sat => Ok(self.extract_partitioning()),
            CheckResult::Unsat => {
                let core = self.ctx.unsat_core().to_vec();
                Err(self.unsat_error(&core, &[]))
            }
        }
    }

    /// Completes partial per-VM selections into a full allocation (the
    /// automatic CPU assignment of §IV-A), or reports the conflict.
    ///
    /// The completion is *greedily minimal*: beyond the requested
    /// features, each VM only receives features the constraints force
    /// on it (e.g. the CPU its veth requires) — optional extras stay
    /// deselected.
    ///
    /// # Errors
    ///
    /// Same as [`MultiModel::validate`].
    pub fn complete(
        &mut self,
        partial: &[Vec<FeatureId>],
    ) -> Result<Partitioning, AllocationError> {
        if partial.len() != self.num_vms {
            return Err(AllocationError::WrongVmCount {
                expected: self.num_vms,
                got: partial.len(),
            });
        }
        let mut assumptions = Vec::new();
        for (k, sel) in partial.iter().enumerate() {
            for id in sel {
                assumptions.push(self.vm_vars[k][id]);
            }
        }
        // Only the feasibility probe runs under the lex-leader order.
        // Right after it the guard is retired by a unit clause, as
        // `Context::pop` retires a scope, so the minimisation and the
        // final model run on the unbroken formula. Under `certify` the
        // probe stays unbroken: symmetry-breaking clauses are not RUP
        // consequences of the formula, so a DRAT proof cannot justify
        // them.
        let groups = if self.certify {
            Vec::new()
        } else {
            interchangeable(partial)
        };
        let guard = self.break_symmetry(&groups);
        let probe: Vec<TermId> = assumptions.iter().copied().chain(guard).collect();
        let verdict = self.ctx.check_assuming(&probe);
        let core: Vec<TermId> = self
            .ctx
            .unsat_core()
            .iter()
            .copied()
            .filter(|&t| Some(t) != guard)
            .collect();
        if let Some(guard) = guard {
            let retired = self.ctx.not(guard);
            self.ctx.assert_clause(&[retired]);
        }
        if verdict == CheckResult::Unsat {
            return Err(self.unsat_error(&core, &groups));
        }
        // Greedy minimisation: deselect everything not requested or
        // forced, per VM, in deterministic order.
        for (k, requested_list) in partial.iter().enumerate() {
            let requested: BTreeSet<FeatureId> = requested_list.iter().copied().collect();
            for id in self.ordered.clone() {
                if requested.contains(&id) {
                    continue;
                }
                let neg = self.ctx.not(self.vm_vars[k][&id]);
                let mut attempt = assumptions.clone();
                attempt.push(neg);
                if self.ctx.check_assuming(&attempt) == CheckResult::Sat {
                    assumptions = attempt;
                }
            }
        }
        match self.ctx.check_assuming(&assumptions) {
            CheckResult::Sat => Ok(self.extract_partitioning()),
            CheckResult::Unsat => unreachable!("minimised assumptions were satisfiable"),
        }
    }

    /// Counts the distinct allocations (projected on all VM variables).
    pub fn count_allocations(&mut self) -> usize {
        let over: Vec<TermId> = self
            .vm_vars
            .iter()
            .flat_map(|vars| self.ordered.iter().map(|id| vars[id]))
            .collect();
        self.ctx.count_models(&over)
    }

    fn extract_partitioning(&self) -> Partitioning {
        let m = self.ctx.model().expect("called after Sat");
        let mut vms = Vec::with_capacity(self.num_vms);
        for vars in &self.vm_vars {
            let mut p = Product::new();
            for id in &self.ordered {
                if m.eval_bool(vars[id]) == Some(true) {
                    p.insert(*id);
                }
            }
            vms.push(p);
        }
        let mut platform = Product::new();
        for id in &self.ordered {
            if m.eval_bool(self.platform_vars[id]) == Some(true) {
                platform.insert(*id);
            }
        }
        Partitioning { vms, platform }
    }

    /// One VM's variables in feature order: the vector that lex-leader
    /// chains compare.
    fn row(&self, k: usize) -> Vec<TermId> {
        self.ordered.iter().map(|id| self.vm_vars[k][id]).collect()
    }

    /// Asserts `row_a ≥lex row_b` for each consecutive pair `(a, b)` of
    /// each group, all behind one fresh guard, and returns the guard
    /// (`None` when there is no group).
    fn break_symmetry(&mut self, groups: &[Vec<usize>]) -> Option<TermId> {
        if groups.is_empty() {
            return None;
        }
        let guard = self.lex.fresh(&mut self.ctx, Lex::GUARD);
        for group in groups {
            for pair in group.windows(2) {
                let (a, b) = (self.row(pair[0]), self.row(pair[1]));
                self.lex.assert_geq(&mut self.ctx, Some(guard), &a, &b);
            }
        }
        Some(guard)
    }

    /// The error for an `Unsat` answer whose assumption core is `core`.
    ///
    /// A core found under the lex-leader order of `groups` need not be
    /// a core of the unbroken formula, so it is closed under each group
    /// first: `vmK:f` in the core brings in `vmJ:f` for every `J` in
    /// `K`'s group. The closed core is invariant under the group, so any
    /// allocation that satisfied it could be permuted into lex-leader
    /// order; none can, so it is a core of the unbroken formula too.
    fn unsat_error(&self, core: &[TermId], groups: &[Vec<usize>]) -> AllocationError {
        let mut out = Vec::new();
        for k in 0..self.num_vms {
            let peers = groups
                .iter()
                .find(|g| g.contains(&k))
                .map_or(std::slice::from_ref(&k), Vec::as_slice);
            for id in &self.ordered {
                if peers.iter().any(|&j| core.contains(&self.vm_vars[j][id])) {
                    out.push(format!("vm{}:{}", k + 1, self.model.name(*id)));
                }
            }
        }
        if out.is_empty() {
            if core.is_empty() {
                return AllocationError::Infeasible { vms: self.num_vms };
            }
            // Only negated decisions of `validate` are left: display
            // them as raw terms.
            out.extend(core.iter().map(|&t| self.ctx.display(t)));
        }
        AllocationError::Unsatisfiable(out)
    }

    /// Names of the features in a product (sorted).
    pub fn product_names(&self, product: &Product) -> Vec<String> {
        product
            .iter()
            .map(|id| self.model.name(*id).to_string())
            .collect()
    }
}

/// The groups of two or more VMs that request the same selection (as a
/// set), each in VM order. Swapping two VMs of a group maps the
/// assumptions of [`MultiModel::complete`] onto themselves.
fn interchangeable(partial: &[Vec<FeatureId>]) -> Vec<Vec<usize>> {
    let mut by_selection: BTreeMap<BTreeSet<FeatureId>, Vec<usize>> = BTreeMap::new();
    for (k, sel) in partial.iter().enumerate() {
        by_selection
            .entry(sel.iter().copied().collect())
            .or_default()
            .push(k);
    }
    by_selection
        .into_values()
        .filter(|group| group.len() > 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::tests::custom_sbc;
    use crate::model::GroupKind;

    fn names_of(fm: &FeatureModel, names: &[&str]) -> Vec<FeatureId> {
        names.iter().map(|n| fm.by_name(n).unwrap()).collect()
    }

    #[test]
    fn two_vms_allocate() {
        let fm = custom_sbc();
        let mut mm = MultiModel::new(&fm, 2);
        assert!(mm.check());
    }

    #[test]
    fn fig1b_and_fig1c_together_valid() {
        let fm = custom_sbc();
        let mut mm = MultiModel::new(&fm, 2);
        let vm1 = names_of(
            &fm,
            &[
                "CustomSBC",
                "memory",
                "cpus",
                "cpu@0",
                "uarts",
                "uart@20000000",
                "uart@30000000",
                "vEthernet",
                "veth0",
            ],
        );
        let vm2 = names_of(
            &fm,
            &[
                "CustomSBC",
                "memory",
                "cpus",
                "cpu@1",
                "uarts",
                "uart@20000000",
                "uart@30000000",
                "vEthernet",
                "veth1",
            ],
        );
        let part = mm.validate(&[vm1, vm2]).expect("valid partitioning");
        // Platform is the union: contains both CPUs and both veths.
        let platform_names = mm.product_names(&part.platform);
        assert!(platform_names.contains(&"cpu@0".to_string()));
        assert!(platform_names.contains(&"cpu@1".to_string()));
        assert!(platform_names.contains(&"veth0".to_string()));
        assert!(platform_names.contains(&"veth1".to_string()));
    }

    #[test]
    fn same_cpu_in_two_vms_rejected() {
        // "in static-partitioning it is unreasonable to allocate the
        // same CPU to different VMs" (§IV-A).
        let fm = custom_sbc();
        let mut mm = MultiModel::new(&fm, 2);
        let vm = names_of(
            &fm,
            &[
                "CustomSBC",
                "memory",
                "cpus",
                "cpu@0",
                "uarts",
                "uart@20000000",
            ],
        );
        let err = mm.validate(&[vm.clone(), vm]).unwrap_err();
        match err {
            AllocationError::Unsatisfiable(core) => {
                assert!(
                    core.iter().any(|c| c.contains("cpu@0")),
                    "core should mention the doubly-allocated CPU: {core:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn max_vms_is_two() {
        // "the maximum number of VMs is two (m = 2)" (§IV-A).
        let fm = custom_sbc();
        assert_eq!(MultiModel::max_vms(&fm, 8), Some(2));
    }

    #[test]
    fn ablation_without_exclusivity_double_allocation_passes() {
        // Turning the §IV-A constraint off shows it is load-bearing.
        let mut fm = custom_sbc();
        let cpus = fm.by_name("cpus").unwrap();
        fm.set_cross_vm_exclusive(cpus, false);
        let mut mm = MultiModel::new(&fm, 2);
        let vm = names_of(
            &fm,
            &[
                "CustomSBC",
                "memory",
                "cpus",
                "cpu@0",
                "uarts",
                "uart@20000000",
            ],
        );
        assert!(mm.validate(&[vm.clone(), vm]).is_ok());
        // And more than two VMs become possible.
        assert_eq!(MultiModel::max_vms(&fm, 4), Some(4));
    }

    #[test]
    fn automatic_cpu_assignment() {
        // Selecting only veth0 / veth1 forces the CPU assignment.
        let fm = custom_sbc();
        let mut mm = MultiModel::new(&fm, 2);
        let v0 = names_of(&fm, &["veth0"]);
        let v1 = names_of(&fm, &["veth1"]);
        let part = mm.complete(&[v0, v1]).expect("completable");
        let vm1 = mm.product_names(&part.vms[0]);
        let vm2 = mm.product_names(&part.vms[1]);
        assert!(vm1.contains(&"cpu@0".to_string()), "{vm1:?}");
        assert!(vm2.contains(&"cpu@1".to_string()), "{vm2:?}");
    }

    #[test]
    fn conflicting_completion_fails() {
        let fm = custom_sbc();
        let mut mm = MultiModel::new(&fm, 2);
        let v0 = names_of(&fm, &["veth0"]);
        // Both VMs demand veth0 -> both need cpu@0 -> exclusivity fails.
        let err = mm.complete(&[v0.clone(), v0]).unwrap_err();
        assert!(matches!(err, AllocationError::Unsatisfiable(_)));
    }

    #[test]
    fn wrong_vm_count_reported() {
        let fm = custom_sbc();
        let mut mm = MultiModel::new(&fm, 2);
        let err = mm.validate(&[Vec::new()]).unwrap_err();
        assert_eq!(
            err,
            AllocationError::WrongVmCount {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("expected selections for 2"));
    }

    #[test]
    fn platform_union_definition() {
        // A tiny model: one optional feature; vm1 selects it, vm2 not.
        let mut fm = FeatureModel::new("R");
        let r = fm.root();
        let a = fm.add_optional(r, "a");
        let mut mm = MultiModel::new(&fm, 2);
        let part = mm.validate(&[vec![r, a], vec![r]]).expect("valid");
        assert!(part.platform.contains(&a));
        assert!(part.vms[0].contains(&a));
        assert!(!part.vms[1].contains(&a));
    }

    #[test]
    fn count_allocations_small_model() {
        // One exclusive XOR pair, two VMs: vm1 takes x & vm2 takes y, or
        // the reverse.
        let mut fm = FeatureModel::new("R");
        let r = fm.root();
        let g = fm.add_mandatory(r, "g");
        fm.set_group(g, GroupKind::Xor);
        fm.set_cross_vm_exclusive(g, true);
        fm.add_optional(g, "x");
        fm.add_optional(g, "y");
        let mut mm = MultiModel::new(&fm, 2);
        assert_eq!(mm.count_allocations(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn zero_vms_panics() {
        let fm = custom_sbc();
        let _ = MultiModel::new(&fm, 0);
    }

    /// One mandatory `memory` and one exclusive XOR group of `n` CPUs.
    fn exclusive_cpus(n: usize) -> FeatureModel {
        let mut fm = FeatureModel::new("P");
        let root = fm.root();
        fm.add_mandatory(root, "memory");
        let cpus = fm.add_mandatory(root, "cpus");
        fm.set_group(cpus, GroupKind::Xor);
        fm.set_cross_vm_exclusive(cpus, true);
        for i in 0..n {
            fm.add_optional(cpus, &format!("cpu@{i}"));
        }
        fm
    }

    #[test]
    fn an_empty_core_renders_as_a_sentence() {
        // Three VMs on two CPUs: no requested feature is in the core,
        // because no choice of features would place them.
        let fm = exclusive_cpus(2);
        let memory = names_of(&fm, &["memory"]);
        let err = MultiModel::new(&fm, 3)
            .complete(&[memory.clone(), memory.clone(), memory])
            .unwrap_err();
        assert_eq!(err, AllocationError::Infeasible { vms: 3 });
        assert_eq!(
            err.to_string(),
            "no allocation of 3 VMs exists, whatever they select"
        );
        // The probe's guard may be in the solver's core; it never
        // reaches the error.
        assert!(!format!("{err:?}").contains(Lex::GUARD));
        assert_eq!(
            AllocationError::Infeasible { vms: 1 }.to_string(),
            "no allocation of 1 VM exists, whatever it selects"
        );
    }

    #[test]
    fn a_core_is_closed_under_interchangeable_vms() {
        // Three VMs request `x`, which needs one of two exclusive CPUs.
        // Under the lex-leader order a VM that holds a CPU forces every
        // earlier VM of its group to hold one too, so the ordered probe
        // blames only vm2:x and vm3:x. That is no core of the formula
        // itself (two VMs with `x` fit); closed under the group, it is.
        let mut fm = FeatureModel::new("R");
        let root = fm.root();
        let cpus = fm.add_optional(root, "cpus");
        fm.set_group(cpus, GroupKind::Xor);
        fm.set_cross_vm_exclusive(cpus, true);
        fm.add_optional(cpus, "cpu@0");
        fm.add_optional(cpus, "cpu@1");
        let x = fm.add_optional(root, "x");
        fm.requires(x, cpus);
        let err = MultiModel::new(&fm, 3)
            .complete(&[vec![x], vec![x], vec![x]])
            .unwrap_err();
        assert_eq!(
            err,
            AllocationError::Unsatisfiable(vec!["vm1:x".into(), "vm2:x".into(), "vm3:x".into()])
        );
    }

    #[test]
    fn completing_twice_gives_the_same_answer() {
        // Each call mints its own guard: a reused one would already be
        // retired, and the second probe would be refuted outright.
        let fm = exclusive_cpus(3);
        let memory = names_of(&fm, &["memory"]);
        let mut fits = MultiModel::new(&fm, 3);
        let selections = [memory.clone(), memory.clone(), memory.clone()];
        let first = fits.complete(&selections).expect("three VMs fit");
        assert_eq!(fits.complete(&selections), Ok(first));
        let mut overfull = MultiModel::new(&fm, 4);
        let selections = [memory.clone(), memory.clone(), memory.clone(), memory];
        let first = overfull.complete(&selections).unwrap_err();
        assert_eq!(overfull.complete(&selections), Err(first));
    }

    #[test]
    fn certified_probes_stay_unbroken() {
        // DRAT cannot justify the ordering, so under `certify` the probe
        // refutes the pigeonhole by search, one permutation at a time.
        let fm = exclusive_cpus(6);
        let memory = names_of(&fm, &["memory"]);
        let selections = vec![memory; 7];
        let certify = CheckOptions {
            certify: true,
            ..CheckOptions::default()
        };
        let mut ordered = MultiModel::new(&fm, 7);
        let mut certified = MultiModel::with_options(&fm, 7, &certify);
        assert_eq!(
            ordered.complete(&selections),
            certified.complete(&selections)
        );
        let (fast, slow) = (ordered.solver_stats(), certified.solver_stats());
        assert!(slow.conflicts > 10 * fast.conflicts, "{fast:?} vs {slow:?}");
    }

    #[test]
    fn a_large_pigeonhole_is_refuted_without_search() {
        // Unbroken, 13 VMs on 12 CPUs takes CDCL longer than any test
        // budget; ordered, the refutation is a handful of conflicts.
        let fm = exclusive_cpus(12);
        assert_eq!(MultiModel::max_vms(&fm, 16), Some(12));
        let memory = names_of(&fm, &["memory"]);
        let mut mm = MultiModel::new(&fm, 13);
        let err = mm.complete(&vec![memory; 13]).unwrap_err();
        assert_eq!(err, AllocationError::Infeasible { vms: 13 });
        assert!(
            mm.solver_stats().conflicts < 1_000,
            "{:?}",
            mm.solver_stats()
        );
    }
}
