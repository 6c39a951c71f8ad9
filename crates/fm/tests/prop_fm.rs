//! Property tests: SAT-based product enumeration, product counting and
//! §IV-A resource allocation against brute-force semantics of random
//! feature models.

use std::collections::BTreeSet;

use llhsc_fm::{AllocationError, Analyzer, FeatureId, FeatureModel, GroupKind, MultiModel};
use llhsc_smt::CheckOptions;
use proptest::prelude::*;

fn arb_group() -> impl Strategy<Value = GroupKind> {
    prop_oneof![
        Just(GroupKind::And),
        Just(GroupKind::Or),
        Just(GroupKind::Xor),
        (0u32..3, 0u32..3).prop_map(|(a, b)| GroupKind::Card {
            min: a.min(b),
            max: a.max(b),
        }),
    ]
}

fn arb_model() -> impl Strategy<Value = (FeatureModel, Vec<FeatureId>)> {
    (
        prop::collection::vec((any::<u16>(), any::<bool>(), arb_group()), 1..8),
        prop::collection::vec((0u16..8, 0u16..8), 0..3), // requires pairs
        prop::collection::vec((0u16..8, 0u16..8), 0..2), // excludes pairs
    )
        .prop_map(|(specs, reqs, excls)| {
            let mut fm = FeatureModel::new("root");
            let mut ids = vec![fm.root()];
            for (i, (praw, optional, group)) in specs.iter().enumerate() {
                let parent = ids[*praw as usize % ids.len()];
                let id = if *optional {
                    fm.add_optional(parent, &format!("f{i}"))
                } else {
                    fm.add_mandatory(parent, &format!("f{i}"))
                };
                fm.set_group(id, *group);
                ids.push(id);
            }
            for (a, b) in reqs {
                let (a, b) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
                if a != b {
                    fm.requires(a, b);
                }
            }
            for (a, b) in excls {
                let (a, b) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
                if a != b && a != fm.root() && b != fm.root() {
                    fm.excludes(a, b);
                }
            }
            (fm, ids)
        })
}

/// [`arb_model`] plus one `xor exclusive` group `g` under the root with
/// 1–4 optional children, which the VMs of a configuration compete for.
/// When `g` is optional, one random feature may require it.
fn arb_partitioned_model() -> impl Strategy<Value = (FeatureModel, Vec<FeatureId>)> {
    (arb_model(), any::<bool>(), 1usize..5, 0u16..8).prop_map(
        |((mut fm, mut ids), optional, children, needs_g)| {
            let root = fm.root();
            let g = if optional {
                fm.add_optional(root, "g")
            } else {
                fm.add_mandatory(root, "g")
            };
            fm.set_group(g, GroupKind::Xor);
            fm.set_cross_vm_exclusive(g, true);
            if let Some(&f) = ids.get(usize::from(needs_g)) {
                if f != root {
                    fm.requires(f, g);
                }
            }
            ids.push(g);
            for i in 0..children {
                ids.push(fm.add_optional(g, &format!("c{i}")));
            }
            (fm, ids)
        },
    )
}

/// Direct (non-SAT) semantics: checks a candidate selection against the
/// feature-model rules.
fn valid_by_rules(fm: &FeatureModel, sel: &BTreeSet<FeatureId>) -> bool {
    if !sel.contains(&fm.root()) {
        return false;
    }
    for id in fm.ids() {
        let f = fm.feature(id);
        if let Some(p) = f.parent {
            if sel.contains(&id) && !sel.contains(&p) {
                return false;
            }
        }
        if f.children.is_empty() {
            continue;
        }
        let chosen = f.children.iter().filter(|c| sel.contains(c)).count();
        match f.group {
            GroupKind::And => {
                if sel.contains(&id) {
                    for c in &f.children {
                        if !fm.feature(*c).optional && !sel.contains(c) {
                            return false;
                        }
                    }
                } else {
                    // children => parent is covered by the loop above;
                    // mandatory-child iff also forbids child-selected-
                    // without-parent (covered) and parent-deselected
                    // means mandatory children deselected (covered too).
                }
            }
            GroupKind::Or => {
                if sel.contains(&id) && chosen == 0 {
                    return false;
                }
            }
            GroupKind::Xor => {
                if sel.contains(&id) && chosen != 1 {
                    return false;
                }
                if !sel.contains(&id) && chosen > 0 {
                    return false;
                }
            }
            GroupKind::Card { min, max } => {
                if sel.contains(&id) && !(min as usize..=max as usize).contains(&chosen) {
                    return false;
                }
            }
        }
        // Mandatory And-children must also drag the parent in via iff.
        if matches!(f.group, GroupKind::And) {
            for c in &f.children {
                if !fm.feature(*c).optional && sel.contains(c) && !sel.contains(&id) {
                    return false;
                }
            }
        }
    }
    for c in fm.constraints() {
        match c {
            llhsc_fm::CrossConstraint::Requires(a, b) => {
                if sel.contains(a) && !sel.contains(b) {
                    return false;
                }
            }
            llhsc_fm::CrossConstraint::Excludes(a, b) => {
                if sel.contains(a) && sel.contains(b) {
                    return false;
                }
            }
            llhsc_fm::CrossConstraint::Rule(_) => {}
        }
    }
    true
}

fn brute_force_products(fm: &FeatureModel) -> BTreeSet<BTreeSet<FeatureId>> {
    let ids: Vec<FeatureId> = fm.ids().collect();
    let n = ids.len();
    assert!(n <= 20, "brute force capped");
    let mut out = BTreeSet::new();
    for mask in 0u32..(1 << n) {
        let sel: BTreeSet<FeatureId> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| (mask >> i) & 1 == 1)
            .map(|(_, id)| *id)
            .collect();
        if valid_by_rules(fm, &sel) {
            out.insert(sel);
        }
    }
    out
}

/// Brute-force §IV-A: whether every VM can be given a product that
/// contains its selection, with each child of an exclusive group taken
/// by at most one VM.
fn allocatable(
    fm: &FeatureModel,
    products: &BTreeSet<BTreeSet<FeatureId>>,
    selections: &[BTreeSet<FeatureId>],
) -> bool {
    let exclusive: BTreeSet<FeatureId> = fm
        .ids()
        .filter(|&id| fm.feature(id).cross_vm_exclusive)
        .flat_map(|id| fm.feature(id).children.iter().copied())
        .collect();
    // What each VM can hold of the exclusive features.
    let options: Vec<BTreeSet<BTreeSet<FeatureId>>> = selections
        .iter()
        .map(|sel| {
            products
                .iter()
                .filter(|p| sel.is_subset(p))
                .map(|p| p.intersection(&exclusive).copied().collect())
                .collect()
        })
        .collect();
    fn place(options: &[BTreeSet<BTreeSet<FeatureId>>], taken: &BTreeSet<FeatureId>) -> bool {
        let Some((first, rest)) = options.split_first() else {
            return true;
        };
        first.iter().any(|held| {
            held.is_disjoint(taken) && place(rest, &taken.union(held).copied().collect())
        })
    }
    place(&options, &BTreeSet::new())
}

/// The selections named by an `Unsatisfiable` core (`vmK:feature`).
fn core_selections(fm: &FeatureModel, core: &[String], vms: usize) -> Vec<BTreeSet<FeatureId>> {
    let mut out = vec![BTreeSet::new(); vms];
    for decision in core {
        let (vm, name) = decision.split_once(':').expect("vmK:feature");
        let k: usize = vm
            .strip_prefix("vm")
            .and_then(|k| k.parse().ok())
            .expect("vmK");
        out[k - 1].insert(fm.by_name(name).expect("core names a feature"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SAT enumeration agrees with brute-force rule semantics.
    #[test]
    fn enumeration_matches_rules((fm, _ids) in arb_model()) {
        let expected = brute_force_products(&fm);
        let mut an = Analyzer::new(&fm);
        let got: BTreeSet<BTreeSet<FeatureId>> =
            an.products().into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// The budgeted product count is exact and equals the number of
    /// brute-force products.
    #[test]
    fn count_matches_rules((fm, _ids) in arb_model()) {
        let expected = brute_force_products(&fm).len() as u64;
        let c = Analyzer::new(&fm).count_products_budgeted(1 << 16);
        prop_assert!(c.exact && !c.approximate);
        prop_assert_eq!(c.models, expected);
    }

    /// `is_valid` agrees with rule semantics on arbitrary selections.
    #[test]
    fn validity_matches_rules((fm, ids) in arb_model(), mask in any::<u32>()) {
        let sel: BTreeSet<FeatureId> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| (mask >> (i % 32)) & 1 == 1)
            .map(|(_, id)| *id)
            .collect();
        let expected = valid_by_rules(&fm, &sel);
        let mut an = Analyzer::new(&fm);
        let got = an.is_valid(&sel.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(got, expected);
    }

    /// Dead features really never appear; core features always do.
    #[test]
    fn dead_and_core_consistent((fm, _ids) in arb_model()) {
        let products = brute_force_products(&fm);
        let mut an = Analyzer::new(&fm);
        let dead: BTreeSet<FeatureId> = an.dead_features().into_iter().collect();
        let core: BTreeSet<FeatureId> = an.core_features().into_iter().collect();
        for p in &products {
            for d in &dead {
                prop_assert!(!p.contains(d));
            }
            for c in &core {
                prop_assert!(p.contains(c));
            }
        }
        if products.is_empty() {
            // Void model: everything is dead and (vacuously) core.
            prop_assert_eq!(dead.len(), fm.len());
        }
    }
}

proptest! {
    // More cases than above: an unclosed core of the ordered probe (see
    // `MultiModel::complete`) first shows up past case 64.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `complete` (lex-leader probe over VMs with equal selections)
    /// agrees with brute force on feasibility; an accepted allocation is
    /// the one the unbroken, certified probe picks; a reported core is
    /// infeasible on its own; and `max_vms` finds the brute-force
    /// maximum.
    #[test]
    fn allocation_matches_brute_force(
        (fm, ids) in arb_partitioned_model(),
        pool in prop::collection::vec((any::<u32>(), any::<u32>()), 2..3),
        picks in prop::collection::vec(any::<bool>(), 1..6),
    ) {
        let products = brute_force_products(&fm);
        // Sparse selections (each feature with probability 1/4) from a
        // pool of two, so that VMs with equal selections form groups.
        let pool: Vec<Vec<FeatureId>> = pool
            .iter()
            .map(|(a, b)| {
                ids.iter()
                    .enumerate()
                    .filter(|(i, _)| (a & b) >> (i % 32) & 1 == 1)
                    .map(|(_, id)| *id)
                    .collect()
            })
            .collect();
        let selections: Vec<Vec<FeatureId>> =
            picks.iter().map(|&p| pool[usize::from(p)].clone()).collect();
        let sets: Vec<BTreeSet<FeatureId>> =
            selections.iter().map(|s| s.iter().copied().collect()).collect();
        let vms = selections.len();

        let got = MultiModel::new(&fm, vms).complete(&selections);
        prop_assert_eq!(got.is_ok(), allocatable(&fm, &products, &sets));
        let certify = CheckOptions { certify: true, ..CheckOptions::default() };
        let certified = MultiModel::with_options(&fm, vms, &certify).complete(&selections);
        match got {
            Ok(allocation) => {
                for (vm, sel) in allocation.vms.iter().zip(&sets) {
                    prop_assert!(products.contains(vm) && sel.is_subset(vm));
                }
                prop_assert_eq!(Ok(allocation), certified);
            }
            Err(AllocationError::Unsatisfiable(core)) => {
                prop_assert!(certified.is_err());
                let blamed = core_selections(&fm, &core, vms);
                prop_assert!(!allocatable(&fm, &products, &blamed), "{:?} is no core", core);
            }
            Err(AllocationError::Infeasible { vms: n }) => {
                prop_assert!(certified.is_err());
                prop_assert_eq!(n, vms);
                prop_assert!(!allocatable(&fm, &products, &vec![BTreeSet::new(); vms]));
            }
            Err(other) => panic!("unexpected {other:?}"),
        }

        let max = (1..=6)
            .take_while(|&m| allocatable(&fm, &products, &vec![BTreeSet::new(); m]))
            .last();
        prop_assert_eq!(MultiModel::max_vms(&fm, 6), max);
    }
}
