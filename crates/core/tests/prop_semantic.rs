//! Property tests: the SMT-based overlap/coverage checkers against
//! naive interval arithmetic.

mod support;

use llhsc::{RegionRef, SemanticChecker};
use llhsc_dts::cells::RegEntry;
use proptest::prelude::*;

fn arb_regions(max: usize) -> impl Strategy<Value = Vec<RegionRef>> {
    prop::collection::vec((0u64..0x1_0000, 0u64..0x400, any::<bool>()), 1..=max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (base, size, virt))| RegionRef {
                path: format!("/dev{i}"),
                index: 0,
                region: RegEntry::new(u128::from(base), u128::from(size)),
                virtual_device: virt,
            })
            .collect()
    })
}

/// Region soups for the prefilter/exhaustive cross-check: bases are
/// drawn from a low band, a dense band (to force overlaps), the top of
/// the 64-bit address space, a band straddling 2^65 (3-cell addresses
/// past the 65-bit terms of 2-cell boards) or the top of the 128-bit
/// space (4-cell regions that wrap), and sizes include zero.
fn arb_extreme_regions(max: usize) -> impl Strategy<Value = Vec<RegionRef>> {
    let base = prop_oneof![
        (0u64..0x1_0000).prop_map(u128::from).boxed(),
        (0x8000u64..0x9000).prop_map(u128::from).boxed(),
        (0xffff_ffff_ffff_f000u64..=0xffff_ffff_ffff_ffff)
            .prop_map(u128::from)
            .boxed(),
        (0u64..0x400)
            .prop_map(|o| (1u128 << 65) - 0x200 + u128::from(o))
            .boxed(),
        (0u64..0x400)
            .prop_map(|o| u128::MAX - 0x3ff + u128::from(o))
            .boxed(),
    ];
    prop::collection::vec((base, 0u64..0x400, any::<bool>()), 1..=max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (base, size, virt))| RegionRef {
                path: format!("/dev{i}"),
                index: 0,
                region: RegEntry::new(base, u128::from(size)),
                virtual_device: virt,
            })
            .collect()
    })
}

fn naive_overlaps(a: &RegionRef, b: &RegionRef) -> bool {
    a.virtual_device == b.virtual_device && a.region.overlaps(&b.region)
}

/// Collision identity without the witness (the two paths may pick
/// different — equally valid — witness addresses).
fn collision_keys(cs: &[llhsc::Collision]) -> Vec<(String, usize, String, usize)> {
    cs.iter()
        .map(|c| (c.a.path.clone(), c.a.index, c.b.path.clone(), c.b.index))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The solver finds exactly the pairs naive interval arithmetic
    /// finds (restricted to same-class pairs).
    #[test]
    fn collisions_match_interval_arithmetic(refs in arb_regions(6)) {
        let collisions = SemanticChecker::new().check_regions(&refs);
        let mut expected = Vec::new();
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                if naive_overlaps(&refs[i], &refs[j]) {
                    expected.push((refs[i].path.clone(), refs[j].path.clone()));
                }
            }
        }
        let mut got: Vec<(String, String)> = collisions
            .iter()
            .map(|c| (c.a.path.clone(), c.b.path.clone()))
            .collect();
        got.sort();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// The sweep-prefiltered checker reports exactly the same collision
    /// set as the paper's exhaustive pairwise encoding with core peeling,
    /// and both match interval arithmetic on [`RegEntry::overlaps`], on
    /// soups including zero-size regions, regions at the top of the
    /// 64-bit space, regions straddling 2^65 and regions that wrap past
    /// 2^128.
    #[test]
    fn prefiltered_matches_exhaustive(refs in arb_extreme_regions(8)) {
        let pre = SemanticChecker::new().check_regions(&refs);
        let ex = support::check_regions_exhaustive(&refs);
        prop_assert_eq!(collision_keys(&pre), collision_keys(&ex));
        let mut expected = Vec::new();
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                if naive_overlaps(&refs[i], &refs[j]) {
                    expected.push((refs[i].path.clone(), 0, refs[j].path.clone(), 0));
                }
            }
        }
        expected.sort();
        prop_assert_eq!(collision_keys(&pre), expected);
        // The checker's witness is the larger base; the oracle's is
        // read from a model. Both lie in the intersection.
        for c in &pre {
            prop_assert_eq!(c.witness, c.a.region.address.max(c.b.region.address));
        }
        for c in pre.iter().chain(ex.iter()) {
            prop_assert!(c.witness >= c.a.region.address);
            prop_assert!(c.witness < c.a.region.end());
            prop_assert!(c.witness >= c.b.region.address);
            prop_assert!(c.witness < c.b.region.end());
        }
    }

    /// The prefilter encodes exactly the overlapping pairs — never
    /// more — so clean soups cost the solver nothing.
    #[test]
    fn prefilter_encodes_only_real_overlaps(refs in arb_regions(8)) {
        let (collisions, stats) =
            SemanticChecker::new().check_regions_with_stats(&refs);
        prop_assert_eq!(stats.pairs_encoded, collisions.len());
        if collisions.is_empty() {
            prop_assert_eq!(stats.terms, 0);
            prop_assert_eq!(stats.solver.solves, 0);
        }
    }

    /// Every reported witness really lies in both regions.
    #[test]
    fn witnesses_are_sound(refs in arb_regions(6)) {
        for c in SemanticChecker::new().check_regions(&refs) {
            prop_assert!(c.witness >= c.a.region.address);
            prop_assert!(c.witness < c.a.region.end());
            prop_assert!(c.witness >= c.b.region.address);
            prop_assert!(c.witness < c.b.region.end());
        }
    }

    /// Coverage agrees with naive subset checking, and gap witnesses
    /// are sound (inside the inner region, outside all outer regions).
    #[test]
    fn coverage_matches_interval_arithmetic(
        inner in arb_regions(4),
        outer in arb_regions(4),
    ) {
        let mut checker = SemanticChecker::new();
        let gaps = checker.check_coverage(&inner, &outer);
        for r in &inner {
            if r.region.size == 0 {
                continue;
            }
            let covered = (r.region.address..r.region.end()).all(|x| {
                outer
                    .iter()
                    .any(|o| x >= o.region.address && x < o.region.end())
            });
            let reported = gaps.iter().any(|g| g.region.path == r.path);
            prop_assert_eq!(!covered, reported, "region {}", r.path);
        }
        for g in &gaps {
            prop_assert!(g.witness >= g.region.region.address);
            prop_assert!(g.witness < g.region.region.end());
            for o in &outer {
                prop_assert!(
                    g.witness < o.region.address || g.witness >= o.region.end(),
                    "witness {:#x} inside outer {}", g.witness, o.path
                );
            }
        }
    }
}
