//! The headline property of the sweep prefilter: collision-free
//! boards cost the solver nothing, regardless of region count.

mod support;

use llhsc::{DevicePath, RegionRef, SemanticChecker};
use llhsc_dts::cells::RegEntry;

fn board(n: u128) -> Vec<RegionRef> {
    (0..n)
        .map(|i| RegionRef {
            path: format!("/soc/dev@{i}").into(),
            index: 0,
            region: RegEntry::new(0x1000_0000 + i * 0x1_0000, 0x1000),
            virtual_device: false,
        })
        .collect()
}

#[test]
fn thousand_region_clean_board_encodes_nothing() {
    let refs = board(1000);
    let (collisions, stats) = SemanticChecker::new().check_regions_with_stats(&refs);
    assert!(collisions.is_empty());
    assert_eq!(stats.regions, 1000);
    assert_eq!(stats.pairs_considered, 1000 * 999 / 2);
    // The sweep proves every pair disjoint: no constraint is encoded,
    // no term is built, the solver is never invoked.
    assert_eq!(stats.pairs_encoded, 0);
    assert_eq!(stats.terms, 0);
    assert_eq!(stats.solver.solves, 0);
    assert_eq!(stats.solver.clauses.problem, 0);
}

#[test]
fn single_collision_encodes_single_pair() {
    let mut refs = board(1000);
    // Shift one region half-way into its neighbour.
    refs[500].region = RegEntry::new(refs[499].region.address + 0x800, 0x1000);
    let (collisions, stats) = SemanticChecker::new().check_regions_with_stats(&refs);
    assert_eq!(collisions.len(), 1);
    assert_eq!(stats.pairs_encoded, 1);
    assert!(stats.terms > 0);
    assert!(stats.solver.solves > 0);
    // The witness is confirmed by the solver, not the sweep.
    let c = &collisions[0];
    assert!(c.witness >= c.a.region.address && c.witness < c.a.region.end());
    assert!(c.witness >= c.b.region.address && c.witness < c.b.region.end());
}

#[test]
fn prefiltered_collisions_match_exhaustive_at_scale() {
    let mut refs = board(64);
    // Inject a handful of overlaps.
    refs[10].region = RegEntry::new(refs[9].region.address + 0x100, 0x2000);
    refs[40].region = RegEntry::new(refs[41].region.address, 0x1000);
    refs[63].region = RegEntry::new(refs[0].region.address, 0x80000);
    let pre = SemanticChecker::new().check_regions_with_stats(&refs).0;
    let ex = support::check_regions_exhaustive(&refs);
    let key = |cs: &[llhsc::Collision]| -> Vec<(DevicePath, usize, DevicePath, usize)> {
        cs.iter()
            .map(|c| (c.a.path.clone(), c.a.index, c.b.path.clone(), c.b.index))
            .collect()
    };
    assert_eq!(key(&pre), key(&ex));
    assert!(!pre.is_empty());
}
