//! Sweep-line candidate-pair pruning for the semantic checker.
//!
//! The paper's formula (7) is quadratic: one disjointness constraint
//! per region pair. Real boards have hundreds of `reg` entries and
//! almost all pairs are trivially disjoint, so encoding them wastes
//! solver work. This module computes, in `O(n log n + k)` for `k`
//! actual overlaps, exactly the pairs whose constraint would be
//! violated — the classic interval sweep: sort by base address, walk
//! left to right, and compare each region only against the *active
//! set* of regions whose end lies beyond the current base.
//!
//! The candidate predicate is [`RegEntry::overlaps`]: a non-empty pair
//! `(i, j)` overlaps iff `bᵢ < eⱼ ∧ bⱼ < eᵢ`, with `e` the saturated
//! [`RegEntry::end`]. A 4-cell region whose `b + s` wraps past 2^128
//! therefore ends at `u128::MAX` here and in the solver's bindings
//! alike, and stays in the active set for every region that starts
//! inside it. Zero-sized regions contain no address, so formula (7)'s
//! `∃x` can never pick one inside them — they are never paired.
//! Regions in different virtuality classes are never paired either,
//! exactly as [`SemanticChecker::check_regions_with_stats`] skips them.
//!
//! The sweep only *prunes*: every surviving pair is still encoded and
//! confirmed by the solver, whose refutation also proves the witness
//! address — the counterexample semantics of the paper are unchanged.
//! On a clean board the sweep leaves nothing to encode and the solver
//! is never invoked.
//!
//! [`SemanticChecker::check_regions_with_stats`]: crate::SemanticChecker::check_regions_with_stats
//! [`RegEntry::overlaps`]: llhsc_dts::cells::RegEntry::overlaps
//! [`RegEntry::end`]: llhsc_dts::cells::RegEntry::end

use crate::semantic::RegionRef;

/// Returns every pair of regions whose address ranges overlap (and
/// which share a virtuality class), as `(i, j)` index pairs with
/// `i < j`, sorted.
///
/// The result is exactly the set of pairs for which the paper's
/// pairwise disjointness constraint is unsatisfiable; feeding only
/// these to the solver is a pure optimisation.
pub fn candidate_pairs(refs: &[RegionRef]) -> Vec<(usize, usize)> {
    // Sort the non-empty region indices by base address (ties broken
    // by index so the sweep is deterministic for equal bases).
    let mut order: Vec<usize> = (0..refs.len())
        .filter(|&i| refs[i].region.size != 0)
        .collect();
    order.sort_by_key(|&i| (refs[i].region.address, i));

    let mut pairs = Vec::new();
    // Active set: regions already begun whose end may still exceed a
    // later base. Stored as indices into `refs`.
    let mut active: Vec<usize> = Vec::new();
    for &cur in &order {
        let (b_cur, e_cur) = span(&refs[cur]);
        // Regions ending at or before the current base can overlap
        // neither this region nor any later one (bases only grow).
        active.retain(|&o| span(&refs[o]).1 > b_cur);
        for &o in &active {
            // `b_cur < e_o` holds by the retain above; check the rest
            // of the SMT overlap predicate.
            if span(&refs[o]).0 < e_cur && refs[o].virtual_device == refs[cur].virtual_device {
                pairs.push((o.min(cur), o.max(cur)));
            }
        }
        active.push(cur);
    }
    pairs.sort_unstable();
    pairs
}

/// `[base, end)` with the end saturated at `u128::MAX`.
fn span(r: &RegionRef) -> (u128, u128) {
    (r.region.address, r.region.end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc_dts::cells::RegEntry;

    fn region(address: u128, size: u128) -> RegionRef {
        RegionRef {
            path: format!("/dev@{address:x}").into(),
            index: 0,
            region: RegEntry { address, size },
            virtual_device: false,
        }
    }

    /// The predicate the SMT encoding decides, for cross-checking.
    fn smt_overlap(a: &RegionRef, b: &RegionRef) -> bool {
        a.virtual_device == b.virtual_device
            && a.region.size != 0
            && b.region.size != 0
            && a.region.address < b.region.end()
            && b.region.address < a.region.end()
    }

    fn exhaustive(refs: &[RegionRef]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                if smt_overlap(&refs[i], &refs[j]) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    #[test]
    fn disjoint_regions_produce_no_pairs() {
        let refs: Vec<RegionRef> = (0..100).map(|i| region(0x1000 * i, 0x800)).collect();
        assert!(candidate_pairs(&refs).is_empty());
    }

    #[test]
    fn adjacent_regions_do_not_pair() {
        let refs = vec![region(0x1000, 0x1000), region(0x2000, 0x1000)];
        assert!(candidate_pairs(&refs).is_empty());
    }

    #[test]
    fn one_byte_overlap_pairs() {
        let refs = vec![region(0x1000, 0x1001), region(0x2000, 0x1000)];
        assert_eq!(candidate_pairs(&refs), vec![(0, 1)]);
    }

    #[test]
    fn containment_pairs() {
        let refs = vec![region(0x0, 0x1_0000), region(0x4000, 0x100)];
        assert_eq!(candidate_pairs(&refs), vec![(0, 1)]);
    }

    #[test]
    fn identical_bases_pair() {
        let refs = vec![region(0x9000, 0x100), region(0x9000, 0x40)];
        assert_eq!(candidate_pairs(&refs), vec![(0, 1)]);
    }

    #[test]
    fn zero_size_regions_never_pair() {
        // A zero-size region contains no address, so formula (7)'s ∃x
        // cannot land inside it — even strictly inside another region.
        let inside = vec![region(0x1000, 0x1000), region(0x1800, 0)];
        assert_eq!(candidate_pairs(&inside), exhaustive(&inside));
        assert!(candidate_pairs(&inside).is_empty());

        let at_base = vec![region(0x1000, 0x1000), region(0x1000, 0)];
        assert_eq!(candidate_pairs(&at_base), exhaustive(&at_base));
        assert!(candidate_pairs(&at_base).is_empty());
    }

    #[test]
    fn top_of_address_space_no_overflow() {
        // base + size = 2^64 exceeds u64 but not the 65-bit headroom;
        // the sweep must not wrap (the SMT encoding does not).
        let refs = vec![region(0xffff_ffff_ffff_f000, 0x1000), region(0x0, 0x1000)];
        assert!(candidate_pairs(&refs).is_empty());
    }

    #[test]
    fn wrapping_region_stays_active() {
        // 4-cell addresses: `a`'s base + size wraps past 2^128. Its end
        // saturates at u128::MAX, so it neither overflows nor leaves the
        // active set before `b`, which starts inside it.
        let refs = vec![
            region(u128::MAX - 0xfff, 0x2000),
            region(u128::MAX - 0x7ff, 0x100),
        ];
        assert!(refs[0].region.wraps());
        assert_eq!(candidate_pairs(&refs), vec![(0, 1)]);
        assert_eq!(candidate_pairs(&refs), exhaustive(&refs));
    }

    #[test]
    fn virtuality_classes_never_pair() {
        let mut a = region(0x1000, 0x1000);
        a.virtual_device = true;
        let b = region(0x1000, 0x1000);
        assert!(candidate_pairs(&[a.clone(), b.clone()]).is_empty());
        let mut c = region(0x1400, 0x100);
        c.virtual_device = true;
        // Virtual-virtual overlaps still pair.
        assert_eq!(candidate_pairs(&[a, b, c]), vec![(0, 2)]);
    }

    #[test]
    fn matches_exhaustive_on_dense_soup() {
        // Deterministic pseudo-random soup with heavy overlap.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let refs: Vec<RegionRef> = (0..64)
            .map(|i| {
                let mut r = region(u128::from(next() % 0x4000), u128::from(next() % 0x800));
                r.path = format!("/soup@{i}").into();
                r.virtual_device = next() % 4 == 0;
                r
            })
            .collect();
        assert_eq!(candidate_pairs(&refs), exhaustive(&refs));
    }
}
