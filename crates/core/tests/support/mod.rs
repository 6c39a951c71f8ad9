//! The paper's formula (7), encoded as stated: the differential oracle
//! the production semantic checker is tested against.
//!
//! Every same-class pair of non-empty regions gets one marker-guarded
//! disjointness constraint, and one slice binds every region that
//! takes part. The unsat core is peeled until the remaining markers
//! are satisfiable, and each pair a core names gets a witness address
//! read back from a solver model. None of this is shared with
//! `SemanticChecker::check_regions_with_stats`, which prefilters with
//! the sweep and confirms each candidate with one pair-local
//! refutation, so the two are different methods for the same verdict.

use llhsc::{Collision, RegionRef};
use llhsc_smt::{slice_key, CheckResult, Slice, SolverSession, TermId};

/// Every colliding pair of `refs` under the exhaustive encoding of
/// formula (7), in the checker's report order. Witnesses may differ
/// from the checker's: any address inside both regions is valid.
pub fn check_regions_exhaustive(refs: &[RegionRef]) -> Vec<Collision> {
    let mut pairs = Vec::new();
    for i in 0..refs.len() {
        for j in (i + 1)..refs.len() {
            // Physical regions must be mutually disjoint; so must
            // virtual regions. A virtual region may alias a physical
            // one (it is backed by that RAM). Zero-sized regions
            // contain no address, so formula (7)'s ∃x can never land
            // inside one.
            if refs[i].virtual_device == refs[j].virtual_device
                && refs[i].region.size != 0
                && refs[j].region.size != 0
            {
                pairs.push((i, j));
            }
        }
    }
    let mut participates = vec![false; refs.len()];
    for &(i, j) in &pairs {
        participates[i] = true;
        participates[j] = true;
    }
    // The checker's width rule: 65 bits (64-bit addresses plus a carry
    // bit) unless some participating region's saturated end needs more.
    let width = refs
        .iter()
        .zip(&participates)
        .filter(|(_, p)| **p)
        .map(|(r, _)| u128::BITS - r.region.end().leading_zeros())
        .fold(65, u32::max);

    // One slice binds `base_i`/`end_i` of every participating region.
    let mut session = SolverSession::new();
    let slice = session.slice(slice_key(b"formula7"));
    let mut terms: Vec<Option<(TermId, TermId)>> = vec![None; refs.len()];
    for (i, r) in refs.iter().enumerate() {
        if !participates[i] {
            continue;
        }
        let ctx = session.ctx_mut();
        let base = ctx.bv_var_i("base", i as u64, width);
        let end = ctx.bv_var_i("end", i as u64, width);
        let bc = ctx.bv_const(r.region.address, width);
        let ec = ctx.bv_const(r.region.end(), width);
        let eb = ctx.eq(base, bc);
        let ee = ctx.eq(end, ec);
        session.assert_in(slice, eb);
        session.assert_in(slice, ee);
        terms[i] = Some((base, end));
    }
    let bound = |i: usize| terms[i].expect("paired region is bound");

    // One marker-guarded disjointness constraint per pair.
    let mut markers: Vec<(TermId, usize, usize)> = Vec::new();
    for &(i, j) in &pairs {
        let ((bi, ei), (bj, ej)) = (bound(i), bound(j));
        let ctx = session.ctx_mut();
        let m = ctx.bool_var_i("disjoint", ((i as u64) << 32) | j as u64);
        // overlap = bi < ej && bj < ei  (non-empty regions)
        let o1 = ctx.bv_ult(bi, ej);
        let o2 = ctx.bv_ult(bj, ei);
        let overlap = ctx.and([o1, o2]);
        let disjoint = ctx.not(overlap);
        let guarded = ctx.implies(m, disjoint);
        session.assert_root(guarded);
        markers.push((m, i, j));
    }

    // Peel the unsat core until the remaining markers are satisfiable.
    let mut collisions = Vec::new();
    let mut active = markers;
    while !active.is_empty() {
        let assumptions: Vec<TermId> = active.iter().map(|(m, _, _)| *m).collect();
        if session.check(&[slice], &assumptions) == CheckResult::Sat {
            break;
        }
        let core: Vec<TermId> = session.unsat_core().to_vec();
        let (bad, rest): (Vec<_>, Vec<_>) =
            active.into_iter().partition(|(m, _, _)| core.contains(m));
        if bad.is_empty() {
            break;
        }
        for (_, i, j) in &bad {
            collisions.push(Collision {
                a: refs[*i].clone(),
                b: refs[*j].clone(),
                witness: witness_address(&mut session, slice, bound(*i), bound(*j), width),
            });
        }
        active = rest;
    }
    collisions.sort_by(|x, y| {
        (&x.a.path, x.a.index, &x.b.path, x.b.index)
            .cmp(&(&y.a.path, y.a.index, &y.b.path, y.b.index))
    });
    collisions
}

/// Asks the solver for an address inside both regions, the paper's
/// counterexample extraction ("a counter example of consistency is
/// produced by Z3"), and reads it back from the model. `u128::MAX`
/// when there is none, which cannot happen for a pair a core named.
fn witness_address(
    session: &mut SolverSession,
    slice: Slice,
    (ba, ea): (TermId, TermId),
    (bb, eb): (TermId, TermId),
    width: u32,
) -> u128 {
    let ctx = session.ctx_mut();
    let x = ctx.bv_var("witness_x", width);
    let c1 = ctx.bv_ule(ba, x);
    let c2 = ctx.bv_ult(x, ea);
    let c3 = ctx.bv_ule(bb, x);
    let c4 = ctx.bv_ult(x, eb);
    match session.check(&[slice], &[c1, c2, c3, c4]) {
        CheckResult::Sat => session
            .model()
            .and_then(|m| m.eval_bv(x))
            .expect("witness variable has a value"),
        CheckResult::Unsat => u128::MAX,
    }
}
