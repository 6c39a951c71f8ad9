//! Property tests for assumption-based solver sessions (the tentpole
//! equivalence guarantee): re-solving against one shared bit-blasted
//! context — slices activated by assumptions, learnt clauses kept —
//! must be observationally identical to solving each query in a fresh
//! context.

use llhsc::{DevicePath, RegionRef, SemanticChecker};
use llhsc_dts::cells::RegEntry;
use llhsc_smt::{slice_key, CheckResult, Context, SolverSession};
use proptest::prelude::*;

fn arb_board(max: usize) -> impl Strategy<Value = Vec<RegionRef>> {
    prop::collection::vec((0u64..0x1_0000, 0u64..0x400, any::<bool>()), 1..=max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (base, size, virt))| RegionRef {
                path: format!("/dev{i}").into(),
                index: 0,
                region: RegEntry::new(u128::from(base), u128::from(size)),
                virtual_device: virt,
            })
            .collect()
    })
}

/// Full collision identity, witnesses included: the session path must
/// reproduce the fresh path bit for bit, not just pair for pair.
fn keys(cs: &[llhsc::Collision]) -> Vec<(DevicePath, DevicePath, u128)> {
    cs.iter()
        .map(|c| (c.a.path.clone(), c.b.path.clone(), c.witness))
        .collect()
}

/// A random CNF over `vars` Boolean variables: clause = disjunction of
/// signed literals, indices into the shared variable pool.
fn arb_cnf(vars: u64, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<(u64, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((0..vars, any::<bool>()), 1..=3),
        1..=max_clauses,
    )
}

/// Encodes one CNF into `ctx` (fresh variables per `tag`) and returns
/// the clause conjunction terms.
fn encode_cnf(ctx: &mut Context, tag: u64, cnf: &[Vec<(u64, bool)>]) -> Vec<llhsc_smt::TermId> {
    cnf.iter()
        .map(|clause| {
            let lits: Vec<_> = clause
                .iter()
                .map(|&(v, pos)| {
                    let var = ctx.bool_var(&format!("cnf{tag}:x{v}"));
                    if pos {
                        var
                    } else {
                        ctx.not(var)
                    }
                })
                .collect();
            ctx.or(lits)
        })
        .collect()
}

/// Fresh-context verdict of one CNF.
fn fresh_verdict(tag: u64, cnf: &[Vec<(u64, bool)>]) -> CheckResult {
    let mut ctx = Context::new();
    for t in encode_cnf(&mut ctx, tag, cnf) {
        ctx.assert(t);
    }
    ctx.check()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One semantic checker reused across the VMs of a multi-VM board
    /// reports, per VM, exactly what a fresh checker reports —
    /// including the solver-confirmed witness addresses — and keeps
    /// doing so when earlier VMs are re-checked after later ones
    /// (assumption retraction + slice replay).
    #[test]
    fn session_checker_matches_fresh_on_multi_vm_boards(
        boards in prop::collection::vec(arb_board(5), 1..=3)
    ) {
        let expected: Vec<_> = boards
            .iter()
            .map(|b| keys(&SemanticChecker::new().check_regions_with_stats(b).0))
            .collect();

        let mut shared = SemanticChecker::new();
        let first_pass: Vec<_> = boards
            .iter()
            .map(|b| keys(&shared.check_regions_with_stats(b).0))
            .collect();
        prop_assert_eq!(&first_pass, &expected);

        // Replay in reverse order: earlier slices re-activate after
        // later ones were encoded and checked in between.
        let replay: Vec<_> = boards
            .iter()
            .rev()
            .map(|b| keys(&shared.check_regions_with_stats(b).0))
            .collect();
        let mut expected_rev = expected.clone();
        expected_rev.reverse();
        prop_assert_eq!(&replay, &expected_rev);
    }

    /// Assumption-guarded CNF slices in one shared session are
    /// SAT/UNSAT-equivalent to fresh-context solves — on the first
    /// activation, after interleaved checks of other slices (pops),
    /// and on cache-hit replays of an already-encoded slice.
    #[test]
    fn session_cnf_verdicts_match_fresh(
        cnfs in prop::collection::vec(arb_cnf(4, 6), 1..=4)
    ) {
        let fresh: Vec<CheckResult> = cnfs
            .iter()
            .enumerate()
            .map(|(tag, cnf)| fresh_verdict(tag as u64, cnf))
            .collect();

        let mut session = SolverSession::new();
        let mut slices = Vec::new();
        for (tag, cnf) in cnfs.iter().enumerate() {
            let slice = session.slice(slice_key(format!("cnf{tag}").as_bytes()));
            for t in encode_cnf(session.ctx_mut(), tag as u64, cnf) {
                session.assert_in(slice, t);
            }
            slices.push(slice);
        }
        // First activation, in order.
        for (i, slice) in slices.iter().enumerate() {
            prop_assert_eq!(session.check(&[*slice], &[]), fresh[i]);
        }
        // Interleaved replays in reverse: every check pops the previous
        // slice's assumptions and re-activates an earlier slice whose
        // clauses (and any learnt clauses) are already in the solver.
        for (i, slice) in slices.iter().enumerate().rev() {
            prop_assert_eq!(session.check(&[*slice], &[]), fresh[i]);
        }
        // Cache-hit replay: re-registering the same content key must
        // reuse the slice and re-asserting must be idempotent, with
        // verdicts unchanged.
        let before = session.stats();
        for (tag, cnf) in cnfs.iter().enumerate() {
            let slice = session.slice(slice_key(format!("cnf{tag}").as_bytes()));
            for t in encode_cnf(session.ctx_mut(), tag as u64, cnf) {
                session.assert_in(slice, t);
            }
            prop_assert_eq!(session.check(&[slice], &[]), fresh[tag]);
        }
        let delta = session.stats().delta_since(&before);
        prop_assert_eq!(delta.slices_created, 0);
        prop_assert_eq!(delta.slices_reused, cnfs.len() as u64);
        prop_assert_eq!(delta.asserts_encoded, 0);
    }
}
