//! Persistent solver sessions: assumption-guarded constraint slices.
//!
//! A [`SolverSession`] keeps one [`Context`] — and with it the bit-blast
//! cache and the CDCL solver's learnt clauses — alive across many
//! logically independent checks. Each group of constraints (one VM's
//! regions, one product's schema obligations, one device tree's
//! disjointness gates) is asserted once as a **slice**: every clause is
//! guarded by a slice-specific activation literal via
//! [`Context::assert_implied`], so the constraints are permanent but
//! only bind in checks that pass the guard as an assumption.
//!
//! Activation replaces `push`; *retraction is simply not passing the
//! guard* — no unit clause ever kills a slice, so a slice can be
//! re-activated arbitrarily often (warm daemon requests, repeated VM
//! checks) and the solver keeps everything it learnt about it. This
//! generalizes the assumption pattern `MultiModel::exact_assumptions`
//! already used for product selection to every checker in the pipeline.
//!
//! Slices are keyed by a caller-chosen 64-bit content key (see
//! [`slice_key`]); re-registering the same key returns the existing
//! guard and skips re-encoding, which the [`SessionStats`] counters
//! make observable.

use std::collections::{HashMap, HashSet};

use llhsc_sat::{Cnf, Lit, ProofStep};

use crate::context::{CertStats, CheckResult, Context, Model};
use crate::options::CheckOptions;
use crate::term::TermId;

/// Stable FNV-1a hash of arbitrary bytes, for deriving slice keys from
/// content. Deterministic across runs and platforms.
pub fn slice_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A registered constraint slice: its activation guard plus whether
/// this registration created it (fresh) or found it already encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    guard: TermId,
    fresh: bool,
}

impl Slice {
    /// The activation guard; pass it as an assumption to bind the
    /// slice's constraints in a check.
    pub fn guard(&self) -> TermId {
        self.guard
    }

    /// `true` the first time the key was registered: the caller should
    /// build and [`SolverSession::assert_in`] the slice's constraints.
    /// On reuse the constraints are already in the solver.
    pub fn is_fresh(&self) -> bool {
        self.fresh
    }
}

/// Reuse counters of a [`SolverSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Slices registered for the first time (constraints encoded).
    pub slices_created: u64,
    /// Slice registrations that found the key already encoded.
    pub slices_reused: u64,
    /// Guarded/root assertions that reached the solver.
    pub asserts_encoded: u64,
    /// Guarded/root assertions skipped because the identical
    /// (guard, term) pair was already asserted.
    pub asserts_reused: u64,
    /// Checks discharged against the shared context.
    pub checks: u64,
}

impl SessionStats {
    /// Field-wise sum, for aggregating across parallel sessions.
    pub fn merge(&mut self, other: &SessionStats) {
        self.slices_created += other.slices_created;
        self.slices_reused += other.slices_reused;
        self.asserts_encoded += other.asserts_encoded;
        self.asserts_reused += other.asserts_reused;
        self.checks += other.checks;
    }

    /// The work performed since `base` was snapshotted — counters only
    /// grow, so this attributes a shared session's totals to the check
    /// that ran in between.
    pub fn delta_since(&self, base: &SessionStats) -> SessionStats {
        SessionStats {
            slices_created: self.slices_created.saturating_sub(base.slices_created),
            slices_reused: self.slices_reused.saturating_sub(base.slices_reused),
            asserts_encoded: self.asserts_encoded.saturating_sub(base.asserts_encoded),
            asserts_reused: self.asserts_reused.saturating_sub(base.asserts_reused),
            checks: self.checks.saturating_sub(base.checks),
        }
    }
}

/// One persistent solving context shared by many assumption-guarded
/// checks. Each group of constraints is asserted once as a *slice*
/// guarded by its own activation literal; a check binds exactly the
/// slices whose guards it assumes, so retracting a slice is simply not
/// assuming its guard, and the solver keeps what it learnt about it.
#[derive(Debug, Default)]
pub struct SolverSession {
    ctx: Context,
    /// Content key → activation guard of the already-encoded slice.
    slices: HashMap<u64, TermId>,
    /// `(guard, term)` pairs already asserted, for idempotent replays.
    guarded: HashSet<(TermId, TermId)>,
    /// Unconditionally asserted terms, same idea.
    rooted: HashSet<TermId>,
    stats: SessionStats,
}

impl SolverSession {
    /// Creates an empty session around a fresh [`Context`].
    pub fn new() -> SolverSession {
        SolverSession::default()
    }

    /// Creates an empty session around a context built from `opts` (see
    /// [`Context::with_options`]): a `clause_log` session supports
    /// [`SolverSession::export_projected`], a `certify` session replays
    /// every `Unsat` verdict's DRAT proof before reporting it and
    /// exports the formula + proof pair via
    /// [`SolverSession::export_proof`].
    pub fn with_options(opts: &CheckOptions) -> SolverSession {
        SolverSession {
            ctx: Context::with_options(opts),
            ..SolverSession::default()
        }
    }

    /// Certification counters of the underlying context (zero unless
    /// the session was created with [`CheckOptions::certify`] set).
    pub fn cert_stats(&self) -> CertStats {
        self.ctx.cert_stats()
    }

    /// The accumulated formula and DRAT proof (see
    /// [`Context::export_proof`]); `None` for non-certifying sessions.
    pub fn export_proof(&self) -> Option<(Cnf, Vec<ProofStep>)> {
        self.ctx.export_proof()
    }

    /// Exports the session's formula as a standalone CNF restricted to
    /// the given slices: every activation guard in `active` is pinned
    /// true, so the exported formula holds exactly the constraints a
    /// [`SolverSession::check`] with those slices would see. `over`
    /// lists the Boolean terms defining the projection (see
    /// [`Context::export_cnf`]); the returned literals align with it.
    ///
    /// Returns `None` unless the session was created with
    /// [`CheckOptions::clause_log`] set.
    pub fn export_projected(
        &mut self,
        active: &[Slice],
        over: &[TermId],
    ) -> Option<(Cnf, Vec<Lit>)> {
        let guards: Vec<TermId> = active.iter().map(|s| s.guard).collect();
        self.ctx.export_cnf(over, &guards)
    }

    /// Imports a propositional CNF — typically a feature-model export
    /// from `llhsc_fm::Analyzer::export_cnf` — as a slice of this
    /// session: every CNF variable `v` becomes the Boolean term
    /// `bool_var_i(tag, v)` and every clause is asserted under the
    /// slice's activation guard, so the formula binds exactly in checks
    /// that activate the slice (the *family* constraint of lifted
    /// checking). Returns the slice plus the term of each `projection`
    /// literal, aligned with the input.
    ///
    /// Keyed like any slice: re-importing the same `key` skips the
    /// clause walk and only rebuilds the (interned, free) projection
    /// terms.
    pub fn import_cnf(
        &mut self,
        tag: &str,
        key: u64,
        cnf: &Cnf,
        projection: &[Lit],
    ) -> (Slice, Vec<TermId>) {
        let slice = self.slice(key);
        if slice.is_fresh() {
            for clause in cnf.clauses() {
                let mut lits = Vec::with_capacity(clause.len());
                for l in clause {
                    let v = self.ctx.bool_var_i(tag, l.var().index() as u64);
                    lits.push(if l.is_positive() { v } else { self.ctx.not(v) });
                }
                let c = self.ctx.or(lits);
                self.assert_in(slice, c);
            }
        }
        let proj = projection
            .iter()
            .map(|l| {
                let v = self.ctx.bool_var_i(tag, l.var().index() as u64);
                if l.is_positive() {
                    v
                } else {
                    self.ctx.not(v)
                }
            })
            .collect();
        (slice, proj)
    }

    /// The underlying context, for term building and model inspection.
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// Mutable access to the underlying context (term builders take
    /// `&mut self`). Callers should not `push`/`pop` or `assert`
    /// directly — that is what sessions replace.
    pub fn ctx_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Registers (or finds) the slice for a content key. Fresh slices
    /// get a dedicated activation variable; reused keys return the
    /// existing guard without touching the solver.
    pub fn slice(&mut self, key: u64) -> Slice {
        if let Some(&guard) = self.slices.get(&key) {
            self.stats.slices_reused += 1;
            return Slice {
                guard,
                fresh: false,
            };
        }
        let guard = self.ctx.bool_var_i("slice!act", key);
        self.slices.insert(key, guard);
        self.stats.slices_created += 1;
        Slice { guard, fresh: true }
    }

    /// Asserts `t` under a slice's guard (as `guard → t`, permanent).
    /// Idempotent: re-asserting the same pair is a no-op.
    pub fn assert_in(&mut self, slice: Slice, t: TermId) {
        if !self.guarded.insert((slice.guard, t)) {
            self.stats.asserts_reused += 1;
            return;
        }
        self.stats.asserts_encoded += 1;
        self.ctx.assert_implied(slice.guard, t);
    }

    /// Asserts `t` unconditionally (ground level), deduplicated.
    /// For constraints shared by every check in the session.
    pub fn assert_root(&mut self, t: TermId) {
        if !self.rooted.insert(t) {
            self.stats.asserts_reused += 1;
            return;
        }
        self.stats.asserts_encoded += 1;
        self.ctx.assert(t);
    }

    /// Checks satisfiability with the given slices activated, plus any
    /// extra assumption terms. Everything is retracted automatically
    /// afterwards — the session state only grows monotonically.
    pub fn check(&mut self, active: &[Slice], assumptions: &[TermId]) -> CheckResult {
        self.stats.checks += 1;
        let mut lits: Vec<TermId> = Vec::with_capacity(active.len() + assumptions.len());
        lits.extend(active.iter().map(|s| s.guard));
        lits.extend_from_slice(assumptions);
        self.ctx.check_assuming(&lits)
    }

    /// The model of the last `Sat` check, if any.
    pub fn model(&self) -> Option<Model<'_>> {
        self.ctx.model()
    }

    /// After an `Unsat` check, the assumption terms involved in the
    /// conflict (slice guards included).
    pub fn unsat_core(&self) -> &[TermId] {
        self.ctx.unsat_core()
    }

    /// Reuse counters of this session.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_activate_independently() {
        let mut s = SolverSession::new();
        let x = s.ctx_mut().bv_var("x", 8);
        let lo = s.ctx_mut().bv_const(10, 8);
        let hi = s.ctx_mut().bv_const(5, 8);
        let above = s.ctx_mut().bv_ugt(x, lo); // x > 10
        let below = s.ctx_mut().bv_ult(x, hi); // x < 5
        let a = s.slice(1);
        s.assert_in(a, above);
        let b = s.slice(2);
        s.assert_in(b, below);

        // Each slice alone is satisfiable; together they contradict.
        assert_eq!(s.check(&[a], &[]), CheckResult::Sat);
        assert!(s.model().unwrap().eval_bv(x).unwrap() > 10);
        assert_eq!(s.check(&[b], &[]), CheckResult::Sat);
        assert!(s.model().unwrap().eval_bv(x).unwrap() < 5);
        assert_eq!(s.check(&[a, b], &[]), CheckResult::Unsat);
        // Retraction is just not passing the guard: both still usable.
        assert_eq!(s.check(&[a], &[]), CheckResult::Sat);
        assert_eq!(s.check(&[], &[]), CheckResult::Sat);
    }

    #[test]
    fn slice_reuse_is_idempotent_and_counted() {
        let mut s = SolverSession::new();
        let p = s.ctx_mut().bool_var("p");
        let first = s.slice(42);
        assert!(first.is_fresh());
        s.assert_in(first, p);
        let again = s.slice(42);
        assert!(!again.is_fresh());
        assert_eq!(again.guard(), first.guard());
        // Replaying the assertion is a no-op.
        s.assert_in(again, p);
        let st = s.stats();
        assert_eq!(st.slices_created, 1);
        assert_eq!(st.slices_reused, 1);
        assert_eq!(st.asserts_encoded, 1);
        assert_eq!(st.asserts_reused, 1);
        let np = s.ctx_mut().not(p);
        assert_eq!(s.check(&[first], &[np]), CheckResult::Unsat);
        assert_eq!(s.stats().checks, 1);
    }

    #[test]
    fn unsat_core_contains_guilty_guard() {
        let mut s = SolverSession::new();
        let p = s.ctx_mut().bool_var("p");
        let np = s.ctx_mut().not(p);
        let a = s.slice(1);
        s.assert_in(a, p);
        let b = s.slice(2);
        s.assert_in(b, np);
        let c = s.slice(3); // irrelevant slice
        let q = s.ctx_mut().bool_var("q");
        s.assert_in(c, q);
        assert_eq!(s.check(&[a, b, c], &[]), CheckResult::Unsat);
        let core = s.unsat_core();
        assert!(core.contains(&a.guard()));
        assert!(core.contains(&b.guard()));
        assert!(!core.contains(&c.guard()));
    }

    #[test]
    fn certifying_session_proves_every_unsat_check() {
        use llhsc_sat::{check_drat, CheckMode};

        let mut s = SolverSession::with_options(&CheckOptions {
            certify: true,
            ..CheckOptions::default()
        });
        let x = s.ctx_mut().bv_var("x", 8);
        let lo = s.ctx_mut().bv_const(10, 8);
        let hi = s.ctx_mut().bv_const(5, 8);
        let above = s.ctx_mut().bv_ugt(x, lo); // x > 10
        let below = s.ctx_mut().bv_ult(x, hi); // x < 5
        let a = s.slice(1);
        s.assert_in(a, above);
        let b = s.slice(2);
        s.assert_in(b, below);
        assert_eq!(s.check(&[a], &[]), CheckResult::Sat);
        assert_eq!(s.check(&[a, b], &[]), CheckResult::Unsat);
        let cert = s.cert_stats();
        assert_eq!(cert.proofs, 1);
        assert!(cert.checked > 0);
        let (cnf, proof) = s.export_proof().expect("certifying session exports");
        assert!(check_drat(&cnf, &proof, CheckMode::Last).is_ok());
    }

    #[test]
    fn import_cnf_binds_only_when_slice_is_active() {
        use llhsc_sat::Var;

        // (a ∨ b) ∧ (¬a ∨ b): any model has b = true.
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause([Lit::neg(a), Lit::pos(b)]);

        let mut s = SolverSession::new();
        let (slice, proj) = s.import_cnf("fm", 7, &cnf, &[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(proj.len(), 2);
        let nb = s.ctx_mut().not(proj[1]);
        // Inactive slice: ¬b alone is satisfiable.
        assert_eq!(s.check(&[], &[nb]), CheckResult::Sat);
        // Active slice forces b.
        assert_eq!(s.check(&[slice], &[nb]), CheckResult::Unsat);
        assert_eq!(s.check(&[slice], &[]), CheckResult::Sat);
        let m_b = s.model().unwrap().eval_bool(proj[1]);
        assert_eq!(m_b, Some(true));

        // Re-import with the same key: no new clause work, projection
        // terms identical (negative literals map to negated terms).
        let before = s.stats();
        let (again, proj2) = s.import_cnf("fm", 7, &cnf, &[Lit::neg(a)]);
        assert!(!again.is_fresh());
        assert_eq!(s.stats().asserts_encoded, before.asserts_encoded);
        let pa = s
            .ctx_mut()
            .bool_var_i("fm", Var::from_index(0).index() as u64);
        let npa = s.ctx_mut().not(pa);
        assert_eq!(proj2[0], npa);
    }

    #[test]
    fn root_asserts_bind_every_check() {
        let mut s = SolverSession::new();
        let p = s.ctx_mut().bool_var("p");
        s.assert_root(p);
        s.assert_root(p);
        assert_eq!(s.stats().asserts_encoded, 1);
        let np = s.ctx_mut().not(p);
        let a = s.slice(9);
        s.assert_in(a, np);
        assert_eq!(s.check(&[], &[]), CheckResult::Sat);
        assert_eq!(s.check(&[a], &[]), CheckResult::Unsat);
    }

    #[test]
    fn session_matches_fresh_context_verdicts() {
        // The same queries against a shared session and against fresh
        // contexts agree; the session encodes strictly less.
        let queries: &[(u128, u128, bool)] =
            &[(3, 7, true), (9, 7, false), (0, 1, true), (7, 7, false)];
        let mut s = SolverSession::new();
        for &(v, limit, sat) in queries {
            let x = s.ctx_mut().bv_var("x", 16);
            let l = s.ctx_mut().bv_const(limit, 16);
            let bound = s.ctx_mut().bv_ult(x, l);
            s.assert_root(bound);
            let cv = s.ctx_mut().bv_const(v, 16);
            let eq = s.ctx_mut().eq(x, cv);
            let got = s.check(&[], &[eq]) == CheckResult::Sat;
            assert_eq!(got, sat, "session verdict for x={v} < {limit}");

            let mut fresh = Context::new();
            let fx = fresh.bv_var("x", 16);
            let fl = fresh.bv_const(limit, 16);
            let fb = fresh.bv_ult(fx, fl);
            fresh.assert(fb);
            let fv = fresh.bv_const(v, 16);
            let feq = fresh.eq(fx, fv);
            let fgot = fresh.check_assuming(&[feq]) == CheckResult::Sat;
            assert_eq!(got, fgot);
        }
        // The bound only re-encodes when the limit changes: 2 distinct
        // bound terms (`x < 7`, `x < 1`) across 4 queries.
        assert_eq!(s.stats().asserts_encoded, 2);
        assert_eq!(s.stats().asserts_reused, 2);
    }

    #[test]
    fn export_projected_respects_active_slices() {
        use llhsc_sat::ModelIter;

        let mut s = SolverSession::with_options(&CheckOptions {
            clause_log: true,
            ..CheckOptions::default()
        });
        let p = s.ctx_mut().bool_var("p");
        let q = s.ctx_mut().bool_var("q");
        let pq = s.ctx_mut().or([p, q]);
        let np = s.ctx_mut().not(p);
        let a = s.slice(1);
        s.assert_in(a, pq); // p ∨ q
        let b = s.slice(2);
        s.assert_in(b, np); // ¬p

        // With only slice a active: 3 models of (p, q).
        let (cnf, proj) = s.export_projected(&[a], &[p, q]).expect("logged session");
        let vars: Vec<_> = proj.iter().map(|l| l.var()).collect();
        let mut solver = cnf.to_solver();
        let bc = ModelIter::projected(&mut solver, vars).count_up_to(8);
        assert_eq!(bc.models, 3);
        assert!(bc.is_exact());

        // Both slices: ¬p forces p false, leaving q true — 1 model.
        let (cnf, proj) = s
            .export_projected(&[a, b], &[p, q])
            .expect("logged session");
        let vars: Vec<_> = proj.iter().map(|l| l.var()).collect();
        let mut solver = cnf.to_solver();
        let bc = ModelIter::projected(&mut solver, vars).count_up_to(8);
        assert_eq!(bc.models, 1);

        // The session itself is untouched by the exports.
        assert_eq!(s.check(&[a], &[]), CheckResult::Sat);
    }

    #[test]
    fn export_requires_a_logged_context() {
        let mut s = SolverSession::new();
        let p = s.ctx_mut().bool_var("p");
        assert!(s.export_projected(&[], &[p]).is_none());
    }

    #[test]
    fn slice_key_is_stable() {
        assert_eq!(slice_key(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(slice_key(b"llhsc"), slice_key(b"llhsc"));
        assert_ne!(slice_key(b"vm0"), slice_key(b"vm1"));
    }
}
