//! The incremental solving context.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use llhsc_obs::{SpanId, TraceCtx};
use llhsc_sat::{
    check_drat, CheckMode, Cnf, DratOutcome, Lit, ProofStep, SolveResult, Solver, SolverStats,
};

use crate::bitblast::{eval_in_model, Blaster, EvalValue, STR_WIDTH};
use crate::options::CheckOptions;
use crate::term::{mask, Sort, TermData, TermId, TermPool};

/// Outcome of a [`Context::check`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckResult {
    /// The asserted constraints are satisfiable;
    /// [`Context::model`] yields a witness.
    Sat,
    /// The asserted constraints (plus assumptions, if any) are
    /// unsatisfiable; [`Context::unsat_core`] names the guilty
    /// assumptions.
    Unsat,
}

/// Certification counters of a proof-recording context
/// ([`CheckOptions::certify`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertStats {
    /// Unsat verdicts certified — each one replayed through the in-tree
    /// DRAT checker before being reported.
    pub proofs: u64,
    /// DRAT steps currently recorded (the proof log is cumulative across
    /// solves, so this is a snapshot, not a sum of deltas).
    pub steps: u64,
    /// Lemmas RUP-verified across all certifications.
    pub checked: u64,
}

impl CertStats {
    /// Accumulates counters from another context's certification work.
    pub fn merge(&mut self, other: &CertStats) {
        self.proofs += other.proofs;
        self.steps += other.steps;
        self.checked += other.checked;
    }
}

/// An incremental SMT context: build terms, assert them, check, inspect
/// models — mirroring how the paper drives Z3 ("constraints can be added
/// incrementally to the same solver instance", §VI).
///
/// Scopes created by [`Context::push`] are discharged by
/// [`Context::pop`]; assertions made inside a scope are retracted with
/// it. Internally this uses activation literals, so the underlying SAT
/// solver keeps its learnt clauses across scopes.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Context {
    pool: TermPool,
    solver: Solver,
    blaster: Blaster,
    /// Activation literal per open scope.
    scopes: Vec<Lit>,
    /// Model snapshot from the last Sat check.
    last_model: Option<Vec<bool>>,
    /// Maps assumption literals of the last `check_assuming` back to terms.
    assumption_lits: HashMap<Lit, TermId>,
    /// Core of the last Unsat `check_assuming`.
    last_core: Vec<TermId>,
    /// When set, every `check_assuming` records a "solve" span carrying
    /// the per-call solver-counter delta.
    trace: Option<TraceCtx>,
    /// Counter snapshot taken when the trace was attached and refreshed
    /// after every traced solve (and whenever trailing work is flushed
    /// by [`Context::solver_stats`]): the next span's delta baseline.
    /// A `Cell` so the flush can run from `&self` accessors.
    trace_base: Cell<SolverStats>,
    /// The most recent traced solve span. Solver work that happens
    /// after it (e.g. the unit clause a [`Context::pop`] adds to retract
    /// a scope) is folded into this span's counters when the stats are
    /// next read, keeping span sums equal to the totals.
    last_solve: Cell<Option<SpanId>>,
    /// When true, every `Unsat` answer is replayed through the in-tree
    /// DRAT checker before being reported.
    certify: bool,
    /// Counters of the certification work done so far.
    cert: CertStats,
}

impl Default for Context {
    fn default() -> Context {
        Context::new()
    }
}

impl Context {
    /// Creates an empty context with default options.
    pub fn new() -> Context {
        Context::with_options(&CheckOptions::default())
    }

    /// Creates an empty context configured by `opts`: the solver
    /// configuration, clause logging (for [`Context::export_cnf`]),
    /// certification (every `Unsat` answer replayed through
    /// [`llhsc_sat::check_drat`] before being reported; a proof that
    /// does not verify panics), the progress sink and the trace parent
    /// (see [`Context::set_trace`]).
    pub fn with_options(opts: &CheckOptions) -> Context {
        let mut solver = Solver::with_config(opts.solver.clone());
        if opts.clause_log || opts.certify {
            solver.enable_clause_log();
        }
        if opts.certify {
            solver.enable_proof();
        }
        if let Some(sink) = &opts.progress {
            solver.set_progress(Arc::clone(sink));
        }
        Context {
            pool: TermPool::new(),
            trace_base: Cell::new(solver.stats()),
            solver,
            blaster: Blaster::new(),
            scopes: Vec::new(),
            last_model: None,
            assumption_lits: HashMap::new(),
            last_core: Vec::new(),
            trace: opts.trace.clone(),
            last_solve: Cell::new(None),
            certify: opts.certify,
            cert: CertStats::default(),
        }
    }

    /// Exports the bit-blasted formula as a standalone [`Cnf`] plus the
    /// projection literals encoding `over`, for the counting/sampling
    /// layer (`llhsc-count`).
    ///
    /// The export reproduces the context's current assertion state:
    /// clauses belonging to open scopes stay guarded by their
    /// activation literal, and each open scope's activation literal is
    /// pinned true by a unit clause — exactly the assumption set a
    /// [`Context::check`] would use. `guards` names additional Boolean
    /// terms (e.g. a [`crate::SolverSession`] slice's activation
    /// guards) to pin true the same way, which is how projected
    /// analytics run over a single slice of a shared session. Terms in
    /// `over` that appear in no assertion are force-encoded so the
    /// projection is always complete.
    ///
    /// Returns `None` unless the context was created with
    /// [`CheckOptions::clause_log`] (or `certify`) set.
    ///
    /// # Panics
    ///
    /// Panics if any term in `over` or `guards` is not Boolean.
    pub fn export_cnf(&mut self, over: &[TermId], guards: &[TermId]) -> Option<(Cnf, Vec<Lit>)> {
        for &t in over {
            self.expect_bool(t, "export_cnf");
        }
        for &t in guards {
            self.expect_bool(t, "export_cnf");
        }
        let projection: Vec<Lit> = over
            .iter()
            .map(|&t| self.blaster.bool_lit(&self.pool, &mut self.solver, t))
            .collect();
        let guard_lits: Vec<Lit> = guards
            .iter()
            .map(|&t| self.blaster.bool_lit(&self.pool, &mut self.solver, t))
            .collect();
        let logged = self.solver.logged_clauses()?;
        let mut cnf = Cnf::new();
        cnf.reserve_vars(self.solver.num_vars());
        for clause in logged {
            cnf.add_clause(clause.iter().copied());
        }
        for &act in &self.scopes {
            cnf.add_clause([act]);
        }
        for &g in &guard_lits {
            cnf.add_clause([g]);
        }
        Some((cnf, projection))
    }

    /// Attaches a trace context: from now on each solver call records a
    /// `"solve"` span (child of `trace`'s parent) annotated with the
    /// decisions/propagations/conflicts/restarts it cost and whether it
    /// came back sat. All solver entry points funnel through
    /// [`check_assuming`](Context::check_assuming), so this covers plain
    /// checks, witness queries and model enumeration alike. Each span's
    /// delta is measured since the *previous* traced solve (or since
    /// this call), so unit propagation performed while encoding between
    /// solves is attributed to the solve that consumes it. Work that
    /// happens *after* the last solve (such as the retraction clause
    /// [`pop`](Context::pop) adds) is folded into that solve's span when
    /// [`solver_stats`](Context::solver_stats) is next read — summing
    /// the spans reproduces the context's counter totals over the
    /// traced window exactly.
    pub fn set_trace(&mut self, trace: TraceCtx) {
        self.trace = Some(trace);
        self.trace_base.set(self.solver.stats());
        self.last_solve.set(None);
    }

    /// Detaches the trace context, if any, after folding trailing
    /// solver work into the last recorded solve span.
    pub fn clear_trace(&mut self) {
        self.flush_trace();
        self.trace = None;
        self.last_solve.set(None);
    }

    /// Attributes solver work performed since the last traced solve to
    /// that solve's span, so the trace stays in balance with the
    /// totals even when clauses are added outside any solve (scope
    /// retraction, blocking clauses after the final model).
    fn flush_trace(&self) {
        let (Some(trace), Some(span)) = (self.trace.as_ref(), self.last_solve.get()) else {
            return;
        };
        let now = self.solver.stats();
        let delta = now.delta_since(&self.trace_base.get());
        if delta == SolverStats::default() {
            return;
        }
        self.trace_base.set(now);
        trace.add(span, "solves", delta.solves);
        trace.add(span, "decisions", delta.decisions);
        trace.add(span, "propagations", delta.propagations);
        trace.add(span, "conflicts", delta.conflicts);
        trace.add(span, "restarts", delta.restarts);
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.pool.sort(t)
    }

    /// Number of distinct terms created (hash-consed).
    pub fn num_terms(&self) -> usize {
        self.pool.len()
    }

    /// Statistics of the underlying SAT solver.
    ///
    /// When a trace is attached, any solver work recorded since the
    /// last solve is first folded into that solve's span, so a sum
    /// over the trace's solve spans always matches the returned
    /// totals.
    pub fn solver_stats(&self) -> SolverStats {
        self.flush_trace();
        self.solver.stats()
    }

    /// Renders a term as an SMT-LIB-flavoured s-expression.
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.pool.display(t, &mut s);
        s
    }

    // ----- sort checking helpers -----

    fn expect_bool(&self, t: TermId, op: &str) {
        assert!(
            self.pool.sort(t) == Sort::Bool,
            "{op}: expected Bool operand, found {}",
            self.pool.sort(t)
        );
    }

    fn expect_bv(&self, t: TermId, op: &str) -> u32 {
        match self.pool.sort(t) {
            Sort::BitVec(w) => w,
            s => panic!("{op}: expected bit-vector operand, found {s}"),
        }
    }

    fn expect_same_width(&self, a: TermId, b: TermId, op: &str) {
        let (wa, wb) = (self.expect_bv(a, op), self.expect_bv(b, op));
        assert!(wa == wb, "{op}: width mismatch ({wa} vs {wb})");
    }

    fn bv_const_value(&self, t: TermId) -> Option<u128> {
        match self.pool.get(t) {
            TermData::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    fn bool_const_value(&self, t: TermId) -> Option<bool> {
        match self.pool.get(t) {
            TermData::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    // ----- Boolean term builders -----

    /// The Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.pool.mk(TermData::BoolConst(b), Sort::Bool)
    }

    /// A named Boolean variable. The same name always yields the same
    /// term (hash-consing), so variables are identified by name.
    pub fn bool_var(&mut self, name: &str) -> TermId {
        self.pool
            .mk(TermData::BoolVar(name.to_string()), Sort::Bool)
    }

    /// An integer-keyed Boolean variable, identified by `(tag, index)`.
    ///
    /// Equivalent to `bool_var(&format!("{tag}_{index}"))` but with no
    /// string allocation — the tag is interned once and the key is the
    /// integer, so hot loops minting per-item variable families
    /// (`base_0`, `base_1`, …) stay allocation-free after the first
    /// call. Diagnostics still render the familiar `tag_index` form.
    pub fn bool_var_i(&mut self, tag: &str, index: u64) -> TermId {
        let tag = self.pool.intern_str(tag);
        self.pool
            .mk(TermData::BoolVarIdx { tag, index }, Sort::Bool)
    }

    /// Logical negation (folds constants and double negation).
    pub fn not(&mut self, a: TermId) -> TermId {
        self.expect_bool(a, "not");
        if let Some(b) = self.bool_const_value(a) {
            return self.bool_const(!b);
        }
        if let TermData::Not(inner) = self.pool.get(a) {
            return *inner;
        }
        self.pool.mk(TermData::Not(a), Sort::Bool)
    }

    /// N-ary conjunction. `and([])` is `true`.
    ///
    /// # Panics
    ///
    /// Panics if any operand is not of sort `Bool` (likewise for the
    /// other Boolean builders).
    pub fn and<I: IntoIterator<Item = TermId>>(&mut self, xs: I) -> TermId {
        let mut flat = Vec::new();
        for x in xs {
            self.expect_bool(x, "and");
            match self.bool_const_value(x) {
                Some(true) => continue,
                Some(false) => return self.bool_const(false),
                None => flat.push(x),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => self.bool_const(true),
            1 => flat[0],
            _ => self.pool.mk(TermData::And(flat), Sort::Bool),
        }
    }

    /// N-ary disjunction. `or([])` is `false`.
    pub fn or<I: IntoIterator<Item = TermId>>(&mut self, xs: I) -> TermId {
        let mut flat = Vec::new();
        for x in xs {
            self.expect_bool(x, "or");
            match self.bool_const_value(x) {
                Some(false) => continue,
                Some(true) => return self.bool_const(true),
                None => flat.push(x),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => self.bool_const(false),
            1 => flat[0],
            _ => self.pool.mk(TermData::Or(flat), Sort::Bool),
        }
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a, "xor");
        self.expect_bool(b, "xor");
        match (self.bool_const_value(a), self.bool_const_value(b)) {
            (Some(x), Some(y)) => self.bool_const(x ^ y),
            (Some(false), None) => b,
            (None, Some(false)) => a,
            (Some(true), None) => self.not(b),
            (None, Some(true)) => self.not(a),
            _ if a == b => self.bool_const(false),
            _ => self.pool.mk(TermData::Xor(a, b), Sort::Bool),
        }
    }

    /// Implication `a → b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a, "implies");
        self.expect_bool(b, "implies");
        match (self.bool_const_value(a), self.bool_const_value(b)) {
            (Some(false), _) | (_, Some(true)) => self.bool_const(true),
            (Some(true), _) => b,
            (_, Some(false)) => self.not(a),
            _ if a == b => self.bool_const(true),
            _ => self.pool.mk(TermData::Implies(a, b), Sort::Bool),
        }
    }

    /// Biconditional `a ↔ b`.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a, "iff");
        self.expect_bool(b, "iff");
        if a == b {
            return self.bool_const(true);
        }
        match (self.bool_const_value(a), self.bool_const_value(b)) {
            (Some(x), Some(y)) => self.bool_const(x == y),
            (Some(true), None) => b,
            (None, Some(true)) => a,
            (Some(false), None) => self.not(b),
            (None, Some(false)) => self.not(a),
            _ => self.pool.mk(TermData::Iff(a, b), Sort::Bool),
        }
    }

    /// If-then-else; `t` and `e` must have the same sort.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.expect_bool(c, "ite");
        assert!(
            self.pool.sort(t) == self.pool.sort(e),
            "ite: branch sorts differ ({} vs {})",
            self.pool.sort(t),
            self.pool.sort(e)
        );
        match self.bool_const_value(c) {
            Some(true) => t,
            Some(false) => e,
            None if t == e => t,
            None => {
                let sort = self.pool.sort(t);
                self.pool.mk(TermData::Ite(c, t, e), sort)
            }
        }
    }

    /// Equality at any sort. Operand sorts must match.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert!(
            self.pool.sort(a) == self.pool.sort(b),
            "eq: sorts differ ({} vs {})",
            self.pool.sort(a),
            self.pool.sort(b)
        );
        if a == b {
            return self.bool_const(true);
        }
        // Distinct constants of the same sort are never equal.
        let const_neq = matches!(
            (self.pool.get(a), self.pool.get(b)),
            (TermData::BvConst { .. }, TermData::BvConst { .. })
                | (TermData::StrConst(_), TermData::StrConst(_))
                | (TermData::BoolConst(_), TermData::BoolConst(_))
        );
        if const_neq {
            // Hash-consing makes equal constants identical, so reaching
            // here with two constants means they differ.
            return self.bool_const(false);
        }
        // Canonical argument order improves sharing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.pool.mk(TermData::Eq(a, b), Sort::Bool)
    }

    /// `true` iff at most `k` of the operands are true (unary-counter
    /// construction, O(n·k) terms). `at_most(_, 0)` is the negated
    /// disjunction.
    ///
    /// # Panics
    ///
    /// Panics if any operand is not Boolean.
    pub fn at_most<I: IntoIterator<Item = TermId>>(&mut self, xs: I, k: usize) -> TermId {
        let lits: Vec<TermId> = xs.into_iter().collect();
        for &l in &lits {
            self.expect_bool(l, "at_most");
        }
        if lits.len() <= k {
            return self.bool_const(true);
        }
        // counts[j] = "at least j+1 of the literals seen so far are
        // true"; after all literals, counts[k] is "at least k+1", whose
        // negation is exactly at-most-k.
        let mut counts: Vec<TermId> = vec![self.bool_const(false); k + 1];
        for &l in &lits {
            let mut next = counts.clone();
            for j in (0..=k).rev() {
                let carried = if j == 0 {
                    l
                } else {
                    self.and([l, counts[j - 1]])
                };
                next[j] = self.or([counts[j], carried]);
            }
            counts = next;
        }
        self.not(counts[k])
    }

    /// `true` iff at least `k` of the operands are true.
    pub fn at_least<I: IntoIterator<Item = TermId>>(&mut self, xs: I, k: usize) -> TermId {
        let lits: Vec<TermId> = xs.into_iter().collect();
        if k == 0 {
            return self.bool_const(true);
        }
        if lits.len() < k {
            return self.bool_const(false);
        }
        // at_least_k(xs) == at_most_{n-k}(¬xs)
        let n = lits.len();
        let negs: Vec<TermId> = lits.iter().map(|&l| self.not(l)).collect();
        self.at_most(negs, n - k)
    }

    /// `true` iff exactly `k` of the operands are true.
    pub fn exactly<I: IntoIterator<Item = TermId>>(&mut self, xs: I, k: usize) -> TermId {
        let lits: Vec<TermId> = xs.into_iter().collect();
        let lo = self.at_least(lits.clone(), k);
        let hi = self.at_most(lits, k);
        self.and([lo, hi])
    }

    /// Pairwise disequality of all operands.
    pub fn distinct<I: IntoIterator<Item = TermId>>(&mut self, xs: I) -> TermId {
        let v: Vec<TermId> = xs.into_iter().collect();
        let mut parts = Vec::new();
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                let e = self.eq(v[i], v[j]);
                parts.push(self.not(e));
            }
        }
        self.and(parts)
    }

    // ----- bit-vector term builders -----

    /// A bit-vector constant of the given width (1..=128); `value` is
    /// truncated to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 128.
    pub fn bv_const(&mut self, value: u128, width: u32) -> TermId {
        assert!(
            (1..=128).contains(&width),
            "bit-vector width {width} out of range"
        );
        self.pool.mk(
            TermData::BvConst {
                width,
                value: mask(value, width),
            },
            Sort::BitVec(width),
        )
    }

    /// A named bit-vector variable.
    pub fn bv_var(&mut self, name: &str, width: u32) -> TermId {
        assert!(
            (1..=128).contains(&width),
            "bit-vector width {width} out of range"
        );
        self.pool.mk(
            TermData::BvVar {
                name: name.to_string(),
                width,
            },
            Sort::BitVec(width),
        )
    }

    /// An integer-keyed bit-vector variable (see [`Context::bool_var_i`]).
    pub fn bv_var_i(&mut self, tag: &str, index: u64, width: u32) -> TermId {
        assert!(
            (1..=128).contains(&width),
            "bit-vector width {width} out of range"
        );
        let tag = self.pool.intern_str(tag);
        self.pool.mk(
            TermData::BvVarIdx { tag, index, width },
            Sort::BitVec(width),
        )
    }

    fn bv_cmp(
        &mut self,
        a: TermId,
        b: TermId,
        op: &str,
        fold: impl Fn(u128, u128) -> bool,
        mk: impl Fn(TermId, TermId) -> TermData,
    ) -> TermId {
        self.expect_same_width(a, b, op);
        if let (Some(x), Some(y)) = (self.bv_const_value(a), self.bv_const_value(b)) {
            return self.bool_const(fold(x, y));
        }
        self.pool.mk(mk(a, b), Sort::Bool)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(false);
        }
        self.bv_cmp(a, b, "bvult", |x, y| x < y, TermData::BvUlt)
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(true);
        }
        self.bv_cmp(a, b, "bvule", |x, y| x <= y, TermData::BvUle)
    }

    /// Bits `lo..=hi` of `a` (bit 0 is the LSB); result width is
    /// `hi - lo + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is outside the operand width.
    pub fn bv_extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.expect_bv(a, "extract");
        assert!(
            hi >= lo && hi < w,
            "extract [{hi}:{lo}] out of range for width {w}"
        );
        if lo == 0 && hi == w - 1 {
            return a;
        }
        let nw = hi - lo + 1;
        if let Some(x) = self.bv_const_value(a) {
            return self.bv_const(mask(x >> lo, nw), nw);
        }
        self.pool
            .mk(TermData::Extract { hi, lo, arg: a }, Sort::BitVec(nw))
    }

    // ----- string terms -----

    /// An interned string constant (the paper's encoding of node and
    /// property names as Z3 string/hybrid values).
    pub fn str_const(&mut self, s: &str) -> TermId {
        let id = self.pool.intern_str(s);
        assert!(
            (self.pool.num_interned() as u64) < (1u64 << STR_WIDTH),
            "string intern table overflow"
        );
        self.pool.mk(TermData::StrConst(id), Sort::Str)
    }

    /// A named string variable.
    pub fn str_var(&mut self, name: &str) -> TermId {
        self.pool.mk(TermData::StrVar(name.to_string()), Sort::Str)
    }

    // ----- assertions and solving -----

    /// Asserts a Boolean term in the current scope.
    ///
    /// # Panics
    ///
    /// Panics if the term is not of sort `Bool`.
    pub fn assert(&mut self, t: TermId) {
        self.expect_bool(t, "assert");
        let lit = self.blaster.bool_lit(&self.pool, &mut self.solver, t);
        match self.scopes.last().copied() {
            None => {
                self.solver.add_clause([lit]);
            }
            Some(act) => {
                self.solver.add_clause([!act, lit]);
            }
        }
    }

    /// Asserts `guard → t` at the ground level as a single two-literal
    /// clause, with no Tseitin gate for the implication itself.
    ///
    /// This is the primitive behind assumption-guarded constraint
    /// slices (see [`SolverSession`](crate::SolverSession)): the
    /// constraint is permanent, but only binds in checks that pass
    /// `guard` as an assumption. Unlike [`Context::push`]-scoped
    /// assertions it is never retracted with a unit clause, so the
    /// slice can be re-activated arbitrarily often and learnt clauses
    /// about it stay useful.
    ///
    /// # Panics
    ///
    /// Panics if either term is not of sort `Bool`.
    pub fn assert_implied(&mut self, guard: TermId, t: TermId) {
        self.expect_bool(guard, "assert_implied");
        self.expect_bool(t, "assert_implied");
        let g = self.blaster.bool_lit(&self.pool, &mut self.solver, guard);
        let l = self.blaster.bool_lit(&self.pool, &mut self.solver, t);
        self.solver.add_clause([!g, l]);
    }

    /// Asserts the disjunction of `lits` at the ground level as a single
    /// clause, with no Tseitin gate for the disjunction itself: the
    /// primitive for hand-written CNF such as symmetry-breaking chains.
    ///
    /// # Panics
    ///
    /// Panics if any term is not of sort `Bool`.
    pub fn assert_clause(&mut self, lits: &[TermId]) {
        let mut clause = Vec::with_capacity(lits.len());
        for &t in lits {
            self.expect_bool(t, "assert_clause");
            clause.push(self.blaster.bool_lit(&self.pool, &mut self.solver, t));
        }
        self.solver.add_clause(clause);
    }

    /// `(cache hits, cache misses)` of the bit-blasting cache: how many
    /// term encodings were reused versus freshly lowered to gates.
    pub fn encode_counts(&self) -> (u64, u64) {
        self.blaster.encode_counts()
    }

    /// Lifetime allocation counters of the underlying SAT solver
    /// (variables, clauses, arena literal slots).
    pub fn alloc_stats(&self) -> llhsc_sat::AllocStats {
        self.solver.alloc_stats()
    }

    /// Opens a new assertion scope.
    pub fn push(&mut self) {
        let act = Lit::pos(self.solver.new_var());
        self.scopes.push(act);
    }

    /// Closes the innermost scope, retracting its assertions.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let act = self.scopes.pop().expect("pop without matching push");
        // Permanently disable the scope's clauses.
        self.solver.add_clause([!act]);
        self.last_model = None;
    }

    /// Current scope depth (0 = ground).
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// Checks satisfiability of all live assertions.
    pub fn check(&mut self) -> CheckResult {
        self.check_assuming(&[])
    }

    /// Checks satisfiability under additional assumption terms (retracted
    /// automatically after the call). On `Unsat`,
    /// [`Context::unsat_core`] reports which assumptions were used.
    pub fn check_assuming(&mut self, assumptions: &[TermId]) -> CheckResult {
        self.assumption_lits.clear();
        self.last_core.clear();
        let mut lits: Vec<Lit> = self.scopes.clone();
        for &t in assumptions {
            self.expect_bool(t, "check_assuming");
            let l = self.blaster.bool_lit(&self.pool, &mut self.solver, t);
            self.assumption_lits.insert(l, t);
            lits.push(l);
        }
        let span = self
            .trace
            .as_ref()
            .map(|t| (t.clone(), t.begin("solve"), self.trace_base.get()));
        let mut certified: Option<DratOutcome> = None;
        let result = match self.solver.solve_with(&lits) {
            SolveResult::Sat => {
                self.last_model = Some(self.solver.model());
                CheckResult::Sat
            }
            SolveResult::Unsat => {
                self.last_model = None;
                let core: Vec<TermId> = self
                    .solver
                    .unsat_core()
                    .iter()
                    .filter_map(|cl| self.assumption_lits.get(&!*cl).copied())
                    .collect();
                self.last_core = core;
                if self.certify {
                    certified = Some(self.certify_last());
                }
                CheckResult::Unsat
            }
        };
        if let Some((trace, span, before)) = span {
            let now = self.solver.stats();
            self.trace_base.set(now);
            self.last_solve.set(Some(span));
            let delta = now.delta_since(&before);
            trace.add(span, "solves", delta.solves);
            trace.add(span, "decisions", delta.decisions);
            trace.add(span, "propagations", delta.propagations);
            trace.add(span, "conflicts", delta.conflicts);
            trace.add(span, "restarts", delta.restarts);
            trace.add(span, "sat", u64::from(result == CheckResult::Sat));
            // Only certifying contexts carry proof counters, so default
            // traces (and the golden report file) are unchanged.
            if let Some(out) = certified {
                trace.add(span, "proof_steps", out.steps as u64);
                trace.add(span, "proof_checked", out.checked as u64);
            }
            trace.finish(span);
        }
        result
    }

    /// Replays the proof of the refutation just produced through the
    /// in-tree backward DRAT checker.
    ///
    /// # Panics
    ///
    /// Panics if the proof does not verify — that would mean the solver
    /// reported an `Unsat` verdict its own deduction log cannot justify,
    /// and certification exists precisely to stop such a verdict from
    /// leaving the building.
    fn certify_last(&mut self) -> DratOutcome {
        let mut cnf = Cnf::new();
        cnf.reserve_vars(self.solver.num_vars());
        let logged = self
            .solver
            .logged_clauses()
            .expect("certifying context records its formula");
        for clause in logged {
            cnf.add_clause(clause.iter().copied());
        }
        let proof = self
            .solver
            .proof()
            .expect("certifying context records a proof");
        let steps = proof.len() as u64;
        let outcome = match check_drat(&cnf, proof, CheckMode::Last) {
            Ok(out) => out,
            Err(err) => {
                panic!("soundness violation: UNSAT verdict failed DRAT certification: {err}")
            }
        };
        self.cert.proofs += 1;
        self.cert.steps = steps;
        self.cert.checked += outcome.checked as u64;
        outcome
    }

    /// Counters of the certification work done so far (zero for
    /// non-certifying contexts).
    pub fn cert_stats(&self) -> CertStats {
        self.cert
    }

    /// The accumulated formula and DRAT proof of a proof-recording
    /// context, for writing out as independently checkable artifacts
    /// (`llhsc check --proof`). `None` unless the context was created
    /// with [`CheckOptions::certify`] set.
    pub fn export_proof(&self) -> Option<(Cnf, Vec<ProofStep>)> {
        let proof = self.solver.proof()?;
        let logged = self.solver.logged_clauses()?;
        let mut cnf = Cnf::new();
        cnf.reserve_vars(self.solver.num_vars());
        for clause in logged {
            cnf.add_clause(clause.iter().copied());
        }
        Some((cnf, proof.to_vec()))
    }

    /// After an `Unsat` [`Context::check_assuming`], the subset of the
    /// assumption terms involved in the conflict.
    pub fn unsat_core(&self) -> &[TermId] {
        &self.last_core
    }

    /// Enumerates all models projected onto the given Boolean terms
    /// (All-SAT via blocking clauses), up to `limit` models if given.
    ///
    /// Each returned vector is aligned with `over`. The enumeration runs
    /// inside its own [`push`](Context::push)/[`pop`](Context::pop)
    /// scope, so the context's assertions are unchanged afterwards. This
    /// is how the feature-model layer implements the paper's
    /// "generation of all valid products" analysis (§II-B).
    ///
    /// # Panics
    ///
    /// Panics if `over` is empty or contains non-Boolean terms.
    pub fn all_models(&mut self, over: &[TermId], limit: Option<usize>) -> Vec<Vec<bool>> {
        assert!(!over.is_empty(), "all_models needs at least one term");
        for &t in over {
            self.expect_bool(t, "all_models");
        }
        // Force an encoding for every projection term so the model always
        // has a value for it, even if it appears in no assertion.
        for &t in over {
            let _ = self.blaster.bool_lit(&self.pool, &mut self.solver, t);
        }
        let mut out = Vec::new();
        self.push();
        loop {
            if limit.is_some_and(|l| out.len() >= l) {
                break;
            }
            if self.check() != CheckResult::Sat {
                break;
            }
            let m = self.model().expect("model after Sat");
            let values: Vec<bool> = over
                .iter()
                .map(|&t| m.eval_bool(t).expect("projection term has a value"))
                .collect();
            drop(m);
            // Block this projection.
            let parts: Vec<TermId> = over
                .iter()
                .zip(&values)
                .map(|(&t, &v)| if v { self.not(t) } else { t })
                .collect();
            let blocking = self.or(parts);
            self.assert(blocking);
            out.push(values);
        }
        self.pop();
        out
    }

    /// Counts models projected onto `over` (see [`Context::all_models`]).
    pub fn count_models(&mut self, over: &[TermId]) -> usize {
        self.all_models(over, None).len()
    }

    /// The model of the last `Sat` check, if any.
    pub fn model(&self) -> Option<Model<'_>> {
        self.last_model.as_ref().map(|bits| Model {
            ctx: self,
            bits: bits.clone(),
        })
    }
}

/// A satisfying assignment snapshot, tied to its [`Context`].
///
/// Only terms that participated in the last check (directly or as
/// subterms of asserted formulas) have values; evaluating anything else
/// yields `None`.
#[derive(Debug)]
pub struct Model<'a> {
    ctx: &'a Context,
    bits: Vec<bool>,
}

impl Model<'_> {
    /// Value of a Boolean term.
    pub fn eval_bool(&self, t: TermId) -> Option<bool> {
        match eval_in_model(&self.ctx.blaster, &self.bits, t)? {
            EvalValue::Bool(b) => Some(b),
            EvalValue::Bits(_) => None,
        }
    }

    /// Value of a bit-vector term.
    pub fn eval_bv(&self, t: TermId) -> Option<u128> {
        match (
            self.ctx.pool.sort(t),
            eval_in_model(&self.ctx.blaster, &self.bits, t)?,
        ) {
            (Sort::BitVec(_), EvalValue::Bits(v)) => Some(v),
            _ => None,
        }
    }

    /// Value of a string term, if it denotes an interned string.
    pub fn eval_str(&self, t: TermId) -> Option<&str> {
        match (
            self.ctx.pool.sort(t),
            eval_in_model(&self.ctx.blaster, &self.bits, t)?,
        ) {
            (Sort::Str, EvalValue::Bits(v)) => {
                let id = u32::try_from(v).ok()?;
                if (id as usize) < self.ctx.pool.num_interned() {
                    Some(self.ctx.pool.str_for(id))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_cnf_mirrors_the_context() {
        use llhsc_sat::ModelIter;

        let mut ctx = Context::with_options(&CheckOptions {
            clause_log: true,
            ..CheckOptions::default()
        });
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.or([a, b]);
        ctx.assert(ab);
        let (cnf, proj) = ctx.export_cnf(&[a, b], &[]).expect("logged context");
        assert_eq!(proj.len(), 2);
        let vars: Vec<_> = proj.iter().map(|l| l.var()).collect();
        let mut solver = cnf.to_solver();
        let bc = ModelIter::projected(&mut solver, vars).count_up_to(8);
        assert_eq!(bc.models, 3, "export must count like count_models");
        assert_eq!(ctx.count_models(&[a, b]), 3);
    }

    #[test]
    fn export_cnf_pins_open_scopes_and_drops_popped_ones() {
        use llhsc_sat::SolveResult;

        let mut ctx = Context::with_options(&CheckOptions {
            clause_log: true,
            ..CheckOptions::default()
        });
        let a = ctx.bool_var("a");
        ctx.push();
        let na = ctx.not(a);
        ctx.assert(na); // scoped: ¬a
        let (cnf, proj) = ctx.export_cnf(&[a], &[]).expect("logged context");
        let mut solver = cnf.to_solver();
        solver.add_clause([proj[0]]); // a, against the pinned scope's ¬a
        assert_eq!(solver.solve(), SolveResult::Unsat);

        ctx.pop();
        let (cnf, proj) = ctx.export_cnf(&[a], &[]).expect("logged context");
        let mut solver = cnf.to_solver();
        solver.add_clause([proj[0]]);
        assert_eq!(
            solver.solve(),
            SolveResult::Sat,
            "popped scope must not bind"
        );
    }

    #[test]
    fn export_cnf_needs_the_log() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        ctx.assert(a);
        assert!(ctx.export_cnf(&[a], &[]).is_none());
    }

    #[test]
    fn certified_unsat_checks_its_own_proof() {
        let mut ctx = Context::with_options(&CheckOptions {
            certify: true,
            ..CheckOptions::default()
        });
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.or([a, b]);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        ctx.assert(ab);
        ctx.assert(na);
        ctx.assert(nb);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        let cert = ctx.cert_stats();
        assert_eq!(cert.proofs, 1, "one UNSAT verdict, one certified proof");
        assert!(cert.steps > 0);
        assert!(cert.checked > 0);
    }

    #[test]
    fn certified_proof_replays_through_a_fresh_checker() {
        use llhsc_sat::{check_drat, CheckMode};

        let mut ctx = Context::with_options(&CheckOptions {
            certify: true,
            ..CheckOptions::default()
        });
        let x = ctx.bv_var("x", 8);
        let lo = ctx.bv_const(10, 8);
        let hi = ctx.bv_const(5, 8);
        let ge = ctx.bv_ule(lo, x); // x >= 10
        let lt = ctx.bv_ult(x, hi); // x < 5
        ctx.assert(ge);
        ctx.assert(lt);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        let (cnf, proof) = ctx.export_proof().expect("certified context logs both");
        let out = check_drat(&cnf, &proof, CheckMode::Last).expect("exported proof verifies");
        assert!(out.checked > 0);
    }

    #[test]
    fn certification_counts_accumulate_across_unsat_scopes() {
        let mut ctx = Context::with_options(&CheckOptions {
            certify: true,
            ..CheckOptions::default()
        });
        let a = ctx.bool_var("a");
        ctx.assert(a);
        ctx.push();
        let na = ctx.not(a);
        ctx.assert(na);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
        assert_eq!(
            ctx.check(),
            CheckResult::Sat,
            "sat checks are not certified"
        );
        ctx.push();
        let na = ctx.not(a);
        ctx.assert(na);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.cert_stats().proofs, 2);
    }

    #[test]
    fn bool_logic_sat() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let i = ctx.implies(a, b);
        ctx.assert(a);
        ctx.assert(i);
        assert_eq!(ctx.check(), CheckResult::Sat);
        let m = ctx.model().unwrap();
        assert_eq!(m.eval_bool(a), Some(true));
        assert_eq!(m.eval_bool(b), Some(true));
    }

    #[test]
    fn traced_checks_record_solve_spans() {
        use llhsc_obs::{TraceCtx, Tracer};
        use std::sync::Arc;

        let tracer = Arc::new(Tracer::wall());
        let mut ctx = Context::new();
        ctx.set_trace(TraceCtx::new(Arc::clone(&tracer)));
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.or([a, b]);
        ctx.assert(ab);
        assert_eq!(ctx.check(), CheckResult::Sat);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        assert_eq!(ctx.check_assuming(&[na, nb]), CheckResult::Unsat);

        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "solve"));
        assert!(spans.iter().all(|s| s.dur_us.is_some()));
        assert_eq!(spans[0].counter("sat"), Some(1));
        assert_eq!(spans[1].counter("sat"), Some(0));
        assert_eq!(spans[0].counter("solves"), Some(1));
        // Propagations happen on every solve that assigns variables.
        assert!(spans[0].counter("propagations").unwrap() > 0);
        // The span deltas sum to the solver's own totals.
        let total: u64 = spans.iter().filter_map(|s| s.counter("decisions")).sum();
        assert_eq!(total, ctx.solver_stats().decisions);

        ctx.clear_trace();
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(tracer.spans().len(), 2);
    }

    #[test]
    fn bool_logic_unsat() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        ctx.assert(a);
        ctx.assert(na);
        assert_eq!(ctx.check(), CheckResult::Unsat);
    }

    #[test]
    fn constant_folding() {
        let mut ctx = Context::new();
        let t = ctx.bool_const(true);
        let f = ctx.bool_const(false);
        assert_eq!(ctx.and([t, f]), f);
        assert_eq!(ctx.or([t, f]), t);
        assert_eq!(ctx.not(t), f);
        let a = ctx.bool_var("a");
        assert_eq!(ctx.and([a, t]), a);
        assert_eq!(ctx.implies(f, a), t);
        let x = ctx.bv_const(0x35, 8);
        let y = ctx.bv_const(0x53, 8);
        let hi = ctx.bv_extract(x, 7, 4);
        assert_eq!(ctx.bv_const(3, 4), hi);
        let c = ctx.bv_ult(x, y);
        assert_eq!(c, t);
        assert_eq!(ctx.bv_ule(y, x), f);
    }

    #[test]
    fn push_pop_retracts() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        ctx.assert(a);
        ctx.push();
        let na = ctx.not(a);
        ctx.assert(na);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(ctx.scope_depth(), 0);
    }

    #[test]
    fn nested_scopes() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        ctx.push();
        ctx.assert(a);
        ctx.push();
        let nb = ctx.not(b);
        ctx.assert(nb);
        ctx.assert(b);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(ctx.model().unwrap().eval_bool(a), Some(true));
        ctx.pop();
        assert_eq!(ctx.check(), CheckResult::Sat);
    }

    #[test]
    fn unsat_core_names_assumptions() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let na = ctx.not(a);
        let nab = ctx.or([na, b]);
        ctx.assert(nab); // a → b
        let nb = ctx.not(b);
        let r = ctx.check_assuming(&[a, nb, c]);
        assert_eq!(r, CheckResult::Unsat);
        let core = ctx.unsat_core().to_vec();
        assert!(core.contains(&a));
        assert!(core.contains(&nb));
        assert!(!core.contains(&c));
    }

    #[test]
    fn strings_intern_and_compare() {
        let mut ctx = Context::new();
        let m1 = ctx.str_const("memory");
        let m2 = ctx.str_const("memory");
        let r = ctx.str_const("reg");
        assert_eq!(m1, m2);
        let e = ctx.eq(m1, m2);
        assert_eq!(e, ctx.bool_const(true));
        let e2 = ctx.eq(m1, r);
        assert_eq!(e2, ctx.bool_const(false));
    }

    #[test]
    fn string_var_solves_to_interned() {
        let mut ctx = Context::new();
        let x = ctx.str_var("device_type");
        let mem = ctx.str_const("memory");
        let e = ctx.eq(x, mem);
        ctx.assert(e);
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(ctx.model().unwrap().eval_str(x), Some("memory"));
    }

    #[test]
    fn ite_over_bitvectors() {
        let mut ctx = Context::new();
        let c = ctx.bool_var("c");
        let a = ctx.bv_const(10, 8);
        let b = ctx.bv_const(20, 8);
        let sel = ctx.ite(c, a, b);
        let e = ctx.eq(sel, a);
        ctx.assert(e);
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(ctx.model().unwrap().eval_bool(c), Some(true));
    }

    #[test]
    fn distinct_pairwise() {
        let mut ctx = Context::new();
        let xs: Vec<TermId> = (0..3).map(|i| ctx.bv_var(&format!("x{i}"), 2)).collect();
        let d = ctx.distinct(xs.clone());
        ctx.assert(d);
        assert_eq!(ctx.check(), CheckResult::Sat);
        let m = ctx.model().unwrap();
        let vals: Vec<u128> = xs.iter().map(|&x| m.eval_bv(x).unwrap()).collect();
        assert_ne!(vals[0], vals[1]);
        assert_ne!(vals[0], vals[2]);
        assert_ne!(vals[1], vals[2]);
    }

    #[test]
    fn distinct_four_in_two_bits_unsat() {
        let mut ctx = Context::new();
        let xs: Vec<TermId> = (0..5).map(|i| ctx.bv_var(&format!("x{i}"), 2)).collect();
        let d = ctx.distinct(xs);
        ctx.assert(d);
        assert_eq!(ctx.check(), CheckResult::Unsat);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut ctx = Context::new();
        let a = ctx.bv_var("a", 8);
        let b = ctx.bv_var("b", 16);
        let _ = ctx.bv_ult(a, b);
    }

    #[test]
    #[should_panic(expected = "expected Bool")]
    fn assert_non_bool_panics() {
        let mut ctx = Context::new();
        let a = ctx.bv_var("a", 8);
        ctx.assert(a);
    }

    #[test]
    fn display_sexpr() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let f = ctx.implies(a, b);
        assert_eq!(ctx.display(f), "(=> a b)");
    }

    #[test]
    fn cardinality_counts_models() {
        // Over 4 free variables, the number of models of at_most/
        // at_least/exactly matches binomial arithmetic.
        let choose = |n: u64, k: u64| -> u64 { (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1)) };
        for k in 0..=4usize {
            let mut ctx = Context::new();
            let xs: Vec<TermId> = (0..4).map(|i| ctx.bool_var(&format!("x{i}"))).collect();
            let c = ctx.at_most(xs.clone(), k);
            ctx.assert(c);
            let expected: u64 = (0..=k as u64).map(|j| choose(4, j)).sum();
            assert_eq!(ctx.count_models(&xs) as u64, expected, "at_most {k}");

            let mut ctx = Context::new();
            let xs: Vec<TermId> = (0..4).map(|i| ctx.bool_var(&format!("x{i}"))).collect();
            let c = ctx.exactly(xs.clone(), k);
            ctx.assert(c);
            assert_eq!(
                ctx.count_models(&xs) as u64,
                choose(4, k as u64),
                "exactly {k}"
            );

            let mut ctx = Context::new();
            let xs: Vec<TermId> = (0..4).map(|i| ctx.bool_var(&format!("x{i}"))).collect();
            let c = ctx.at_least(xs.clone(), k);
            ctx.assert(c);
            let expected: u64 = (k as u64..=4).map(|j| choose(4, j)).sum();
            assert_eq!(ctx.count_models(&xs) as u64, expected, "at_least {k}");
        }
    }

    #[test]
    fn cardinality_edge_cases() {
        let mut ctx = Context::new();
        let t = ctx.bool_const(true);
        // Fewer operands than k: trivially satisfied / unsatisfiable.
        let a = ctx.bool_var("a");
        let am = ctx.at_most([a], 5);
        assert_eq!(am, t);
        let al = ctx.at_least([a], 5);
        assert_eq!(al, ctx.bool_const(false));
        let al0 = ctx.at_least(Vec::<TermId>::new(), 0);
        assert_eq!(al0, t);
    }

    #[test]
    fn all_models_enumerates_projections() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.or([a, b]);
        ctx.assert(c);
        let models = ctx.all_models(&[a, b], None);
        assert_eq!(models.len(), 3);
        // Context unchanged: still satisfiable the same way.
        assert_eq!(ctx.count_models(&[a, b]), 3);
        assert_eq!(ctx.scope_depth(), 0);
    }

    #[test]
    fn all_models_respects_limit() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let models = ctx.all_models(&[a, b], Some(2));
        assert_eq!(models.len(), 2);
    }

    #[test]
    fn all_models_unsat_is_empty() {
        let mut ctx = Context::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        ctx.assert(a);
        ctx.assert(na);
        assert!(ctx.all_models(&[a], None).is_empty());
    }

    #[test]
    fn all_models_on_free_variables() {
        // Projection terms that appear in no assertion still enumerate.
        let mut ctx = Context::new();
        let a = ctx.bool_var("free_a");
        let b = ctx.bool_var("free_b");
        assert_eq!(ctx.count_models(&[a, b]), 4);
    }

    #[test]
    fn indexed_vars_dedup_and_display() {
        let mut ctx = Context::new();
        let a = ctx.bool_var_i("sel", 3);
        let a2 = ctx.bool_var_i("sel", 3);
        let b = ctx.bool_var_i("sel", 4);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(ctx.display(a), "sel_3");
        let x = ctx.bv_var_i("base", 7, 32);
        assert_eq!(x, ctx.bv_var_i("base", 7, 32));
        assert_eq!(ctx.display(x), "base_7");
        assert_eq!(ctx.sort(x), Sort::BitVec(32));
        // Solvable like any named variable.
        let c = ctx.bv_const(5, 32);
        let e = ctx.eq(x, c);
        ctx.assert(e);
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(ctx.model().unwrap().eval_bv(x), Some(5));
    }

    #[test]
    fn assert_implied_binds_only_under_guard() {
        let mut ctx = Context::new();
        let g = ctx.bool_var("g");
        let p = ctx.bool_var("p");
        let np = ctx.not(p);
        ctx.assert_implied(g, np);
        ctx.assert(p);
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(ctx.check_assuming(&[g]), CheckResult::Unsat);
        // Guarded constraints are never retracted, only deactivated.
        assert_eq!(ctx.check(), CheckResult::Sat);
    }

    #[test]
    fn assert_clause_is_one_disjunction() {
        let mut ctx = Context::new();
        let p = ctx.bool_var("p");
        let q = ctx.bool_var("q");
        let nq = ctx.not(q);
        ctx.assert_clause(&[p, nq]);
        assert_eq!(ctx.check_assuming(&[q]), CheckResult::Sat);
        assert_eq!(ctx.model().unwrap().eval_bool(p), Some(true));
        let np = ctx.not(p);
        assert_eq!(ctx.check_assuming(&[np, q]), CheckResult::Unsat);
        ctx.assert_clause(&[np]);
        assert_eq!(ctx.check_assuming(&[q]), CheckResult::Unsat);
        assert_eq!(ctx.check(), CheckResult::Sat);
    }

    #[test]
    fn encode_counts_track_reuse() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 8);
        let low = ctx.bv_extract(x, 3, 0);
        let five = ctx.bv_const(5, 4);
        let e1 = ctx.eq(low, five);
        ctx.assert(e1);
        let (h0, m0) = ctx.encode_counts();
        assert!(m0 > 0);
        // A second formula over the same `x[3:0]` hits the cache.
        let nine = ctx.bv_const(9, 4);
        let e2 = ctx.eq(low, nine);
        ctx.assert(e2);
        let (h1, m1) = ctx.encode_counts();
        assert!(h1 > h0, "shared subterm should be a cache hit");
        assert!(m1 > m0, "the new equality is a fresh encoding");
    }

    #[test]
    fn incremental_reuse_after_pop() {
        // The motivating usage from the paper: one growing instance.
        let mut ctx = Context::new();
        let base = ctx.bv_var("base", 32);
        let lim = ctx.bv_const(0x1000, 32);
        let c = ctx.bv_ult(base, lim);
        ctx.assert(c);
        for k in 0..5u32 {
            ctx.push();
            let v = ctx.bv_const(u128::from(k) * 0x100, 32);
            let e = ctx.eq(base, v);
            ctx.assert(e);
            assert_eq!(ctx.check(), CheckResult::Sat);
            assert_eq!(
                ctx.model().unwrap().eval_bv(base),
                Some(u128::from(k) * 0x100)
            );
            ctx.pop();
        }
        let bad = ctx.bv_const(0x2000, 32);
        let e = ctx.eq(base, bad);
        ctx.push();
        ctx.assert(e);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
    }
}
