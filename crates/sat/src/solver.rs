//! The CDCL solver.

use std::sync::Arc;

use crate::clause::{ClauseDb, ClauseRef, ClauseStats};
use crate::drat::ProofStep;
use crate::lit::{LBool, Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with
    /// [`Solver::value`] / [`Solver::model`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    /// If assumptions were used, [`Solver::unsat_core`] names a subset of
    /// them responsible for the conflict.
    Unsat,
}

/// Multiplicative decay applied to variable activities per conflict.
const VAR_DECAY: f64 = 0.95;
/// Multiplicative decay applied to clause activities per conflict.
const CLAUSE_DECAY: f64 = 0.999;
/// Growth applied to the learnt-clause limit at each reduction.
const LEARNT_SIZE_INC: f64 = 1.1;
/// Initial learnt-clause limit as a fraction of problem clauses (never
/// below 100 learnt clauses).
const LEARNT_SIZE_FACTOR: f64 = 1.0 / 3.0;

/// Tuning knobs for the solver.
///
/// The search itself is fixed: 1-UIP learning with basic minimisation,
/// VSIDS with phase saving, Luby restarts and LBD/activity reduction of
/// the learnt clauses. What stays settable is the restart interval
/// (tests and the `sat` fuzz driver shrink it so restarts fire on toy
/// formulas) and the heartbeat cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Conflict interval between in-solve [`ProgressSink`] heartbeats.
    /// Purely observational — a heartbeat never feeds back into the
    /// search — and event-count-based, so the emission *points* are
    /// deterministic for a given formula regardless of wall clock.
    /// `0` disables heartbeats even when a sink is installed.
    pub heartbeat_every: u64,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            restart_base: 100,
            heartbeat_every: 1024,
        }
    }
}

/// One in-solve progress snapshot, emitted through a [`ProgressSink`]
/// every [`SolverConfig::heartbeat_every`] conflicts.
///
/// All fields are cumulative solver totals (not deltas), so a sink can
/// compute rates by differencing consecutive beats against its own
/// clock. The solver deliberately reads no clock itself: given the same
/// formula and assumptions, the *sequence* of heartbeats is identical
/// run to run, which is what makes progress telemetry testable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// `solve` calls so far (identifies which solve this beat belongs to).
    pub solves: u64,
    /// Conflicts analysed so far.
    pub conflicts: u64,
    /// Current assignment-trail depth.
    pub trail_depth: u64,
    /// Restarts performed so far.
    pub restarts: u64,
    /// Current learnt-clause database size.
    pub learnt: u64,
    /// DRAT proof steps emitted so far (0 unless proof recording is on).
    pub proof_steps: u64,
}

/// Receiver of in-solve [`Heartbeat`]s.
///
/// Installed with [`Solver::set_progress`]; shared (`Arc`) so the
/// producer (the solver, deep in its search loop) and consumers (a CLI
/// progress line, a daemon per-request status table) can observe the
/// same sink concurrently. Implementations must be cheap and must not
/// panic — they run on the solver's hot path.
pub trait ProgressSink: Send + Sync {
    /// Called every [`SolverConfig::heartbeat_every`] conflicts.
    fn heartbeat(&self, beat: &Heartbeat);
}

/// Wrapper giving the trait object a `Debug` so `Solver` keeps deriving.
#[derive(Clone)]
struct ProgressHook(Arc<dyn ProgressSink>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSink")
    }
}

/// Counters describing the work a solver has done.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Number of `solve` calls.
    pub solves: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt-database reductions performed.
    pub reductions: u64,
    /// Literals deleted by conflict-clause minimisation.
    pub minimised_lits: u64,
    /// Always 0: the solver has no chronological backtracking. Kept
    /// with the next three so the benchmark's per-layer ledger, which
    /// still reads them, keeps building.
    pub chrono_backtracks: u64,
    /// Always 0: the solver does not vivify clauses.
    pub vivified: u64,
    /// Always 0: the solver runs no subsumption pass.
    pub subsumed: u64,
    /// Always 0: the solver runs no self-subsuming resolution.
    pub strengthened: u64,
    /// DRAT proof steps emitted (0 unless [`Solver::enable_proof`]).
    pub proof_steps: u64,
    /// Live clause counts.
    pub clauses: ClauseStats,
}

impl SolverStats {
    /// Accumulates counters from another solver instance (clause counts
    /// sum too: across distinct solvers "live clauses" is additive).
    pub fn merge(&mut self, other: &SolverStats) {
        self.solves += other.solves;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.reductions += other.reductions;
        self.minimised_lits += other.minimised_lits;
        self.chrono_backtracks += other.chrono_backtracks;
        self.vivified += other.vivified;
        self.subsumed += other.subsumed;
        self.strengthened += other.strengthened;
        self.proof_steps += other.proof_steps;
        self.clauses.problem += other.clauses.problem;
        self.clauses.learnt += other.clauses.learnt;
    }

    /// The work done between an `earlier` snapshot of the same solver
    /// and this one. Monotonic counters subtract exactly; live clause
    /// counts can shrink (database reduction), so they saturate at 0.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            solves: self.solves - earlier.solves,
            decisions: self.decisions - earlier.decisions,
            propagations: self.propagations - earlier.propagations,
            conflicts: self.conflicts - earlier.conflicts,
            restarts: self.restarts - earlier.restarts,
            reductions: self.reductions - earlier.reductions,
            minimised_lits: self.minimised_lits - earlier.minimised_lits,
            chrono_backtracks: self.chrono_backtracks - earlier.chrono_backtracks,
            vivified: self.vivified - earlier.vivified,
            subsumed: self.subsumed - earlier.subsumed,
            strengthened: self.strengthened - earlier.strengthened,
            proof_steps: self.proof_steps - earlier.proof_steps,
            clauses: ClauseStats {
                problem: self.clauses.problem.saturating_sub(earlier.clauses.problem),
                learnt: self.clauses.learnt.saturating_sub(earlier.clauses.learnt),
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is
    /// already true the clause cannot be conflicting and the watcher
    /// is skipped without touching clause memory.
    blocker: Lit,
    /// Binary clauses are fully described by the watcher itself (the
    /// blocker *is* the only other literal), so propagation resolves
    /// them — skip, enqueue or conflict — without an arena access.
    binary: bool,
}

/// Lifetime allocation counters of one solver instance. Unlike
/// [`SolverStats::clauses`] these never decrease: they count what was
/// ever allocated, which is what the session layer compares between
/// solving modes (a reused context re-allocates nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Variables created.
    pub vars: u64,
    /// Clauses appended to the arena (problem + learnt, ignoring
    /// deletion and compaction).
    pub clauses: u64,
    /// Literal slots appended to the arena.
    pub arena_lits: u64,
}

/// A two-watched-literal CDCL SAT solver with assumptions, cores and
/// model enumeration.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,
    watches: Vec<Vec<Watch>>,
    /// Current assignment per variable.
    assigns: Vec<LBool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause for each implied variable.
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    /// Binary-heap variable order (indexed heap over activity).
    heap: Vec<Var>,
    heap_index: Vec<Option<u32>>,
    /// Saved phases for polarity caching.
    phase: Vec<bool>,
    /// Unit clauses asserted at level 0.
    ok: bool,
    /// Assumptions of the current/most recent solve.
    assumptions: Vec<Lit>,
    /// Final conflict (subset of negated assumptions) of the last
    /// unsat answer.
    conflict: Vec<Lit>,
    /// Scratch: seen flags for conflict analysis.
    seen: Vec<bool>,
    /// Scratch: reusable copy of the clause under conflict analysis, so
    /// analysis can walk its literals while bumping activities without
    /// borrowing (or re-allocating from) the clause arena.
    clause_buf: Vec<Lit>,
    stats: SolverStats,
    /// Model of the last sat answer (assignment snapshot).
    model: Vec<LBool>,
    /// When enabled, every problem clause handed to [`Solver::add_clause`]
    /// is recorded verbatim (before root-level simplification), so the
    /// accumulated formula can be exported as a [`crate::Cnf`].
    clause_log: Option<Vec<Vec<Lit>>>,
    /// When enabled, every learnt clause and every deletion by
    /// `reduce_db` is recorded as a DRAT step; each `Unsat` answer
    /// appends its final lemma, making the refutation independently
    /// checkable.
    proof: Option<Vec<ProofStep>>,
    /// In-solve heartbeat receiver (see [`Solver::set_progress`]).
    progress: Option<ProgressHook>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            config,
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            phase: Vec::new(),
            ok: true,
            assumptions: Vec::new(),
            conflict: Vec::new(),
            seen: Vec::new(),
            clause_buf: Vec::new(),
            stats: SolverStats::default(),
            model: Vec::new(),
            clause_log: None,
            proof: None,
            progress: None,
        }
    }

    /// Installs an in-solve progress sink: from now on the search loop
    /// emits a [`Heartbeat`] every [`SolverConfig::heartbeat_every`]
    /// conflicts. Heartbeats are observation-only — installing, removing
    /// or swapping a sink never changes any verdict, model or counter.
    pub fn set_progress(&mut self, sink: Arc<dyn ProgressSink>) {
        self.progress = Some(ProgressHook(sink));
    }

    fn heartbeat_if_due(&self) {
        let every = self.config.heartbeat_every;
        if every == 0 || !self.stats.conflicts.is_multiple_of(every) {
            return;
        }
        let Some(hook) = &self.progress else { return };
        hook.0.heartbeat(&Heartbeat {
            solves: self.stats.solves,
            conflicts: self.stats.conflicts,
            trail_depth: self.trail.len() as u64,
            restarts: self.stats.restarts,
            learnt: self.db.num_learnt() as u64,
            proof_steps: self.stats.proof_steps,
        });
    }

    /// Starts recording every problem clause added from now on.
    ///
    /// Clauses added before this call are not recorded, so enable the
    /// log on a fresh solver when the goal is exporting the complete
    /// formula. Learnt clauses are never recorded — the log is the
    /// *problem*, not the solver's deductions.
    pub fn enable_clause_log(&mut self) {
        self.clause_log.get_or_insert_with(Vec::new);
    }

    /// The recorded problem clauses, or `None` when the log was never
    /// enabled. Clauses appear exactly as handed to
    /// [`Solver::add_clause`], in insertion order.
    pub fn logged_clauses(&self) -> Option<&[Vec<Lit>]> {
        self.clause_log.as_deref()
    }

    /// Starts recording a DRAT proof: one `Add` per learnt clause, one
    /// `Delete` per clause that learnt-database reduction discards, and
    /// one final `Add` per `Unsat` answer — the empty clause for a
    /// formula-level refutation, or the negated unsat core for an
    /// assumption-level one. Replaying the steps through
    /// [`crate::check_drat`] against the formula (see
    /// [`Solver::enable_clause_log`]) certifies every `Unsat` verdict the
    /// solver has produced. Enable on a fresh solver: lemmas derived
    /// before recording started would leave holes in the proof.
    pub fn enable_proof(&mut self) {
        self.proof.get_or_insert_with(Vec::new);
    }

    /// The recorded proof so far, or `None` when never enabled. The log
    /// is cumulative across `solve` calls — sound because the formula
    /// only ever grows, so each recorded lemma stays derivable at its
    /// position in the step sequence.
    pub fn proof(&self) -> Option<&[ProofStep]> {
        self.proof.as_deref()
    }

    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Add(lits.to_vec()));
            self.stats.proof_steps += 1;
        }
    }

    fn proof_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Delete(lits.to_vec()));
            self.stats.proof_steps += 1;
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Work counters.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.clauses = self.db.stats();
        s
    }

    /// Lifetime allocation counters (variables, arena clauses, arena
    /// literal slots) — monotone, unaffected by deletion or compaction.
    pub fn alloc_stats(&self) -> AllocStats {
        let (clauses, arena_lits) = self.db.lifetime_allocs();
        AllocStats {
            vars: self.num_vars() as u64,
            clauses,
            arena_lits,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.heap_index.push(None);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Ensures at least `n` variables exist, creating any missing ones.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver became trivially unsatisfiable at the
    /// root level (empty clause, or a unit contradicting earlier units);
    /// every later `solve` then answers `Unsat`. Duplicated literals are
    /// removed and tautologies (`x ∨ ¬x ∨ …`) are silently accepted.
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.into_iter().collect();
        if let Some(log) = &mut self.clause_log {
            log.push(c.clone());
        }
        c.sort_unstable();
        c.dedup();
        // Tautology / falsified-literal pruning at root level.
        let mut write = 0;
        let mut prev: Option<Lit> = None;
        for i in 0..c.len() {
            let l = c[i];
            if prev == Some(!l) {
                return true; // tautology: p and ¬p adjacent after sort
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at root
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    c[write] = l;
                    write += 1;
                    prev = Some(l);
                }
            }
        }
        c.truncate(write);
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                match self.propagate() {
                    None => true,
                    Some(_) => {
                        self.ok = false;
                        false
                    }
                }
            }
            _ => {
                let cref = self.db.alloc(&c, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// `true` while no root-level contradiction has been derived.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1, binary) = {
            let c = self.db.lits(cref);
            (c[0], c[1], c.len() == 2)
        };
        self.watches[(!l0).watch_index()].push(Watch {
            cref,
            blocker: l1,
            binary,
        });
        self.watches[(!l1).watch_index()].push(Watch {
            cref,
            blocker: l0,
            binary,
        });
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].under(l)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let widx = p.watch_index();
            let mut i = 0;
            'watchers: while i < self.watches[widx].len() {
                let Watch {
                    cref,
                    blocker,
                    binary,
                } = self.watches[widx][i];
                if self.lit_value(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                if binary {
                    // The blocker is the clause's only other literal, so
                    // the clause is unit or conflicting — resolved right
                    // here, with no arena access and no watch movement.
                    if self.lit_value(blocker) == LBool::False {
                        self.qhead = self.trail.len();
                        return Some(cref);
                    }
                    self.unchecked_enqueue(blocker, Some(cref));
                    i += 1;
                    continue;
                }
                // Make sure the false literal (¬p) is at position 1.
                let false_lit = !p;
                {
                    let c = self.db.lits_mut(cref);
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                    debug_assert_eq!(c[1], false_lit);
                }
                let first = self.db.lits(cref)[0];
                if first != blocker && self.lit_value(first) == LBool::True {
                    self.watches[widx][i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.len(cref);
                for k in 2..len {
                    let lk = self.db.lits(cref)[k];
                    if self.lit_value(lk) != LBool::False {
                        self.db.lits_mut(cref).swap(1, k);
                        self.watches[widx].swap_remove(i);
                        self.watches[(!lk).watch_index()].push(Watch {
                            cref,
                            blocker: first,
                            binary: false,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
        }
        None
    }

    // ----- variable order (indexed max-heap over activity) -----

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_index[v.index()].is_some() {
            return;
        }
        self.heap.push(v);
        let i = self.heap.len() - 1;
        self.heap_index[v.index()] = Some(i as u32);
        self.heap_up(i);
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_index[self.heap[a].index()] = Some(a as u32);
        self.heap_index[self.heap[b].index()] = Some(b as u32);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_index[top.index()] = None;
        let last = self.heap.pop().expect("nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_index[last.index()] = Some(0);
            self.heap_down(0);
        }
        Some(top)
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if let Some(i) = self.heap_index[v.index()] {
            self.heap_up(i as usize);
        }
    }

    fn var_decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn clause_bump(&mut self, cref: ClauseRef) {
        if self.db.bump_activity(cref, self.clause_inc) > 1e20 {
            let refs: Vec<ClauseRef> = self.db.learnt_refs().collect();
            for r in refs {
                self.db.scale_activity(r, 1e-20);
            }
            self.clause_inc *= 1e-20;
        }
    }

    fn clause_decay(&mut self) {
        self.clause_inc /= CLAUSE_DECAY;
    }

    // ----- search -----

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn backtrack_to(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.phase[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.heap_insert(v);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var::from_index(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        // Reusable scratch: copy each clause out of the arena so its
        // literals can be walked while activities are bumped (no
        // per-conflict allocation once the buffer has grown).
        let mut buf = std::mem::take(&mut self.clause_buf);

        loop {
            self.clause_bump(confl);
            buf.clear();
            buf.extend_from_slice(self.db.lits(confl));
            for &q in &buf {
                // In a reason clause, skip the literal it implied (it is
                // not necessarily at index 0 for binary clauses, whose
                // watchers never reorder the stored literals).
                if p == Some(q) {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("uip literal").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("uip literal");
                break;
            }
            confl = self.reason[pv.index()].expect("implied literal has a reason");
            // The next round skips the literal this reason implied (p).
        }
        self.clause_buf = buf;

        // Clause minimisation: drop literals implied by the rest.
        let before = learnt.len();
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.lit_redundant(l, &learnt))
            .collect();
        learnt.truncate(1);
        learnt.extend(keep);
        self.stats.minimised_lits += (before - learnt.len()) as u64;

        // Clear seen flags for all clause literals.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        // (lit_redundant leaves extra seen flags; clear via trail scan.)
        for &l in &self.trail {
            self.seen[l.var().index()] = false;
        }

        // Find backtrack level: max level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    /// "Basic" clause minimisation: `l` is redundant if it was implied by
    /// a reason clause all of whose other literals are at level 0 or
    /// already in the learnt clause. Sound and cheap (no recursion, no
    /// shared marks), which is all the workloads here need.
    ///
    /// The implied literal itself (`¬l`, somewhere in the reason clause;
    /// not necessarily first for binary clauses) passes the `in_learnt`
    /// test through `l`, so the whole clause can be scanned uniformly.
    fn lit_redundant(&self, l: Lit, learnt: &[Lit]) -> bool {
        let Some(r) = self.reason[l.var().index()] else {
            return false;
        };
        let in_learnt = |v: Var| learnt.iter().any(|x| x.var() == v);
        self.db
            .lits(r)
            .iter()
            .all(|&q| self.level[q.var().index()] == 0 || in_learnt(q.var()))
    }

    fn learn(&mut self, learnt: Vec<Lit>, bt: u32) {
        self.proof_add(&learnt);
        self.backtrack_to(bt);
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], None);
        } else {
            let lbd = self.compute_lbd(&learnt);
            let asserting = learnt[0];
            let cref = self.db.alloc(&learnt, true, lbd);
            self.attach(cref);
            self.clause_bump(cref);
            self.unchecked_enqueue(asserting, Some(cref));
        }
        self.var_decay();
        self.clause_decay();
    }

    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut refs: Vec<ClauseRef> = self
            .db
            .learnt_refs()
            .filter(|&r| {
                // Never remove reason clauses of current assignments.
                let lits = self.db.lits(r);
                let locked = self.reason[lits[0].var().index()] == Some(r)
                    && self.lit_value(lits[0]) == LBool::True;
                !locked && lits.len() > 2
            })
            .collect();
        refs.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let remove = refs.len() / 2;
        for &r in refs.iter().take(remove) {
            self.detach(r);
            if self.proof.is_some() {
                let lits = self.db.lits(r).to_vec();
                self.proof_delete(&lits);
            }
            self.db.delete(r);
        }
        if self.db.needs_compaction() {
            self.compact_db();
        }
    }

    /// Compacts the clause arena and renumbers every stored handle.
    /// Watchers of deleted clauses were detached beforehand and reason
    /// clauses are never deleted (the locked check in `reduce_db`), so
    /// every live handle survives the remap.
    fn compact_db(&mut self) {
        let map = self.db.compact();
        for ws in &mut self.watches {
            ws.retain_mut(|w| match map.remap(w.cref) {
                Some(new) => {
                    w.cref = new;
                    true
                }
                None => false,
            });
        }
        for r in &mut self.reason {
            if let Some(cref) = *r {
                *r = map.remap(cref);
                debug_assert!(r.is_some(), "reason clauses survive compaction");
            }
        }
    }

    fn detach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = self.db.lits(cref);
            (c[0], c[1])
        };
        for l in [l0, l1] {
            let w = &mut self.watches[(!l).watch_index()];
            if let Some(pos) = w.iter().position(|x| x.cref == cref) {
                w.swap_remove(pos);
            }
        }
    }

    fn luby(x: u64) -> u64 {
        // Luby sequence (0-based x): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        // luby(i) = 2^(k-1) if i = 2^k - 1, else luby(i - (2^(k-1) - 1))
        // for the smallest k with 2^k - 1 >= i (1-based i).
        let mut i = x + 1;
        loop {
            let mut k: u32 = 1;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions act like temporary unit clauses: they constrain this
    /// call only. On `Unsat`, [`Solver::unsat_core`] returns the subset of
    /// assumptions used to derive the conflict, which the SMT layer uses
    /// to report *which* constraint group is inconsistent.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.assumptions = assumptions.to_vec();
        self.conflict.clear();
        self.model.clear();
        if !self.ok {
            // A root contradiction is already on the books; the empty
            // clause follows from the formula by propagation alone.
            self.proof_add(&[]);
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);

        let mut restarts: u64 = 0;
        let mut conflicts_left = Solver::luby(restarts).saturating_mul(self.config.restart_base);
        let mut max_learnt = (self.db.num_problem() as f64 * LEARNT_SIZE_FACTOR).max(100.0);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.heartbeat_if_due();
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.proof_add(&[]);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                // Backtracking below the assumption frontier is fine: the
                // decision loop re-places assumptions, and a falsified one
                // is caught there by `analyze_final`.
                self.learn(learnt, bt);
                conflicts_left = conflicts_left.saturating_sub(1);
            } else {
                if self.db.num_learnt() as f64 >= max_learnt + self.trail.len() as f64 {
                    self.reduce_db();
                    max_learnt *= LEARNT_SIZE_INC;
                }
                if conflicts_left == 0 {
                    self.stats.restarts += 1;
                    restarts += 1;
                    conflicts_left =
                        Solver::luby(restarts).saturating_mul(self.config.restart_base);
                    self.backtrack_to(0);
                    continue;
                }
                // Place assumptions as pseudo-decisions first.
                let mut placed_all = true;
                let assumptions = self.assumptions.clone();
                for (i, &a) in assumptions.iter().enumerate() {
                    if (self.decision_level() as usize) > i {
                        continue;
                    }
                    match self.lit_value(a) {
                        LBool::True => {
                            // Hold the level structure: a dummy level keeps
                            // the frontier aligned with assumption count.
                            self.new_decision_level();
                        }
                        LBool::False => {
                            self.analyze_final(a);
                            // The negated core is the final lemma of this
                            // refutation: every decision level below here
                            // is an assumption pseudo-decision, so the
                            // conflict re-derives by propagation alone
                            // once the core assumptions are assumed.
                            let core = self.conflict.clone();
                            self.proof_add(&core);
                            self.backtrack_to(0);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.new_decision_level();
                            self.unchecked_enqueue(a, None);
                            placed_all = false;
                            break;
                        }
                    }
                }
                if !placed_all {
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        self.model = self.assigns.clone();
                        self.backtrack_to(0);
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        let l = Lit::new(v, self.phase[v.index()]);
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Builds the unsat core when an assumption is directly falsified.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict.clear();
        self.conflict.push(!failed);
        if self.decision_level() == 0 {
            return;
        }
        let mut seen = vec![false; self.num_vars()];
        seen[failed.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    // A decision reached here is an assumption feeding the
                    // conflict. `l == !failed` happens when the same
                    // variable was assumed with both polarities; the core
                    // must then contain both.
                    if self.assumptions.contains(&l) {
                        self.conflict.push(!l);
                    }
                }
                Some(r) => {
                    // Skip the implied literal by variable (it need not
                    // sit at index 0 in a binary reason clause).
                    for &q in self.db.lits(r) {
                        if q.var() != v && self.level[q.var().index()] > 0 {
                            seen[q.var().index()] = true;
                        }
                    }
                }
            }
            seen[v.index()] = false;
        }
    }

    /// The value of `v` in the most recent satisfying model, or `None` if
    /// the last answer was not `Sat` (or the variable was irrelevant and
    /// left unassigned — the solver assigns every variable, so that case
    /// only arises for variables created after the solve).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The complete model of the last `Sat` answer as a vector indexed by
    /// variable index. Empty if the last answer was not `Sat`.
    pub fn model(&self) -> Vec<bool> {
        self.model
            .iter()
            .map(|&b| matches!(b, LBool::True))
            .collect()
    }

    /// After an `Unsat` answer to [`Solver::solve_with`], the subset of
    /// assumptions whose conjunction is inconsistent with the formula
    /// (each returned literal is the *negation* of a failed assumption,
    /// i.e. the core is returned as the conflict clause `¬a₁ ∨ … ∨ ¬aₖ`).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([Lit::pos(v)]));
        assert!(!s.add_clause([Lit::neg(v)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([Lit::pos(v), Lit::neg(v)]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn implication_chain() {
        // x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3) ∧ ... forces all true.
        let mut s = Solver::new();
        let ls = vars(&mut s, 20);
        s.add_clause([ls[0]]);
        for w in ls.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for &l in &ls {
            assert_eq!(s.value(l.var()), Some(true));
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // Odd parity chain with contradictory endpoints.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        // a xor b
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        s.add_clause([Lit::neg(a), Lit::neg(b)]);
        // b xor c
        s.add_clause([Lit::pos(b), Lit::pos(c)]);
        s.add_clause([Lit::neg(b), Lit::neg(c)]);
        // a xor c  (inconsistent: xor chain implies a == c)
        s.add_clause([Lit::pos(a), Lit::pos(c)]);
        s.add_clause([Lit::neg(a), Lit::neg(c)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        let mut s = Solver::new();
        add_pigeonhole(&mut s, 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Adds PHP(n+1, n), the classic conflict generator, to `s`.
    fn add_pigeonhole(s: &mut Solver, n: usize) {
        let p: Vec<Vec<Lit>> = (0..=n)
            .map(|_| (0..n).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for i in 0..=n {
            for j in (i + 1)..=n {
                for (&a, &b) in p[i].iter().zip(&p[j]) {
                    s.add_clause([!a, !b]);
                }
            }
        }
    }

    /// PHP(n+1, n) with `config`.
    fn pigeonhole_solver(n: usize, config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
        add_pigeonhole(&mut s, n);
        s
    }

    #[derive(Default)]
    struct CollectSink(std::sync::Mutex<Vec<Heartbeat>>);

    impl ProgressSink for CollectSink {
        fn heartbeat(&self, beat: &Heartbeat) {
            self.0.lock().unwrap().push(*beat);
        }
    }

    #[test]
    fn heartbeats_fire_every_n_conflicts_and_are_deterministic() {
        let run = || {
            let config = SolverConfig {
                heartbeat_every: 8,
                ..SolverConfig::default()
            };
            let mut s = pigeonhole_solver(6, config);
            let sink = Arc::new(CollectSink::default());
            s.set_progress(Arc::clone(&sink) as Arc<dyn ProgressSink>);
            assert_eq!(s.solve(), SolveResult::Unsat);
            let beats = sink.0.lock().unwrap().clone();
            (beats, s.stats())
        };
        let (beats, stats) = run();
        assert!(
            beats.len() >= 2,
            "PHP(7,6) must produce enough conflicts for several beats"
        );
        for beat in &beats {
            assert_eq!(beat.conflicts % 8, 0, "beats fire on the conflict grid");
            assert_eq!(beat.solves, 1);
        }
        let conflicts: Vec<u64> = beats.iter().map(|b| b.conflicts).collect();
        let mut sorted = conflicts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(conflicts, sorted, "beats arrive in order, no duplicates");
        // Event-count-based cadence: a second identical run emits the
        // identical beat sequence.
        let (beats2, stats2) = run();
        assert_eq!(beats, beats2);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn heartbeats_are_observation_only() {
        let mut plain = pigeonhole_solver(5, SolverConfig::default());
        assert_eq!(plain.solve(), SolveResult::Unsat);

        let config = SolverConfig {
            heartbeat_every: 1,
            ..SolverConfig::default()
        };
        let mut observed = pigeonhole_solver(5, config);
        let sink = Arc::new(CollectSink::default());
        observed.set_progress(Arc::clone(&sink) as Arc<dyn ProgressSink>);
        assert_eq!(observed.solve(), SolveResult::Unsat);
        assert_eq!(
            plain.stats(),
            observed.stats(),
            "a heartbeat sink must never perturb the search"
        );
        assert_eq!(
            sink.0.lock().unwrap().len() as u64,
            observed.stats().conflicts,
            "heartbeat_every=1 beats once per conflict"
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index form mirrors the formula
    fn pigeonhole_5_into_5_sat() {
        let n = 5;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Verify it's a real matching.
        for h in 0..n {
            let count = (0..n)
                .filter(|&i| s.value(p[i][h].var()) == Some(true))
                .count();
            assert!(count <= 1, "hole {h} used {count} times");
        }
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        assert_eq!(
            s.solve_with(&[Lit::neg(a), Lit::neg(b)]),
            SolveResult::Unsat
        );
        // Formula itself still sat.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[Lit::neg(a)]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn unsat_core_is_minimal_here() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([Lit::neg(a), Lit::neg(b)]); // a,b mutually exclusive
        let r = s.solve_with(&[Lit::pos(a), Lit::pos(b), Lit::pos(c)]);
        assert_eq!(r, SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        // Core is a clause over negated assumptions; c must not appear.
        assert!(core.contains(&Lit::neg(a)) || core.contains(&Lit::neg(b)));
        assert!(!core.contains(&Lit::neg(c)));
    }

    #[test]
    fn conflicting_assumption_pair() {
        let mut s = Solver::new();
        let a = s.new_var();
        let r = s.solve_with(&[Lit::pos(a), Lit::neg(a)]);
        assert_eq!(r, SolveResult::Unsat);
        assert!(s.unsat_core().contains(&Lit::neg(a)) || s.unsat_core().contains(&Lit::pos(a)));
    }

    #[test]
    fn random_3sat_matches_bruteforce() {
        // Deterministic LCG-generated formulas, checked against brute force.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for trial in 0..60 {
            let n = 3 + next() % 8; // 3..10 vars
            let m = 3 + next() % (4 * n); // clauses
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push((next() % n, next() % 2 == 0));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << n) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            let vs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for cl in &clauses {
                s.add_clause(cl.iter().map(|&(v, pos)| Lit::new(vs[v], pos)));
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, brute_sat, "trial {trial} disagreed (n={n})");
            if got {
                // Check the model actually satisfies.
                for cl in &clauses {
                    assert!(cl.iter().any(|&(v, pos)| s.value(vs[v]) == Some(pos)));
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(Solver::luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let ls = vars(&mut s, 10);
        for w in ls.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        s.add_clause([ls[0]]);
        s.solve();
        let st = s.stats();
        assert_eq!(st.solves, 1);
        assert!(st.propagations > 0);
    }

    #[test]
    fn binary_heavy_formula_with_assumptions() {
        // An implication cycle of binary clauses plus an escape hatch;
        // exercises the binary watcher fast path in both polarities,
        // including conflicts inside binary chains.
        let mut s = Solver::new();
        let ls = vars(&mut s, 16);
        for w in ls.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        // Close the cycle: last implies first.
        s.add_clause([!ls[15], ls[0]]);
        assert_eq!(s.solve_with(&[ls[3]]), SolveResult::Sat);
        for &l in &ls {
            assert_eq!(s.value(l.var()), Some(true));
        }
        // Forcing one variable low while another is high is a conflict
        // that must be traced through binary reason clauses.
        assert_eq!(s.solve_with(&[ls[3], !ls[9]]), SolveResult::Unsat);
        let core = s.unsat_core();
        assert!(core.contains(&!ls[3]) && core.contains(&ls[9]), "{core:?}");
        assert_eq!(s.solve_with(&[!ls[9]]), SolveResult::Sat);
        for &l in &ls {
            assert_eq!(s.value(l.var()), Some(false));
        }
    }

    #[test]
    fn compaction_preserves_solver_state() {
        // Learn a pile of clauses, compact the arena mid-stream, and
        // keep solving: watches and reasons must follow the remap.
        let mut seed = 0xdeadbeefu64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 4,
            ..SolverConfig::default()
        });
        let n = 40;
        let vs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for _ in 0..160 {
            let a = Lit::new(vs[next() % n], next() % 2 == 0);
            let b = Lit::new(vs[next() % n], next() % 2 == 0);
            let c = Lit::new(vs[next() % n], next() % 2 == 0);
            s.add_clause([a, b, c]);
        }
        for round in 0..40 {
            let a = Lit::new(vs[next() % n], next() % 2 == 0);
            let r1 = s.solve_with(&[a]);
            s.compact_db();
            let r2 = s.solve_with(&[a]);
            assert_eq!(r1, r2, "round {round}: verdict changed across compaction");
        }
    }

    #[test]
    fn alloc_stats_are_monotone() {
        let mut s = Solver::new();
        let ls = vars(&mut s, 6);
        for w in ls.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        s.add_clause([ls[0], ls[2], ls[4]]);
        let before = s.alloc_stats();
        assert_eq!(before.vars, 6);
        assert_eq!(before.clauses, 6);
        assert_eq!(before.arena_lits, 13);
        s.solve();
        let after = s.alloc_stats();
        assert!(after.clauses >= before.clauses);
        assert!(after.arena_lits >= before.arena_lits);
        // Re-solving an unchanged formula allocates nothing new.
        s.solve();
        assert_eq!(s.alloc_stats(), after);
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([Lit::neg(a)]);
        s.add_clause([Lit::neg(b)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    // ----- proofs -----

    use crate::cnf::Cnf;
    use crate::drat::{check_drat, CheckMode};

    /// A solver that records both the formula and the proof, plus the
    /// exported [`Cnf`] to check the proof against.
    fn certified(config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
        s.enable_clause_log();
        s.enable_proof();
        s
    }

    fn exported_cnf(s: &Solver) -> Cnf {
        let mut cnf = Cnf::new();
        cnf.reserve_vars(s.num_vars());
        for c in s.logged_clauses().expect("clause log enabled") {
            cnf.add_clause(c.iter().copied());
        }
        cnf
    }

    fn assert_certified(s: &Solver) {
        let cnf = exported_cnf(s);
        let proof = s.proof().expect("proof enabled");
        let out = check_drat(&cnf, proof, CheckMode::Last).expect("proof must verify");
        assert!(out.checked >= 1);
        check_drat(&cnf, proof, CheckMode::All).expect("every lemma must be RUP");
    }

    #[test]
    fn pigeonhole_proof_verifies() {
        let mut s = certified(SolverConfig::default());
        add_pigeonhole(&mut s, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().proof_steps > 0);
        assert_certified(&s);
    }

    #[test]
    fn reduced_database_keeps_the_proof_checkable() {
        // PHP(7, 6) learns past the floor of 100 learnt clauses, so
        // `reduce_db` runs, and its `Delete` steps are the only ones in
        // the proof: both checking modes must still accept it.
        let mut s = certified(SolverConfig::default());
        add_pigeonhole(&mut s, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().reductions > 0, "{:?}", s.stats());
        let proof = s.proof().unwrap();
        assert!(proof.iter().any(|p| matches!(p, ProofStep::Delete(_))));
        assert_certified(&s);
    }

    #[test]
    fn assumption_core_proof_verifies() {
        let mut s = certified(SolverConfig::default());
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([Lit::neg(a), Lit::neg(b)]);
        assert_eq!(
            s.solve_with(&[Lit::pos(a), Lit::pos(b), Lit::pos(c)]),
            SolveResult::Unsat
        );
        // The final lemma is the negated core, not the empty clause.
        match s.proof().unwrap().last() {
            Some(ProofStep::Add(lits)) => assert!(!lits.is_empty()),
            other => panic!("expected a final core lemma, got {other:?}"),
        }
        assert_certified(&s);
        // A later formula-level refutation extends the same proof.
        s.add_clause([Lit::pos(a)]);
        s.add_clause([Lit::pos(b)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.proof().unwrap().last(), Some(&ProofStep::Add(vec![])));
        assert_certified(&s);
    }

    #[test]
    fn random_formulas_certified_under_frequent_restarts() {
        let mut seed = 0x51a7e5u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let mut unsat_seen = 0;
        let mut restarts = 0;
        for trial in 0..80 {
            let n = 4 + next() % 7;
            let m = 2 * n + next() % (5 * n);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                clauses.push((0..3).map(|_| (next() % n, next() % 2 == 0)).collect());
            }
            let mut brute_sat = false;
            'outer: for bits in 0..(1u32 << n) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Luby restarts at base 1 fire even on tiny formulas.
            let mut s = certified(SolverConfig {
                restart_base: 1,
                ..SolverConfig::default()
            });
            let vs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for cl in &clauses {
                s.add_clause(cl.iter().map(|&(v, pos)| Lit::new(vs[v], pos)));
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, brute_sat, "trial {trial} disagreed (n={n}, m={m})");
            if !got {
                unsat_seen += 1;
                assert_certified(&s);
            }
            restarts += s.stats().restarts;
        }
        assert!(unsat_seen > 5, "want UNSAT coverage, got {unsat_seen}");
        assert!(restarts > 0, "the search never restarted");
    }
}
