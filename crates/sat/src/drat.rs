//! DRAT proofs: emission format and an in-tree backward checker.
//!
//! An UNSAT answer is the one verdict a user cannot cross-examine by
//! testing the witness — there is none. DRAT (Deletion Resolution
//! Asymmetric Tautology) is the standard certificate format of the SAT
//! competitions: the solver logs every clause it learns (`Add`) and
//! every clause it discards (`Delete`); a proof checker then replays
//! the additions and confirms each one follows from what came before by
//! *reverse unit propagation* (RUP) — assume every literal of the
//! learnt clause false, propagate, and a conflict must appear. The
//! checker shares no code with the solver's search, so a bug in the
//! CDCL machinery cannot vouch for itself.
//!
//! The solver (see
//! [`Solver::enable_proof`](crate::Solver::enable_proof)) emits:
//!
//! * one `Add` per learnt clause (learnt units included),
//! * one `Delete` per clause removed by learnt-database reduction, and
//! * a final `Add` per UNSAT answer — the empty clause when the formula
//!   itself is contradictory, or the *negated unsat core*
//!   (`¬a₁ ∨ … ∨ ¬aₖ` over the failed assumptions) when the answer was
//!   conditional on assumptions. Either way the final lemma is RUP with
//!   respect to the formula plus the surviving learnt clauses, so one
//!   proof format covers both flavours of "no".
//!
//! [`check_drat`] is a *backward* checker with core marking: it replays
//! the proof forward only to resolve which clause instance each
//! deletion refers to, then walks the proof backwards, verifying a
//! lemma only if some later verified lemma (or the final one) used it
//! as a propagation antecedent. On the incremental workloads here most
//! learnt clauses never feed the final conflict, so backward checking
//! verifies a small core of the proof instead of all of it;
//! [`CheckMode::All`] forces every addition to be verified.
//!
//! Deletions that name a clause not currently active are skipped, like
//! `drat-trim` does: the solver deletes its *simplified* form of a
//! clause while the formula holds the original, and ignoring the
//! mismatch only leaves more clauses active, which can never turn an
//! invalid proof valid.

use std::fmt;
use std::io::{self, Write};

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};

/// One line of a DRAT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// A learnt (or strengthened) clause: must be RUP with respect to
    /// everything active before it.
    Add(Vec<Lit>),
    /// A clause the solver discarded; removing clauses is always sound.
    Delete(Vec<Lit>),
}

/// Which additions [`check_drat`] must verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Verify the final `Add` (the UNSAT lemma) and, transitively, every
    /// addition it depends on — the backward-checking default.
    Last,
    /// Verify every addition in the proof.
    All,
}

/// A verified proof's shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DratOutcome {
    /// Total steps in the proof.
    pub steps: usize,
    /// Clause additions.
    pub adds: usize,
    /// Clause deletions.
    pub deletes: usize,
    /// Additions actually RUP-verified (the marked core in
    /// [`CheckMode::Last`]; all of them in [`CheckMode::All`]).
    pub checked: usize,
}

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DratError {
    /// The proof contains no addition to verify.
    NoLemma,
    /// An addition is not RUP: assuming its literals false did not
    /// propagate to a conflict. The step index is into the proof.
    NotImplied { step: usize, clause: Vec<Lit> },
    /// The proof text could not be parsed.
    Parse { line: usize, message: String },
}

impl fmt::Display for DratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DratError::NoLemma => write!(f, "proof contains no clause addition to verify"),
            DratError::NotImplied { step, clause } => {
                write!(f, "step {step}: clause not implied by unit propagation (")?;
                for (i, l) in clause.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{}", dimacs_lit(*l))?;
                }
                write!(f, ")")
            }
            DratError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for DratError {}

fn dimacs_lit(l: Lit) -> i64 {
    let v = l.var().index() as i64 + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

/// Writes a proof in the standard textual DRAT format: one step per
/// line, literals in DIMACS numbering, deletions prefixed `d`, every
/// line terminated by `0`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_drat<W: Write>(steps: &[ProofStep], mut w: W) -> io::Result<()> {
    let mut line = String::new();
    for step in steps {
        line.clear();
        let lits = match step {
            ProofStep::Add(lits) => lits,
            ProofStep::Delete(lits) => {
                line.push_str("d ");
                lits
            }
        };
        for &l in lits {
            line.push_str(&dimacs_lit(l).to_string());
            line.push(' ');
        }
        line.push_str("0\n");
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Parses a textual DRAT proof (the format [`write_drat`] emits;
/// comment lines starting with `c` are skipped).
///
/// # Errors
///
/// [`DratError::Parse`] with a 1-based line number on malformed input.
pub fn parse_drat(input: &[u8]) -> Result<Vec<ProofStep>, DratError> {
    let text = String::from_utf8_lossy(input);
    let mut steps = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let err = |message: &str| DratError::Parse {
            line: idx + 1,
            message: message.to_string(),
        };
        let (delete, body) = match line.strip_prefix('d') {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in body.split_ascii_whitespace() {
            if terminated {
                return Err(err("literals after the terminating 0"));
            }
            let n: i64 = tok
                .parse()
                .map_err(|_| err(&format!("bad literal {tok:?}")))?;
            if n == 0 {
                terminated = true;
                continue;
            }
            let magnitude = n.unsigned_abs();
            if magnitude > u32::MAX as u64 / 2 {
                return Err(err(&format!("literal {n} out of range")));
            }
            let var = Var::from_index(magnitude as usize - 1);
            lits.push(Lit::new(var, n > 0));
        }
        if !terminated {
            return Err(err("missing terminating 0"));
        }
        steps.push(if delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        });
    }
    Ok(steps)
}

/// Truth value of a literal under the checker's partial assignment.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Val {
    Undef,
    True,
    False,
}

/// One clause instance known to the checker: a formula clause or the
/// clause added by a specific proof step. Two steps adding equal
/// literals are distinct instances, matching DRAT's multiset semantics.
struct Instance {
    lits: Vec<Lit>,
    active: bool,
    /// Reachable from a verified lemma's propagation conflict — must
    /// itself be verified when the backward walk reaches it.
    marked: bool,
}

/// The backward checker's propagation state.
struct Checker {
    instances: Vec<Instance>,
    /// `occ[watch_index(l)]`: instances containing `l`, scanned when
    /// `¬l` becomes true.
    occ: Vec<Vec<usize>>,
    assign: Vec<Val>,
    trail: Vec<Lit>,
    /// Instance that implied each assigned variable (`None` for the
    /// assumed negations of the clause under test).
    reason: Vec<Option<usize>>,
    /// Active unit instances, seeded into every propagation.
    units: Vec<usize>,
    /// Active empty instances (an immediate conflict).
    empties: Vec<usize>,
}

impl Checker {
    fn new(num_vars: usize) -> Checker {
        Checker {
            instances: Vec::new(),
            occ: vec![Vec::new(); num_vars * 2],
            assign: vec![Val::Undef; num_vars],
            trail: Vec::new(),
            reason: vec![None; num_vars],
            units: Vec::new(),
            empties: Vec::new(),
        }
    }

    fn add_instance(&mut self, mut lits: Vec<Lit>) -> usize {
        // Store clauses deduplicated: a repeated literal would otherwise
        // read as two open literals and silently block unit propagation.
        // (Formula clauses arrive verbatim from the clause log, which
        // records them before the solver's own dedup.)
        lits.sort_unstable();
        lits.dedup();
        let id = self.instances.len();
        for &l in &lits {
            self.occ[l.watch_index()].push(id);
        }
        match lits.len() {
            0 => self.empties.push(id),
            1 => self.units.push(id),
            _ => {}
        }
        self.instances.push(Instance {
            lits,
            active: true,
            marked: false,
        });
        id
    }

    fn set_active(&mut self, id: usize, active: bool) {
        self.instances[id].active = active;
        match self.instances[id].lits.len() {
            0 => {
                if active {
                    self.empties.push(id);
                } else {
                    self.empties.retain(|&e| e != id);
                }
            }
            1 => {
                if active {
                    self.units.push(id);
                } else {
                    self.units.retain(|&u| u != id);
                }
            }
            _ => {}
        }
    }

    fn value(&self, l: Lit) -> Val {
        match self.assign[l.var().index()] {
            Val::Undef => Val::Undef,
            Val::True if l.is_positive() => Val::True,
            Val::False if l.is_negative() => Val::True,
            _ => Val::False,
        }
    }

    /// Assigns `l` true; returns the conflicting instance when `l` was
    /// already false (`from` doubles as the conflict's antecedent).
    fn enqueue(&mut self, l: Lit, from: Option<usize>) -> Option<usize> {
        match self.value(l) {
            Val::True => None,
            Val::False => from.or_else(|| {
                // A conflicting *assumption* (two negated literals of the
                // clause under test clash): impossible here, because the
                // solver never emits a tautological lemma, but fall back
                // to the falsifying reason for robustness.
                self.reason[l.var().index()]
            }),
            Val::Undef => {
                self.assign[l.var().index()] = if l.is_positive() {
                    Val::True
                } else {
                    Val::False
                };
                self.reason[l.var().index()] = from;
                self.trail.push(l);
                None
            }
        }
    }

    /// Exhaustive unit propagation over the active instances; returns
    /// the first conflicting instance, if any.
    fn propagate(&mut self, mut head: usize) -> Option<usize> {
        while head < self.trail.len() {
            let p = self.trail[head];
            head += 1;
            // Instances containing ¬p may have become unit.
            let watch = (!p).watch_index();
            for idx in 0..self.occ[watch].len() {
                let id = self.occ[watch][idx];
                if !self.instances[id].active {
                    continue;
                }
                let mut unassigned: Option<Lit> = None;
                let mut satisfied = false;
                for i in 0..self.instances[id].lits.len() {
                    let l = self.instances[id].lits[i];
                    match self.value(l) {
                        Val::True => {
                            satisfied = true;
                            break;
                        }
                        Val::False => {}
                        Val::Undef => {
                            if unassigned.is_some() {
                                satisfied = true; // two open literals: not unit
                                break;
                            }
                            unassigned = Some(l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned {
                    None => return Some(id),
                    Some(l) => {
                        if let Some(confl) = self.enqueue(l, Some(id)) {
                            return Some(confl);
                        }
                    }
                }
            }
        }
        None
    }

    /// RUP check of `clause` against the active instances. On success
    /// marks every instance on the reason chain of the derived conflict
    /// (the lemma's antecedents). Leaves the assignment empty again.
    fn rup(&mut self, clause: &[Lit]) -> bool {
        debug_assert!(self.trail.is_empty());
        // A tautology is satisfied by every assignment — always a valid
        // addition, with no antecedents to mark. (The solver's conflict
        // analysis never produces one, but an assumption core over a
        // variable assumed in both polarities is exactly `x ∨ ¬x`.)
        if clause.iter().any(|&l| clause.contains(&!l)) {
            return true;
        }
        let mut conflict = self.empties.first().copied();
        if conflict.is_none() {
            // Seed: active units, then the negated clause under test.
            for i in 0..self.units.len() {
                let id = self.units[i];
                let l = self.instances[id].lits[0];
                if let Some(c) = self.enqueue(l, Some(id)) {
                    conflict = Some(c);
                    break;
                }
            }
            if conflict.is_none() {
                for &l in clause {
                    if let Some(c) = self.enqueue(!l, None) {
                        conflict = Some(c);
                        break;
                    }
                }
            }
            if conflict.is_none() {
                conflict = self.propagate(0);
            }
        }
        let Some(confl) = conflict else {
            for &l in &self.trail {
                self.assign[l.var().index()] = Val::Undef;
                self.reason[l.var().index()] = None;
            }
            self.trail.clear();
            return false;
        };
        // Mark antecedents: the conflict instance plus, walking the
        // trail backwards, the reason of every variable the conflict
        // traces through.
        self.instances[confl].marked = true;
        let mut involved = vec![false; self.assign.len()];
        for &l in &self.instances[confl].lits {
            involved[l.var().index()] = true;
        }
        for i in (0..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if involved[v.index()] {
                if let Some(r) = self.reason[v.index()] {
                    self.instances[r].marked = true;
                    for &l in &self.instances[r].lits {
                        involved[l.var().index()] = true;
                    }
                }
            }
            self.assign[v.index()] = Val::Undef;
            self.reason[v.index()] = None;
        }
        self.trail.clear();
        true
    }
}

/// Checks a DRAT proof against a formula.
///
/// Runs a forward replay (to bind each deletion to the most recent
/// matching active instance), then the backward verification pass: the
/// final lemma — and in [`CheckMode::Last`] exactly the additions its
/// propagation conflicts transitively depend on — must each be RUP with
/// respect to the formula and the proof prefix active at that point.
///
/// # Errors
///
/// [`DratError::NoLemma`] when the proof adds nothing, and
/// [`DratError::NotImplied`] when a checked addition does not follow by
/// unit propagation.
pub fn check_drat(
    cnf: &Cnf,
    steps: &[ProofStep],
    mode: CheckMode,
) -> Result<DratOutcome, DratError> {
    let mut num_vars = cnf.num_vars();
    for step in steps {
        let (ProofStep::Add(lits) | ProofStep::Delete(lits)) = step;
        for l in lits {
            num_vars = num_vars.max(l.var().index() + 1);
        }
    }
    let mut checker = Checker::new(num_vars);
    for clause in cnf.clauses() {
        checker.add_instance(clause.to_vec());
    }

    // Forward replay: create instances for additions, bind deletions to
    // the most recent active instance with the same literal multiset.
    use std::collections::HashMap;
    let mut active_by_key: HashMap<Vec<Lit>, Vec<usize>> = HashMap::new();
    let key_of = |lits: &[Lit]| {
        let mut k = lits.to_vec();
        k.sort_unstable();
        k
    };
    for (id, inst) in checker.instances.iter().enumerate() {
        active_by_key
            .entry(key_of(&inst.lits))
            .or_default()
            .push(id);
    }
    let mut adds = 0usize;
    let mut deletes = 0usize;
    // Per step: `Ok(id)` for an addition's instance, `Err(Some(id))`
    // for a resolved deletion, `Err(None)` for an ignored one.
    let mut step_instance: Vec<Result<usize, Option<usize>>> = Vec::with_capacity(steps.len());
    for step in steps {
        match step {
            ProofStep::Add(lits) => {
                adds += 1;
                let id = checker.add_instance(lits.clone());
                active_by_key.entry(key_of(lits)).or_default().push(id);
                step_instance.push(Ok(id));
            }
            ProofStep::Delete(lits) => {
                deletes += 1;
                let resolved = active_by_key
                    .get_mut(&key_of(lits))
                    .and_then(|stack| stack.pop());
                if let Some(id) = resolved {
                    checker.set_active(id, false);
                }
                step_instance.push(Err(resolved));
            }
        }
    }
    if adds == 0 {
        return Err(DratError::NoLemma);
    }

    // Backward pass.
    let mut checked = 0usize;
    let mut target_seen = false;
    for step_idx in (0..steps.len()).rev() {
        match &step_instance[step_idx] {
            Err(Some(id)) => checker.set_active(*id, true),
            Err(None) => {}
            Ok(id) => {
                let id = *id;
                checker.set_active(id, false);
                let must_check = match mode {
                    CheckMode::All => true,
                    // The last addition is the lemma under certification.
                    CheckMode::Last => !target_seen || checker.instances[id].marked,
                };
                target_seen = true;
                if must_check {
                    let clause = checker.instances[id].lits.clone();
                    if !checker.rup(&clause) {
                        return Err(DratError::NotImplied {
                            step: step_idx,
                            clause,
                        });
                    }
                    checked += 1;
                }
            }
        }
    }
    Ok(DratOutcome {
        steps: steps.len(),
        adds,
        deletes,
        checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::new(Var::from_index(n.unsigned_abs() as usize - 1), n > 0)
    }

    fn clause(ns: &[i64]) -> Vec<Lit> {
        ns.iter().map(|&n| lit(n)).collect()
    }

    /// The classic 8-clause unsatisfiable 2-out-of-3 example used by
    /// the drat-trim documentation.
    fn tiny_unsat() -> Cnf {
        let mut cnf = Cnf::new();
        cnf.reserve_vars(3);
        for c in [
            [1, 2, -3],
            [-1, -2, 3],
            [2, 3, -1],
            [-2, -3, 1],
            [1, 3, -2],
            [-1, -3, 2],
            [1, 2, 3],
            [-1, -2, -3],
        ] {
            cnf.add_clause(clause(&c));
        }
        cnf
    }

    #[test]
    fn verifies_a_hand_written_refutation() {
        let cnf = tiny_unsat();
        let steps = vec![
            ProofStep::Add(clause(&[1, 2])),
            ProofStep::Add(clause(&[1])),
            ProofStep::Add(clause(&[2])),
            ProofStep::Add(vec![]),
        ];
        let out = check_drat(&cnf, &steps, CheckMode::All).expect("valid proof");
        assert_eq!(out.adds, 4);
        assert_eq!(out.checked, 4);
        let out = check_drat(&cnf, &steps, CheckMode::Last).expect("valid proof");
        assert!(out.checked >= 1, "the final lemma is always checked");
    }

    #[test]
    fn rejects_a_bogus_lemma() {
        let mut cnf = Cnf::new();
        cnf.reserve_vars(2);
        cnf.add_clause(clause(&[1, 2]));
        let steps = vec![ProofStep::Add(clause(&[1]))];
        let err = check_drat(&cnf, &steps, CheckMode::Last).unwrap_err();
        match err {
            DratError::NotImplied { step: 0, .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn deletion_of_a_needed_clause_breaks_the_proof() {
        let cnf = tiny_unsat();
        // Valid refutation, except every original clause is deleted
        // before the lemmas that need them.
        let mut steps: Vec<ProofStep> = tiny_unsat()
            .clauses()
            .map(|c| ProofStep::Delete(c.to_vec()))
            .collect();
        steps.push(ProofStep::Add(clause(&[1, 2])));
        steps.push(ProofStep::Add(vec![]));
        assert!(check_drat(&cnf, &steps, CheckMode::Last).is_err());
    }

    #[test]
    fn unmatched_deletions_are_ignored() {
        let cnf = tiny_unsat();
        let steps = vec![
            ProofStep::Delete(clause(&[1, 2, 3, -3])), // no such clause
            ProofStep::Add(clause(&[1, 2])),
            ProofStep::Add(clause(&[1])),
            ProofStep::Add(clause(&[2])),
            ProofStep::Add(vec![]),
        ];
        check_drat(&cnf, &steps, CheckMode::All).expect("still valid");
    }

    #[test]
    fn assumption_core_lemma_without_empty_clause() {
        // x1 → x2, x2 → x3; core of assuming x1 ∧ ¬x3 is (¬x1 ∨ x3).
        let mut cnf = Cnf::new();
        cnf.reserve_vars(3);
        cnf.add_clause(clause(&[-1, 2]));
        cnf.add_clause(clause(&[-2, 3]));
        let steps = vec![ProofStep::Add(clause(&[-1, 3]))];
        let out = check_drat(&cnf, &steps, CheckMode::Last).expect("core clause is RUP");
        assert_eq!(out.checked, 1);
    }

    #[test]
    fn empty_proof_has_no_lemma() {
        assert_eq!(
            check_drat(&Cnf::new(), &[], CheckMode::Last),
            Err(DratError::NoLemma)
        );
    }

    #[test]
    fn empty_formula_clause_conflicts_immediately() {
        let mut cnf = Cnf::new();
        cnf.add_clause(clause(&[]));
        let steps = vec![ProofStep::Add(vec![])];
        check_drat(&cnf, &steps, CheckMode::Last).expect("empty clause in formula");
    }

    #[test]
    fn proof_text_round_trips() {
        let steps = vec![
            ProofStep::Add(clause(&[1, -2, 3])),
            ProofStep::Delete(clause(&[-1, 2])),
            ProofStep::Add(vec![]),
        ];
        let mut buf = Vec::new();
        write_drat(&steps, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text, "1 -2 3 0\nd -1 2 0\n0\n");
        assert_eq!(parse_drat(&buf).unwrap(), steps);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = parse_drat(b"1 2 0\nx y z\n").unwrap_err();
        match err {
            DratError::Parse { line: 2, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_drat(b"1 2\n").unwrap_err();
        assert!(matches!(err, DratError::Parse { line: 1, .. }));
    }

    #[test]
    fn comments_are_skipped() {
        let steps = parse_drat(b"c a comment\n1 0\n").unwrap();
        assert_eq!(steps, vec![ProofStep::Add(clause(&[1]))]);
    }

    #[test]
    fn backward_mode_skips_unused_lemmas() {
        let cnf = tiny_unsat();
        let steps = vec![
            // A true but irrelevant lemma (RUP, but feeds nothing).
            ProofStep::Add(clause(&[1, 2])),
            ProofStep::Add(clause(&[2, 3])),
            ProofStep::Add(clause(&[1, 3])),
            ProofStep::Add(clause(&[1])),
            ProofStep::Add(clause(&[2])),
            ProofStep::Add(vec![]),
        ];
        let all = check_drat(&cnf, &steps, CheckMode::All).unwrap();
        assert_eq!(all.checked, 6);
        let last = check_drat(&cnf, &steps, CheckMode::Last).unwrap();
        assert!(
            last.checked < all.checked,
            "backward checking must skip the unused lemma ({} vs {})",
            last.checked,
            all.checked
        );
    }
}
