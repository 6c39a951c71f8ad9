//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! This crate is the bottom layer of the `llhsc` reproduction. The paper
//! discharges all of its constraints — feature-model formulas, schema
//! constraints and bit-vector memory-consistency formulas — through the Z3
//! theorem prover, which (as the paper notes in §IV-C) decides the
//! bit-vector fragment by *bit-blasting into a SAT problem*. This solver
//! plays the role of that SAT back end.
//!
//! The implementation is a classic two-watched-literal CDCL solver with:
//!
//! * a flat literal arena for clause storage (one shared `Vec` instead
//!   of a heap allocation per clause) with garbage-collecting
//!   compaction, blocker literals in the watch lists and special-cased
//!   binary-clause watchers that propagate without touching the arena,
//! * first-UIP conflict analysis with basic (non-recursive) clause
//!   minimisation,
//! * VSIDS-style exponential variable activity with phase saving,
//! * Luby-sequence restarts,
//! * activity-based learnt-clause database reduction,
//! * solving under **assumptions** with final-conflict (unsat core)
//!   extraction, which is what makes the incremental SMT layer cheap, and
//! * All-SAT model enumeration via blocking clauses (used by the
//!   feature-model analyses to enumerate valid products).
//!
//! # Example
//!
//! ```
//! use llhsc_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

mod clause;
mod cnf;
mod dimacs;
mod drat;
mod enumerate;
mod lit;
mod solver;

pub use clause::ClauseStats;
pub use cnf::Cnf;
pub use dimacs::{parse_dimacs, write_dimacs, DimacsError, MAX_VARS};
pub use drat::{check_drat, parse_drat, write_drat, CheckMode, DratError, DratOutcome, ProofStep};
pub use enumerate::{BoundedCount, EnumOutcome, ModelIter};
pub use lit::{Lit, Var};
pub use solver::{
    AllocStats, Heartbeat, ProgressSink, SolveResult, Solver, SolverConfig, SolverStats,
};
