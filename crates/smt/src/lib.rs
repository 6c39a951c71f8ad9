//! A small SMT layer over [`llhsc_sat`]: Boolean structure, fixed-width
//! bit-vectors and interned strings, decided by bit-blasting to SAT.
//!
//! The llhsc paper discharges three constraint families through Z3:
//!
//! 1. propositional feature-model formulas (§IV-A),
//! 2. first-order schema constraints whose only non-Boolean atoms are
//!    *string equalities* between property names (§IV-B, constraints
//!    (1)–(6)), and
//! 3. bit-vector constraints over memory addresses (§IV-C, formula (7)),
//!    which the paper notes Z3 decides by **bit-blasting into SAT**.
//!
//! This crate implements exactly that fragment: Boolean connectives via
//! the Tseitin transform, bit-vectors via gate-level bit-blasting, and
//! strings via interning into bit-vector constants (the paper's "hybrid
//! theory" encoding of names). The [`Context`] is incremental in the
//! same way Z3 is used by the paper — constraints can be added to the
//! same solver instance across [`Context::push`]/[`Context::pop`] scopes
//! — and supports assumption-based [unsat cores](Context::unsat_core) so
//! a failed check names the constraint group that caused it.
//!
//! # Example
//!
//! ```
//! use llhsc_smt::{Context, CheckResult};
//!
//! let mut ctx = Context::new();
//! let base = ctx.bv_var("base", 64);
//! let lo = ctx.bv_const(0x4000_0000, 64);
//! let hi = ctx.bv_const(0x8000_0000, 64);
//! let in_range = {
//!     let ge = ctx.bv_ule(lo, base);
//!     let lt = ctx.bv_ult(base, hi);
//!     ctx.and([ge, lt])
//! };
//! ctx.assert(in_range);
//! assert_eq!(ctx.check(), CheckResult::Sat);
//! let m = ctx.model().unwrap();
//! let v = m.eval_bv(base).unwrap();
//! assert!((0x4000_0000..0x8000_0000).contains(&v));
//! ```

mod bitblast;
mod context;
mod options;
mod session;
mod term;

pub use context::{CertStats, CheckResult, Context, Model};
pub use llhsc_sat::{
    check_drat, parse_dimacs, parse_drat, write_dimacs, write_drat, AllocStats, CheckMode, Cnf,
    DratError, DratOutcome, ProofStep, SolverConfig, SolverStats,
};
pub use options::CheckOptions;
pub use session::{slice_key, SessionStats, Slice, SolverSession};
pub use term::{Sort, TermId};
