//! The one configuration type of every solver-bearing checker.

use std::sync::Arc;

use llhsc_obs::TraceCtx;
use llhsc_sat::{ProgressSink, SolverConfig};

/// How a solver stack is built and observed. Every solver-bearing type
/// (`Context`, `SolverSession`, the checkers above them and the
/// pipeline) is created from one of these; a stage that opens its own
/// span passes `CheckOptions { trace: Some(span.child()), ..opts.clone() }`
/// to the checkers it builds.
///
/// Observation fields (`progress`, `trace`) never change a verdict, a
/// model or a solver counter; `certify` and `clause_log` only add work
/// (proof replay, clause copies) on top of the same search. The one
/// exception is the §IV-A allocation probe of `llhsc-fm`'s
/// `MultiModel::complete`, which drops its symmetry-breaking clauses
/// under `certify` because a DRAT proof cannot justify them.
#[derive(Clone, Default)]
pub struct CheckOptions {
    /// CDCL configuration: the Luby restart interval and the heartbeat
    /// interval.
    pub solver: SolverConfig,
    /// Record a DRAT proof of every deduction and replay each `Unsat`
    /// answer through the in-tree checker before reporting it. A proof
    /// that does not verify panics — an UNSAT verdict is exactly the one
    /// a user cannot cross-examine. Implies `clause_log`.
    pub certify: bool,
    /// Record every problem clause, so the bit-blasted formula can be
    /// exported as a standalone CNF (`Context::export_cnf`).
    pub clause_log: bool,
    /// In-solve heartbeat receiver: every
    /// [`SolverConfig::heartbeat_every`] conflicts of any check emits
    /// one [`Heartbeat`](llhsc_sat::Heartbeat).
    pub progress: Option<Arc<dyn ProgressSink>>,
    /// Parent span of the checker's spans: each solver call records a
    /// `"solve"` span under it with the counters it cost.
    pub trace: Option<TraceCtx>,
}

impl std::fmt::Debug for CheckOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckOptions")
            .field("solver", &self.solver)
            .field("certify", &self.certify)
            .field("clause_log", &self.clause_log)
            .field("progress", &self.progress.is_some())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}
