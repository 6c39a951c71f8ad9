//! End-to-end benchmark of llhsc: four seeded workloads driven through
//! the real `llhsc` CLI and daemon, every verdict checked against an
//! independent oracle, plus an in-process per-layer ledger. See
//! `README.md` for the workloads, metrics and commands.

pub mod diff;
pub mod gen;
pub mod json;
pub mod layers;
pub mod run;
pub mod samples;
pub mod sys;
pub mod verdict;
