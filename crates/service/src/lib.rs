//! `llhsc-service` — llhsc as a long-running check daemon.
//!
//! Re-running `llhsc check`/`llhsc build` from scratch pays the full
//! solver bill on every invocation even when almost nothing changed.
//! This crate keeps the checkers resident: a TCP daemon speaking
//! newline-delimited JSON ([`proto`], `docs/SERVICE.md`), a fixed
//! worker pool ([`server`]) and a content-addressed result cache
//! ([`cache`]) keyed on stable hashes of each input artifact, so an
//! unchanged (input-set, VM) pair reuses its derived tree, syntactic
//! and semantic verdicts without a single solver call.
//!
//! The `llhsc` binary lives here too: the classic one-shot subcommands
//! plus `llhsc serve` and `llhsc client …`. `llhsc client check` is
//! byte-identical to a local `llhsc check` — both render through
//! [`check::check_tree`].

pub mod analytics;
pub mod cache;
pub mod check;
pub mod client;
pub mod json;
pub mod progress;
pub mod proto;
pub mod report;
pub mod server;

pub use analytics::{
    count_model, sample_model, AnalyticsOutcome, CountParams, ANALYTICS_SCHEMA_VERSION,
};
pub use cache::{CachedTreeCheck, ServiceCache, ServiceStats};
pub use check::{check_tree, check_tree_with, CheckOutcome, CheckReport, ProofBundle};
pub use json::{Json, JsonError};
pub use progress::{ProgressSnapshot, RequestProgress, StderrProgress};
pub use proto::{BuildRequest, Request};
pub use report::{check_report_json, proof_json, solver_json, REPORT_SCHEMA_VERSION};
pub use server::{start, ServerConfig, ServerHandle};
