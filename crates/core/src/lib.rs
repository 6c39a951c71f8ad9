//! `llhsc` — a DeviceTree syntax and semantic checker.
//!
//! This crate is the top of the reproduction of *"llhsc: A DeviceTree
//! Syntax and Semantic Checker"* (DSN 2023): it wires the substrate
//! crates into the tool the paper describes —
//!
//! * [`llhsc_dts`] parses, prints and flattens DeviceTree sources (the
//!   `dtc` role),
//! * [`llhsc_fm`] provides feature models and the multi-VM
//!   resource-allocation checker (§IV-A),
//! * [`llhsc_schema`] provides dt-schema-style schemas, the structural
//!   baseline and the SMT syntactic checker (§IV-B),
//! * [`llhsc_delta`] implements the delta-oriented product line
//!   (§III-B),
//! * [`llhsc_hypcfg`] emits Bao/QEMU configurations (Listings 3 and 6),
//! * [`llhsc_smt`]/[`llhsc_sat`] decide every constraint the tool
//!   generates,
//!
//! and contributes the two pieces that are llhsc's own: the
//! [`SemanticChecker`] (§IV-C — memory-address consistency as
//! bit-vector constraints, formula (7), plus interrupt-line uniqueness)
//! and the [`Pipeline`] (Fig. 2 — from core module + deltas + feature
//! configurations to checked DTSs and hypervisor configuration files,
//! with every failure traced back to the responsible delta).
//!
//! # Quick start
//!
//! ```
//! use llhsc::SemanticChecker;
//!
//! // The paper's §I-A mistake: the serial port collides with the
//! // second memory bank.
//! let tree = llhsc_dts::parse(r#"
//! / {
//!     #address-cells = <2>;
//!     #size-cells = <2>;
//!     memory@40000000 {
//!         device_type = "memory";
//!         reg = <0x0 0x40000000 0x0 0x20000000
//!                0x0 0x60000000 0x0 0x20000000>;
//!     };
//!     uart@60000000 { reg = <0x0 0x60000000 0x0 0x1000>; };
//! };
//! "#).unwrap();
//! let (report, _stats) = SemanticChecker::new().check_tree_with_stats(&tree).unwrap();
//! assert!(!report.is_ok());
//! let c = &report.collisions[0];
//! assert_eq!(c.witness, 0x6000_0000); // the clashing address
//! ```

mod pipeline;
mod report;
mod semantic;
mod tree_check;

pub mod cache;
pub mod family;
pub mod quadcore;
pub mod running_example;
pub mod sweep;

pub use cache::{AllocationNames, CacheClass, CacheEntry, CachedCheck, PipelineCache};
pub use llhsc_sat::{
    check_drat, parse_dimacs, parse_drat, write_dimacs, write_drat, CheckMode, Cnf, DratError,
    DratOutcome, Heartbeat, ProgressSink, ProofStep, SolverStats,
};
pub use llhsc_smt::{CertStats, CheckOptions, SessionStats, SolverConfig, SolverSession};
pub use pipeline::{Pipeline, PipelineError, PipelineInput, PipelineOutput, VmSpec, STAGE_SPANS};
pub use report::{dedup_diagnostics, Diagnostic, Severity, Stage};
pub use semantic::{
    Collision, DevicePath, RegionCheckStats, RegionRef, SemanticChecker, SemanticReport,
};
pub use tree_check::{ProofBundle, TreeCheck, TreeChecker};
