//! Content-addressed caching of pipeline stage results.
//!
//! The solver-bearing stages of the Fig. 2 workflow — resource
//! allocation (§IV-A), the per-tree syntactic + semantic check
//! (§IV-B/C) and the cross-tree coverage check — are pure functions of
//! their inputs. [`Pipeline::run_cached`] therefore keys each stage
//! result on a stable content hash of exactly the inputs that stage
//! consumed and consults a [`PipelineCache`] before running the solver:
//!
//! * **allocation** — keyed on the feature model and every VM's raw
//!   selection,
//! * **product check** — keyed per derived product on its tree,
//!   application order, provenance, the schema set and the checker
//!   configuration (so an edit to one delta module only invalidates the
//!   products that delta actually touches),
//! * **coverage** — keyed per VM on the VM product and the platform
//!   product.
//!
//! Diagnostics are cached *without* their VM index and re-stamped on
//! retrieval, so two VMs that derive identical trees share one entry.
//!
//! The crate ships no cache implementation; `llhsc-service` provides a
//! shared in-memory one with hit/miss counters. A `None` cache makes
//! `run_cached` behave exactly like [`Pipeline::run`].
//!
//! [`Pipeline::run`]: crate::Pipeline::run
//! [`Pipeline::run_cached`]: crate::Pipeline::run_cached

use crate::report::Diagnostic;
use crate::semantic::RegionCheckStats;

/// Which family of stage results a cache entry belongs to. Keys are
/// only meaningful within their class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheClass {
    /// Stage 1: completed resource allocations (§IV-A).
    Allocation,
    /// Stage 3+4: per-product syntactic + semantic check results.
    ProductCheck,
    /// Stage 4b: per-VM memory-coverage check results.
    Coverage,
    /// Whole-line family verdicts ([`FamilyChecker`]), keyed on the
    /// complete input (core, deltas, model, schemas) plus the mode.
    ///
    /// [`FamilyChecker`]: crate::family::FamilyChecker
    Family,
}

impl CacheClass {
    /// A short stable name, used in counters and wire stats.
    pub fn name(self) -> &'static str {
        match self {
            CacheClass::Allocation => "allocation",
            CacheClass::ProductCheck => "product_check",
            CacheClass::Coverage => "coverage",
            CacheClass::Family => "family",
        }
    }
}

/// A completed allocation, stored by feature *names* so the entry does
/// not depend on the internal id assignment of any particular
/// [`FeatureModel`](llhsc_fm::FeatureModel) instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationNames {
    /// The completed product of each VM, in VM order.
    pub vms: Vec<Vec<String>>,
    /// The platform product (union of the VM products).
    pub platform: Vec<String>,
}

/// The cached outcome of one stage-3+4 or stage-4b run over one derived
/// product: its diagnostics (with the VM index cleared) and the solver
/// cost counters of the original run.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCheck {
    /// The findings, in emission order, `vm` set to `None`.
    pub diagnostics: Vec<Diagnostic>,
    /// Counters from the run that populated the entry (replayed on a
    /// hit so `--stats` output is reproducible).
    pub stats: RegionCheckStats,
}

/// One cache entry. The variant must match the [`CacheClass`] it is
/// stored under: `Allocation` entries under [`CacheClass::Allocation`],
/// `Check` entries under the other two classes.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheEntry {
    /// A completed (or rejected, with its error message) allocation.
    Allocation(Result<AllocationNames, String>),
    /// A per-product check result.
    Check(CachedCheck),
    /// A whole-line family verdict (or the input error that aborted
    /// it), stored under [`CacheClass::Family`].
    Family(Result<crate::family::FamilyReport, Vec<Diagnostic>>),
}

/// A store for pipeline stage results, shared across runs (and across
/// threads — the per-product checks run concurrently).
///
/// Implementations must be internally synchronised; both methods take
/// `&self`. A racing `put` for the same key may store either value —
/// entries are pure functions of the key, so both are correct.
pub trait PipelineCache: Sync {
    /// Looks up an entry.
    fn get(&self, class: CacheClass, key: u64) -> Option<CacheEntry>;

    /// Stores an entry.
    fn put(&self, class: CacheClass, key: u64, entry: CacheEntry);
}
