//! The semantic checker (§IV-C): memory-address consistency as
//! bit-vector constraints.
//!
//! The paper's formula (7) requires, for every ordered pair of regions
//! `(bᵢ, sᵢ)`, `(bⱼ, sⱼ)`:
//!
//! ```text
//! ¬ ⋁_{i<j} ∃x. (bᵢ ≤ x < bᵢ+sᵢ) ∧ (bⱼ ≤ x < bⱼ+sⱼ)
//! ```
//!
//! i.e. no address belongs to two regions. Z3 decides this by
//! bit-blasting; our [`llhsc_smt`] context does the same, one disjunct
//! at a time. The [`sweep`] prefilter finds exactly the pairs whose
//! ranges intersect. For each, the solver refutes "the larger of the
//! two bases lies outside one of the regions" with only that pair's
//! region bindings active. The `Unsat` verdict is the collision, and
//! the base it proves to lie in both regions is the *witness address*:
//! the "counter example of consistency" the paper gets from Z3.
//!
//! Regions are compared at the addresses the CPU sees:
//! [`for_each_device`] maps each one through the `ranges` of the buses
//! above it.
//!
//! Address terms are 65 bits wide: the widest 2-cell addresses are 64
//! bits, and `b + s` of a region ending at the top of that space must
//! not wrap. 3- and 4-cell addresses widen the terms up to 128 bits, as
//! far as the regions a query compares need; one rule sizes both the
//! collision and the coverage queries. A region that wraps past 2^128
//! ends at its saturated [`RegEntry::end`].

use std::sync::Arc;

use llhsc_dts::cells::{for_each_device, RegEntry};
use llhsc_dts::{DeviceTree, DtsError, Node, Value};
use llhsc_obs::TraceCtx;
use llhsc_sat::{Cnf, ProofStep};
use llhsc_smt::{
    slice_key, AllocStats, CertStats, CheckOptions, CheckResult, SessionStats, Slice,
    SolverSession, SolverStats, Sort, TermId,
};

use crate::sweep;

/// The least width of address terms: 64-bit addresses plus 1 carry
/// bit.
const ADDR_BITS: u32 = 65;

/// `compatible` strings identifying *virtual* devices. Their regions
/// live in guest RAM by design (shared-memory IPC, Listing 6), so they
/// are exempt from physical-overlap checking and only checked against
/// each other.
const VIRTUAL_COMPATIBLES: [&str; 2] = ["veth", "shmem"];

/// The path of the device a region came from. The regions decoded from
/// one tree share one buffer holding their paths, so a region costs no
/// allocation for its path and cloning one shares it. It reads as the
/// `str` it holds.
#[derive(Clone)]
pub struct DevicePath {
    /// The buffer and the path's span in it. `None` only while
    /// [`regions_where`] renders the buffer.
    text: Option<Arc<str>>,
    start: usize,
    end: usize,
}

impl std::ops::Deref for DevicePath {
    type Target = str;

    fn deref(&self) -> &str {
        let text = self.text.as_deref().unwrap_or_default();
        text.get(self.start..self.end).unwrap_or_default()
    }
}

impl From<&str> for DevicePath {
    fn from(path: &str) -> DevicePath {
        DevicePath {
            text: Some(path.into()),
            start: 0,
            end: path.len(),
        }
    }
}

impl From<String> for DevicePath {
    fn from(path: String) -> DevicePath {
        DevicePath::from(path.as_str())
    }
}

impl PartialEq for DevicePath {
    fn eq(&self, other: &DevicePath) -> bool {
        **self == **other
    }
}

impl Eq for DevicePath {}

impl PartialEq<&str> for DevicePath {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl PartialOrd for DevicePath {
    fn partial_cmp(&self, other: &DevicePath) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DevicePath {
    fn cmp(&self, other: &DevicePath) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl std::hash::Hash for DevicePath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for DevicePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl std::fmt::Display for DevicePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

/// Identifies one region in the input for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionRef {
    /// Path of the node whose `reg` contributed the region.
    pub path: DevicePath,
    /// Index of the entry within that `reg` property.
    pub index: usize,
    /// The decoded region.
    pub region: RegEntry,
    /// Virtual devices (the running example's `veth`) are *backed by*
    /// RAM, so they may alias physical memory; they must only be
    /// disjoint from each other.
    pub virtual_device: bool,
}

impl std::fmt::Display for RegionRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}#reg[{}] = [{:#x}, {:#x})",
            self.path,
            self.index,
            self.region.address,
            self.region.end()
        )
    }
}

/// One detected address collision with its solver-produced witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collision {
    /// First region of the pair.
    pub a: RegionRef,
    /// Second region of the pair.
    pub b: RegionRef,
    /// An address contained in both regions (the counterexample).
    pub witness: u128,
}

impl std::fmt::Display for Collision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "address collision at {:#x}: {} overlaps {}",
            self.witness, self.a, self.b
        )
    }
}

/// Result of a semantic check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticReport {
    /// All colliding pairs found.
    pub collisions: Vec<Collision>,
    /// Duplicate interrupt lines: `(line, paths sharing it)`.
    pub interrupt_conflicts: Vec<(u32, Vec<String>)>,
    /// Regions whose `address + size` wraps past the end of the
    /// address space. Their [`RegEntry::end`] saturates, so the
    /// disjointness verdict stays meaningful, but a wrapping region is
    /// a finding in its own right — no real device extends beyond the
    /// address space.
    pub wrapping: Vec<RegionRef>,
    /// Number of regions examined.
    pub regions_checked: usize,
}

impl SemanticReport {
    /// `true` when no collision, interrupt conflict or wrapping region
    /// was found.
    pub fn is_ok(&self) -> bool {
        self.collisions.is_empty()
            && self.interrupt_conflicts.is_empty()
            && self.wrapping.is_empty()
    }
}

/// The semantic checker. Owns a persistent [`SolverSession`]: every
/// check this checker performs — across trees, VM iterations and warm
/// repeats — shares one bit-blasted context and one CDCL solver, so
/// gate networks are encoded once and learnt clauses survive between
/// checks. Each tree's concrete region bindings live in an
/// assumption-guarded slice; "retracting" a tree is simply not
/// assuming its guard (the paper's incremental use of Z3, generalized).
#[derive(Debug)]
pub struct SemanticChecker {
    /// When set, every SMT solve the checker performs records a
    /// `"solve"` span under this context with its solver-counter delta.
    pub(crate) trace: Option<TraceCtx>,
    /// The persistent solving session shared by all checks.
    session: SolverSession,
}

impl Default for SemanticChecker {
    fn default() -> SemanticChecker {
        SemanticChecker::new()
    }
}

impl SemanticChecker {
    /// Creates a checker with all semantic rules enabled.
    pub fn new() -> SemanticChecker {
        SemanticChecker::with_options(&CheckOptions::default())
    }

    /// Creates a checker whose session is built from `opts` (solver
    /// configuration, certification, progress sink). A `certify`
    /// checker accompanies every `Unsat` the disjointness queries
    /// produce (which on a clean board is every query) with a DRAT proof
    /// replayed through the in-tree checker, and the formula/proof pair
    /// can be exported via [`SemanticChecker::export_proof`]. With a
    /// trace, every check records its solver calls as `"solve"` spans
    /// under it.
    pub fn with_options(opts: &CheckOptions) -> SemanticChecker {
        SemanticChecker {
            trace: opts.trace.clone(),
            session: SolverSession::with_options(&CheckOptions {
                trace: None,
                ..opts.clone()
            }),
        }
    }

    /// Certification counters of the session (zero unless created with
    /// [`CheckOptions::certify`] set).
    pub fn cert_stats(&self) -> CertStats {
        self.session.cert_stats()
    }

    /// The session's accumulated formula and DRAT proof; `None` for
    /// non-certifying checkers.
    pub fn export_proof(&self) -> Option<(Cnf, Vec<ProofStep>)> {
        self.session.export_proof()
    }

    /// Reuse counters of the checker's persistent solver session.
    pub fn session_stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// `(cache hits, cache misses)` of the session's bit-blast cache.
    pub fn encode_counts(&self) -> (u64, u64) {
        self.session.ctx().encode_counts()
    }

    /// Lifetime allocation counters of the session's SAT solver.
    pub fn alloc_stats(&self) -> AllocStats {
        self.session.ctx().alloc_stats()
    }

    /// Checks a whole tree: decodes every `reg` under its parent's cell
    /// counts and verifies that no two regions share an address the CPU
    /// sees, and checks `interrupts` properties for lines claimed by two
    /// devices of one interrupt domain (the paper's conclusions name
    /// interrupts as the second semantic property family). Returns the
    /// report with the cost counters of the region-disjointness check.
    ///
    /// # Errors
    ///
    /// Propagates [`DtsError`] when a `reg` or `ranges` property cannot
    /// be decoded (wrong arity — which the syntactic checker reports
    /// with more context), or a region lies outside every window of its
    /// bus's `ranges` (see [`for_each_device`]).
    pub fn check_tree_with_stats(
        &mut self,
        tree: &DeviceTree,
    ) -> Result<(SemanticReport, RegionCheckStats), DtsError> {
        let refs = self.collect_refs(tree)?;
        Ok(self.check_decoded(tree, &refs))
    }

    /// The semantic rules over `tree`, whose regions `refs` are decoded
    /// already: collisions, shared interrupt lines and wrapping regions.
    pub(crate) fn check_decoded(
        &mut self,
        tree: &DeviceTree,
        refs: &[RegionRef],
    ) -> (SemanticReport, RegionCheckStats) {
        let (collisions, stats) = self.check_regions_with_stats(refs);
        let interrupt_conflicts = shared_interrupt_lines(tree);
        let wrapping = refs.iter().filter(|r| r.region.wraps()).cloned().collect();
        (
            SemanticReport {
                collisions,
                interrupt_conflicts,
                wrapping,
                regions_checked: refs.len(),
            },
            stats,
        )
    }

    /// Decodes every `reg` in the tree into [`RegionRef`]s ready for
    /// checking, at the addresses the CPU sees: zero-sized entries are
    /// dropped (e.g. CPU unit addresses under `#size-cells = 0` occupy
    /// no address space) and devices whose `compatible` is `veth` or
    /// `shmem` are flagged virtual.
    ///
    /// # Errors
    ///
    /// Propagates [`DtsError`] from [`for_each_device`].
    pub fn collect_refs(&self, tree: &DeviceTree) -> Result<Vec<RegionRef>, DtsError> {
        tree_regions(tree).map(|(all, _)| all)
    }

    /// Verifies pairwise disjointness of explicit regions: formula (7),
    /// decided pair by pair, and returns the collisions with the
    /// encoding and solver counters of the run.
    ///
    /// The [`sweep`] prefilter finds exactly the pairs whose ranges
    /// intersect; every other pair is disjoint by interval arithmetic
    /// and never reaches the solver. Each candidate is then confirmed
    /// by one pair-local solver refutation that also proves its witness
    /// address, so the solver work is linear in the number of
    /// overlapping pairs.
    ///
    /// Each region of a candidate pair is bound in its own slice, keyed
    /// by the region's index and content. For a pair, let `k` be the
    /// region with the larger base (`i` on ties) and `m` the other.
    /// With only those two slices active, the solver refutes
    /// `¬(b_k < e_k ∧ b_m ≤ b_k ∧ b_k < e_m)`: `Unsat` proves that
    /// `b_k = max(bᵢ, bⱼ)` lies in both regions, so one solve yields
    /// the collision and its witness, and under certification one DRAT
    /// proof covers both. The comparisons range over the index-keyed
    /// `base_i`/`end_i` only, so their gate networks are bit-blasted
    /// once and reused by every later tree in which the same two
    /// indices pair up again.
    pub fn check_regions_with_stats(
        &mut self,
        refs: &[RegionRef],
    ) -> (Vec<Collision>, RegionCheckStats) {
        let pairs = sweep::candidate_pairs(refs);
        let mut stats = RegionCheckStats {
            regions: refs.len(),
            pairs_considered: pair_count(refs.len()),
            pairs_encoded: pairs.len(),
            ..RegionCheckStats::default()
        };
        // A board the prefilter fully discharged costs nothing: no
        // slice, no guard variable, no solver contact.
        if pairs.is_empty() {
            return (Vec::new(), stats);
        }
        if let Some(trace) = &self.trace {
            self.session.ctx_mut().set_trace(trace.clone());
        }
        let solver_before = self.session.ctx().solver_stats();
        let terms_before = self.session.ctx().num_terms();
        let (hits_before, misses_before) = self.session.ctx().encode_counts();

        let width = addr_width(
            pairs
                .iter()
                .flat_map(|&(i, j)| [&refs[i].region, &refs[j].region]),
        );
        let mut bindings: Vec<Option<Binding>> = vec![None; refs.len()];
        let mut collisions = Vec::new();
        for &(i, j) in &pairs {
            let bi = bind_region(&mut self.session, &mut bindings, refs, i, width);
            let bj = bind_region(&mut self.session, &mut bindings, refs, j, width);
            let (k, bk, bm) = if refs[j].region.address > refs[i].region.address {
                (j, bj, bi)
            } else {
                (i, bi, bj)
            };
            let ctx = self.session.ctx_mut();
            let in_k = ctx.bv_ult(bk.base, bk.end);
            let from_m = ctx.bv_ule(bm.base, bk.base);
            let below_m = ctx.bv_ult(bk.base, bm.end);
            let inside = ctx.and([in_k, from_m, below_m]);
            let outside = ctx.not(inside);
            match self.session.check(&[bi.slice, bj.slice], &[outside]) {
                // The slice binds `b_k` to region k's base, so the
                // refutation proves that very address lies in both.
                CheckResult::Unsat => collisions.push(Collision {
                    a: refs[i].clone(),
                    b: refs[j].clone(),
                    witness: refs[k].region.address,
                }),
                CheckResult::Sat => {}
            }
        }
        collisions.sort_by(|x, y| {
            (&x.a.path, x.a.index, &x.b.path, x.b.index)
                .cmp(&(&y.a.path, y.a.index, &y.b.path, y.b.index))
        });
        let (hits_now, misses_now) = self.session.ctx().encode_counts();
        stats.terms = self.session.ctx().num_terms() - terms_before;
        stats.terms_encoded = misses_now - misses_before;
        stats.terms_reused = hits_now - hits_before;
        stats.solver = self
            .session
            .ctx()
            .solver_stats()
            .delta_since(&solver_before);
        if self.trace.is_some() {
            self.session.ctx_mut().clear_trace();
        }
        (collisions, stats)
    }
}

/// Width of the address terms of a query over `regions` (a collision
/// check's candidate pairs, or a coverage check's inner and outer
/// regions): [`ADDR_BITS`] unless some region's end needs more bits, up
/// to 128 for the 3- and 4-cell addresses `MAX_CELLS` admits. Every
/// base and end then fits, so the comparisons are exact.
fn addr_width<'r>(regions: impl IntoIterator<Item = &'r RegEntry>) -> u32 {
    regions
        .into_iter()
        .map(|r| u128::BITS - r.end().leading_zeros())
        .fold(ADDR_BITS, u32::max)
}

/// One region's slice and its symbolic base and end.
#[derive(Debug, Clone, Copy)]
struct Binding {
    slice: Slice,
    base: TermId,
    end: TermId,
}

/// Binds region `i`'s symbolic `base_i`/`end_i` to its base and
/// saturated [`RegEntry::end`] inside a slice keyed by the region's
/// index, content and term width, once per check. Binding constants to
/// variables keeps the comparison gate networks real, as in the paper's
/// Z3 encoding, rather than folded away; a warm repeat of the same
/// region at the same width re-activates the existing slice without
/// encoding anything.
fn bind_region(
    session: &mut SolverSession,
    bindings: &mut [Option<Binding>],
    refs: &[RegionRef],
    i: usize,
    width: u32,
) -> Binding {
    if let Some(b) = bindings[i] {
        return b;
    }
    let r = &refs[i].region;
    let mut content: Vec<u8> = b"region".to_vec();
    content.extend_from_slice(&(i as u64).to_le_bytes());
    content.extend_from_slice(&r.address.to_le_bytes());
    content.extend_from_slice(&r.end().to_le_bytes());
    content.extend_from_slice(&width.to_le_bytes());
    let slice = session.slice(slice_key(&content));
    let ctx = session.ctx_mut();
    let base = ctx.bv_var_i("base", i as u64, width);
    let end = ctx.bv_var_i("end", i as u64, width);
    let bc = ctx.bv_const(r.address, width);
    let ec = ctx.bv_const(r.end(), width);
    let eb = ctx.eq(base, bc);
    let ee = ctx.eq(end, ec);
    session.assert_in(slice, eb);
    session.assert_in(slice, ee);
    let b = Binding { slice, base, end };
    bindings[i] = Some(b);
    b
}

/// `n·(n−1)/2` without the intermediate `n·(n−1)` product: dividing the
/// even factor by 2 first keeps the computation in range for any `n`
/// whose result fits, and an adversarial region count that still
/// overflows saturates instead of panicking in debug builds (the PR 3
/// hardening rule for untrusted-input arithmetic).
fn pair_count(n: usize) -> usize {
    if n.is_multiple_of(2) {
        (n / 2).saturating_mul(n.saturating_sub(1))
    } else {
        n.saturating_mul(n.saturating_sub(1) / 2)
    }
}

/// Cost counters of one region-disjointness check: how far the sweep
/// prefilter cut the quadratic pair space, and what the encoding and
/// the SAT solver then spent on the survivors. All counters are
/// *deltas* attributable to this check — the persistent session's
/// running totals are subtracted out — so they merge across checks
/// exactly as the old fresh-context counters did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionCheckStats {
    /// Regions handed to the checker.
    pub regions: usize,
    /// All `n·(n−1)/2` pairs the paper's formula (7) ranges over.
    pub pairs_considered: usize,
    /// Pairs actually encoded as solver constraints (after pruning —
    /// equals the number of real overlaps plus none).
    pub pairs_encoded: usize,
    /// Distinct SMT terms created *by this check* (terms the session
    /// already interned for an earlier check are not recounted).
    pub terms: usize,
    /// Terms bit-blasted to fresh gate networks during this check.
    pub terms_encoded: u64,
    /// Terms whose encoding was served from the session's bit-blast
    /// cache — work the persistent session amortized away.
    pub terms_reused: u64,
    /// Counters of the underlying SAT solver.
    pub solver: SolverStats,
}

impl RegionCheckStats {
    /// Accumulates another check's counters into this one (used by the
    /// pipeline to aggregate across the per-tree checks).
    pub fn merge(&mut self, other: &RegionCheckStats) {
        self.regions += other.regions;
        self.pairs_considered += other.pairs_considered;
        self.pairs_encoded += other.pairs_encoded;
        self.terms += other.terms;
        self.terms_encoded += other.terms_encoded;
        self.terms_reused += other.terms_reused;
        self.solver.merge(&other.solver);
    }
}

/// A guest region (partially) outside the platform's memory: the
/// 2-stage translation of §IV-C has nothing to map the witness address
/// to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageGap {
    /// The uncovered region.
    pub region: RegionRef,
    /// An address inside the region but outside every covering region.
    pub witness: u128,
}

impl std::fmt::Display for CoverageGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} is not covered by platform memory (e.g. address {:#x})",
            self.region, self.witness
        )
    }
}

impl SemanticChecker {
    /// Checks that every `inner` region lies within the union of the
    /// `outer` regions — used by the pipeline to verify that each VM's
    /// memory is backed by platform memory ("the addresses inside the
    /// DTSs of the VMs must be translated into their machine
    /// counterparts internally to the hypervisor", §IV-C). Returns a
    /// witness address per uncovered region, and the solver counters
    /// the queries cost. When a trace context is attached, each
    /// per-region query records a `"solve"` span under it.
    ///
    /// The queries are as wide as the collision check's rule makes them
    /// for the inner and outer regions together, so no address is
    /// masked.
    pub fn check_coverage_with_stats(
        &mut self,
        inner: &[RegionRef],
        outer: &[RegionRef],
    ) -> (Vec<CoverageGap>, SolverStats) {
        if let Some(trace) = &self.trace {
            self.session.ctx_mut().set_trace(trace.clone());
        }
        let solver_before = self.session.ctx().solver_stats();
        let width = addr_width(inner.iter().chain(outer).map(|r| &r.region));

        // The platform slice: `coverage_x` lies outside every outer
        // region. Keyed by the outer regions' content and the width, so
        // every VM checked against the same platform memory map at the
        // same width reuses one encoding — only the per-VM "inside"
        // assumptions differ.
        let mut content: Vec<u8> = b"cover".to_vec();
        for o in outer {
            content.extend_from_slice(&o.region.address.to_le_bytes());
            content.extend_from_slice(&o.region.end().to_le_bytes());
        }
        content.extend_from_slice(&width.to_le_bytes());
        let slice = self.session.slice(slice_key(&content));
        let x = self.session.ctx_mut().bv_var("coverage_x", width);
        for o in outer {
            let ctx = self.session.ctx_mut();
            let ob = ctx.bv_const(o.region.address, width);
            let oe = ctx.bv_const(o.region.end(), width);
            let in_lo = ctx.bv_ule(ob, x);
            let in_hi = ctx.bv_ult(x, oe);
            let inside = ctx.and([in_lo, in_hi]);
            let outside = ctx.not(inside);
            self.session.assert_in(slice, outside);
        }

        let mut out = Vec::new();
        for r in inner {
            if r.region.size == 0 {
                continue;
            }
            let ctx = self.session.ctx_mut();
            let base = ctx.bv_const(r.region.address, width);
            let end = ctx.bv_const(r.region.end(), width);
            let inside_lo = ctx.bv_ule(base, x);
            let inside_hi = ctx.bv_ult(x, end);
            let gap = minimized_value(&mut self.session, &[slice], &[inside_lo, inside_hi], x);
            if let Some(witness) = gap {
                out.push(CoverageGap {
                    region: r.clone(),
                    witness,
                });
            }
        }
        let stats = self
            .session
            .ctx()
            .solver_stats()
            .delta_since(&solver_before);
        if self.trace.is_some() {
            self.session.ctx_mut().clear_trace();
        }
        (out, stats)
    }

    /// Checks that every region's base and size are multiples of
    /// `alignment` (static-partitioning hypervisors map guest memory at
    /// page granularity; a misaligned device window cannot be
    /// stage-2-mapped exactly). Returns the offending regions. Virtual
    /// devices are held to the same requirement — shared memory is
    /// page-mapped too.
    pub fn check_alignment(&self, refs: &[RegionRef], alignment: u128) -> Vec<RegionRef> {
        misaligned(refs, alignment).cloned().collect()
    }

    /// Extracts the physical-memory regions of a tree as [`RegionRef`]s
    /// (device_type `memory` nodes only), at the addresses the CPU sees
    /// — convenience for coverage checks between trees.
    ///
    /// # Errors
    ///
    /// Propagates [`DtsError`] from [`for_each_device`].
    pub fn memory_regions(tree: &DeviceTree) -> Result<Vec<RegionRef>, DtsError> {
        regions_where(tree, |_| false).map(|(_, memory)| memory)
    }
}

/// The regions of `refs` whose base or size is not a multiple of
/// `alignment`, a power of two.
pub(crate) fn misaligned(refs: &[RegionRef], alignment: u128) -> impl Iterator<Item = &RegionRef> {
    assert!(
        alignment.is_power_of_two(),
        "alignment must be a power of two"
    );
    refs.iter().filter(move |r| {
        r.region.size != 0 && (r.region.address % alignment != 0 || r.region.size % alignment != 0)
    })
}

/// The tree's non-empty regions as [`RegionRef`]s at their CPU
/// addresses, from one walk: all of them, and those of
/// `device_type = "memory"` nodes.
pub(crate) fn tree_regions(
    tree: &DeviceTree,
) -> Result<(Vec<RegionRef>, Vec<RegionRef>), DtsError> {
    regions_where(tree, |_| true)
}

/// [`tree_regions`], listing first only the regions of the nodes `keep`
/// admits. Devices whose `compatible` is `veth` or `shmem` are flagged
/// virtual.
///
/// The walk renders the path of each device listed into one buffer,
/// which its regions then share.
fn regions_where(
    tree: &DeviceTree,
    keep: impl Fn(&Node) -> bool,
) -> Result<(Vec<RegionRef>, Vec<RegionRef>), DtsError> {
    let mut kept = Vec::new();
    let mut memory = Vec::new();
    let mut text = String::new();
    for_each_device(tree, |d| {
        let is_memory = d.node.prop_str("device_type") == Some("memory");
        let is_kept = keep(d.node);
        if !is_memory && !is_kept {
            return;
        }
        let virtual_device = d
            .node
            .prop_str("compatible")
            .is_some_and(|c| VIRTUAL_COMPATIBLES.contains(&c));
        let mut path = None;
        for (index, r) in d.regions.iter().enumerate() {
            if r.size != 0 {
                let path = path
                    .get_or_insert_with(|| {
                        let start = text.len();
                        text.push_str(d.path);
                        DevicePath {
                            text: None,
                            start,
                            end: text.len(),
                        }
                    })
                    .clone();
                let r = RegionRef {
                    path,
                    index,
                    region: *r,
                    virtual_device,
                };
                if is_memory {
                    memory.push(r.clone());
                }
                if is_kept {
                    kept.push(r);
                }
            }
        }
    })?;
    let text: Arc<str> = text.into();
    for r in kept.iter_mut().chain(&mut memory) {
        r.path.text = Some(Arc::clone(&text));
    }
    Ok((kept, memory))
}

/// The *smallest* value of the bit-vector `x` satisfying the slices +
/// assumptions, found by fixing its bits MSB→LSB; `None` when
/// unsatisfiable.
///
/// Model-guided: a bit is only queried when the current model sets it
/// to 1 (the model itself proves a 0 bit can stay 0 under the fixed
/// prefix), so the solve count is bounded by the 1-bits encountered,
/// not the width. Minimizing makes the witness independent of the
/// session's accumulated decision history, so session-reuse runs stay
/// byte-identical to fresh-context runs.
fn minimized_value(
    session: &mut SolverSession,
    slices: &[Slice],
    base_assumptions: &[TermId],
    x: TermId,
) -> Option<u128> {
    let Sort::BitVec(width) = session.ctx().sort(x) else {
        panic!("minimized_value: x must be a bit-vector");
    };
    let mut assumptions = base_assumptions.to_vec();
    if session.check(slices, &assumptions) != CheckResult::Sat {
        return None;
    }
    let mut v = session
        .model()
        .and_then(|m| m.eval_bv(x))
        .expect("witness variable has a value");
    for bit in (0..width).rev() {
        let ctx = session.ctx_mut();
        let b = ctx.bv_extract(x, bit, bit);
        let zero = ctx.bv_const(0, 1);
        let eq0 = ctx.eq(b, zero);
        assumptions.push(eq0);
        if v & (1u128 << bit) == 0 {
            // `v` already witnesses that this bit can be 0.
            continue;
        }
        if session.check(slices, &assumptions) == CheckResult::Sat {
            v = session
                .model()
                .and_then(|m| m.eval_bv(x))
                .expect("witness variable has a value");
        } else {
            // The bit is forced to 1 under the prefix fixed so far;
            // `v` remains a model of the strengthened prefix.
            assumptions.pop();
            let ctx = session.ctx_mut();
            let one = ctx.bv_const(1, 1);
            let eq1 = ctx.eq(b, one);
            assumptions.push(eq1);
        }
    }
    // Every bit is now fixed and `v` satisfies all the fixes, so `v`
    // is exactly the minimum.
    Some(v)
}

/// Interrupt lines used by more than one device *within the same
/// interrupt domain*, as `(line, user paths)`. The domain is the
/// controller the device's `interrupt-parent` names (a `&label` or a
/// phandle cell, resolved as [`DeviceTree::phandles`] assigns them, so
/// both spellings name one domain), inherited from ancestors per the
/// DeviceTree specification; devices wired to different interrupt
/// controllers may legitimately share line numbers. The number of cells
/// per interrupt specifier is the controller's `#interrupt-cells`
/// (default 1), with the *first* cell treated as the line number; a node
/// whose own specifiers repeat a line uses it twice.
///
/// Lines come sorted by (domain key, line) and each line's paths in
/// depth-first order. A controller's key is `&` and its first label, or
/// `phandle:N` when it has none; a reference that names no node is keyed
/// as spelt, and the implicit root domain is "". The family checker
/// lifts over the users: a pair of users sharing a line only conflicts
/// in products containing both, so it needs the per-user paths, not the
/// merged verdict.
///
/// Two walks, each linear in the tree. The first renders no path: it
/// interns each domain once, with its controller's `#interrupt-cells`
/// resolved at that point, and records every use as (domain, line,
/// pre-order index), which one sort then groups. The second renders the
/// paths of the shared lines' users only, and runs only if there are
/// any. The phandles are worked out only once a node names a parent.
pub(crate) fn shared_interrupt_lines(tree: &DeviceTree) -> Vec<(u32, Vec<String>)> {
    use std::collections::HashMap;

    use llhsc_dts::{Cell, Phandles, Property};

    /// The key and `#interrupt-cells` of the domain `prop` names.
    fn parent_domain(prop: &Property, phandles: &Phandles<'_>) -> (String, u32) {
        let label = |l: &str| phandles.of_label(l).ok_or_else(|| format!("&{l}"));
        let phandle = match prop.values().next() {
            Some(Value::Cells(mut cells)) => match cells.next() {
                Some(Cell::Ref(l)) => label(l),
                Some(Cell::U32(ph)) => Ok(ph),
                None => return (String::new(), 1),
            },
            Some(Value::PathRef(l)) => label(l),
            _ => return (String::new(), 1),
        };
        match phandle.map(|ph| (ph, phandles.node(ph))) {
            Ok((ph, Some(node))) => {
                let key = match node.labels.first() {
                    Some(l) => format!("&{l}"),
                    None => format!("phandle:{ph}"),
                };
                (key, node.prop_u32("#interrupt-cells").unwrap_or(1))
            }
            Ok((ph, None)) => (format!("phandle:{ph}"), 1),
            Err(spelt) => (spelt, 1),
        }
    }

    struct Walk<'t> {
        tree: &'t DeviceTree,
        phandles: Option<Phandles<'t>>,
        /// Interned domains: key and `#interrupt-cells`.
        domains: Vec<(String, u32)>,
        domain_of: HashMap<String, usize>,
        /// Every use as `(domain index, line, pre-order index)`.
        uses: Vec<(usize, u32, usize)>,
        /// Pre-order index of the next node visited.
        next: usize,
    }

    impl Walk<'_> {
        fn intern(&mut self, (key, cells): (String, u32)) -> usize {
            if let Some(&d) = self.domain_of.get(&key) {
                return d;
            }
            let d = self.domains.len();
            self.domains.push((key.clone(), cells));
            self.domain_of.insert(key, d);
            d
        }

        fn visit(&mut self, node: &llhsc_dts::Node, inherited: usize) {
            let index = self.next;
            self.next += 1;
            let domain = match node.prop("interrupt-parent") {
                Some(prop) => {
                    let phandles = self.phandles.get_or_insert_with(|| self.tree.phandles());
                    let parent = parent_domain(prop, phandles);
                    self.intern(parent)
                }
                None => inherited,
            };
            if let Some(cells) = node.prop("interrupts").and_then(|p| p.flat_cells()) {
                // The first cell of each specifier is its line.
                let stride = self.domains[domain].1.max(1) as usize;
                for line in cells.step_by(stride) {
                    self.uses.push((domain, line, index));
                }
            }
            for c in &node.children {
                self.visit(c, domain);
            }
        }
    }

    let mut walk = Walk {
        tree,
        phandles: None,
        domains: Vec::new(),
        domain_of: HashMap::new(),
        uses: Vec::new(),
        next: 0,
    };
    let root_domain = walk.intern((String::new(), 1));
    walk.visit(&tree.root, root_domain);
    let Walk { domains, uses, .. } = walk;

    // Rank the domains by key, so that sorting the uses orders them by
    // (domain key, line) and each line's users depth first.
    let mut by_key: Vec<usize> = (0..domains.len()).collect();
    by_key.sort_unstable_by(|&a, &b| domains[a].0.cmp(&domains[b].0));
    let mut rank = vec![0; domains.len()];
    for (r, &d) in by_key.iter().enumerate() {
        rank[d] = r;
    }
    let mut uses: Vec<(usize, u32, usize)> = uses
        .into_iter()
        .map(|(d, line, index)| (rank[d], line, index))
        .collect();
    uses.sort_unstable();
    let shared: Vec<&[(usize, u32, usize)]> = uses
        .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
        .filter(|users| users.len() > 1)
        .collect();
    if shared.is_empty() {
        return Vec::new();
    }

    let mut users: Vec<usize> = shared.iter().flat_map(|g| g.iter().map(|u| u.2)).collect();
    users.sort_unstable();
    users.dedup();
    let paths = paths_at(&tree.root, &users);
    let path_of = |index: usize| {
        let i = users
            .binary_search(&index)
            .expect("every user's path is rendered");
        paths[i].clone()
    };
    shared
        .into_iter()
        .map(|g| (g[0].1, g.iter().map(|u| path_of(u.2)).collect()))
        .collect()
}

/// The paths of the nodes at the given pre-order `indices` (ascending,
/// distinct) under `root`, in that order. One walk keeps one path
/// buffer, extended on the way in and cut back on the way out, and
/// stops once every path is rendered.
fn paths_at(root: &llhsc_dts::Node, indices: &[usize]) -> Vec<String> {
    fn visit(
        node: &llhsc_dts::Node,
        path: &mut String,
        next: &mut usize,
        indices: &[usize],
        out: &mut Vec<String>,
    ) {
        if out.len() == indices.len() {
            return;
        }
        // An unnamed node is the root wherever it sits, so it starts
        // from an empty path and gives its parent's back afterwards.
        let outer = node.name.is_empty().then(|| std::mem::take(path));
        let mark = path.len();
        if !node.name.is_empty() {
            path.push('/');
            path.push_str(&node.name);
        }
        if indices.get(out.len()) == Some(next) {
            out.push(if path.is_empty() {
                "/".to_string()
            } else {
                path.clone()
            });
        }
        *next += 1;
        for c in &node.children {
            visit(c, path, next, indices, out);
        }
        path.truncate(mark);
        if let Some(outer) = outer {
            *path = outer;
        }
    }
    let mut out = Vec::with_capacity(indices.len());
    visit(root, &mut String::new(), &mut 0, indices, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc_dts::parse;

    #[test]
    fn pair_count_matches_formula_and_never_overflows() {
        for n in 0..2000usize {
            assert_eq!(pair_count(n), n * (n - n.min(1)) / 2, "n={n}");
        }
        // The naive n·(n−1) product overflows here even in release; the
        // halved form stays exact.
        let n = (1usize << (usize::BITS / 2)) + 3;
        assert_eq!(pair_count(n), n / 2 * (n - 1) + n / 2);
        // Truly adversarial counts saturate instead of panicking.
        assert_eq!(pair_count(usize::MAX), usize::MAX);
    }

    #[test]
    fn region_stats_merge_keeps_every_solver_counter() {
        let one = RegionCheckStats {
            regions: 2,
            solver: SolverStats {
                solves: 1,
                restarts: 3,
                proof_steps: 5,
                ..SolverStats::default()
            },
            ..RegionCheckStats::default()
        };
        let mut total = one;
        total.merge(&one);
        assert_eq!(total.regions, 4);
        assert_eq!(total.solver.solves, 2);
        assert_eq!(total.solver.restarts, 6);
        assert_eq!(total.solver.proof_steps, 10);
    }

    #[test]
    fn running_example_without_mistake_is_ok() {
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
                uart@20000000 { reg = <0x0 0x20000000 0x0 0x1000>; };
                uart@30000000 { reg = <0x0 0x30000000 0x0 0x1000>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert!(r.is_ok(), "{:?}", r.collisions);
        assert_eq!(r.regions_checked, 4);
    }

    #[test]
    fn certified_checker_proves_collision_verdicts() {
        use llhsc_sat::{check_drat, CheckMode};

        // A collision is exactly one UNSAT refutation, which proves the
        // witness too; it must produce (and pass) a DRAT certificate.
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
                uart@60000000 { reg = <0x0 0x60000000 0x0 0x1000>; };
            };"#,
        )
        .unwrap();
        let mut checker = SemanticChecker::with_options(&CheckOptions {
            certify: true,
            ..CheckOptions::default()
        });
        let (r, _stats) = checker.check_tree_with_stats(&t).unwrap();
        assert_eq!(r.collisions.len(), 1, "{:?}", r.collisions);
        let cert = checker.cert_stats();
        assert_eq!(cert.proofs, 1, "the UNSAT verdict must carry a proof");
        assert!(cert.checked > 0);
        let (cnf, proof) = checker.export_proof().expect("certifying checker exports");
        assert!(check_drat(&cnf, &proof, CheckMode::Last).is_ok());
    }

    #[test]
    fn uart_clash_detected_with_witness() {
        // §I-A: the serial port address clashes with the second memory
        // bank; dt-schema cannot express the relation, formula (7) can.
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
                uart@60000000 { reg = <0x0 0x60000000 0x0 0x1000>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert_eq!(r.collisions.len(), 1);
        let c = &r.collisions[0];
        assert_eq!(c.a.path, "/memory@40000000");
        assert_eq!(c.a.index, 1);
        assert_eq!(c.b.path, "/uart@60000000");
        // The witness is inside both: [0x60000000, 0x80000000) and
        // [0x60000000, 0x60001000).
        assert!((0x6000_0000..0x6000_1000).contains(&c.witness));
        assert!(c.to_string().contains("overlaps"));
    }

    #[test]
    fn truncation_collision_at_zero() {
        // §IV-C: d3 applied without d4 — the 64-bit reg misparsed as
        // 1+1 cells yields four banks, two of them based at 0x0.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000
                           0x0 0x60000000 0x0 0x20000000>;
                };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert!(!r.is_ok());
        // Four banks all based at 0 → every pair overlaps.
        assert_eq!(r.regions_checked, 4);
        assert_eq!(r.collisions.len(), 6);
        assert!(r.collisions.iter().all(|c| c.witness < 0x6000_0000));
        // The collision at address 0x0 region pair exists.
        assert!(r
            .collisions
            .iter()
            .any(|c| c.a.region.address == 0 && c.b.region.address == 0));
    }

    #[test]
    fn adjacent_regions_do_not_collide() {
        let refs = vec![
            RegionRef {
                path: "/a".into(),
                index: 0,
                region: RegEntry::new(0x1000, 0x1000),
                virtual_device: false,
            },
            RegionRef {
                path: "/b".into(),
                index: 0,
                region: RegEntry::new(0x2000, 0x1000),
                virtual_device: false,
            },
        ];
        assert!(SemanticChecker::new()
            .check_regions_with_stats(&refs)
            .0
            .is_empty());
    }

    #[test]
    fn one_byte_overlap_detected() {
        let refs = vec![
            RegionRef {
                path: "/a".into(),
                index: 0,
                region: RegEntry::new(0x1000, 0x1001),
                virtual_device: false,
            },
            RegionRef {
                path: "/b".into(),
                index: 0,
                region: RegEntry::new(0x2000, 0x1000),
                virtual_device: false,
            },
        ];
        let c = SemanticChecker::new().check_regions_with_stats(&refs).0;
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].witness, 0x2000);
    }

    #[test]
    fn top_of_address_space_no_wraparound() {
        // A region ending exactly at 2^64 must not wrap into colliding
        // with a low region (the 65th bit absorbs the carry).
        let refs = vec![
            RegionRef {
                path: "/high".into(),
                index: 0,
                region: RegEntry::new(u64::MAX as u128 - 0xfff, 0x1000),
                virtual_device: false,
            },
            RegionRef {
                path: "/low".into(),
                index: 0,
                region: RegEntry::new(0, 0x1000),
                virtual_device: false,
            },
        ];
        assert!(SemanticChecker::new()
            .check_regions_with_stats(&refs)
            .0
            .is_empty());
    }

    #[test]
    fn wrapping_four_cell_region_still_collides() {
        // `a` wraps past 2^128 and `b` starts inside it: both the wrap
        // and the collision are findings. The sweep must saturate `a`'s
        // end as `RegEntry::end` does; an unchecked `address + size`
        // panics in debug builds and wraps to a low end in release.
        let t = parse(
            r#"/ {
                #address-cells = <4>;
                #size-cells = <4>;
                a@0 { reg = <0xffffffff 0xffffffff 0xffffffff 0xfffff000  0 0 0 0x2000>; };
                b@0 { reg = <0xffffffff 0xffffffff 0xffffffff 0xfffff800  0 0 0 0x100>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert_eq!(r.wrapping.len(), 1, "{:?}", r.wrapping);
        assert_eq!(r.wrapping[0].path, "/a@0");
        assert_eq!(r.collisions.len(), 1, "{:?}", r.collisions);
        assert_eq!(r.collisions[0].a.path, "/a@0");
        assert_eq!(r.collisions[0].b.path, "/b@0");
        assert_eq!(r.collisions[0].witness, u128::MAX - 0x7ff);
    }

    #[test]
    fn three_cell_addresses_are_not_truncated() {
        // `b` starts inside `a` at 2^65. Masked to 65 bits, `b` would
        // start at 0 and `a` would end at 0x800, and the solver would
        // overrule the sweep's exact overlap.
        let t = parse(
            r#"/ {
                #address-cells = <3>;
                #size-cells = <1>;
                a@0 { reg = <0x1 0xffffffff 0xfffff800 0x1000>; };
                b@0 { reg = <0x2 0x0 0x0 0x100>; };
            };"#,
        )
        .unwrap();
        let (r, stats) = SemanticChecker::new().check_tree_with_stats(&t).unwrap();
        assert_eq!(r.collisions.len(), 1, "{:?}", r.collisions);
        assert_eq!(r.collisions[0].witness, 1 << 65);
        assert_eq!(stats.solver.solves, 1);
    }

    #[test]
    fn addr_width_grows_only_past_65_bits() {
        let w = |rs: &[RegEntry]| addr_width(rs);
        assert_eq!(w(&[]), 65);
        assert_eq!(w(&[RegEntry::new(u128::from(u64::MAX), 1 << 64)]), 65);
        assert_eq!(w(&[RegEntry::new(1 << 65, 0x100)]), 66);
        assert_eq!(w(&[RegEntry::new(u128::MAX - 0xfff, 0x2000)]), 128);
    }

    /// `n` regions at disjoint 64 KiB strides, the first `2·pairs` of
    /// them as two-region chains: each odd region starts half-way into
    /// the even one before it.
    fn chained_board(n: u128, pairs: u128) -> Vec<RegionRef> {
        (0..n)
            .map(|i| {
                let mut base = 0x1000_0000 + i * 0x1_0000;
                if i % 2 == 1 && i < 2 * pairs {
                    base -= 0x1_0000 - 0x800;
                }
                RegionRef {
                    path: format!("/dev@{base:x}").into(),
                    index: 0,
                    region: RegEntry::new(base, 0x1000),
                    virtual_device: false,
                }
            })
            .collect()
    }

    #[test]
    fn solver_work_is_linear_in_overlapping_pairs() {
        // One refutation per pair, each propagating only its own two
        // regions: 4x the pairs must cost about 4x the propagations.
        let mut propagations = Vec::new();
        for pairs in [6, 24, 96] {
            let refs = chained_board(256, pairs);
            let (collisions, stats) = SemanticChecker::new().check_regions_with_stats(&refs);
            assert_eq!(collisions.len() as u128, pairs);
            assert_eq!(stats.pairs_encoded as u128, pairs);
            assert_eq!(stats.solver.solves, stats.pairs_encoded as u64);
            propagations.push(stats.solver.propagations);
        }
        assert!(
            propagations[2] <= 5 * propagations[1],
            "propagations for 6/24/96 pairs: {propagations:?}"
        );
    }

    #[test]
    fn multiple_independent_collisions_all_reported() {
        let refs = vec![
            RegionRef {
                path: "/a".into(),
                index: 0,
                region: RegEntry::new(0x1000, 0x100),
                virtual_device: false,
            },
            RegionRef {
                path: "/b".into(),
                index: 0,
                region: RegEntry::new(0x1080, 0x100),
                virtual_device: false,
            },
            RegionRef {
                path: "/c".into(),
                index: 0,
                region: RegEntry::new(0x9000, 0x100),
                virtual_device: false,
            },
            RegionRef {
                path: "/d".into(),
                index: 0,
                region: RegEntry::new(0x9010, 0x10),
                virtual_device: false,
            },
        ];
        let c = SemanticChecker::new().check_regions_with_stats(&refs).0;
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_sized_regions_ignored() {
        let t = parse(
            r#"/ {
                cpus {
                    #address-cells = <1>;
                    #size-cells = <0>;
                    cpu@0 { reg = <0x0>; };
                    cpu@1 { reg = <0x0>; };
                };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert!(r.is_ok());
        assert_eq!(r.regions_checked, 0);
    }

    #[test]
    fn interrupt_conflicts_detected() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                uart@1000 { reg = <0x1000 0x100>; interrupts = <7>; };
                timer@2000 { reg = <0x2000 0x100>; interrupts = <7 8>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert!(!r.is_ok());
        assert_eq!(r.interrupt_conflicts.len(), 1);
        assert_eq!(r.interrupt_conflicts[0].0, 7);
        assert_eq!(r.interrupt_conflicts[0].1.len(), 2);
    }

    #[test]
    fn cross_bus_collision_is_checked_at_cpu_addresses() {
        // Two bridges map different bus-local windows onto overlapping
        // physical ranges: bus-locally dev@0 and dev@1000 are disjoint,
        // but bridge_a maps 0x0→0xf0000000 and bridge_b maps
        // 0x1000→0xf0000800, so the CPU-visible ranges collide.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                bridge_a {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0xf0000000 0x10000>;
                    dev@0 { reg = <0x0 0x1000>; };
                };
                bridge_b {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x1000 0xf0000800 0x10000>;
                    dev@1000 { reg = <0x1000 0x1000>; };
                };
            };"#,
        )
        .unwrap();
        // [0xf0000000, 0xf0001000) overlaps [0xf0000800, 0xf0001800).
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert_eq!(r.collisions.len(), 1);
        assert_eq!(r.collisions[0].witness, 0xf000_0800);
    }

    #[test]
    fn windows_separate_bus_local_namesakes() {
        // Both UARTs sit at bus-local 0, but the CPU sees them at
        // 0x10000000 and 0x20000000; a third bus maps its UART onto
        // memory.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
                soc0 {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x10000000 0x100000>;
                    uart@0 { reg = <0x0 0x1000>; };
                };
                soc1 {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x20000000 0x100000>;
                    uart@0 { reg = <0x0 0x1000>; };
                };
                soc2 {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x40000000 0x100000>;
                    uart@0 { reg = <0x0 0x1000>; };
                };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert_eq!(r.regions_checked, 4);
        assert_eq!(r.collisions.len(), 1, "{:?}", r.collisions);
        assert_eq!(r.collisions[0].a.path, "/memory@40000000");
        assert_eq!(r.collisions[0].b.path, "/soc2/uart@0");
        assert_eq!(r.collisions[0].witness, 0x4000_0000);
    }

    #[test]
    fn interrupt_domains_separate_controllers() {
        // Two devices on *different* interrupt controllers may share a
        // line number; two on the same controller may not.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                gic: pic@1000 { #interrupt-cells = <1>; reg = <0x1000 0x100>; };
                aux: pic@2000 { #interrupt-cells = <1>; reg = <0x2000 0x100>; };
                uart@3000 { reg = <0x3000 0x100>; interrupt-parent = <&gic>;
                            interrupts = <7>; };
                timer@4000 { reg = <0x4000 0x100>; interrupt-parent = <&aux>;
                             interrupts = <7>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert!(
            r.interrupt_conflicts.is_empty(),
            "{:?}",
            r.interrupt_conflicts
        );

        let clash = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                gic: pic@1000 { #interrupt-cells = <1>; reg = <0x1000 0x100>; };
                uart@3000 { reg = <0x3000 0x100>; interrupt-parent = <&gic>;
                            interrupts = <7>; };
                timer@4000 { reg = <0x4000 0x100>; interrupt-parent = <&gic>;
                             interrupts = <7>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new()
            .check_tree_with_stats(&clash)
            .unwrap()
            .0;
        assert_eq!(r.interrupt_conflicts.len(), 1);
        assert_eq!(r.interrupt_conflicts[0].0, 7);

        // Three domains, each with a shared line: the root domain "",
        // `&gic` with 3-cell specifiers inherited from the soc bus, and
        // the raw `phandle:5`. Conflicts come ordered by (domain, line)
        // whatever the source order, each with its paths in depth-first
        // order. With 1-cell specifiers in `&gic`, its lines would be
        // 9, 1, 4 and 9, 2, 4, and line 4 would clash too.
        let three = parse(
            r#"/ {
                raw@100 { interrupt-parent = <5>; interrupts = <9>; };
                gic: pic@1000 { #interrupt-cells = <3>; };
                soc {
                    interrupt-parent = <&gic>;
                    spi@5000 { interrupts = <9 1 4>; };
                    i2c@6000 { interrupts = <9 2 4>; };
                };
                uart@3000 { interrupts = <9>; };
                timer@4000 { interrupts = <9>; };
                dma@7000 { interrupts = <2>; };
                raw@200 { interrupt-parent = <5>; interrupts = <9>; };
                gpio@8000 { interrupts = <2>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new()
            .check_tree_with_stats(&three)
            .unwrap()
            .0;
        let paths = |ps: &[&str]| ps.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        assert_eq!(
            r.interrupt_conflicts,
            vec![
                (2, paths(&["/dma@7000", "/gpio@8000"])),
                (9, paths(&["/uart@3000", "/timer@4000"])),
                (9, paths(&["/soc/spi@5000", "/soc/i2c@6000"])),
                (9, paths(&["/raw@100", "/raw@200"])),
            ]
        );
    }

    #[test]
    fn interrupt_parent_spellings_name_one_domain() {
        // `b` names intc by its explicit phandle, `a` and `c` by label.
        // With 2-cell specifiers, `b`'s second cell is no line either.
        let board = |cells: u32, flags: [&str; 3]| {
            parse(&format!(
                r#"/ {{
                    #address-cells = <1>;
                    #size-cells = <1>;
                    intc: interrupt-controller@1000 {{
                        phandle = <7>; #interrupt-cells = <{cells}>;
                    }};
                    a@2000 {{ reg = <0x2000 0x100>; interrupt-parent = <&intc>;
                              interrupts = <5{}>; }};
                    b@3000 {{ reg = <0x3000 0x100>; interrupt-parent = <7>;
                              interrupts = <5{}>; }};
                    c@4000 {{ reg = <0x4000 0x100>; interrupt-parent = <&intc>;
                              interrupts = <5{}>; }};
                }};"#,
                flags[0], flags[1], flags[2]
            ))
            .unwrap()
        };
        let users = ["/a@2000", "/b@3000", "/c@4000"].map(String::from).to_vec();
        for t in [board(1, ["", "", ""]), board(2, [" 0", " 1", " 2"])] {
            let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
            assert_eq!(r.interrupt_conflicts, [(5, users.clone())]);
        }
    }

    #[test]
    fn interrupt_parent_is_inherited() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                gic: pic@1000 { #interrupt-cells = <1>; reg = <0x1000 0x100>; };
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    interrupt-parent = <&gic>;
                    ranges;
                    uart@3000 { reg = <0x3000 0x100>; interrupts = <9>; };
                    spi@5000 { reg = <0x5000 0x100>; interrupts = <9>; };
                };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert_eq!(
            r.interrupt_conflicts.len(),
            1,
            "inherited same domain clashes"
        );
    }

    #[test]
    fn multi_cell_interrupt_specifiers() {
        // GIC-style 3-cell specifiers: <type number flags>; the second
        // device uses a different *first* cell, so no conflict even
        // though later cells coincide.
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                gic: pic@1000 { #interrupt-cells = <3>; reg = <0x1000 0x100>; };
                uart@3000 { reg = <0x3000 0x100>; interrupt-parent = <&gic>;
                            interrupts = <0 7 4>; };
                timer@4000 { reg = <0x4000 0x100>; interrupt-parent = <&gic>;
                             interrupts = <1 7 4>; };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_with_stats(&t).unwrap().0;
        assert!(
            r.interrupt_conflicts.is_empty(),
            "{:?}",
            r.interrupt_conflicts
        );
    }

    #[test]
    fn alignment_check() {
        let checker = SemanticChecker::new();
        let refs = vec![
            RegionRef {
                path: "/ok".into(),
                index: 0,
                region: RegEntry::new(0x1000, 0x2000),
                virtual_device: false,
            },
            RegionRef {
                path: "/bad_base".into(),
                index: 0,
                region: RegEntry::new(0x1234, 0x1000),
                virtual_device: false,
            },
            RegionRef {
                path: "/bad_size".into(),
                index: 0,
                region: RegEntry::new(0x2000, 0x800),
                virtual_device: false,
            },
        ];
        let bad = checker.check_alignment(&refs, 0x1000);
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].path, "/bad_base");
        assert_eq!(bad[1].path, "/bad_size");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn alignment_must_be_power_of_two() {
        let _ = SemanticChecker::new().check_alignment(&[], 3);
    }

    #[test]
    fn coverage_full_containment_passes() {
        let mut checker = SemanticChecker::new();
        let inner = vec![RegionRef {
            path: "/vm/memory".into(),
            index: 0,
            region: RegEntry::new(0x4000_0000, 0x1000_0000),
            virtual_device: false,
        }];
        let outer = vec![RegionRef {
            path: "/platform/memory".into(),
            index: 0,
            region: RegEntry::new(0x4000_0000, 0x4000_0000),
            virtual_device: false,
        }];
        assert!(checker
            .check_coverage_with_stats(&inner, &outer)
            .0
            .is_empty());
    }

    #[test]
    fn coverage_across_two_banks() {
        // A VM region spanning the boundary of two adjacent platform
        // banks is covered by their union.
        let mut checker = SemanticChecker::new();
        let inner = vec![RegionRef {
            path: "/vm/memory".into(),
            index: 0,
            region: RegEntry::new(0x5000_0000, 0x2000_0000),
            virtual_device: false,
        }];
        let outer = vec![
            RegionRef {
                path: "/platform/bank0".into(),
                index: 0,
                region: RegEntry::new(0x4000_0000, 0x2000_0000),
                virtual_device: false,
            },
            RegionRef {
                path: "/platform/bank1".into(),
                index: 0,
                region: RegEntry::new(0x6000_0000, 0x2000_0000),
                virtual_device: false,
            },
        ];
        assert!(checker
            .check_coverage_with_stats(&inner, &outer)
            .0
            .is_empty());
    }

    #[test]
    fn coverage_gap_detected_with_witness() {
        let mut checker = SemanticChecker::new();
        let inner = vec![RegionRef {
            path: "/vm/memory".into(),
            index: 0,
            region: RegEntry::new(0x4000_0000, 0x2000_1000), // 0x1000 too big
            virtual_device: false,
        }];
        let outer = vec![RegionRef {
            path: "/platform/memory".into(),
            index: 0,
            region: RegEntry::new(0x4000_0000, 0x2000_0000),
            virtual_device: false,
        }];
        let gaps = checker.check_coverage_with_stats(&inner, &outer).0;
        assert_eq!(gaps.len(), 1);
        // The witness is inside the vm region but outside the platform.
        assert!(gaps[0].witness >= 0x6000_0000);
        assert!(gaps[0].witness < 0x6000_1000);
        assert!(gaps[0].to_string().contains("not covered"));
    }

    #[test]
    fn coverage_with_no_outer_regions() {
        let mut checker = SemanticChecker::new();
        let inner = vec![RegionRef {
            path: "/vm/memory".into(),
            index: 0,
            region: RegEntry::new(0x1000, 0x1000),
            virtual_device: false,
        }];
        let gaps = checker.check_coverage_with_stats(&inner, &[]).0;
        assert_eq!(gaps.len(), 1);
    }

    #[test]
    fn coverage_is_not_masked_to_65_bits() {
        // Masked to 65 bits, the VM region would start at 0x40000000,
        // inside the platform memory.
        let vm_base = (1u128 << 66) + 0x4000_0000;
        let inner = vec![RegionRef {
            path: "/vm/memory".into(),
            index: 0,
            region: RegEntry::new(vm_base, 0x1000_0000),
            virtual_device: false,
        }];
        let outer = vec![RegionRef {
            path: "/platform/memory".into(),
            index: 0,
            region: RegEntry::new(0x4000_0000, 0x4000_0000),
            virtual_device: false,
        }];
        let (gaps, _) = SemanticChecker::new().check_coverage_with_stats(&inner, &outer);
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].witness, vm_base);
    }

    #[test]
    fn memory_regions_are_cpu_addresses() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x80000000 0x100000>;
                    sram@0 { device_type = "memory"; reg = <0x0 0x1000>; };
                };
            };"#,
        )
        .unwrap();
        let regions = SemanticChecker::memory_regions(&t).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].region, RegEntry::new(0x8000_0000, 0x1000));
    }

    #[test]
    fn memory_regions_filters_by_device_type() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000>; };
                uart@20000000 { reg = <0x20000000 0x1000>; };
            };"#,
        )
        .unwrap();
        let regions = SemanticChecker::memory_regions(&t).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].path, "/memory@40000000");
    }

    #[test]
    fn arity_error_propagates() {
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@0 { reg = <0 0 0 1 2>; };
            };"#,
        )
        .unwrap();
        assert!(SemanticChecker::new().check_tree_with_stats(&t).is_err());
    }
}
