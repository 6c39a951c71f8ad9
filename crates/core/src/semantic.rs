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
//! bit-blasting; our [`llhsc_smt`] context does exactly the same. Each
//! pairwise disjointness constraint is guarded by a marker assumption,
//! so the unsat core names the colliding pair, and a follow-up query
//! asks the solver for a *witness address* inside the intersection —
//! the "counter example of consistency" the paper gets from Z3.
//!
//! Addresses are encoded as 65-bit vectors: the widest well-formed
//! DeviceTree addresses are 64-bit (2 address cells) and `b + s` of a
//! region ending at the top of the address space must not wrap.

use llhsc_dts::cells::{collect_regions, collect_regions_translated, RegEntry};
use llhsc_dts::{DeviceTree, DtsError};
use llhsc_obs::TraceCtx;
use llhsc_sat::{Cnf, ProofStep};
use llhsc_smt::{
    slice_key, AllocStats, CertStats, CheckOptions, CheckResult, SessionStats, Slice,
    SolverSession, SolverStats, TermId,
};

use crate::sweep;

/// Bit width used for address terms (64-bit addresses + 1 carry bit).
pub const ADDR_BITS: u32 = 65;

/// `compatible` strings identifying *virtual* devices. Their regions
/// live in guest RAM by design (shared-memory IPC, Listing 6), so they
/// are exempt from physical-overlap checking and only checked against
/// each other.
const VIRTUAL_COMPATIBLES: [&str; 2] = ["veth", "shmem"];

/// Identifies one region in the input for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionRef {
    /// Path of the node whose `reg` contributed the region.
    pub path: String,
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
    trace: Option<TraceCtx>,
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
    /// counts and verifies pairwise disjointness, and checks
    /// `interrupts` properties for lines claimed by two devices of one
    /// interrupt domain (the paper's conclusions name interrupts as the
    /// second semantic property family).
    ///
    /// # Errors
    ///
    /// Propagates [`DtsError`] when a `reg` property cannot be decoded
    /// (wrong arity — which the syntactic checker reports with more
    /// context).
    pub fn check_tree(&mut self, tree: &DeviceTree) -> Result<SemanticReport, DtsError> {
        Ok(self.check_tree_with(tree, false)?.0)
    }

    /// [`check_tree`](SemanticChecker::check_tree), also returning the
    /// cost counters of the region-disjointness check.
    ///
    /// # Errors
    ///
    /// Propagates [`DtsError`] as [`check_tree`] does.
    ///
    /// [`check_tree`]: SemanticChecker::check_tree
    pub fn check_tree_with_stats(
        &mut self,
        tree: &DeviceTree,
    ) -> Result<(SemanticReport, RegionCheckStats), DtsError> {
        self.check_tree_with(tree, false)
    }

    /// Like [`SemanticChecker::check_tree`], but first translates every
    /// region through the `ranges` tables of its ancestor buses, so the
    /// disjointness check runs on CPU-visible *absolute* addresses.
    /// This catches cross-bus collisions that are invisible bus-locally
    /// (two devices on different bridges whose windows map onto the
    /// same physical range). Devices on buses without a `ranges`
    /// property are not root-addressable and are skipped.
    ///
    /// # Errors
    ///
    /// Propagates `reg`/`ranges` decoding errors.
    pub fn check_tree_translated(&mut self, tree: &DeviceTree) -> Result<SemanticReport, DtsError> {
        Ok(self.check_tree_with(tree, true)?.0)
    }

    fn check_tree_with(
        &mut self,
        tree: &DeviceTree,
        translated: bool,
    ) -> Result<(SemanticReport, RegionCheckStats), DtsError> {
        let refs = self.collect_refs_with(tree, translated)?;
        let (collisions, stats) = self.check_regions_with_stats(&refs);
        let interrupt_conflicts = interrupt_conflicts(tree);
        let wrapping = refs.iter().filter(|r| r.region.wraps()).cloned().collect();
        Ok((
            SemanticReport {
                collisions,
                interrupt_conflicts,
                wrapping,
                regions_checked: refs.len(),
            },
            stats,
        ))
    }

    /// Decodes every `reg` in the tree into [`RegionRef`]s ready for
    /// checking: zero-sized entries are dropped (e.g. CPU unit
    /// addresses under `#size-cells = 0` occupy no address space) and
    /// devices whose `compatible` is `veth` or `shmem` are flagged
    /// virtual.
    ///
    /// # Errors
    ///
    /// Propagates [`DtsError`] when a `reg` property cannot be decoded.
    pub fn collect_refs(&self, tree: &DeviceTree) -> Result<Vec<RegionRef>, DtsError> {
        self.collect_refs_with(tree, false)
    }

    fn collect_refs_with(
        &self,
        tree: &DeviceTree,
        translated: bool,
    ) -> Result<Vec<RegionRef>, DtsError> {
        let devices = if translated {
            collect_regions_translated(tree)?
        } else {
            collect_regions(tree)?
        };
        let mut refs = Vec::new();
        for d in &devices {
            let virtual_device = d
                .node
                .prop_str("compatible")
                .is_some_and(|c| VIRTUAL_COMPATIBLES.contains(&c));
            for (i, r) in d.regions.iter().enumerate() {
                if r.size == 0 {
                    continue;
                }
                refs.push(RegionRef {
                    path: d.path.to_string(),
                    index: i,
                    region: *r,
                    virtual_device,
                });
            }
        }
        Ok(refs)
    }

    /// Verifies pairwise disjointness of explicit regions via the
    /// bit-vector encoding of formula (7).
    ///
    /// Pairs are pruned by the [`sweep`] prefilter first: only pairs
    /// whose ranges actually intersect are encoded, and each surviving
    /// pair is still confirmed by the solver with a witness address —
    /// the result is identical to [`check_regions_exhaustive`], which
    /// encodes every pair as the paper does.
    ///
    /// [`check_regions_exhaustive`]: SemanticChecker::check_regions_exhaustive
    pub fn check_regions(&mut self, refs: &[RegionRef]) -> Vec<Collision> {
        self.check_regions_with_stats(refs).0
    }

    /// [`check_regions`](SemanticChecker::check_regions), also
    /// returning the encoding and solver counters of the run.
    pub fn check_regions_with_stats(
        &mut self,
        refs: &[RegionRef],
    ) -> (Vec<Collision>, RegionCheckStats) {
        self.solve_pairs(refs, &sweep::candidate_pairs(refs))
    }

    /// The unpruned quadratic encoding: one guarded disjointness
    /// constraint per region pair, exactly as formula (7) is stated.
    /// Kept as the semantic reference the sweep-prefiltered path is
    /// cross-checked against (`prop_semantic`, `sweep_scale`).
    pub fn check_regions_exhaustive(&mut self, refs: &[RegionRef]) -> Vec<Collision> {
        self.check_regions_exhaustive_with_stats(refs).0
    }

    /// [`check_regions_exhaustive`], also returning run counters.
    ///
    /// [`check_regions_exhaustive`]: SemanticChecker::check_regions_exhaustive
    pub fn check_regions_exhaustive_with_stats(
        &mut self,
        refs: &[RegionRef],
    ) -> (Vec<Collision>, RegionCheckStats) {
        let mut pairs = Vec::new();
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                // Physical regions must be mutually disjoint; so must
                // virtual regions. A virtual region may alias a physical
                // one (it is backed by that RAM). Zero-sized regions
                // contain no address, so formula (7)'s ∃x can never
                // land inside one.
                if refs[i].virtual_device == refs[j].virtual_device
                    && refs[i].region.size != 0
                    && refs[j].region.size != 0
                {
                    pairs.push((i, j));
                }
            }
        }
        self.solve_pairs(refs, &pairs)
    }

    /// Shared encoding + core-peeling loop over the persistent session:
    /// the disjointness gate networks range over indexed symbolic
    /// variables (`base_i`/`end_i`), so they are bit-blasted once and
    /// reused by every subsequent tree; only this tree's concrete
    /// region bindings are fresh, asserted inside a content-keyed
    /// assumption slice. The unsat core is peeled until satisfiable,
    /// extracting a canonical witness per collision.
    fn solve_pairs(
        &mut self,
        refs: &[RegionRef],
        pairs: &[(usize, usize)],
    ) -> (Vec<Collision>, RegionCheckStats) {
        // A board the prefilter fully discharged costs nothing: no
        // slice, no guard variable, no solver contact.
        if pairs.is_empty() {
            return (
                Vec::new(),
                RegionCheckStats {
                    regions: refs.len(),
                    pairs_considered: pair_count(refs.len()),
                    ..RegionCheckStats::default()
                },
            );
        }
        if let Some(trace) = &self.trace {
            self.session.ctx_mut().set_trace(trace.clone());
        }
        let solver_before = self.session.ctx().solver_stats();
        let terms_before = self.session.ctx().num_terms();
        let (hits_before, misses_before) = self.session.ctx().encode_counts();

        // This tree's slice: binds `base_i`/`end_i` to the concrete
        // regions. Keyed by the participating regions' content, so a
        // warm repeat of the same tree re-activates the existing slice
        // without encoding anything.
        let mut participates = vec![false; refs.len()];
        for &(i, j) in pairs {
            participates[i] = true;
            participates[j] = true;
        }
        let mut content: Vec<u8> = b"pairs".to_vec();
        for (i, p) in participates.iter().enumerate() {
            if !*p {
                continue;
            }
            content.extend_from_slice(&(i as u64).to_le_bytes());
            content.extend_from_slice(&refs[i].region.address.to_le_bytes());
            content.extend_from_slice(&refs[i].region.size.to_le_bytes());
        }
        let slice = self.session.slice(slice_key(&content));

        // Encode base and end of every region that participates in at
        // least one candidate pair as 65-bit constants bound to
        // variables (so the gate networks of the comparisons are real,
        // as in the paper's Z3 encoding, rather than folded away).
        // Regions the prefilter proved disjoint are never encoded — on
        // a clean board nothing new enters the solver.
        let mut terms: Vec<Option<(TermId, TermId)>> = vec![None; refs.len()];
        fn encode(
            session: &mut SolverSession,
            slice: Slice,
            refs: &[RegionRef],
            terms: &mut [Option<(TermId, TermId)>],
            i: usize,
        ) -> (TermId, TermId) {
            if let Some(t) = terms[i] {
                return t;
            }
            let r = &refs[i];
            let ctx = session.ctx_mut();
            let base = ctx.bv_var_i("base", i as u64, ADDR_BITS);
            let end = ctx.bv_var_i("end", i as u64, ADDR_BITS);
            let bc = ctx.bv_const(r.region.address, ADDR_BITS);
            let size = ctx.bv_const(r.region.size, ADDR_BITS);
            let sum = ctx.bv_add(bc, size);
            let eb = ctx.eq(base, bc);
            let ee = ctx.eq(end, sum);
            session.assert_in(slice, eb);
            session.assert_in(slice, ee);
            terms[i] = Some((base, end));
            (base, end)
        }

        // One marker-guarded disjointness constraint per candidate
        // pair, asserted at the session's root: the constraint is over
        // the symbolic `base_i`/`end_i` only, so it is shared (and its
        // encoding reused) across every tree whose pair `(i, j)`
        // survives the prefilter. Solve once and peel the unsat core
        // until satisfiable.
        let mut markers: Vec<(TermId, usize, usize)> = Vec::new();
        for &(i, j) in pairs {
            let (bi, ei) = encode(&mut self.session, slice, refs, &mut terms, i);
            let (bj, ej) = encode(&mut self.session, slice, refs, &mut terms, j);
            let ctx = self.session.ctx_mut();
            let m = ctx.bool_var_i("disjoint", ((i as u64) << 32) | j as u64);
            // overlap = bi < ej && bj < ei  (non-empty regions)
            let o1 = ctx.bv_ult(bi, ej);
            let o2 = ctx.bv_ult(bj, ei);
            let overlap = ctx.and([o1, o2]);
            let disjoint = ctx.not(overlap);
            let guarded = ctx.implies(m, disjoint);
            self.session.assert_root(guarded);
            markers.push((m, i, j));
        }

        let mut collisions = Vec::new();
        let mut active = markers;
        loop {
            let assumptions: Vec<TermId> = active.iter().map(|(m, _, _)| *m).collect();
            if assumptions.is_empty() {
                break;
            }
            match self.session.check(&[slice], &assumptions) {
                CheckResult::Sat => break,
                CheckResult::Unsat => {
                    let core: Vec<TermId> = self.session.unsat_core().to_vec();
                    let (bad, rest): (Vec<_>, Vec<_>) =
                        active.into_iter().partition(|(m, _, _)| core.contains(m));
                    if bad.is_empty() {
                        break;
                    }
                    for (_, i, j) in &bad {
                        let witness = witness_address(
                            &mut self.session,
                            slice,
                            terms[*i].expect("paired region is encoded"),
                            terms[*j].expect("paired region is encoded"),
                            refs[*i].region.address.max(refs[*j].region.address),
                        );
                        collisions.push(Collision {
                            a: refs[*i].clone(),
                            b: refs[*j].clone(),
                            witness,
                        });
                    }
                    active = rest;
                }
            }
        }
        collisions.sort_by(|x, y| {
            (x.a.path.clone(), x.a.index, x.b.path.clone(), x.b.index).cmp(&(
                y.a.path.clone(),
                y.a.index,
                y.b.path.clone(),
                y.b.index,
            ))
        });
        let (hits_now, misses_now) = self.session.ctx().encode_counts();
        let stats = RegionCheckStats {
            regions: refs.len(),
            pairs_considered: pair_count(refs.len()),
            pairs_encoded: pairs.len(),
            terms: self.session.ctx().num_terms() - terms_before,
            terms_encoded: misses_now - misses_before,
            terms_reused: hits_now - hits_before,
            solver: self
                .session
                .ctx()
                .solver_stats()
                .delta_since(&solver_before),
        };
        if self.trace.is_some() {
            self.session.ctx_mut().clear_trace();
        }
        (collisions, stats)
    }
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
    /// witness address per uncovered region.
    pub fn check_coverage(&mut self, inner: &[RegionRef], outer: &[RegionRef]) -> Vec<CoverageGap> {
        self.check_coverage_with_stats(inner, outer).0
    }

    /// [`check_coverage`](SemanticChecker::check_coverage), also
    /// returning the solver counters the queries cost. When a trace
    /// context is attached, each per-region query records a `"solve"`
    /// span under it.
    pub fn check_coverage_with_stats(
        &mut self,
        inner: &[RegionRef],
        outer: &[RegionRef],
    ) -> (Vec<CoverageGap>, SolverStats) {
        if let Some(trace) = &self.trace {
            self.session.ctx_mut().set_trace(trace.clone());
        }
        let solver_before = self.session.ctx().solver_stats();

        // The platform slice: `coverage_x` lies outside every outer
        // region. Keyed by the outer regions' content, so every VM
        // checked against the same platform memory map reuses one
        // encoding — only the per-VM "inside" assumptions differ.
        let mut content: Vec<u8> = b"cover".to_vec();
        for o in outer {
            content.extend_from_slice(&o.region.address.to_le_bytes());
            content.extend_from_slice(&o.region.end().to_le_bytes());
        }
        let slice = self.session.slice(slice_key(&content));
        let x = self.session.ctx_mut().bv_var("coverage_x", ADDR_BITS);
        for o in outer {
            let ctx = self.session.ctx_mut();
            let ob = ctx.bv_const(o.region.address, ADDR_BITS);
            let oe = ctx.bv_const(o.region.end(), ADDR_BITS);
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
            let base = ctx.bv_const(r.region.address, ADDR_BITS);
            let end = ctx.bv_const(r.region.end(), ADDR_BITS);
            let inside_lo = ctx.bv_ule(base, x);
            let inside_hi = ctx.bv_ult(x, end);
            let witness = minimized_value(&mut self.session, &[slice], &[inside_lo, inside_hi], x);
            if witness != u128::MAX {
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
        assert!(
            alignment.is_power_of_two(),
            "alignment must be a power of two"
        );
        refs.iter()
            .filter(|r| {
                r.region.size != 0
                    && (r.region.address % alignment != 0 || r.region.size % alignment != 0)
            })
            .cloned()
            .collect()
    }

    /// Extracts the physical-memory regions of a tree as [`RegionRef`]s
    /// (device_type `memory` nodes only) — convenience for coverage
    /// checks between trees.
    pub fn memory_regions(tree: &DeviceTree) -> Result<Vec<RegionRef>, DtsError> {
        let devices = collect_regions(tree)?;
        let mut out = Vec::new();
        for d in devices {
            if d.node.prop_str("device_type") != Some("memory") {
                continue;
            }
            for (i, r) in d.regions.iter().enumerate() {
                if r.size == 0 {
                    continue;
                }
                out.push(RegionRef {
                    path: d.path.to_string(),
                    index: i,
                    region: *r,
                    virtual_device: false,
                });
            }
        }
        Ok(out)
    }
}

/// Asks the solver for an address inside both regions — the paper's
/// counterexample extraction ("a counter example of consistency is
/// produced by Z3").
///
/// `candidate` is the intersection's lowest address (`max` of the two
/// bases), computed arithmetically; the solve *confirms* it lies in
/// both regions under the slice's symbolic bindings and the reported
/// witness is read back from the model. Pinning the value makes the
/// witness a pure function of the two regions — a persistent session
/// accumulates decision history, so an unpinned model value would vary
/// with solver warm-up and session-reuse runs would not be
/// byte-identical to fresh-context runs.
fn witness_address(
    session: &mut SolverSession,
    slice: Slice,
    a: (TermId, TermId),
    b: (TermId, TermId),
    candidate: u128,
) -> u128 {
    let (ba, ea) = a;
    let (bb, eb) = b;
    let ctx = session.ctx_mut();
    let x = ctx.bv_var("witness_x", ADDR_BITS);
    let c1 = ctx.bv_ule(ba, x);
    let c2 = ctx.bv_ult(x, ea);
    let c3 = ctx.bv_ule(bb, x);
    let c4 = ctx.bv_ult(x, eb);
    let cand = ctx.bv_const(candidate, ADDR_BITS);
    let pin = ctx.eq(x, cand);
    match session.check(&[slice], &[c1, c2, c3, c4, pin]) {
        CheckResult::Sat => session
            .model()
            .and_then(|m| m.eval_bv(x))
            .expect("witness variable has a value"),
        CheckResult::Unsat => u128::MAX, // cannot happen for a real overlap
    }
}

/// The *smallest* value of bit-vector `x` (of [`ADDR_BITS`] width)
/// satisfying the slices + assumptions, found by fixing bits MSB→LSB;
/// `u128::MAX` when unsatisfiable.
///
/// Model-guided: a bit is only queried when the current model sets it
/// to 1 (the model itself proves a 0 bit can stay 0 under the fixed
/// prefix), so the solve count is bounded by the 1-bits encountered,
/// not the width. As with [`witness_address`], minimizing makes the
/// witness independent of the session's accumulated decision history.
fn minimized_value(
    session: &mut SolverSession,
    slices: &[Slice],
    base_assumptions: &[TermId],
    x: TermId,
) -> u128 {
    let mut assumptions = base_assumptions.to_vec();
    if session.check(slices, &assumptions) != CheckResult::Sat {
        return u128::MAX;
    }
    let mut v = session
        .model()
        .and_then(|m| m.eval_bv(x))
        .expect("witness variable has a value");
    for bit in (0..ADDR_BITS).rev() {
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
    v
}

/// Collects `interrupts` cell values and reports lines used by more
/// than one device *within the same interrupt domain*. The domain is
/// the device's `interrupt-parent` (a `&label` or phandle cell),
/// inherited from ancestors per the DeviceTree specification; devices
/// wired to different interrupt controllers may legitimately share
/// line numbers. The number of cells per interrupt specifier is the
/// controller's `#interrupt-cells` (default 1), with the *first* cell
/// treated as the line number.
fn interrupt_conflicts(tree: &DeviceTree) -> Vec<(u32, Vec<String>)> {
    interrupt_users(tree)
        .into_iter()
        .filter(|(_, paths)| paths.len() > 1)
        .collect()
}

/// Every `(interrupt domain, line) → using node paths` group in the
/// tree, before the ≥2-users conflict filter, as `(line, paths)`. Groups
/// come sorted by (domain key, line) and each group's paths in
/// depth-first order. The family checker lifts over these groups: a pair
/// of users sharing a line only conflicts in products containing both,
/// so it needs the per-user paths, not the merged verdict.
///
/// One walk, linear in the tree: each domain is interned once, with its
/// controller's `#interrupt-cells` resolved at that point, and groups
/// accumulate under `(domain index, line)` until the single final sort.
pub(crate) fn interrupt_users(tree: &DeviceTree) -> Vec<(u32, Vec<String>)> {
    use std::collections::HashMap;

    // Domain key: the resolved interrupt parent (label / raw phandle),
    // or "" for the implicit root domain.
    fn parent_key(prop: &llhsc_dts::Property) -> String {
        match prop.values.first() {
            Some(llhsc_dts::PropValue::Cells(cells)) => match cells.first() {
                Some(llhsc_dts::Cell::Ref(l)) => format!("&{l}"),
                Some(llhsc_dts::Cell::U32(ph)) => format!("phandle:{ph}"),
                None => String::new(),
            },
            Some(llhsc_dts::PropValue::Ref(l)) => format!("&{l}"),
            _ => String::new(),
        }
    }

    /// `#interrupt-cells` of a domain's controller, defaulting to 1.
    fn domain_cells(tree: &DeviceTree, key: &str) -> u32 {
        let node = match key.strip_prefix('&') {
            Some(label) => tree.resolve_label(label).and_then(|p| tree.find_path(&p)),
            None => None,
        };
        node.and_then(|n| n.prop_u32("#interrupt-cells"))
            .unwrap_or(1)
    }

    struct Walk<'t> {
        tree: &'t DeviceTree,
        /// Interned domains: key and `#interrupt-cells`.
        domains: Vec<(String, u32)>,
        domain_of: HashMap<String, usize>,
        /// Groups as `(domain index, line, paths)`.
        groups: Vec<(usize, u32, Vec<String>)>,
        group_of: HashMap<(usize, u32), usize>,
    }

    impl Walk<'_> {
        fn intern(&mut self, key: String) -> usize {
            if let Some(&d) = self.domain_of.get(&key) {
                return d;
            }
            let d = self.domains.len();
            self.domains
                .push((key.clone(), domain_cells(self.tree, &key)));
            self.domain_of.insert(key, d);
            d
        }

        fn visit(&mut self, node: &llhsc_dts::Node, path: &str, inherited: usize) {
            let here = if node.name.is_empty() {
                "/".to_string()
            } else if path == "/" {
                format!("/{}", node.name)
            } else {
                format!("{path}/{}", node.name)
            };
            let domain = match node.prop("interrupt-parent") {
                Some(prop) => self.intern(parent_key(prop)),
                None => inherited,
            };
            if let Some(cells) = node.prop("interrupts").and_then(|p| p.flat_cells()) {
                let stride = self.domains[domain].1.max(1) as usize;
                for spec in cells.chunks(stride) {
                    let line = spec[0];
                    let next = self.groups.len();
                    let g = *self.group_of.entry((domain, line)).or_insert(next);
                    if g == next {
                        self.groups.push((domain, line, Vec::new()));
                    }
                    self.groups[g].2.push(here.clone());
                }
            }
            for c in &node.children {
                self.visit(c, &here, domain);
            }
        }
    }

    let mut walk = Walk {
        tree,
        domains: Vec::new(),
        domain_of: HashMap::new(),
        groups: Vec::new(),
        group_of: HashMap::new(),
    };
    let root_domain = walk.intern(String::new());
    walk.visit(&tree.root, "/", root_domain);
    let Walk {
        domains,
        mut groups,
        ..
    } = walk;
    groups.sort_unstable_by(|(da, la, _), (db, lb, _)| {
        (&domains[*da].0, la).cmp(&(&domains[*db].0, lb))
    });
    groups
        .into_iter()
        .map(|(_, line, paths)| (line, paths))
        .collect()
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
                vivified: 3,
                proof_steps: 5,
                ..SolverStats::default()
            },
            ..RegionCheckStats::default()
        };
        let mut total = one;
        total.merge(&one);
        assert_eq!(total.regions, 4);
        assert_eq!(total.solver.solves, 2);
        assert_eq!(total.solver.vivified, 6);
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
        assert!(r.is_ok(), "{:?}", r.collisions);
        assert_eq!(r.regions_checked, 4);
    }

    #[test]
    fn certified_checker_proves_collision_verdicts() {
        use llhsc_sat::{check_drat, CheckMode};

        // A collision makes the disjointness assumptions UNSAT, and the
        // witness minimization adds further UNSAT probes — every one
        // must produce (and pass) a DRAT certificate.
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
        assert!(cert.proofs > 0, "the UNSAT verdict must carry a proof");
        assert!(cert.checked > 0);
        let (cnf, proof) = checker.export_proof().expect("certifying checker exports");
        assert!(check_drat(&cnf, &proof, CheckMode::Last).is_ok());
    }

    #[test]
    fn verdicts_are_config_independent_on_the_running_example() {
        // The in-processing/restart flags must never change a verdict,
        // only the work done to reach it.
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
        let baseline = SemanticChecker::new().check_tree(&t).unwrap();
        for combo in 0u32..16 {
            let solver = llhsc_smt::SolverConfig {
                chrono_backtrack: combo & 1 != 0,
                vivify: combo & 2 != 0,
                subsume: combo & 4 != 0,
                stable_restarts: combo & 8 != 0,
                ..llhsc_smt::SolverConfig::default()
            };
            let r = SemanticChecker::with_options(&CheckOptions {
                solver,
                ..CheckOptions::default()
            })
            .check_tree(&t)
            .unwrap();
            assert_eq!(
                r.collisions.len(),
                baseline.collisions.len(),
                "combo {combo}"
            );
            assert_eq!(r.regions_checked, baseline.regions_checked, "combo {combo}");
        }
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
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
        assert!(SemanticChecker::new().check_regions(&refs).is_empty());
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
        let c = SemanticChecker::new().check_regions(&refs);
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
        assert!(SemanticChecker::new().check_regions(&refs).is_empty());
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
        let c = SemanticChecker::new().check_regions(&refs);
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
        assert!(!r.is_ok());
        assert_eq!(r.interrupt_conflicts.len(), 1);
        assert_eq!(r.interrupt_conflicts[0].0, 7);
        assert_eq!(r.interrupt_conflicts[0].1.len(), 2);
    }

    #[test]
    fn translated_check_catches_cross_bus_collision() {
        // Two bridges map different bus-local windows onto overlapping
        // physical ranges: bus-locally dev@0 and dev@1000 are disjoint,
        // but bridge_a maps 0x0→0xf0000000 and bridge_b maps
        // 0x1000→0xf0000800, so the absolute ranges collide.
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
        let mut checker = SemanticChecker::new();
        // Bus-local view: no collision (0x0.. vs 0x1000..).
        let local = checker.check_tree(&t).unwrap();
        assert!(local.is_ok(), "{:?}", local.collisions);
        // Absolute view: [0xf0000000, 0xf0001000) overlaps
        // [0xf0000800, 0xf0001800).
        let abs = checker.check_tree_translated(&t).unwrap();
        assert_eq!(abs.collisions.len(), 1);
        let c = &abs.collisions[0];
        assert!(c.witness >= 0xf000_0800);
        assert!(c.witness < 0xf000_1000);
    }

    #[test]
    fn translated_check_clean_board() {
        let t = parse(
            r#"/ {
                #address-cells = <1>;
                #size-cells = <1>;
                memory@80000000 { device_type = "memory"; reg = <0x80000000 0x1000000>; };
                soc {
                    #address-cells = <1>;
                    #size-cells = <1>;
                    ranges = <0x0 0x10000000 0x100000>;
                    uart@0 { reg = <0x0 0x1000>; };
                    timer@1000 { reg = <0x1000 0x1000>; };
                };
            };"#,
        )
        .unwrap();
        let r = SemanticChecker::new().check_tree_translated(&t).unwrap();
        assert!(r.is_ok(), "{:?}", r.collisions);
        assert_eq!(r.regions_checked, 3);
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
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
        let r = SemanticChecker::new().check_tree(&clash).unwrap();
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
        let r = SemanticChecker::new().check_tree(&three).unwrap();
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
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
        let r = SemanticChecker::new().check_tree(&t).unwrap();
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
        assert!(checker.check_coverage(&inner, &outer).is_empty());
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
        assert!(checker.check_coverage(&inner, &outer).is_empty());
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
        let gaps = checker.check_coverage(&inner, &outer);
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
        let gaps = checker.check_coverage(&inner, &[]);
        assert_eq!(gaps.len(), 1);
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
        assert!(SemanticChecker::new().check_tree(&t).is_err());
    }
}
