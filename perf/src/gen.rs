//! Seeded workload generators and their independent oracles.
//!
//! Every input is a pure function of `(workload, seed, connection,
//! request index)`. The expected verdict of each input is computed here,
//! from the generator's own bookkeeping, and never by llhsc: overlaps by
//! interval arithmetic over the emitted `reg` windows, interrupt
//! conflicts by counting the emitted lines, schema faults by the faults
//! the generator planted, and allocations by `V > C` (pigeonhole).
//!
//! Each workload's request mix is *block-stratified*: every block of
//! [`BLOCK`] consecutive requests holds exactly the same class counts in
//! a seeded order, so any run — whatever its length — sees nearly the
//! same mix, and metrics move with the program rather than with the
//! seed.

use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;

use llhsc_bench::SplitMix64;
use llhsc_dts::hash::stable_hash_of;

/// Requests per stratification block.
pub const BLOCK: usize = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential `llhsc check FILE` spawns on large boards.
    BoardCheck,
    /// Daemon `check` requests on unique boards with overlap chains.
    OverlapCheck,
    /// Daemon `build` requests on exclusive CPU clusters (pigeonhole).
    AllocSearch,
    /// Two connections editing two projects: check, build, family build.
    EditLoop,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::BoardCheck,
        Workload::OverlapCheck,
        Workload::AllocSearch,
        Workload::EditLoop,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BoardCheck => "board_check",
            Workload::OverlapCheck => "overlap_check",
            Workload::AllocSearch => "alloc_search",
            Workload::EditLoop => "edit_loop",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request asks llhsc to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Check one DTS source (`llhsc check`, daemon `check`).
    Check {
        /// The DTS text.
        dts: String,
    },
    /// Run the pipeline on a project (`llhsc build`, daemon `build`).
    Build {
        /// The project sources.
        project: Project,
        /// Verify the whole product line instead of the listed VMs.
        family: bool,
    },
}

/// A `build` project: the four inputs of `llhsc build DIR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Project {
    /// `core.dts`
    pub core: String,
    /// `deltas.delta`
    pub deltas: String,
    /// `model.fm`
    pub model: String,
    /// `vms.cfg` as `(name, features)` pairs.
    pub vms: Vec<(String, Vec<String>)>,
}

impl Project {
    /// The `vms.cfg` text: `name: feature, feature`.
    pub fn vms_cfg(&self) -> String {
        self.vms
            .iter()
            .map(|(name, features)| format!("{name}: {}\n", features.join(", ")))
            .collect()
    }
}

/// The counts a single-tree check reports, as the oracle predicts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounts {
    /// Nodes in the tree, root included.
    pub nodes: usize,
    /// `reg` entries with a non-zero size.
    pub regions: usize,
    /// Schema violations.
    pub syntactic: usize,
    /// Interrupt lines claimed by more than one device.
    pub interrupts: usize,
    /// Overlapping region pairs.
    pub overlaps: usize,
}

impl CheckCounts {
    /// `true` when the tree has no finding.
    pub fn clean(&self) -> bool {
        self.syntactic + self.interrupts + self.overlaps == 0
    }
}

/// The oracle's verdict on a `build` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildExpect {
    /// The configuration passes every checker.
    pub accepted: bool,
    /// VMs whose artifacts an accepted build must produce (0 for a
    /// family build, which produces none).
    pub vms: usize,
    /// The CPU node each VM must own, when the request pins it; `None`
    /// when the allocation checker picks them (they must then be
    /// pairwise distinct).
    pub cpus: Option<Vec<String>>,
    /// The stage a rejected build must name.
    pub reject_stage: &'static str,
}

/// What the oracle expects of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A single-tree check.
    Check(CheckCounts),
    /// A pipeline run.
    Build(BuildExpect),
}

/// One generated request with its expected verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The input.
    pub payload: Payload,
    /// The oracle's verdict.
    pub expect: Expect,
    /// The stratification class, for reporting the mix.
    pub class: &'static str,
}

/// A seeded RNG for one `(tag, parts…)` coordinate.
fn rng_at(tag: &str, parts: &[u64]) -> SplitMix64 {
    SplitMix64::new(stable_hash_of(&(tag, parts)))
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// A uniform value in `[0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Overlapping pairs among half-open `[start, end)` windows, by a sweep
/// over the windows sorted by start.
pub fn overlapping_pairs(windows: &[(u128, u128)]) -> usize {
    let mut sorted: Vec<(u128, u128)> = windows.iter().copied().filter(|w| w.0 < w.1).collect();
    sorted.sort_unstable();
    let mut active: BinaryHeap<std::cmp::Reverse<u128>> = BinaryHeap::new();
    let mut pairs = 0;
    for (start, end) in sorted {
        while active.peek().is_some_and(|e| e.0 <= start) {
            active.pop();
        }
        pairs += active.len();
        active.push(std::cmp::Reverse(end));
    }
    pairs
}

/// Interrupt lines used by more than one device.
fn shared_lines(lines: &[u32]) -> usize {
    let mut users: HashMap<u32, usize> = HashMap::new();
    for &l in lines {
        *users.entry(l).or_default() += 1;
    }
    users.values().filter(|&&n| n > 1).count()
}

// ---- board_check ----------------------------------------------------

/// A fault planted into a `board_check` board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the board is clean.
    None,
    /// One device moved onto another device's register window.
    Collision,
    /// One device given another device's interrupt line.
    Interrupt,
    /// One CPU given `enable-method = "smp"`, outside the cpu schema's
    /// enum.
    Schema,
}

/// One generated board: DTS text plus the oracle's counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Board {
    /// The DTS source.
    pub dts: String,
    /// Expected check counts.
    pub expect: CheckCounts,
    /// The planted fault.
    pub fault: Fault,
}

/// Smallest and largest `board_check` board, in devices.
pub const BOARD_MIN_DEVICES: usize = 250;
/// See [`BOARD_MIN_DEVICES`].
pub const BOARD_MAX_DEVICES: usize = 6000;

const DEVICE_KINDS: [&str; 4] = ["dev", "timer", "gpio", "dma"];

/// A 1-cell board with `devices` devices at disjoint 4 KiB windows and
/// unique interrupt lines, a memory bank, two CPUs and one planted
/// `fault`.
pub fn board(devices: usize, fault: Fault, rng: &mut SplitMix64) -> Board {
    assert!(devices >= 2, "a fault needs two devices");
    let mut bases: Vec<u64> = (0..devices as u64)
        .map(|i| 0x1000_0000 + (2 * i + rng.below(2)) * 0x1000)
        .collect();
    let mut lines: Vec<u32> = (0..devices as u32).map(|i| 32 + i).collect();
    let victim = rng.below(devices as u64) as usize;
    let mut culprit = rng.below(devices as u64 - 1) as usize;
    if culprit >= victim {
        culprit += 1;
    }
    match fault {
        Fault::Collision => bases[culprit] = bases[victim],
        Fault::Interrupt => lines[culprit] = lines[victim],
        Fault::None | Fault::Schema => {}
    }
    let bad_cpu = (fault == Fault::Schema).then(|| rng.below(2));

    let mut dts = String::with_capacity(devices * 110 + 600);
    dts.push_str(
        "/dts-v1/;\n/ {\n\t#address-cells = <1>;\n\t#size-cells = <1>;\n\
         \tmodel = \"llhsc-perf board\";\n\
         \tmemory@80000000 {\n\t\tdevice_type = \"memory\";\n\t\treg = <0x80000000 0x40000000>;\n\t};\n\
         \tcpus {\n\t\t#address-cells = <1>;\n\t\t#size-cells = <0>;\n",
    );
    for cpu in 0..2u64 {
        let method = if bad_cpu == Some(cpu) { "smp" } else { "psci" };
        let _ = writeln!(
            dts,
            "\t\tcpu@{cpu} {{ compatible = \"arm,cortex-a53\"; device_type = \"cpu\"; \
             enable-method = \"{method}\"; reg = <{cpu:#x}>; }};"
        );
    }
    dts.push_str("\t};\n");
    for i in 0..devices {
        let kind = DEVICE_KINDS[rng.below(DEVICE_KINDS.len() as u64) as usize];
        let base = bases[i];
        let _ = writeln!(
            dts,
            "\t{kind}{i}@{base:x} {{ compatible = \"acme,{kind}\"; reg = <{base:#x} 0x1000>; \
             interrupts = <{}>; }};",
            lines[i]
        );
    }
    dts.push_str("};\n");

    let mut windows: Vec<(u128, u128)> = bases
        .iter()
        .map(|&b| (u128::from(b), u128::from(b) + 0x1000))
        .collect();
    windows.push((0x8000_0000, 0xc000_0000));
    Board {
        dts,
        expect: CheckCounts {
            nodes: devices + 5,
            regions: devices + 1,
            syntactic: usize::from(fault == Fault::Schema),
            interrupts: shared_lines(&lines),
            overlaps: overlapping_pairs(&windows),
        },
        fault,
    }
}

/// Device count of pool board `k` of `count`: the `(k + ½)/count`
/// quantile of the log-uniform distribution on
/// [`BOARD_MIN_DEVICES`, `BOARD_MAX_DEVICES`], so every pool spans the
/// same sizes whatever the seed.
pub fn pool_devices(k: usize, count: usize) -> usize {
    let ratio = BOARD_MAX_DEVICES as f64 / BOARD_MIN_DEVICES as f64;
    (BOARD_MIN_DEVICES as f64 * ratio.powf((k as f64 + 0.5) / count as f64)).round() as usize
}

/// The `board_check` pool: `count` boards of [`pool_devices`] sizes,
/// 20 % carrying a collision, 10 % a shared interrupt line and 10 % a
/// schema fault, assigned to sizes in seeded order.
pub fn board_pool(seed: u64, count: usize) -> Vec<Board> {
    let share = |percent: usize| (count * percent + 50) / 100;
    let mut faults = vec![Fault::None; count];
    let planted = [
        (Fault::Collision, share(20)),
        (Fault::Interrupt, share(10)),
        (Fault::Schema, share(10)),
    ];
    let mut at = 0;
    for (fault, n) in planted {
        for slot in faults.iter_mut().skip(at).take(n) {
            *slot = fault;
        }
        at += n;
    }
    shuffle(&mut faults, &mut rng_at("board-faults", &[seed]));
    faults
        .into_iter()
        .enumerate()
        .map(|(k, fault)| {
            board(
                pool_devices(k, count),
                fault,
                &mut rng_at("board", &[seed, k as u64]),
            )
        })
        .collect()
}

/// The order pass `pass` visits a pool of `count` boards in.
pub fn pool_order(seed: u64, pass: u64, count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).collect();
    shuffle(&mut order, &mut rng_at("board-order", &[seed, pass]));
    order
}

// ---- overlap_check --------------------------------------------------

/// Device range of an `overlap_check` board.
pub const OVERLAP_MIN_DEVICES: usize = 32;
/// See [`OVERLAP_MIN_DEVICES`].
pub const OVERLAP_MAX_DEVICES: usize = 256;

/// A 2-cell board of `devices` devices, `chains` of which form overlap
/// chains (each device overlapping its neighbours by half a window);
/// every other device sits alone in its own 64 KiB slot.
pub fn overlap_board(tag: &str, devices: usize, chains: usize, rng: &mut SplitMix64) -> Board {
    let lengths: Vec<usize> = (0..chains).map(|_| 2 + rng.below(8) as usize).collect();
    let chained: usize = lengths.iter().sum();
    assert!(chained <= devices, "chains exceed the device budget");
    let slots = devices - chained + chains;
    let mut slot_bases: Vec<u64> = (0..slots as u64)
        .map(|s| 0x4_0000_0000 + (2 * s + rng.below(2)) * 0x1_0000)
        .collect();
    shuffle(&mut slot_bases, rng);
    let mut bases = Vec::with_capacity(devices);
    for (c, &len) in lengths.iter().enumerate() {
        bases.extend((0..len as u64).map(|k| slot_bases[c] + k * 0x800));
    }
    bases.extend_from_slice(&slot_bases[chains..]);

    let mut dts = String::with_capacity(devices * 100 + 400);
    let _ = write!(
        dts,
        "/dts-v1/;\n/ {{\n\t#address-cells = <2>;\n\t#size-cells = <2>;\n\
         \tmodel = \"{tag}\";\n\
         \tmemory@80000000 {{\n\t\tdevice_type = \"memory\";\n\
         \t\treg = <0x0 0x80000000 0x0 0x40000000>;\n\t}};\n"
    );
    for (i, base) in bases.iter().enumerate() {
        let _ = writeln!(
            dts,
            "\tdev{i}@{base:x} {{ compatible = \"acme,dev\"; reg = <{:#x} {:#x} 0x0 0x1000>; }};",
            base >> 32,
            base & 0xffff_ffff
        );
    }
    dts.push_str("};\n");

    let mut windows: Vec<(u128, u128)> = bases
        .iter()
        .map(|&b| (u128::from(b), u128::from(b) + 0x1000))
        .collect();
    windows.push((0x8000_0000, 0xc000_0000));
    Board {
        dts,
        expect: CheckCounts {
            nodes: devices + 2,
            regions: devices + 1,
            syntactic: 0,
            interrupts: 0,
            overlaps: overlapping_pairs(&windows),
        },
        fault: Fault::Collision,
    }
}

fn overlap_request(seed: u64, conn: u64, index: u64) -> Request {
    let block = index / BLOCK as u64;
    let p = (index % BLOCK as u64) as usize;
    let mut sizes: Vec<usize> = (0..BLOCK).collect();
    shuffle(
        &mut sizes,
        &mut rng_at("overlap-sizes", &[seed, conn, block]),
    );
    let mut chains: Vec<usize> = (0..BLOCK).map(|s| 1 + s % 3).collect();
    shuffle(
        &mut chains,
        &mut rng_at("overlap-chains", &[seed, conn, block]),
    );
    let mut rng = rng_at("overlap", &[seed, conn, index]);
    let span = (OVERLAP_MAX_DEVICES - OVERLAP_MIN_DEVICES) as f64;
    let devices =
        OVERLAP_MIN_DEVICES + (span * (sizes[p] as f64 + unit(&mut rng)) / BLOCK as f64) as usize;
    let tag = format!("overlap-{seed}-{conn}-{index}");
    let b = overlap_board(&tag, devices, chains[p], &mut rng);
    Request {
        payload: Payload::Check { dts: b.dts },
        expect: Expect::Check(b.expect),
        class: ["chains1", "chains2", "chains3"][chains[p] - 1],
    }
}

// ---- alloc_search ---------------------------------------------------

/// One `alloc_search` class: `cpus` exclusive CPUs for `vms` VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AllocClass {
    name: &'static str,
    cpus: usize,
    vms: usize,
}

/// One block of the `alloc_search` mix: 45 % accepted (V = C), 15 %
/// rejected at C = 6, 20 % at C = 7 and 20 % at C = 8 (V = C + 1).
fn alloc_block() -> Vec<AllocClass> {
    let class = |name, cpus, vms, n| vec![AllocClass { name, cpus, vms }; n];
    [
        class("accept6", 6, 6, 3),
        class("accept7", 7, 7, 3),
        class("accept8", 8, 8, 3),
        class("reject6", 6, 7, 3),
        class("reject7", 7, 8, 4),
        class("reject8", 8, 9, 4),
    ]
    .concat()
}

/// A project with one exclusive `cpus` xor-group of `cpus` CPUs and
/// `vms` VMs that select only `memory`, so the allocation checker must
/// place every VM on its own CPU. `tag` makes the model and the core
/// unique, so no stage result is ever served from a cache.
pub fn alloc_project(tag: &str, cpus: usize, vms: usize) -> Project {
    let mut core = format!(
        "/dts-v1/;\n/ {{\n\t#address-cells = <1>;\n\t#size-cells = <1>;\n\tmodel = \"{tag}\";\n\
         \tmemory@80000000 {{\n\t\tdevice_type = \"memory\";\n\t\treg = <0x80000000 0x40000000>;\n\t}};\n\
         \tcpus {{\n\t\t#address-cells = <1>;\n\t\t#size-cells = <0>;\n"
    );
    let mut deltas = String::new();
    let mut model = format!(
        "feature {} {{\n\tmemory\n\tcpus xor exclusive {{\n",
        tag.replace('-', "_")
    );
    for i in 0..cpus {
        let _ = writeln!(
            core,
            "\t\tcpu@{i} {{ compatible = \"arm,cortex-a72\"; device_type = \"cpu\"; \
             enable-method = \"psci\"; reg = <{i:#x}>; }};"
        );
        let _ = writeln!(
            deltas,
            "delta drop_cpu{i} when !cpu@{i} {{ removes /cpus/cpu@{i}; }}"
        );
        let _ = writeln!(model, "\t\tcpu@{i}?");
    }
    core.push_str("\t};\n};\n");
    model.push_str("\t}\n}\n");
    Project {
        core,
        deltas,
        model,
        vms: (0..vms)
            .map(|k| (format!("vm{k}"), vec!["memory".to_string()]))
            .collect(),
    }
}

fn alloc_request(seed: u64, conn: u64, index: u64) -> Request {
    let block = index / BLOCK as u64;
    let mut classes = alloc_block();
    shuffle(
        &mut classes,
        &mut rng_at("alloc-classes", &[seed, conn, block]),
    );
    let class = classes[(index % BLOCK as u64) as usize];
    let tag = format!("alloc-{seed}-{conn}-{index}");
    Request {
        payload: Payload::Build {
            project: alloc_project(&tag, class.cpus, class.vms),
            family: false,
        },
        expect: Expect::Build(BuildExpect {
            accepted: class.vms <= class.cpus,
            vms: class.vms,
            cpus: None,
            reject_stage: "allocation",
        }),
        class: class.name,
    }
}

// ---- edit_loop ------------------------------------------------------

/// CPUs, UARTs, VMs and always-present devices of an `edit_loop`
/// project.
pub const EDIT_CPUS: usize = 8;
/// See [`EDIT_CPUS`].
pub const EDIT_UARTS: usize = 8;
/// See [`EDIT_CPUS`].
pub const EDIT_VMS: usize = 4;
/// See [`EDIT_CPUS`].
pub const EDIT_DEVICES: usize = 64;
/// 4 KiB windows the devices may occupy.
const EDIT_SLOTS: u64 = 256;

fn uart_addr(u: usize) -> u64 {
    0x1000_0000 + u as u64 * 0x1000
}

fn edit_device_base(slot: u64) -> u64 {
    0x2000_0000 + slot * 0x1000
}

/// One connection's project in the edit loop: which 4 KiB window each
/// always-present device occupies. Edits move one device at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditProject {
    tag: String,
    slots: Vec<u64>,
}

impl EditProject {
    /// A clean project: devices on distinct seeded windows.
    pub fn new(tag: String, rng: &mut SplitMix64) -> EditProject {
        let mut all: Vec<u64> = (0..EDIT_SLOTS).collect();
        shuffle(&mut all, rng);
        all.truncate(EDIT_DEVICES);
        EditProject { tag, slots: all }
    }

    fn windows(&self, uarts: &[usize]) -> Vec<(u128, u128)> {
        let mut w: Vec<(u128, u128)> = self
            .slots
            .iter()
            .map(|&s| {
                let b = u128::from(edit_device_base(s));
                (b, b + 0x1000)
            })
            .collect();
        w.extend(uarts.iter().map(|&u| {
            let b = u128::from(uart_addr(u));
            (b, b + 0x1000)
        }));
        w.push((0x8000_0000, 0xc000_0000));
        w
    }

    /// Overlapping pairs of the platform (every VM's UART selected).
    pub fn overlaps(&self) -> usize {
        overlapping_pairs(&self.windows(&(0..EDIT_VMS).collect::<Vec<_>>()))
    }

    /// Moves one device. A clean project gets a device moved either to a
    /// free window or onto another device's window (a planted collision);
    /// a project with a collision gets one colliding device moved to a
    /// free window.
    pub fn edit(&mut self, rng: &mut SplitMix64) {
        let free = |slots: &[u64], rng: &mut SplitMix64| loop {
            let s = rng.below(EDIT_SLOTS);
            if !slots.contains(&s) {
                break s;
            }
        };
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let colliding = self
            .slots
            .iter()
            .enumerate()
            .find_map(|(i, s)| seen.insert(*s, i).map(|_| i));
        match colliding {
            Some(d) => self.slots[d] = free(&self.slots, rng),
            None => {
                let d = rng.below(EDIT_DEVICES as u64) as usize;
                if rng.bool() {
                    self.slots[d] = free(&self.slots, rng);
                } else {
                    let other =
                        (d + 1 + rng.below(EDIT_DEVICES as u64 - 1) as usize) % EDIT_DEVICES;
                    self.slots[d] = self.slots[other];
                }
            }
        }
    }

    /// The DTS of the tree holding `cpus` and `uarts` plus every device:
    /// the whole core when given everything, a VM product otherwise.
    fn tree(&self, cpus: &[usize], uarts: &[usize]) -> String {
        let mut dts = format!(
            "/dts-v1/;\n/ {{\n\t#address-cells = <1>;\n\t#size-cells = <1>;\n\tmodel = \"{}\";\n\
             \tmemory@80000000 {{\n\t\tdevice_type = \"memory\";\n\t\treg = <0x80000000 0x40000000>;\n\t}};\n\
             \tcpus {{\n\t\t#address-cells = <1>;\n\t\t#size-cells = <0>;\n",
            self.tag
        );
        for &i in cpus {
            let _ = writeln!(
                dts,
                "\t\tcpu@{i} {{ compatible = \"arm,cortex-a72\"; device_type = \"cpu\"; \
                 enable-method = \"psci\"; reg = <{i:#x}>; }};"
            );
        }
        dts.push_str("\t};\n");
        for &u in uarts {
            let a = uart_addr(u);
            let _ = writeln!(
                dts,
                "\tuart@{a:x} {{ compatible = \"ns16550a\"; reg = <{a:#x} 0x1000>; }};"
            );
        }
        for (j, &slot) in self.slots.iter().enumerate() {
            let b = edit_device_base(slot);
            let _ = writeln!(
                dts,
                "\tdev{j}@{b:x} {{ compatible = \"acme,dev\"; reg = <{b:#x} 0x1000>; \
                 interrupts = <{}>; }};",
                32 + j
            );
        }
        dts.push_str("};\n");
        dts
    }

    /// The project sources: 8 exclusive CPUs, 8 shareable UARTs, one
    /// `drop_*` delta per optional node and 4 VMs each pinning
    /// `cpu@k` and UART `k`.
    pub fn project(&self) -> Project {
        let all_cpus: Vec<usize> = (0..EDIT_CPUS).collect();
        let all_uarts: Vec<usize> = (0..EDIT_UARTS).collect();
        let mut deltas = String::new();
        let mut model = format!(
            "feature {} {{\n\tmemory\n\tcpus xor exclusive {{\n",
            self.tag.replace('-', "_")
        );
        for i in 0..EDIT_CPUS {
            let _ = writeln!(
                deltas,
                "delta drop_cpu{i} when !cpu@{i} {{ removes /cpus/cpu@{i}; }}"
            );
            let _ = writeln!(model, "\t\tcpu@{i}?");
        }
        model.push_str("\t}\n\tuarts abstract or {\n");
        for u in 0..EDIT_UARTS {
            let a = uart_addr(u);
            let _ = writeln!(
                deltas,
                "delta drop_uart{u} when !uart@{a:x} {{ removes /uart@{a:x}; }}"
            );
            let _ = writeln!(model, "\t\tuart@{a:x}?");
        }
        model.push_str("\t}\n}\n");
        Project {
            core: self.tree(&all_cpus, &all_uarts),
            deltas,
            model,
            vms: (0..EDIT_VMS)
                .map(|k| {
                    (
                        format!("vm{k}"),
                        vec![
                            "memory".to_string(),
                            format!("cpu@{k}"),
                            format!("uart@{:x}", uart_addr(k)),
                        ],
                    )
                })
                .collect(),
        }
    }

    /// VM `k`'s derived tree as DTS, with the oracle's counts.
    pub fn vm_tree(&self, k: usize) -> (String, CheckCounts) {
        let counts = CheckCounts {
            nodes: EDIT_DEVICES + 5,
            regions: EDIT_DEVICES + 2,
            syntactic: 0,
            interrupts: 0,
            overlaps: overlapping_pairs(&self.windows(&[k])),
        };
        (self.tree(&[k], &[k]), counts)
    }
}

/// One block of the `edit_loop` mix: 50 % VM-tree checks, 35 % builds,
/// 15 % family builds; 4 of the 20 requests (20 %) follow an edit.
const EDIT_KINDS: [(&str, usize); 3] = [("check", 10), ("build", 7), ("family", 3)];

/// A request stream of one connection.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    conn: u64,
    next: u64,
    project: Option<EditProject>,
}

impl Stream {
    /// Connection `conn`'s stream of `workload` under `seed`.
    ///
    /// # Panics
    ///
    /// For [`Workload::BoardCheck`], whose requests come from
    /// [`board_pool`].
    pub fn new(workload: Workload, seed: u64, conn: u64) -> Stream {
        assert!(
            workload != Workload::BoardCheck,
            "board_check draws from a board pool"
        );
        let project = (workload == Workload::EditLoop).then(|| {
            EditProject::new(
                format!("edit-{seed}-{conn}"),
                &mut rng_at("edit-project", &[seed, conn]),
            )
        });
        Stream {
            workload,
            seed,
            conn,
            next: 0,
            project,
        }
    }

    fn next_edit(&mut self, index: u64) -> Request {
        let (seed, conn) = (self.seed, self.conn);
        let block = index / BLOCK as u64;
        let p = (index % BLOCK as u64) as usize;
        let mut kinds: Vec<&'static str> = EDIT_KINDS
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        shuffle(&mut kinds, &mut rng_at("edit-kinds", &[seed, conn, block]));
        // Every family build follows an edit, so it is never served from
        // the cache and the slowest class stays homogeneous; the last
        // edit lands on one other request.
        let others: Vec<usize> = (0..BLOCK).filter(|&i| kinds[i] != "family").collect();
        let extra =
            others[rng_at("edit-extra", &[seed, conn, block]).below(others.len() as u64) as usize];
        let edits: Vec<bool> = (0..BLOCK)
            .map(|i| kinds[i] == "family" || i == extra)
            .collect();
        let mut rng = rng_at("edit", &[seed, conn, index]);
        let project = self.project.as_mut().expect("edit stream owns a project");
        if edits[p] {
            project.edit(&mut rng);
        }
        let payload_expect = match kinds[p] {
            "check" => {
                let (dts, counts) = project.vm_tree(rng.below(EDIT_VMS as u64) as usize);
                (Payload::Check { dts }, Expect::Check(counts))
            }
            kind => {
                let family = kind == "family";
                let accepted = project.overlaps() == 0;
                (
                    Payload::Build {
                        project: project.project(),
                        family,
                    },
                    Expect::Build(BuildExpect {
                        accepted,
                        vms: if family { 0 } else { EDIT_VMS },
                        cpus: (!family)
                            .then(|| (0..EDIT_VMS).map(|k| format!("cpu@{k}")).collect()),
                        reject_stage: "semantic",
                    }),
                )
            }
        };
        Request {
            payload: payload_expect.0,
            expect: payload_expect.1,
            class: kinds[p],
        }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let index = self.next;
        self.next += 1;
        Some(match self.workload {
            Workload::BoardCheck => unreachable!("rejected by Stream::new"),
            Workload::OverlapCheck => overlap_request(self.seed, self.conn, index),
            Workload::AllocSearch => alloc_request(self.seed, self.conn, index),
            Workload::EditLoop => self.next_edit(index),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_counts_pairs() {
        assert_eq!(overlapping_pairs(&[(0, 10), (10, 20)]), 0);
        assert_eq!(overlapping_pairs(&[(0, 10), (5, 15), (9, 30)]), 3);
        assert_eq!(overlapping_pairs(&[(0, 4), (0, 4), (0, 4), (8, 9)]), 3);
        assert_eq!(
            overlapping_pairs(&[(5, 5), (0, 10)]),
            0,
            "empty windows never overlap"
        );
    }

    #[test]
    fn planted_board_faults_are_counted_once() {
        for (fault, expect) in [
            (Fault::None, (0, 0, 0)),
            (Fault::Collision, (0, 0, 1)),
            (Fault::Interrupt, (0, 1, 0)),
            (Fault::Schema, (1, 0, 0)),
        ] {
            for seed in 0..20 {
                let b = board(8, fault, &mut SplitMix64::new(seed));
                let e = b.expect;
                assert_eq!((e.syntactic, e.interrupts, e.overlaps), expect, "{fault:?}");
                assert_eq!((e.nodes, e.regions), (13, 9));
                assert_eq!(e.clean(), fault == Fault::None);
            }
        }
    }

    #[test]
    fn pool_mix_and_sizes_are_fixed() {
        let pool = board_pool(7, 50);
        let count = |f| pool.iter().filter(|b| b.fault == f).count();
        assert_eq!(count(Fault::Collision), 10);
        assert_eq!(count(Fault::Interrupt), 5);
        assert_eq!(count(Fault::Schema), 5);
        assert_eq!(pool_devices(0, 50), 258);
        assert_eq!(pool_devices(49, 50), 5812);
        let sizes: Vec<usize> = pool.iter().map(|b| b.expect.nodes - 5).collect();
        let other: Vec<usize> = board_pool(8, 50)
            .iter()
            .map(|b| b.expect.nodes - 5)
            .collect();
        assert_eq!(sizes, other, "sizes do not depend on the seed");
    }

    #[test]
    fn overlap_chains_count_neighbour_pairs() {
        let mut rng = SplitMix64::new(3);
        let lengths_rng = rng.clone();
        let b = overlap_board("t", 40, 2, &mut rng);
        let mut r = lengths_rng;
        let expected: usize = (0..2).map(|_| 1 + r.below(8) as usize).sum();
        assert_eq!(b.expect.overlaps, expected);
        assert_eq!((b.expect.nodes, b.expect.regions), (42, 41));
    }

    #[test]
    fn alloc_oracle_is_pigeonhole() {
        let block: Vec<Request> = Stream::new(Workload::AllocSearch, 5, 0)
            .take(BLOCK)
            .collect();
        let accepted = block
            .iter()
            .filter(|r| matches!(&r.expect, Expect::Build(b) if b.accepted))
            .count();
        assert_eq!(accepted, 9, "45 % of a block is accepted");
        for r in &block {
            let (Payload::Build { project, .. }, Expect::Build(e)) = (&r.payload, &r.expect) else {
                panic!("alloc requests are builds");
            };
            let cpus = project.core.matches("cpu@").count();
            assert_eq!(e.accepted, project.vms.len() <= cpus);
        }
        let reject8 = block.iter().filter(|r| r.class == "reject8").count();
        assert_eq!(reject8, 4);
    }

    #[test]
    fn edit_loop_plants_and_repairs_collisions() {
        let mut p = EditProject::new("t".into(), &mut SplitMix64::new(1));
        assert_eq!(p.overlaps(), 0);
        let mut rng = SplitMix64::new(9);
        let mut dirty_seen = false;
        for _ in 0..50 {
            let was_dirty = p.overlaps() > 0;
            p.edit(&mut rng);
            let now = p.overlaps();
            assert!(now <= 1, "at most one planted collision");
            if was_dirty {
                assert_eq!(now, 0, "an edit of a dirty project repairs it");
            }
            dirty_seen |= now == 1;
            assert_eq!(p.vm_tree(2).1.overlaps, now);
        }
        assert!(dirty_seen);
    }

    #[test]
    fn edit_block_mix() {
        let block: Vec<Request> = Stream::new(Workload::EditLoop, 2, 1).take(BLOCK).collect();
        let n = |class| block.iter().filter(|r| r.class == class).count();
        assert_eq!((n("check"), n("build"), n("family")), (10, 7, 3));
        // Every family build sees a state no earlier request had.
        let mut seen = std::collections::HashSet::new();
        for r in &block {
            if let Payload::Build { project, family } = &r.payload {
                assert!(
                    !family || !seen.contains(&project.core),
                    "family after no edit"
                );
                seen.insert(project.core.clone());
            }
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        for w in [
            Workload::OverlapCheck,
            Workload::AllocSearch,
            Workload::EditLoop,
        ] {
            let a: Vec<Request> = Stream::new(w, 11, 0).take(45).collect();
            let b: Vec<Request> = Stream::new(w, 11, 0).take(45).collect();
            assert_eq!(a, b, "{}", w.name());
            let c: Vec<Request> = Stream::new(w, 12, 0).take(45).collect();
            assert_ne!(a, c, "{}", w.name());
        }
        assert_eq!(board_pool(4, 10), board_pool(4, 10));
        assert_ne!(board_pool(4, 10), board_pool(5, 10));
    }

    /// The oracle agrees with llhsc's own checker on small instances.
    #[test]
    fn oracle_agrees_with_check_tree() {
        let counts = |dts: &str| {
            let tree = llhsc_dts::parse(dts).expect("generated DTS parses");
            let out = llhsc_service::check_tree(&tree);
            crate::verdict::check_counts(&out.report.stdout, &out.report.stderr)
                .expect("check output parses")
        };
        for (k, b) in board_pool(3, 10).iter().enumerate().take(4) {
            assert_eq!(counts(&b.dts), b.expect, "board {k}");
        }
        for b in board_pool(3, 12).iter().filter(|b| b.fault != Fault::None) {
            assert_eq!(counts(&b.dts), b.expect, "{:?}", b.fault);
        }
        for r in Stream::new(Workload::OverlapCheck, 3, 0).take(3) {
            let (Payload::Check { dts }, Expect::Check(e)) = (&r.payload, &r.expect) else {
                panic!("overlap requests are checks");
            };
            assert_eq!(counts(dts), *e);
        }
        let mut p = EditProject::new("e".into(), &mut SplitMix64::new(4));
        for i in 0..6 {
            let (dts, e) = p.vm_tree(i % EDIT_VMS);
            assert_eq!(counts(&dts), e);
            p.edit(&mut SplitMix64::new(i as u64));
        }
    }
}
