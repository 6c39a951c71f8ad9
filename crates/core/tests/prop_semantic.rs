//! Property tests: the SMT-based overlap/coverage checkers against
//! naive interval arithmetic, and the region collector's CPU addresses
//! against an independent model of `ranges` translation.

mod support;

use llhsc::{DevicePath, RegionRef, SemanticChecker};
use llhsc_dts::cells::{collect_regions, RegEntry};
use llhsc_dts::{DeviceTree, DtsError, Node, Property};
use proptest::prelude::*;

fn arb_regions(max: usize) -> impl Strategy<Value = Vec<RegionRef>> {
    prop::collection::vec((0u64..0x1_0000, 0u64..0x400, any::<bool>()), 1..=max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (base, size, virt))| RegionRef {
                path: format!("/dev{i}").into(),
                index: 0,
                region: RegEntry::new(u128::from(base), u128::from(size)),
                virtual_device: virt,
            })
            .collect()
    })
}

/// Region soups for the prefilter/exhaustive cross-check: bases are
/// drawn from a low band, a dense band (to force overlaps), the top of
/// the 64-bit address space, a band straddling 2^65 (3-cell addresses
/// past the 65-bit terms of 2-cell boards) or the top of the 128-bit
/// space (4-cell regions that wrap), and sizes include zero.
fn arb_extreme_regions(max: usize) -> impl Strategy<Value = Vec<RegionRef>> {
    let base = prop_oneof![
        (0u64..0x1_0000).prop_map(u128::from).boxed(),
        (0x8000u64..0x9000).prop_map(u128::from).boxed(),
        (0xffff_ffff_ffff_f000u64..=0xffff_ffff_ffff_ffff)
            .prop_map(u128::from)
            .boxed(),
        (0u64..0x400)
            .prop_map(|o| (1u128 << 65) - 0x200 + u128::from(o))
            .boxed(),
        (0u64..0x400)
            .prop_map(|o| u128::MAX - 0x3ff + u128::from(o))
            .boxed(),
    ];
    prop::collection::vec((base, 0u64..0x400, any::<bool>()), 1..=max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (base, size, virt))| RegionRef {
                path: format!("/dev{i}").into(),
                index: 0,
                region: RegEntry::new(base, u128::from(size)),
                virtual_device: virt,
            })
            .collect()
    })
}

fn naive_overlaps(a: &RegionRef, b: &RegionRef) -> bool {
    a.virtual_device == b.virtual_device && a.region.overlaps(&b.region)
}

/// Collision identity without the witness (the two paths may pick
/// different — equally valid — witness addresses).
fn collision_keys(cs: &[llhsc::Collision]) -> Vec<(DevicePath, usize, DevicePath, usize)> {
    cs.iter()
        .map(|c| (c.a.path.clone(), c.a.index, c.b.path.clone(), c.b.index))
        .collect()
}

/// A stream of random decisions: a generated board is a pure function
/// of the numbers drawn.
struct Choices {
    values: Vec<u32>,
    next: usize,
}

impl Choices {
    /// A number below `bound` (0 once the stream runs dry).
    fn below(&mut self, bound: u128) -> u128 {
        let v = self.values.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        u128::from(v) % bound
    }
}

/// A stretch of a bus's child address space that the CPU sees
/// shifted: `[lo, lo + len)` lands at `[cpu, cpu + len)`.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: u128,
    len: u128,
    cpu: u128,
}

/// One region as the generator placed it.
#[derive(Debug, Clone)]
struct Placed {
    path: String,
    index: usize,
    /// The device's `(#address-cells, #size-cells)`.
    cells: (u32, u32),
    /// The CPU interval, by the generator's own arithmetic.
    cpu: RegEntry,
    /// The nearest ancestor bus whose `ranges` has windows, if any.
    bus: Option<String>,
}

/// Big-endian `n`-cell encoding of `v`.
fn to_cells(v: u128, n: u32) -> impl Iterator<Item = u32> {
    (0..n).rev().map(move |i| (v >> (32 * i)) as u32)
}

/// Generates boards of nested buses under one invariant: every
/// non-empty region lies inside one window of its bus, so it has a CPU
/// address. Each bus either translates through 1–3 windows placed
/// inside its parent's reachable spans, is the identity (`ranges;`), or
/// has no `ranges` and passes addresses through; buses nest 1–3 levels
/// deep and use 1- or 2-cell addresses. Every CPU interval lands in one
/// 64 KiB band, so regions on different buses often overlap. Some
/// devices are I2C-style controllers whose children carry arbitrary
/// 32-bit bus numbers under `#size-cells = <0>`: empty regions that no
/// window needs to hold, and that keep the number as written.
struct BusBoards {
    choices: Choices,
    max_depth: usize,
    names: usize,
    placed: Vec<Placed>,
}

impl BusBoards {
    fn generate(values: Vec<u32>) -> (DeviceTree, Vec<Placed>) {
        let mut choices = Choices { values, next: 0 };
        let root_ac = 1 + choices.below(2) as u32;
        let band = if root_ac == 2 && choices.below(2) == 1 {
            0x1_1000_0000
        } else {
            0x1000_0000
        };
        let max_depth = 1 + choices.below(3) as usize;
        let mut gen = BusBoards {
            choices,
            max_depth,
            names: 0,
            placed: Vec::new(),
        };
        let mut root = Node::new("");
        root.set_prop(Property::cells("#address-cells", [root_ac]));
        root.set_prop(Property::cells("#size-cells", [1]));
        let band = [Span {
            lo: band,
            len: 0x1_0000,
            cpu: band,
        }];
        gen.fill(&mut root, "", (root_ac, 1), &band, None, 0);
        let mut tree = DeviceTree::new();
        tree.root = root;
        (tree, gen.placed)
    }

    fn name(&mut self, stem: &str) -> String {
        self.names += 1;
        format!("{stem}{}", self.names)
    }

    /// A quantized `(offset, size)` of at most `max` bytes inside `span`.
    fn place(&mut self, span: Span, max: u128) -> (u128, u128) {
        let size = (max << self.choices.below(3)).min(span.len);
        let offset = 0x100 * self.choices.below((span.len - size) / 0x100 + 1);
        (offset, size)
    }

    fn fill(
        &mut self,
        node: &mut Node,
        path: &str,
        cells: (u32, u32),
        spans: &[Span],
        bus: Option<&str>,
        depth: usize,
    ) {
        for k in 0..1 + self.choices.below(3) {
            let nest =
                depth < self.max_depth && ((depth == 0 && k == 0) || self.choices.below(2) == 0);
            if nest {
                self.bus(node, path, cells.0, spans, bus, depth + 1);
            } else if self.choices.below(4) == 0 {
                self.controller(node, path, cells, spans, bus);
            } else {
                self.device(node, path, cells, spans, bus);
            }
        }
    }

    /// The `reg` cells of 1–2 regions placed in `spans`, each recorded
    /// under `here`.
    fn reg(
        &mut self,
        here: &str,
        (ac, sc): (u32, u32),
        spans: &[Span],
        bus: Option<&str>,
    ) -> Vec<u32> {
        let mut reg = Vec::new();
        for index in 0..1 + self.choices.below(2) as usize {
            let span = spans[self.choices.below(spans.len() as u128) as usize];
            let (offset, size) = self.place(span, 0x200);
            reg.extend(to_cells(span.lo + offset, ac));
            reg.extend(to_cells(size, sc));
            self.placed.push(Placed {
                path: here.to_string(),
                index,
                cells: (ac, sc),
                cpu: RegEntry::new(span.cpu + offset, size),
                bus: bus.map(str::to_string),
            });
        }
        reg
    }

    fn device(
        &mut self,
        node: &mut Node,
        path: &str,
        cells: (u32, u32),
        spans: &[Span],
        bus: Option<&str>,
    ) {
        if spans.is_empty() {
            return;
        }
        let name = self.name("dev");
        let mut dev = Node::new(&name);
        dev.set_prop(Property::cells(
            "reg",
            self.reg(&format!("{path}/{name}"), cells, spans, bus),
        ));
        node.children.push(dev);
    }

    /// A device that is also a bus without `ranges` and with
    /// `#size-cells = <0>`, as I2C, SPI and MDIO controllers are: each of
    /// its 1–2 children's `reg` is one arbitrary 32-bit bus number.
    fn controller(
        &mut self,
        node: &mut Node,
        path: &str,
        cells: (u32, u32),
        spans: &[Span],
        bus: Option<&str>,
    ) {
        if spans.is_empty() {
            return;
        }
        let name = self.name("i2c");
        let here = format!("{path}/{name}");
        let mut c = Node::new(&name);
        c.set_prop(Property::cells("reg", self.reg(&here, cells, spans, bus)));
        c.set_prop(Property::cells("#address-cells", [1]));
        c.set_prop(Property::cells("#size-cells", [0]));
        for _ in 0..1 + self.choices.below(2) {
            let name = self.name("client");
            let number = self.choices.below(1 << 32);
            self.placed.push(Placed {
                path: format!("{here}/{name}"),
                index: 0,
                cells: (1, 0),
                cpu: RegEntry::new(number, 0),
                bus: bus.map(str::to_string),
            });
            let mut client = Node::new(&name);
            client.set_prop(Property::cells("reg", to_cells(number, 1)));
            c.children.push(client);
        }
        node.children.push(c);
    }

    fn bus(
        &mut self,
        node: &mut Node,
        path: &str,
        parent_ac: u32,
        parent_spans: &[Span],
        bus: Option<&str>,
        depth: usize,
    ) {
        let name = self.name("bus");
        let here = format!("{path}/{name}");
        let ac = 1 + self.choices.below(2) as u32;
        let sc = 1 + self.choices.below(2) as u32;
        let mut b = Node::new(&name);
        b.set_prop(Property::cells("#address-cells", [ac]));
        b.set_prop(Property::cells("#size-cells", [sc]));
        let kind = self.choices.below(3);
        if kind == 0 && !parent_spans.is_empty() {
            // Windows at distinct 64 KiB child slots, so they never
            // overlap on the child side; on the parent side they may.
            let mut ranges = Vec::new();
            let mut spans = Vec::new();
            for w in 0..1 + self.choices.below(3) {
                let parent = parent_spans[self.choices.below(parent_spans.len() as u128) as usize];
                let (offset, size) = self.place(parent, 0x1000);
                let high = if ac == 2 {
                    self.choices.below(2) << 32
                } else {
                    0
                };
                let child = high | (w * 0x1_0000);
                ranges.extend(to_cells(child, ac));
                ranges.extend(to_cells(parent.lo + offset, parent_ac));
                ranges.extend(to_cells(size, sc));
                spans.push(Span {
                    lo: child,
                    len: size,
                    cpu: parent.cpu + offset,
                });
            }
            b.set_prop(Property::cells("ranges", ranges));
            self.fill(&mut b, &here, (ac, sc), &spans, Some(&here), depth);
        } else {
            if kind == 1 {
                b.set_prop(Property::flag("ranges"));
            }
            // Addresses pass through: the child bus reaches what its
            // parent reaches, as far as its cells can express.
            let limit = 1u128 << (32 * ac);
            let spans: Vec<Span> = parent_spans
                .iter()
                .filter(|s| s.lo < limit)
                .map(|s| Span {
                    len: s.len.min(limit - s.lo),
                    ..*s
                })
                .collect();
            self.fill(&mut b, &here, (ac, sc), &spans, bus, depth);
        }
        node.children.push(b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The solver finds exactly the pairs naive interval arithmetic
    /// finds (restricted to same-class pairs).
    #[test]
    fn collisions_match_interval_arithmetic(refs in arb_regions(6)) {
        let collisions = SemanticChecker::new().check_regions_with_stats(&refs).0;
        let mut expected = Vec::new();
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                if naive_overlaps(&refs[i], &refs[j]) {
                    expected.push((refs[i].path.clone(), refs[j].path.clone()));
                }
            }
        }
        let mut got: Vec<(DevicePath, DevicePath)> = collisions
            .iter()
            .map(|c| (c.a.path.clone(), c.b.path.clone()))
            .collect();
        got.sort();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// The sweep-prefiltered checker reports exactly the same collision
    /// set as the paper's exhaustive pairwise encoding with core peeling,
    /// and both match interval arithmetic on [`RegEntry::overlaps`], on
    /// soups including zero-size regions, regions at the top of the
    /// 64-bit space, regions straddling 2^65 and regions that wrap past
    /// 2^128.
    #[test]
    fn prefiltered_matches_exhaustive(refs in arb_extreme_regions(8)) {
        let pre = SemanticChecker::new().check_regions_with_stats(&refs).0;
        let ex = support::check_regions_exhaustive(&refs);
        prop_assert_eq!(collision_keys(&pre), collision_keys(&ex));
        let mut expected = Vec::new();
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                if naive_overlaps(&refs[i], &refs[j]) {
                    expected.push((refs[i].path.clone(), 0, refs[j].path.clone(), 0));
                }
            }
        }
        expected.sort();
        prop_assert_eq!(collision_keys(&pre), expected);
        // The checker's witness is the larger base; the oracle's is
        // read from a model. Both lie in the intersection.
        for c in &pre {
            prop_assert_eq!(c.witness, c.a.region.address.max(c.b.region.address));
        }
        for c in pre.iter().chain(ex.iter()) {
            prop_assert!(c.witness >= c.a.region.address);
            prop_assert!(c.witness < c.a.region.end());
            prop_assert!(c.witness >= c.b.region.address);
            prop_assert!(c.witness < c.b.region.end());
        }
    }

    /// The prefilter encodes exactly the overlapping pairs — never
    /// more — so clean soups cost the solver nothing.
    #[test]
    fn prefilter_encodes_only_real_overlaps(refs in arb_regions(8)) {
        let (collisions, stats) =
            SemanticChecker::new().check_regions_with_stats(&refs);
        prop_assert_eq!(stats.pairs_encoded, collisions.len());
        if collisions.is_empty() {
            prop_assert_eq!(stats.terms, 0);
            prop_assert_eq!(stats.solver.solves, 0);
        }
    }

    /// Every reported witness really lies in both regions.
    #[test]
    fn witnesses_are_sound(refs in arb_regions(6)) {
        for c in SemanticChecker::new().check_regions_with_stats(&refs).0 {
            prop_assert!(c.witness >= c.a.region.address);
            prop_assert!(c.witness < c.a.region.end());
            prop_assert!(c.witness >= c.b.region.address);
            prop_assert!(c.witness < c.b.region.end());
        }
    }

    /// Coverage agrees with naive subset checking, and gap witnesses
    /// are sound (inside the inner region, outside all outer regions).
    #[test]
    fn coverage_matches_interval_arithmetic(
        inner in arb_regions(4),
        outer in arb_regions(4),
    ) {
        let mut checker = SemanticChecker::new();
        let gaps = checker.check_coverage_with_stats(&inner, &outer).0;
        for r in &inner {
            if r.region.size == 0 {
                continue;
            }
            let covered = (r.region.address..r.region.end()).all(|x| {
                outer
                    .iter()
                    .any(|o| x >= o.region.address && x < o.region.end())
            });
            let reported = gaps.iter().any(|g| g.region.path == r.path);
            prop_assert_eq!(!covered, reported, "region {}", r.path);
        }
        for g in &gaps {
            prop_assert!(g.witness >= g.region.region.address);
            prop_assert!(g.witness < g.region.region.end());
            for o in &outer {
                prop_assert!(
                    g.witness < o.region.address || g.witness >= o.region.end(),
                    "witness {:#x} inside outer {}", g.witness, o.path
                );
            }
        }
    }
    /// The collector yields exactly the CPU addresses the generator
    /// placed, the checker reports exactly the pairs whose intervals
    /// overlap, and a region moved out of its bus's windows is an error
    /// naming that bus.
    #[test]
    fn nested_buses_are_checked_at_cpu_addresses(
        values in prop::collection::vec(any::<u32>(), 256),
    ) {
        let (tree, placed) = BusBoards::generate(values);

        let got: Vec<(String, RegEntry)> = collect_regions(&tree)
            .expect("every region lies in a window")
            .iter()
            .flat_map(|d| d.regions.iter().map(|r| (d.path.clone(), *r)))
            .collect();
        let want: Vec<(String, RegEntry)> =
            placed.iter().map(|p| (p.path.clone(), p.cpu)).collect();
        prop_assert_eq!(got, want);

        let mut expected = Vec::new();
        for (i, a) in placed.iter().enumerate() {
            for b in &placed[i + 1..] {
                if a.cpu.overlaps(&b.cpu) {
                    expected.push((
                        a.path.as_str().into(),
                        a.index,
                        b.path.as_str().into(),
                        b.index,
                    ));
                }
            }
        }
        expected.sort();
        let (report, stats) = SemanticChecker::new()
            .check_tree_with_stats(&tree)
            .expect("the board is interpretable");
        prop_assert_eq!(collision_keys(&report.collisions), expected);
        prop_assert_eq!(stats.pairs_encoded, report.collisions.len());

        // 0x80000000 lies outside every generated window, and only
        // pass-through buses sit between a region and its nearest
        // translating bus. An empty region needs no window.
        if let Some(p) = placed.iter().find(|p| p.bus.is_some() && p.cpu.size != 0) {
            let mut moved = tree.clone();
            let node = moved.find_mut(&p.path).expect("placed device exists");
            let mut reg: Vec<u32> = node
                .prop("reg")
                .and_then(|r| r.flat_cells())
                .expect("literal reg")
                .collect();
            let (ac, sc) = p.cells;
            let at = p.index * (ac + sc) as usize;
            for (cell, v) in reg[at..at + ac as usize].iter_mut().zip(to_cells(0x8000_0000, ac)) {
                *cell = v;
            }
            node.set_prop(Property::cells("reg", reg));
            let bus = p.bus.as_deref().unwrap_or_default();
            match collect_regions(&moved) {
                Err(DtsError::BadValue { path, message }) => {
                    prop_assert_eq!(&path, &p.path);
                    prop_assert!(
                        message.ends_with(&format!("lies outside every window of {bus}'s ranges")),
                        "{message}"
                    );
                }
                other => panic!("expected the moved region to be rejected, got {other:?}"),
            }
        }
    }
}
