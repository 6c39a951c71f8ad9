//! Workload generators of the `llhsc-bench` suites (and the PRNG the
//! repository benchmark under `perf/` draws its workloads from).
//!
//! The paper's evaluation (§V) is qualitative — a running example — so
//! the suites measure the *scaling claims made in prose*: a shared
//! solver session amortizes encoding across VMs, and lifted family
//! checking stays flat while the product count grows. Every generator
//! here is deterministic so runs are comparable.

/// A tiny deterministic PRNG (SplitMix64), so workloads do not depend
/// on `rand` internals staying stable across versions.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A synthetic board DTS with `devices` device nodes, each with a
/// disjoint 4 KiB register window, plus a memory node and a CPU
/// cluster.
pub fn synthetic_board(devices: usize) -> String {
    let mut out = String::from(
        "/dts-v1/;\n/ {\n    #address-cells = <1>;\n    #size-cells = <1>;\n\
         \n    memory@80000000 {\n        device_type = \"memory\";\n\
                 reg = <0x80000000 0x40000000>;\n    };\n\
         \n    cpus {\n        #address-cells = <1>;\n        #size-cells = <0>;\n\
                 cpu@0 { compatible = \"arm,cortex-a53\"; device_type = \"cpu\";\n\
                         enable-method = \"psci\"; reg = <0x0>; };\n    };\n",
    );
    for i in 0..devices {
        let base = 0x1000_0000u64 + (i as u64) * 0x1000;
        out.push_str(&format!(
            "\n    dev{i}@{base:x} {{\n        compatible = \"acme,dev\";\n\
                     reg = <{base:#x} 0x1000>;\n        interrupts = <{irq}>;\n    }};\n",
            irq = 32 + i
        ));
    }
    out.push_str("};\n");
    out
}

/// A per-VM variant of [`synthetic_board`]: the shared `devices`-node
/// board plus one VM-specific passthrough device whose register window
/// collides with `dev0`. The shared nodes make consecutive VM checks
/// amortizable in a shared solver session (identical schema rules and
/// region pairs), while the VM-unique node keeps the trees distinct
/// and guarantees at least one solver-confirmed collision per tree.
pub fn synthetic_vm_board(devices: usize, vm: usize) -> String {
    let mut out = synthetic_board(devices);
    let insert_at = out.rfind("};").expect("board has a root close");
    out.insert_str(
        insert_at,
        &format!(
            "\n    vmdev{vm}@10000800 {{\n        compatible = \"acme,vmdev\";\n\
                     reg = <0x10000800 0x1000>;\n    }};\n",
        ),
    );
    out
}

/// Fixed device nodes every [`family_board`] fixture carries,
/// independent of its feature count.
pub const FAMILY_FIXED_DEVICES: usize = 12;

/// A synthetic product line for the family-checking suite with
/// `2^(features + 1)` products: [`FAMILY_FIXED_DEVICES`] always-on
/// devices with disjoint register windows, `features` independent
/// optional devices (feature `u{i}` keeps `opt{i}`; a `when !u{i}
/// removes` delta drops it otherwise), and one xor-exclusive pair
/// `alt_a`/`alt_b` selecting between two UARTs at the *same* address.
///
/// The contended pair is the point: the family tree contains a numeric
/// overlap, but the feature model proves no product selects both, so
/// lifted checking certifies the whole line with one UNSAT solve while
/// enumeration pays for every product. All other windows are disjoint,
/// so both modes report the line clean.
pub fn family_board(features: usize) -> llhsc::PipelineInput {
    let mut dts = String::from(
        "/dts-v1/;\n/ {\n    #address-cells = <1>;\n    #size-cells = <1>;\n\
         \n    memory@80000000 {\n        device_type = \"memory\";\n\
                 reg = <0x80000000 0x40000000>;\n    };\n",
    );
    for i in 0..FAMILY_FIXED_DEVICES {
        let base = 0x1000_0000u64 + (i as u64) * 0x1000;
        dts.push_str(&format!(
            "\n    dev{i}@{base:x} {{\n        compatible = \"acme,dev\";\n\
                     reg = <{base:#x} 0x1000>;\n        interrupts = <{irq}>;\n    }};\n",
            irq = 32 + i
        ));
    }
    for f in 0..features {
        let base = 0x2000_0000u64 + (f as u64) * 0x1000;
        dts.push_str(&format!(
            "\n    opt{f}@{base:x} {{\n        compatible = \"acme,dev\";\n\
                     reg = <{base:#x} 0x1000>;\n    }};\n",
        ));
    }
    dts.push_str(
        "\n    uarta@30000000 { compatible = \"ns16550a\"; reg = <0x30000000 0x1000>; };\n\
         \n    uartb@30000000 { compatible = \"ns16550a\"; reg = <0x30000000 0x1000>; };\n};\n",
    );
    let mut deltas = String::from(
        "delta drop_alt_a when !alt_a { removes /uarta@30000000; }\n\
         delta drop_alt_b when !alt_b { removes /uartb@30000000; }\n",
    );
    let mut model = String::from("feature FamBench {\n    alt xor exclusive { alt_a? alt_b? }\n");
    for f in 0..features {
        let base = 0x2000_0000u64 + (f as u64) * 0x1000;
        deltas.push_str(&format!(
            "delta drop_u{f} when !u{f} {{ removes /opt{f}@{base:x}; }}\n"
        ));
        model.push_str(&format!("    u{f}?\n"));
    }
    model.push_str("}\n");
    llhsc::PipelineInput {
        core: llhsc_dts::parse(&dts).expect("family board parses"),
        deltas: llhsc_delta::DeltaModule::parse_all(&deltas).expect("family deltas parse"),
        model: llhsc_fm::parse_model(&model).expect("family model parses"),
        schemas: llhsc_schema::SchemaSet::standard(),
        vms: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn synthetic_board_parses() {
        let t = llhsc_dts::parse(&synthetic_board(10)).unwrap();
        assert_eq!(t.size(), 14); // root + memory + cpus + cpu + 10 devs
    }

    #[test]
    fn family_board_lifts_and_is_clean() {
        let input = family_board(3);
        let report = llhsc::family::FamilyChecker::new()
            .check(&input, llhsc::family::CheckMode::Family)
            .expect("family board is checkable");
        assert!(report.lifted, "fixture must stay in the liftable class");
        assert!(report.is_ok(), "fixture must be clean: {report}");
        assert_eq!(report.products, 1 << 4); // 2 alternatives × 2^3 options
        assert_eq!(report.stats.family_solves, 1);
        assert_eq!(report.stats.products_checked, 0);
    }
}
