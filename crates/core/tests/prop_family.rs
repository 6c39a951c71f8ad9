//! Property tests for family-based checking (the PR's tentpole
//! equivalence guarantee): on random feature models × random boards in
//! the liftable class, the family-level verdict — one solver query per
//! rule family over the whole product line — must match the
//! enumerating verdict bit for bit, and every lifted witness must
//! reproduce real diagnostics when replayed through the per-product
//! path.

use llhsc::family::{assert_verdict_identity, CheckMode, FamilyChecker};
use llhsc::PipelineInput;
use llhsc_delta::DeltaModule;
use llhsc_fm::FeatureModel;
use proptest::prelude::*;

/// One device of a random board: a node at one of a handful of
/// CPU addresses (so overlaps are common), either at the root or on a
/// bus whose `ranges` maps its bus-local offset there, optionally a
/// memory bank (exercising coverage), optionally claiming an interrupt
/// line, optionally guarded by a feature literal (None = present in
/// every product).
#[derive(Debug, Clone)]
struct DeviceSpec {
    slot: u64,
    on_bus: bool,
    memory: bool,
    irq: Option<u32>,
    guard: Option<(usize, bool)>,
}

fn arb_device(features: usize) -> impl Strategy<Value = DeviceSpec> {
    (
        0u64..4,
        any::<bool>(),
        (0u32..4).prop_map(|x| x == 0), // memory bank with probability 1/4
        prop::option::of(0u32..3),
        prop::option::of((0..features, any::<bool>())),
    )
        .prop_map(|(slot, on_bus, memory, irq, guard)| DeviceSpec {
            slot,
            on_bus,
            memory,
            irq,
            guard,
        })
}

fn arb_board() -> impl Strategy<Value = (usize, Vec<DeviceSpec>)> {
    (1usize..=3).prop_flat_map(|features| {
        (
            Just(features),
            prop::collection::vec(arb_device(features), 2..=5),
        )
    })
}

/// Builds the liftable product line: every device sits in the core
/// tree; a guarded device gets a `removes` delta firing when its
/// literal does *not* hold, so its presence formula is exactly the
/// literal. The feature model is `features` independent optional
/// features, giving 2^features products.
fn build_input(features: usize, devices: &[DeviceSpec]) -> PipelineInput {
    let mut dts = String::from(
        "/ {\n    #address-cells = <1>;\n    #size-cells = <1>;\n    \
         memory@80000000 { device_type = \"memory\"; reg = <0x80000000 0x10000000>; };\n",
    );
    // The bus maps its offset 0 to 0xa0000000, so a device on it
    // overlaps a root device at the same slot only in CPU addresses.
    let mut bus = String::from(
        "    bus {\n        #address-cells = <1>;\n        #size-cells = <1>;\n        \
         ranges = <0x0 0xa0000000 0x10000>;\n",
    );
    let mut deltas = String::new();
    for (i, d) in devices.iter().enumerate() {
        // Slots are 0x1000 apart while regions are 0x2000 long, so
        // adjacent slots overlap; memory banks land outside the core
        // memory so an uncovered bank is a real coverage violation.
        let offset = d.slot * 0x1000;
        let (out, base, path) = if d.on_bus {
            (&mut bus, offset, format!("/bus/dev{i}"))
        } else {
            (&mut dts, 0xa000_0000 + offset, format!("/dev{i}"))
        };
        out.push_str(&format!("    dev{i} {{ reg = <{base:#x} 0x2000>;"));
        if d.memory {
            out.push_str(" device_type = \"memory\";");
        }
        if let Some(line) = d.irq {
            out.push_str(&format!(" interrupts = <{line}>;"));
        }
        out.push_str(" };\n");
        if let Some((f, positive)) = d.guard {
            let lit = if positive {
                format!("f{f}")
            } else {
                format!("!f{f}")
            };
            deltas.push_str(&format!(
                "delta guard{i} when !({lit}) {{ removes {path}; }}\n"
            ));
        }
    }
    dts.push_str(&bus);
    dts.push_str("    };\n};\n");

    let mut model = FeatureModel::new("Board");
    let root = model.root();
    for f in 0..features {
        model.add_optional(root, &format!("f{f}"));
    }

    PipelineInput {
        core: llhsc_dts::parse(&dts).expect("generated core parses"),
        deltas: DeltaModule::parse_all(&deltas).expect("generated deltas parse"),
        model,
        schemas: llhsc_schema::SchemaSet::standard(),
        vms: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Family-mode verdicts equal enumerating verdicts on every board:
    /// same clean flag, same set of violated rule families, witnesses
    /// that replay to real diagnostics — across collisions, interrupt
    /// sharing, coverage gaps and schema findings in any combination.
    #[test]
    fn family_verdict_matches_enumeration((features, devices) in arb_board()) {
        let input = build_input(features, &devices);

        let mut fam = FamilyChecker::new();
        let lifted = fam.check(&input, CheckMode::Family).expect("family mode runs");
        // The generator stays inside the liftable class, so no case
        // may silently fall back to the enumerating oracle.
        prop_assert!(lifted.lifted, "unexpected fallback: {:?}", lifted.fallback);

        let mut en = FamilyChecker::new();
        let enumerated = en
            .check(&input, CheckMode::Enumerate)
            .expect("enumerating mode runs");
        assert_verdict_identity(&lifted, &enumerated);

        // The lifted run's product count is exact at these sizes and
        // matches what the oracle actually enumerated.
        prop_assert!(lifted.products_exact);
        prop_assert_eq!(lifted.products, 1u64 << features);
        prop_assert_eq!(enumerated.stats.products_checked, 1u64 << features);
        // Lifted cost: at most one solve per rule family, and one
        // replayed product per extracted witness.
        prop_assert!(lifted.stats.family_solves <= 5);
        prop_assert_eq!(
            lifted.stats.products_checked,
            lifted.stats.witnesses_extracted
        );
    }
}
