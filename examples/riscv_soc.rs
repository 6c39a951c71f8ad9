//! An RV64 SoC described with nested buses and `ranges` translation —
//! the paper's §V claim that the generated configurations work for
//! "SBCs that use aarch64 or RV64 architecture". Shows the semantic
//! check, which compares the addresses the CPU sees, catching a
//! bridge-window bug that no two `reg` values show on their own.
//!
//! Run with: `cargo run --example riscv_soc`

use llhsc::SemanticChecker;
use llhsc_dts::cells::collect_regions;
use llhsc_hypcfg::{qemu_args, QemuMachine, VmConfig};

const BOARD: &str = r#"
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    model = "llhsc,rv64-virt";

    memory@80000000 {
        device_type = "memory";
        reg = <0x0 0x80000000 0x0 0x40000000>;
    };

    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 {
            compatible = "riscv";
            device_type = "cpu";
            reg = <0x0>;
        };
        cpu@1 {
            compatible = "riscv";
            device_type = "cpu";
            reg = <0x1>;
        };
    };

    soc {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x0 0x10000000 0x10000000>;

        clint@2000000 { reg = <0x2000000 0x10000>; };
        plic: plic@c000000 {
            #interrupt-cells = <1>;
            reg = <0xc000000 0x600000>;
        };
        uart@e000000 {
            compatible = "ns16550a";
            reg = <0xe000000 0x100>;
            interrupt-parent = <&plic>;
            interrupts = <10>;
        };
    };
};
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = llhsc_dts::parse(BOARD)?;

    // CPU-visible region map: the soc bridge maps child addresses
    // [0x0, 0x10000000) onto parent [0x10000000, 0x20000000), so every
    // soc device lands 0x10000000 above its bus-local address.
    println!("CPU-visible address map:");
    for d in collect_regions(&tree)? {
        for r in d.regions.iter().filter(|r| r.size != 0) {
            println!("  {:<24} [{:#011x}, {:#011x})", d.path, r.address, r.end());
        }
    }

    let mut checker = SemanticChecker::new();
    let (report, _) = checker.check_tree_with_stats(&tree)?;
    println!(
        "\nsemantic check: {} regions, {} collisions",
        report.regions_checked,
        report.collisions.len()
    );

    // Introduce a *cross-bus* bug: a second bridge whose window lands
    // on top of the clint. The new device's `reg` says 0x0, which no
    // other `reg` claims; the CPU sees it at 0x12000000, inside the
    // clint.
    let buggy = BOARD.replace(
        "    soc {",
        "    soc2 {\n        #address-cells = <1>;\n        #size-cells = <1>;\n        \
         ranges = <0x0 0x0 0x12000000 0x10000>;\n        \
         dma@0 { reg = <0x0 0x100>; };\n    };\n\n    soc {",
    );
    let buggy_tree = llhsc_dts::parse(&buggy)?;
    let (buggy_report, _) = checker.check_tree_with_stats(&buggy_tree)?;
    println!(
        "\nafter adding a second bridge whose window overlaps the clint: {} collisions",
        buggy_report.collisions.len()
    );
    for c in &buggy_report.collisions {
        println!("    {c}");
    }

    // Extraction + QEMU invocation for the RV64 target.
    let vm = VmConfig::from_tree(&tree, "rv64guest")?;
    println!(
        "\nqemu: {}",
        qemu_args(&vm, QemuMachine::Rv64Virt).join(" ")
    );
    Ok(())
}
