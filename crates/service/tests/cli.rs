//! End-to-end tests of the `llhsc` command-line tool.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;

use common::Scratch;
use llhsc_service::Json;

fn llhsc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_llhsc"))
        .args(args)
        .output()
        .expect("binary runs")
}

const VALID: &str = r#"
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000>;
    };
    uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
};
"#;

const CLASHING: &str = r#"
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000>;
    };
    uart@40000000 { compatible = "ns16550a"; reg = <0x0 0x40000000 0x0 0x1000>; };
};
"#;

#[test]
fn no_args_prints_usage() {
    let out = llhsc(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn check_accepts_valid_file() {
    let scratch = Scratch::new();
    let path = scratch.write("valid.dts", VALID);
    let out = llhsc(&["check", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok"));
}

#[test]
fn check_rejects_clash_with_nonzero_exit() {
    let scratch = Scratch::new();
    let path = scratch.write("clash.dts", CLASHING);
    let out = llhsc(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[semantic]"), "{stderr}");
    assert!(stderr.contains("collision"), "{stderr}");
}

#[test]
fn check_resolves_includes_from_the_file_directory() {
    let scratch = Scratch::new();
    let main = scratch.write("main.dts", "/dts-v1/;\n/include/ \"part.dtsi\"\n/ { };\n");
    scratch.write(
        "part.dtsi",
        "/ { #address-cells = <1>; #size-cells = <1>; \
         memory@80000000 { device_type = \"memory\"; reg = <0x80000000 0x1000>; }; };",
    );
    let out = llhsc(&["check", main.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `010` is octal, as dtc reads it: the SRAM spans [0x8, 0xc), which
/// ends where the UART starts.
const OCTAL_SRAM: &str = "/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	sram@8 { reg = <010 0x4>; };
	uart@c { reg = <0xc 0x4>; };
};
";

#[test]
fn check_reads_leading_zero_literals_as_octal() {
    let scratch = Scratch::new();
    let path = scratch.write("octal.dts", OCTAL_SRAM);
    let out = llhsc(&["check", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let blob = scratch.write("octal.dtb", "");
    let out = llhsc(&["dtb", path.to_str().unwrap(), blob.to_str().unwrap()]);
    assert!(out.status.success());
    let out = llhsc(&["dts", blob.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reg = <0x8 0x4>;"), "{text}");
}

#[test]
fn dtb_then_dts_roundtrip() {
    let scratch = Scratch::new();
    let src = scratch.write("rt.dts", VALID);
    let blob = scratch.write("rt.dtb", ""); // will be overwritten
    let out = llhsc(&["dtb", src.to_str().unwrap(), blob.to_str().unwrap()]);
    assert!(out.status.success());
    let out = llhsc(&["dts", blob.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memory@40000000"));
    assert!(text.contains("uart@20000000"));
}

#[test]
fn demo_runs_the_paper_pipeline() {
    let out = llhsc(&["demo"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("platform DTS"));
    assert!(text.contains("Listing 3 shape"));
    assert!(text.contains("VM_IMAGE(vm1, vm1image.bin);"));
}

#[test]
fn products_lists_twelve() {
    let out = llhsc(&["products"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("12 valid products:"), "{text}");
    assert!(text.contains("core features: CustomSBC, memory, cpus, uarts"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = llhsc(&["check", "/nonexistent/board.dts"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

const MODEL_FM: &str = r#"
feature CustomSBC {
    memory
    cpus xor exclusive {
        cpu@0?
        cpu@1?
    }
    uarts abstract or {
        uart@20000000?
        uart@30000000?
    }
    vEthernet? abstract xor {
        veth0?
        veth1?
    }
}
constraints {
    veth0 requires cpu@0
    veth1 requires cpu@1
}
"#;

#[test]
fn model_subcommand_analyses_fm_file() {
    let scratch = Scratch::new();
    let path = scratch.write("model.fm", MODEL_FM);
    let out = llhsc(&["model", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("valid products: 12"), "{text}");
    assert!(text.contains("dead features: none"));
    assert!(text.contains("maximum VMs under exclusive-resource partitioning: 2"));
}

#[test]
fn model_subcommand_reports_void() {
    let scratch = Scratch::new();
    let path = scratch.write("void.fm", "feature R { a b }\nconstraints { a excludes b }");
    let out = llhsc(&["model", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("VOID"));
}

#[test]
fn build_subcommand_runs_a_project() {
    let dir = Scratch::new();
    std::fs::write(dir.join("core.dts"), llhsc::running_example::CORE_DTS).unwrap();
    std::fs::write(dir.join("cpus.dtsi"), llhsc::running_example::CPUS_DTSI).unwrap();
    std::fs::write(dir.join("uarts.dtsi"), llhsc::running_example::UARTS_DTSI).unwrap();
    std::fs::write(dir.join("deltas.delta"), llhsc::running_example::DELTAS).unwrap();
    std::fs::write(dir.join("model.fm"), MODEL_FM).unwrap();
    std::fs::write(
        dir.join("vms.cfg"),
        "# the Fig. 1 configurations\n\
         vm1: memory, cpu@0, uart@20000000, uart@30000000, veth0\n\
         vm2: memory, cpu@1, uart@20000000, uart@30000000, veth1\n",
    )
    .unwrap();
    let out = llhsc(&["build", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [
        "platform.dts",
        "platform.c",
        "platform.dtb",
        "vm1.dts",
        "vm2.dts",
        "vm1.c",
        "vm2.c",
        "vm1.jailhouse.c",
        "vm2.jailhouse.c",
        "vm1.dtb",
        "vm2.dtb",
    ] {
        assert!(dir.join("out").join(f).exists(), "missing out/{f}");
    }
    // The emitted DTB decodes.
    let blob = std::fs::read(dir.join("out/vm1.dtb")).unwrap();
    assert!(llhsc_dts::fdt::decode(&blob).is_ok());
    // The Jailhouse cell config mentions the VM name.
    let cell = std::fs::read_to_string(dir.join("out/vm1.jailhouse.c")).unwrap();
    assert!(cell.contains("JAILHOUSE_CELL_DESC_SIGNATURE"));
}

#[test]
fn build_rejects_invalid_project() {
    let dir = Scratch::new();
    std::fs::write(dir.join("core.dts"), llhsc::running_example::CORE_DTS).unwrap();
    std::fs::write(dir.join("cpus.dtsi"), llhsc::running_example::CPUS_DTSI).unwrap();
    std::fs::write(dir.join("uarts.dtsi"), llhsc::running_example::UARTS_DTSI).unwrap();
    // Disable d4 (guard on a never-selected feature): the truncation bug.
    let deltas: String = llhsc::running_example::DELTAS.replace(
        "delta d4 after d3 when memory && (veth0 || veth1)",
        "delta d4 after d3 when memory && never_selected",
    );
    std::fs::write(dir.join("deltas.delta"), deltas).unwrap();
    std::fs::write(dir.join("model.fm"), MODEL_FM).unwrap();
    std::fs::write(
        dir.join("vms.cfg"),
        "vm1: memory, cpu@0, uart@20000000, uart@30000000, veth0\n",
    )
    .unwrap();
    let out = llhsc(&["build", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("semantic"));
}

/// Two UARTs at bus-local 0 behind windows at 0x10000000 and
/// 0x20000000: the CPU sees them apart.
const BRIDGED_UARTS: &str = r#"
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@80000000 { device_type = "memory"; reg = <0x80000000 0x10000000>; };
    soc0 {
        compatible = "simple-bus";
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x10000000 0x100000>;
        uart@0 { compatible = "ns16550a"; reg = <0x0 0x1000>; };
    };
    soc1 {
        compatible = "simple-bus";
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x20000000 0x100000>;
        uart@0 { compatible = "ns16550a"; reg = <0x0 0x1000>; };
    };
};
"#;

/// A UART that its bus's window maps onto `memory@40000000`.
const UART_ON_MEMORY: &str = r#"
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x10000000>; };
    soc {
        compatible = "simple-bus";
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x40000000 0x100000>;
        uart@0 { compatible = "ns16550a"; reg = <0x0 0x1000>; };
    };
};
"#;

/// A device outside the only window of its bus: it has no CPU address.
const GHOST: &str = r#"
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    soc {
        compatible = "simple-bus";
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0xf0000000 0x1000>;
        ghost@8000 { reg = <0x8000 0x100>; };
    };
};
"#;

/// A BCM283x-style board: the soc window starts at child 0x7e000000,
/// and the eeprom's `reg` is an I2C address (`#size-cells = <0>`), which
/// takes up no address space and needs no window.
const I2C_BEHIND_A_WINDOW: &str = r#"
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@0 { device_type = "memory"; reg = <0x0 0x3c000000>; };
    soc {
        compatible = "simple-bus";
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x7e000000 0x3f000000 0x1000000>;
        uart@7e201000 { compatible = "ns16550a"; reg = <0x7e201000 0x200>; };
        i2c@7e205000 {
            compatible = "brcm,bcm2835-i2c";
            reg = <0x7e205000 0x200>;
            #address-cells = <1>;
            #size-cells = <0>;
            eeprom@50 { compatible = "atmel,24c32"; reg = <0x50>; };
        };
    };
};
"#;

#[test]
fn check_compares_cpu_addresses() {
    let scratch = Scratch::new();
    let fp = llhsc(&[
        "check",
        scratch.write("fp.dts", BRIDGED_UARTS).to_str().unwrap(),
    ]);
    assert_eq!(
        fp.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&fp.stderr)
    );

    let fn_ = llhsc(&[
        "check",
        scratch.write("fn.dts", UART_ON_MEMORY).to_str().unwrap(),
    ]);
    assert_eq!(fn_.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&fn_.stderr);
    assert!(
        stderr.contains("address collision at 0x40000000"),
        "{stderr}"
    );
}

#[test]
fn check_rejects_a_region_outside_its_windows() {
    let scratch = Scratch::new();
    let out = llhsc(&["check", scratch.write("ghost.dts", GHOST).to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "/soc/ghost@8000: reg [0x8000, 0x8100) lies outside every window of /soc's ranges"
        ),
        "{stderr}"
    );
}

#[test]
fn check_accepts_bus_numbers_behind_a_window() {
    let scratch = Scratch::new();
    let out = llhsc(&[
        "check",
        scratch
            .write("i2c.dts", I2C_BEHIND_A_WINDOW)
            .to_str()
            .unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A one-VM project over `board`, which gains a `cpus` node: no deltas,
/// and `vm1` selects the memory and the only CPU.
fn one_vm_project(scratch: &Scratch, name: &str, board: &str) -> PathBuf {
    let dir = scratch.join(name);
    std::fs::create_dir_all(&dir).expect("project dir");
    let root_end = board.rfind("};").expect("board closes its root");
    let core = format!(
        "{}    cpus {{\n        #address-cells = <1>;\n        #size-cells = <0>;\n        \
         cpu@0 {{ device_type = \"cpu\"; compatible = \"arm,cortex-a53\"; reg = <0x0>; }};\n    \
         }};\n{}",
        &board[..root_end],
        &board[root_end..]
    );
    std::fs::write(dir.join("core.dts"), core).unwrap();
    std::fs::write(dir.join("deltas.delta"), "").unwrap();
    std::fs::write(
        dir.join("model.fm"),
        "feature Board { memory cpus xor exclusive { cpu@0? } }\n",
    )
    .unwrap();
    std::fs::write(dir.join("vms.cfg"), "vm1: memory, cpu@0\n").unwrap();
    dir
}

/// The `dur` of the one span named `name` in the Chrome trace at `path`.
fn span_dur(path: &Path, name: &str) -> u64 {
    let trace = Json::parse(&std::fs::read_to_string(path).expect("trace file")).unwrap();
    let durs: Vec<i64> = trace
        .as_arr()
        .expect("Chrome trace is an array")
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
        .filter_map(|s| s.get("dur")?.as_int())
        .collect();
    assert_eq!(durs.len(), 1, "one {name} span in {}", path.display());
    u64::try_from(durs[0]).unwrap()
}

/// The value `--stats` prints after `label` on its own line.
fn stats_row<'a>(stdout: &'a str, label: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(label))
        .unwrap_or_else(|| panic!("no {label:?} row in:\n{stdout}"))
        .trim()
}

#[test]
fn stats_print_the_span_durations_of_the_trace() {
    let scratch = Scratch::new();
    let project = one_vm_project(&scratch, "p", VALID);
    let trace = scratch.join("build.trace.json");
    let out = llhsc(&[
        "build",
        "--stats",
        "--trace",
        trace.to_str().unwrap(),
        project.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut total = Duration::ZERO;
    for stage in llhsc::STAGE_SPANS {
        let took = Duration::from_micros(span_dur(&trace, stage));
        total += took;
        assert_eq!(stats_row(&stdout, stage), format!("{took:.1?}"), "{stage}");
    }
    assert_eq!(stats_row(&stdout, "total"), format!("{total:.1?}"));

    let trace = scratch.join("check.trace.json");
    let board = scratch.write("board.dts", VALID);
    let out = llhsc(&[
        "check",
        "--stats",
        "--trace",
        trace.to_str().unwrap(),
        board.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let semantic = Duration::from_micros(span_dur(&trace, "semantic"));
    assert_eq!(
        stats_row(&stdout, "semantic check time:"),
        format!("{semantic:.1?}")
    );
}

#[test]
fn build_compares_and_emits_cpu_addresses() {
    let scratch = Scratch::new();
    let fp = one_vm_project(&scratch, "fp", BRIDGED_UARTS);
    let fn_ = one_vm_project(&scratch, "fn", UART_ON_MEMORY);
    let i2c = one_vm_project(&scratch, "i2c", I2C_BEHIND_A_WINDOW);
    for (dir, code) in [(&fp, 0), (&fn_, 1), (&i2c, 0)] {
        for mode in [&[][..], &["--family"][..]] {
            let mut args = vec!["build"];
            args.extend_from_slice(mode);
            args.push(dir.to_str().unwrap());
            let out = llhsc(&args);
            assert_eq!(
                out.status.code(),
                Some(code),
                "{} {mode:?}: {}",
                dir.display(),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    // The Bao configs list the UARTs' physical addresses.
    let vm = std::fs::read_to_string(fp.join("out/vm1.c")).unwrap();
    assert!(vm.contains(".pa = 0x10000000"), "{vm}");
    assert!(vm.contains(".pa = 0x20000000"), "{vm}");
    let platform = std::fs::read_to_string(fp.join("out/platform.c")).unwrap();
    assert!(
        platform.contains(".console = { .base = 0x10000000 }"),
        "{platform}"
    );
    let vm = std::fs::read_to_string(i2c.join("out/vm1.c")).unwrap();
    assert!(vm.contains(".pa = 0x3f201000"), "{vm}");
}

/// Two UARTs that overlap and share interrupt line 33.
const SHARED_IRQ_AND_OVERLAP: &str = r#"
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x10000000>; };
    uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x2000>; interrupts = <33>; };
    uart@20001000 { compatible = "ns16550a"; reg = <0x20001000 0x1000>; interrupts = <33>; };
};
"#;

/// The `error[…]` lines of `text`, as `check` words them: without the
/// indent, the `[vm1]` slot and the ` (introduced by …)` blame.
fn error_lines(text: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(text)
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("error["))
        .map(|l| {
            let l = l.split(" (introduced by").next().unwrap_or(l);
            l.replacen("[vm1]", "", 1)
        })
        .collect()
}

#[test]
fn build_words_findings_as_check_does() {
    let scratch = Scratch::new();
    let check = llhsc(&[
        "check",
        scratch
            .write("irq.dts", SHARED_IRQ_AND_OVERLAP)
            .to_str()
            .unwrap(),
    ]);
    assert_eq!(check.status.code(), Some(1));
    let checked = error_lines(&check.stderr);
    assert_eq!(
        checked.len(),
        2,
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(checked[0].starts_with("error[semantic]: address collision at 0x20001000"));
    assert_eq!(
        checked[1],
        "error[semantic]: interrupt line 33 claimed by /uart@20000000, /uart@20001000"
    );

    let dir = one_vm_project(&scratch, "irq", SHARED_IRQ_AND_OVERLAP);
    let build = llhsc(&["build", dir.to_str().unwrap()]);
    let family = llhsc(&["build", "--family", dir.to_str().unwrap()]);
    for (out, text) in [(&build, &build.stderr), (&family, &family.stdout)] {
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let built = error_lines(text);
        // Both findings, for the VM (and the platform in `build`).
        assert!(built.len() >= 2, "{}", String::from_utf8_lossy(text));
        for line in &checked {
            assert!(built.contains(line), "{line:?} missing from {built:?}");
        }
        for line in &built {
            assert!(checked.contains(line), "{line:?} is not a `check` line");
        }
    }
}

/// A core whose UART the deltas of [`TWO_DELTAS`] run into.
const TWO_DELTA_CORE: &str = r#"
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@80000000 { device_type = "memory"; reg = <0x80000000 0x40000000>; };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { device_type = "cpu"; compatible = "arm,cortex-a53"; reg = <0x0>; };
    };
    uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; interrupts = <33>; };
};
"#;

/// Two deltas that each add one device under `/`: `add_b` a UART on
/// the core UART's interrupt line, `add_c` an SRAM over the core UART.
const TWO_DELTAS: &str = "\
delta add_b when b { adds binding / { uart@20003000 { compatible = \"ns16550a\"; \
reg = <0x20003000 0x1000>; interrupts = <33>; }; }; }
delta add_c when c { adds binding / { sram@20000800 { reg = <0x20000800 0x1000>; }; }; }
";

#[test]
fn build_blames_each_finding_on_the_delta_that_added_its_node() {
    let scratch = Scratch::new();
    let dir = scratch.join("two-deltas");
    std::fs::create_dir_all(&dir).expect("project dir");
    for (name, text) in [
        ("core.dts", TWO_DELTA_CORE),
        ("deltas.delta", TWO_DELTAS),
        ("model.fm", "feature P { memory cpu@0 uart@20000000 b c }\n"),
        ("vms.cfg", "vm1: memory, cpu@0, uart@20000000, b, c\n"),
    ] {
        std::fs::write(dir.join(name), text).unwrap();
    }
    let expected = [
        "error[semantic]: address collision at 0x20000800: /uart@20000000#reg[0] = \
         [0x20000000, 0x20001000) overlaps /sram@20000800#reg[0] = [0x20000800, 0x20001800) \
         (introduced by add_c:adds /sram@20000800)",
        "error[semantic]: interrupt line 33 claimed by /uart@20000000, /uart@20003000 \
         (introduced by add_b:adds /uart@20003000)",
    ];
    let build = llhsc(&["build", dir.to_str().unwrap()]);
    let family = llhsc(&["build", "--family", dir.to_str().unwrap()]);
    for (out, text) in [(&build, &build.stderr), (&family, &family.stdout)] {
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let text = String::from_utf8_lossy(text);
        let lines: Vec<String> = text
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("error["))
            .map(|l| l.replacen("[vm1]", "", 1))
            .collect();
        for line in expected {
            assert!(
                lines.iter().any(|l| l == line),
                "{line:?} missing from:\n{text}"
            );
        }
        for line in &lines {
            assert!(expected.contains(&line.as_str()), "unexpected {line:?}");
        }
    }
}
