//! Allocation budget of checking a large board: parsing, region
//! collection and the whole tree check each stay within a fixed number
//! of heap allocations per device.
//!
//! The board is ci.sh's 6 000-device scaling board, one line per device
//! as the benchmark's `board_check` workload writes them. A counting
//! global allocator counts the allocations (and reallocations) each step
//! makes on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use llhsc::SemanticChecker;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees carry over; counting touches only a
// const-initialised thread-local, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller passes a block this allocator (so `System`)
        // returned, with its layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const DEVICES: usize = 6000;

/// ci.sh's scaling board of `n` devices: memory, two CPUs, then one
/// line per device, each with a `reg` and an interrupt of its own.
fn scaling_board(n: usize) -> String {
    let mut lines = vec![
        "/dts-v1/;".to_string(),
        "/ {".to_string(),
        "\t#address-cells = <1>;".to_string(),
        "\t#size-cells = <1>;".to_string(),
        "\tmemory@80000000 { device_type = \"memory\"; reg = <0x80000000 0x40000000>; };"
            .to_string(),
        "\tcpus {".to_string(),
        "\t\t#address-cells = <1>;".to_string(),
        "\t\t#size-cells = <0>;".to_string(),
    ];
    for cpu in 0..2 {
        lines.push(format!(
            "\t\tcpu@{cpu} {{ compatible = \"arm,cortex-a53\"; device_type = \"cpu\"; \
             enable-method = \"psci\"; reg = <{cpu:#x}>; }};"
        ));
    }
    lines.push("\t};".to_string());
    for i in 0..n {
        let kind = ["dev", "timer", "gpio", "dma"][i % 4];
        let base = 0x1000_0000 + 2 * i * 0x1000;
        lines.push(format!(
            "\t{kind}{i}@{base:x} {{ compatible = \"acme,{kind}\"; \
             reg = <{base:#x} 0x1000>; interrupts = <{}>; }};",
            32 + i
        ));
    }
    lines.push("};".to_string());
    lines.join("\n") + "\n"
}

#[test]
fn scaling_board_allocations_stay_within_budget() {
    let src = scaling_board(DEVICES);
    let (tree, parse) = counted(|| llhsc_dts::parse(&src).expect("the board parses"));

    let checker = SemanticChecker::new();
    let (refs, collect) = counted(|| checker.collect_refs(&tree).expect("the board decodes"));
    assert_eq!(refs.len(), DEVICES + 1);

    let (outcome, check) = counted(|| llhsc_service::check_tree(&tree));
    assert_eq!(
        outcome.report.stdout,
        "checked 6005 nodes, 6001 regions, 19 schema rules: ok\n"
    );

    let per_device = |n: usize| n as f64 / DEVICES as f64;
    eprintln!(
        "allocations: parse {parse} ({:.2} per device), collect_refs {collect} \
         ({:.2} per region), check_tree {check} ({:.2} per device)",
        per_device(parse),
        collect as f64 / refs.len() as f64,
        per_device(check)
    );
    assert!(parse <= 5 * DEVICES, "parse made {parse} allocations");
    assert!(
        collect <= refs.len(),
        "collect_refs made {collect} allocations"
    );
    assert!(check <= 3 * DEVICES, "check_tree made {check} allocations");
}
