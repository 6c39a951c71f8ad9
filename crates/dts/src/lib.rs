//! DeviceTree source (DTS) parsing, printing, manipulation and FDT blob
//! encoding — the `dtc`-shaped substrate of the `llhsc` reproduction.
//!
//! The paper's tool consumes and produces DeviceTree *source* files
//! (Listing 1, Listing 2), resolves `/include/` directives ("the
//! description of the cluster is stored on the file `cpus.dtsi`"), and
//! its baselines (`dtc`, `dt-schema`) operate on the same format. This
//! crate provides:
//!
//! * a lexer + recursive-descent parser for the DTS grammar used in the
//!   paper (nodes with unit addresses, labels, references, cell arrays,
//!   strings, byte strings, `/include/`, `/delete-node/`,
//!   `/delete-property/`),
//! * a mutable tree model ([`DeviceTree`], [`Node`], [`Property`]) with
//!   path-based lookup and structural merging,
//! * a pretty-printer producing round-trippable DTS text,
//! * interpretation of `reg` under `#address-cells`/`#size-cells`
//!   ([`cells`]), which is where the paper's 64→32-bit truncation bug
//!   lives, and
//! * an encoder/decoder for the flattened DeviceTree blob format
//!   (DTB v17) in [`fdt`], standing in for `dtc -O dtb`.
//!
//! # Example
//!
//! ```
//! use llhsc_dts::parse;
//!
//! let tree = parse(r#"
//! /dts-v1/;
//! / {
//!     #address-cells = <2>;
//!     #size-cells = <2>;
//!     memory@40000000 {
//!         device_type = "memory";
//!         reg = <0x0 0x40000000 0x0 0x20000000>;
//!     };
//! };
//! "#)?;
//! let mem = tree.find("/memory@40000000").unwrap();
//! assert_eq!(mem.prop_str("device_type"), Some("memory"));
//! # Ok::<(), llhsc_dts::DtsError>(())
//! ```

pub mod cells;
pub mod fdt;
pub mod hash;

mod error;
mod lexer;
mod parser;
mod printer;
mod property;
mod tree;

pub use error::{DtsError, Position};
pub use parser::{parse, parse_with_includes, FileProvider, MapFileProvider};
pub use printer::print;
pub use property::{Cell, Cells, FlatCells, Property, PropertyBuilder, Value, Values};
pub use tree::{DeviceTree, Node, NodePath, Phandles};
