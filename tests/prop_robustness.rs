//! Robustness: none of the parsers in the workspace may panic on
//! arbitrary input — malformed text must come back as a structured
//! error. (A checker that crashes on the files it is supposed to
//! reject is not a checker.)

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The DTS parser returns Ok or Err, never panics.
    #[test]
    fn dts_parser_never_panics(src in ".{0,200}") {
        let _ = llhsc_dts::parse(&src);
    }

    /// DTS-looking garbage (right alphabet, random structure).
    #[test]
    fn dts_parser_structured_garbage(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("/ {".to_string()),
                Just("};".to_string()),
                Just("reg = <".to_string()),
                Just("0x1000".to_string()),
                Just(">;".to_string()),
                Just("\"str\"".to_string()),
                Just("node@1".to_string()),
                Just("/dts-v1/;".to_string()),
                Just("/include/".to_string()),
                Just("&label".to_string()),
                Just("label:".to_string()),
                Just("[ de ad ]".to_string()),
                Just(",".to_string()),
                Just(";".to_string()),
            ],
            0..30,
        )
    ) {
        let _ = llhsc_dts::parse(&tokens.join(" "));
    }

    /// The delta-language parser never panics.
    #[test]
    fn delta_parser_never_panics(src in ".{0,200}") {
        let _ = llhsc_delta::DeltaModule::parse_all(&src);
    }

    #[test]
    fn delta_parser_structured_garbage(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("delta".to_string()),
                Just("d1".to_string()),
                Just("after".to_string()),
                Just("when".to_string()),
                Just("adds".to_string()),
                Just("modifies".to_string()),
                Just("removes".to_string()),
                Just("binding".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("/".to_string()),
                Just("(a || b)".to_string()),
                Just("!x".to_string()),
                Just(";".to_string()),
            ],
            0..25,
        )
    ) {
        let _ = llhsc_delta::DeltaModule::parse_all(&tokens.join(" "));
    }

    /// The schema (YAML-subset) parser never panics.
    #[test]
    fn schema_parser_never_panics(src in ".{0,200}") {
        let _ = llhsc_schema::Schema::parse(&src);
    }

    /// The feature-model text parser never panics.
    #[test]
    fn fm_parser_never_panics(src in ".{0,200}") {
        let _ = llhsc_fm::parse_model(&src);
    }

    /// The FDT decoder never panics on arbitrary bytes.
    #[test]
    fn fdt_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = llhsc_dts::fdt::decode(&bytes);
        let _ = llhsc_dts::fdt::decode_typed(&bytes);
    }

    /// The FDT decoder never panics on *corrupted valid* blobs (a valid
    /// header followed by flipped bytes exercises deeper paths than
    /// pure noise).
    #[test]
    fn fdt_decoder_survives_corruption(
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        let tree = llhsc_dts::parse(
            "/ { memory@0 { device_type = \"memory\"; reg = <0 0 0 1>; }; };",
        )
        .expect("fixture parses");
        let mut blob = llhsc_dts::fdt::encode(&tree);
        for (idx, val) in flips {
            let i = idx.index(blob.len());
            blob[i] ^= val;
        }
        let _ = llhsc_dts::fdt::decode(&blob);
        let _ = llhsc_dts::fdt::decode_typed(&blob);
    }

    /// DIMACS parsing never panics.
    #[test]
    fn dimacs_parser_never_panics(src in ".{0,200}") {
        let _ = llhsc_sat::parse_dimacs(src.as_bytes());
    }

    /// DIMACS-looking garbage, including huge literals that used to
    /// reach `Var::from_index` unchecked.
    #[test]
    fn dimacs_parser_structured_garbage(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("p cnf 3 2".to_string()),
                Just("p cnf".to_string()),
                Just("1".to_string()),
                Just("-2".to_string()),
                Just("0".to_string()),
                Just("4294967297".to_string()),
                Just("-9223372036854775808".to_string()),
                Just("c noise".to_string()),
                Just("\n".to_string()),
            ],
            0..20,
        )
    ) {
        let _ = llhsc_sat::parse_dimacs(tokens.join(" ").as_bytes());
    }

    /// The service JSON parser never panics.
    #[test]
    fn json_parser_never_panics(src in ".{0,200}") {
        let _ = llhsc_service::Json::parse(&src);
    }

    /// Accepted JSON survives print → parse unchanged.
    #[test]
    fn json_roundtrips_when_accepted(src in "[\\[\\]{}:,\"0-9a-z\\\\ .eu-]{0,64}") {
        if let Ok(v) = llhsc_service::Json::parse(&src) {
            let printed = v.to_string();
            let back = llhsc_service::Json::parse(&printed).expect("own output parses");
            prop_assert_eq!(back, v);
        }
    }

    /// `reg` decoding is total for arbitrary cell counts and payloads:
    /// out-of-range counts (including the `0xffffffff` overflow case
    /// and 5-cell addresses) come back as errors, never panics or
    /// silent truncation.
    #[test]
    fn reg_decoding_never_panics(
        address_cells in prop_oneof![0u32..8, Just(u32::MAX), Just(5u32)],
        size_cells in 0u32..8,
        cells in prop::collection::vec(any::<u32>(), 0..24),
    ) {
        use llhsc_dts::{Node, Property};

        let mut node = Node::new("dev");
        node.set_prop(Property::cells("reg", cells.iter().copied()));
        let decoded = llhsc_dts::cells::decode_reg(
            "/",
            &node,
            address_cells,
            size_cells,
        );
        if address_cells > llhsc_dts::cells::MAX_CELLS
            || size_cells > llhsc_dts::cells::MAX_CELLS
        {
            prop_assert!(decoded.is_err(), "oversized cell counts must be rejected");
        }
        if let Ok(entries) = decoded {
            for e in &entries {
                // end() is saturating, never wrapping.
                prop_assert!(e.end() >= e.address);
            }
        }
    }

    /// Byte strings keep their lexeme width: a parsed `[ … ]` value
    /// always holds run-length / 2 bytes, leading zeros included.
    #[test]
    fn byte_strings_keep_width(runs in prop::collection::vec("[0-9a-f]{2,8}", 1..4)) {
        let runs: Vec<String> = runs.into_iter()
            .map(|r| if r.len() % 2 == 0 { r } else { format!("0{r}") })
            .collect();
        let src = format!("/ {{ p = [ {} ]; }};", runs.join(" "));
        let tree = llhsc_dts::parse(&src).expect("even runs parse");
        let node = tree.find("/").expect("root");
        let prop = node.prop("p").expect("property");
        let total: usize = runs.iter().map(|r| r.len() / 2).sum();
        match prop.values().collect::<Vec<_>>()[..] {
            [llhsc_dts::Value::Bytes(bs)] => prop_assert_eq!(bs.len(), total),
            ref other => prop_assert!(false, "unexpected values: {other:?}"),
        }
    }
}
