//! In-process integration tests of the daemon: concurrency, cache
//! correctness and invalidation granularity.

use std::sync::Arc;

use llhsc::{quadcore, running_example, Pipeline};
use llhsc_service::json::Json;
use llhsc_service::proto::BuildRequest;
use llhsc_service::{check_tree, client, server, ServerConfig, ServerHandle};

/// The running example's feature model in the textual format (the
/// in-code builder `running_example::feature_model()` has no source
/// text to ship over the wire).
const RUNNING_MODEL: &str = r#"
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

fn running_build_request(deltas: &str) -> BuildRequest {
    let input = running_example::pipeline_input();
    BuildRequest {
        core: llhsc_dts::print(&input.core),
        deltas: deltas.to_string(),
        model: RUNNING_MODEL.to_string(),
        schemas: Vec::new(),
        vms: input
            .vms
            .iter()
            .map(|v| (v.name.clone(), v.features.clone()))
            .collect(),
        family: false,
    }
}

fn quadcore_build_request() -> BuildRequest {
    BuildRequest {
        core: quadcore::core_dts_text(),
        deltas: quadcore::drop_deltas_text(),
        model: quadcore::MODEL.to_string(),
        schemas: Vec::new(),
        vms: quadcore::vm_specs()
            .iter()
            .map(|v| (v.name.clone(), v.features.clone()))
            .collect(),
        family: false,
    }
}

fn build_json(b: &BuildRequest) -> Json {
    Json::obj([
        ("op", "build".into()),
        ("core", b.core.as_str().into()),
        ("deltas", b.deltas.as_str().into()),
        ("model", b.model.as_str().into()),
        ("family", Json::Bool(b.family)),
        (
            "vms",
            Json::Arr(
                b.vms
                    .iter()
                    .map(|(name, features)| {
                        Json::obj([
                            ("name", name.as_str().into()),
                            (
                                "features",
                                Json::Arr(features.iter().map(|f| f.as_str().into()).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn check_json(dts: &str) -> Json {
    Json::obj([("op", "check".into()), ("dts", dts.into())])
}

fn rendered_diags(response: &Json) -> Vec<String> {
    response
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics array")
        .iter()
        .map(|d| {
            d.get("rendered")
                .and_then(Json::as_str)
                .expect("rendered diagnostic")
                .to_string()
        })
        .collect()
}

fn str_field<'j>(response: &'j Json, key: &str) -> &'j str {
    response.get(key).and_then(Json::as_str).expect(key)
}

/// `(hits, misses)` of one cache class from a `stats` response.
fn cache_counters(stats: &Json, class: &str) -> (i64, i64) {
    let counters = stats
        .get("cache")
        .and_then(|c| c.get(class))
        .expect("cache class in stats");
    (
        counters.get("hits").and_then(Json::as_int).expect("hits"),
        counters
            .get("misses")
            .and_then(Json::as_int)
            .expect("misses"),
    )
}

fn stats_of(addr: &str) -> Json {
    client::request_ok(addr, &Json::obj([("op", "stats".into())])).expect("stats request")
}

fn start() -> (ServerHandle, String) {
    let handle = server::start(&ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn build_over_the_wire_matches_local_run() {
    let request = quadcore_build_request();
    let local = Pipeline::new()
        .run(&request.to_pipeline_input().expect("inputs parse"))
        .expect("quadcore is clean");

    let (handle, addr) = start();
    let response = client::request_ok(&addr, &build_json(&request)).expect("build request");
    assert_eq!(response.get("clean"), Some(&Json::Bool(true)));
    let local_rendered: Vec<String> = local.diagnostics.iter().map(ToString::to_string).collect();
    assert_eq!(rendered_diags(&response), local_rendered);
    assert_eq!(str_field(&response, "platform_dts"), local.platform_dts);
    assert_eq!(str_field(&response, "platform_c"), local.platform_c);
    let vm_dts: Vec<&str> = response
        .get("vm_dts")
        .and_then(Json::as_arr)
        .expect("vm_dts")
        .iter()
        .map(|s| s.as_str().expect("dts string"))
        .collect();
    assert_eq!(
        vm_dts,
        local.vm_dts.iter().map(String::as_str).collect::<Vec<_>>()
    );

    handle.shutdown();
    handle.join();
}

/// A family-mode build over the wire: the quadcore line is certified
/// clean without enumerating its 60 products, the verdict agrees with
/// the local lifted run, a repeat is a pure cache hit, and the lifted
/// counters reach the metrics op.
#[test]
fn family_build_over_the_wire_is_lifted_and_cached() {
    let mut request = quadcore_build_request();
    request.family = true;
    request.vms.clear(); // family mode needs no VM list
    let local = {
        let mut checker = llhsc::family::FamilyChecker::new();
        checker
            .check(
                &request.to_pipeline_input().expect("inputs parse"),
                llhsc::family::CheckMode::Family,
            )
            .expect("family check runs")
    };
    assert!(local.is_ok() && local.lifted);

    let (handle, addr) = start();
    let first = client::request_ok(&addr, &build_json(&request)).expect("cold family build");
    assert_eq!(first.get("clean"), Some(&Json::Bool(true)));
    assert_eq!(first.get("family"), Some(&Json::Bool(true)));
    assert_eq!(first.get("lifted"), Some(&Json::Bool(true)));
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(
        first.get("products").and_then(Json::as_int),
        Some(local.products as i64)
    );
    assert_eq!(
        first.get("products_checked").and_then(Json::as_int),
        Some(0),
        "a clean lifted verdict derives no products"
    );

    let second = client::request_ok(&addr, &build_json(&request)).expect("warm family build");
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    let (hits, misses) = cache_counters(&stats_of(&addr), "family");
    assert_eq!((hits, misses), (1, 1));

    let metrics =
        client::request_ok(&addr, &Json::obj([("op", "metrics".into())])).expect("metrics request");
    let text = metrics.get("text").and_then(Json::as_str).expect("text");
    assert!(text.contains(&format!(
        "llhsc_family_solves_total {}",
        local.stats.family_solves
    )));
    assert!(text.contains(&format!(
        "llhsc_family_obligations_lifted_total {}",
        local.stats.obligations_lifted
    )));
    assert!(text.contains("llhsc_family_witnesses_extracted_total 0"));

    handle.shutdown();
    handle.join();
}

#[test]
fn rejected_build_reports_clean_false_with_diagnostics() {
    // The §I-A sabotage: a physical device on the second memory bank.
    let deltas = running_example::DELTAS.replace(
        "compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
        "compatible = \"pci\";\n            reg = <0x60000000 0x10000000>;",
    );
    let request = running_build_request(&deltas);
    let local = Pipeline::new()
        .run(&request.to_pipeline_input().expect("inputs parse"))
        .expect_err("sabotaged input is rejected");

    let (handle, addr) = start();
    let response = client::request_ok(&addr, &build_json(&request)).expect("build request");
    assert_eq!(response.get("clean"), Some(&Json::Bool(false)));
    let local_rendered: Vec<String> = local.diagnostics.iter().map(ToString::to_string).collect();
    assert_eq!(rendered_diags(&response), local_rendered);

    handle.shutdown();
    handle.join();
}

/// Satellite: N concurrent clients with a mix of clean and failing
/// boards; every response must match the serial local result.
#[test]
fn concurrent_mixed_requests_match_serial_results() {
    // Serial expectations, computed before the daemon sees anything.
    let clean_build = quadcore_build_request();
    let clean_build_local = Pipeline::new()
        .run(&clean_build.to_pipeline_input().unwrap())
        .expect("clean build");
    let failing_deltas = running_example::DELTAS.replace(
        "compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
        "compatible = \"pci\";\n            reg = <0x60000000 0x10000000>;",
    );
    let failing_build = running_build_request(&failing_deltas);
    let failing_build_local = Pipeline::new()
        .run(&failing_build.to_pipeline_input().unwrap())
        .expect_err("failing build");

    let clean_dts = clean_build_local.platform_dts.clone();
    let clean_check = check_tree(&llhsc_dts::parse(&clean_dts).unwrap());
    let failing_dts = "/ {\n\
                       \x20   #address-cells = <2>; #size-cells = <2>;\n\
                       \x20   memory@40000000 { device_type = \"memory\";\n\
                       \x20       reg = <0x0 0x40000000 0x0 0x20000000\n\
                       \x20              0x0 0x60000000 0x0 0x20000000>; };\n\
                       \x20   uart@60000000 { reg = <0x0 0x60000000 0x0 0x1000>; };\n\
                       };\n";
    let failing_check = check_tree(&llhsc_dts::parse(failing_dts).unwrap());
    assert!(clean_check.report.clean && !failing_check.report.clean);

    let (handle, addr) = start();
    let addr = Arc::new(addr);
    let render = |diags: &[llhsc::Diagnostic]| -> Vec<String> {
        diags.iter().map(ToString::to_string).collect()
    };
    let clean_build_diags = render(&clean_build_local.diagnostics);
    let failing_build_diags = render(&failing_build_local.diagnostics);

    std::thread::scope(|s| {
        for round in 0..3 {
            for case in 0..4 {
                let addr = Arc::clone(&addr);
                let clean_build = &clean_build;
                let failing_build = &failing_build;
                let clean_dts = &clean_dts;
                let clean_check = &clean_check;
                let failing_check = &failing_check;
                let clean_build_diags = &clean_build_diags;
                let failing_build_diags = &failing_build_diags;
                // Vary request order across threads.
                let which = (round + case) % 4;
                s.spawn(move || match which {
                    0 => {
                        let r = client::request_ok(&addr, &build_json(clean_build))
                            .expect("clean build");
                        assert_eq!(r.get("clean"), Some(&Json::Bool(true)));
                        assert_eq!(&rendered_diags(&r), clean_build_diags);
                    }
                    1 => {
                        let r = client::request_ok(&addr, &build_json(failing_build))
                            .expect("failing build");
                        assert_eq!(r.get("clean"), Some(&Json::Bool(false)));
                        assert_eq!(&rendered_diags(&r), failing_build_diags);
                    }
                    2 => {
                        let r =
                            client::request_ok(&addr, &check_json(clean_dts)).expect("clean check");
                        assert_eq!(r.get("clean"), Some(&Json::Bool(true)));
                        assert_eq!(str_field(&r, "stdout"), clean_check.report.stdout);
                        assert_eq!(str_field(&r, "stderr"), clean_check.report.stderr);
                    }
                    _ => {
                        let r = client::request_ok(&addr, &check_json(failing_dts))
                            .expect("failing check");
                        assert_eq!(r.get("clean"), Some(&Json::Bool(false)));
                        assert_eq!(str_field(&r, "stdout"), failing_check.report.stdout);
                        assert_eq!(str_field(&r, "stderr"), failing_check.report.stderr);
                    }
                });
            }
        }
    });

    let stats = stats_of(&addr);
    assert_eq!(stats.get("requests"), Some(&Json::Int(13)), "12 + stats");
    assert_eq!(stats.get("errors"), Some(&Json::Int(0)));

    handle.shutdown();
    handle.join();
}

/// Acceptance criterion: a repeated identical request performs zero
/// solver calls — every solver-bearing stage hits the cache, misses
/// stay flat.
#[test]
fn repeated_identical_build_performs_zero_solver_calls() {
    let request = quadcore_build_request();
    let (handle, addr) = start();

    let first = client::request_ok(&addr, &build_json(&request)).expect("cold build");
    let cold = stats_of(&addr);
    // Cold run: 1 allocation, 5 product checks (4 VMs + platform),
    // 4 coverage pairs — all misses.
    assert_eq!(cache_counters(&cold, "allocation"), (0, 1));
    assert_eq!(cache_counters(&cold, "product_check"), (0, 5));
    assert_eq!(cache_counters(&cold, "coverage"), (0, 4));

    let second = client::request_ok(&addr, &build_json(&request)).expect("warm build");
    let warm = stats_of(&addr);
    // Warm run: all hits, zero new misses ⇒ zero solver calls.
    assert_eq!(cache_counters(&warm, "allocation"), (1, 1));
    assert_eq!(cache_counters(&warm, "product_check"), (5, 5));
    assert_eq!(cache_counters(&warm, "coverage"), (4, 4));

    // And the replayed answer is the same answer.
    assert_eq!(rendered_diags(&first), rendered_diags(&second));
    assert_eq!(
        str_field(&first, "platform_dts"),
        str_field(&second, "platform_dts")
    );
    assert_eq!(
        first.get("region_stats"),
        second.get("region_stats"),
        "cached runs replay the original solver counters"
    );

    handle.shutdown();
    handle.join();
}

/// Satellite: cache-correctness under mutation — editing one delta
/// module misses only the products that delta touches.
#[test]
fn editing_one_delta_misses_only_affected_vms() {
    let (handle, addr) = start();
    let original = running_build_request(running_example::DELTAS);
    client::request_ok(&addr, &build_json(&original)).expect("original build");
    let before = stats_of(&addr);

    // Move d1's veth window: d1 is active for vm1 (and the platform
    // union) only, so vm2's derived product is unchanged.
    let edited_deltas = running_example::DELTAS.replace(
        "veth0@80000000 {\n            compatible = \"veth\";\n            reg = <0x80000000 0x10000000>;",
        "veth0@90000000 {\n            compatible = \"veth\";\n            reg = <0x90000000 0x10000000>;",
    );
    assert_ne!(edited_deltas, running_example::DELTAS, "edit must apply");
    let edited = running_build_request(&edited_deltas);
    let response = client::request_ok(&addr, &build_json(&edited)).expect("edited build");
    assert_eq!(response.get("clean"), Some(&Json::Bool(true)));
    let after = stats_of(&addr);

    // Same model, same selections: the allocation is a hit.
    let (alloc_hits_before, alloc_misses_before) = cache_counters(&before, "allocation");
    let (alloc_hits_after, alloc_misses_after) = cache_counters(&after, "allocation");
    assert_eq!(alloc_misses_after, alloc_misses_before);
    assert_eq!(alloc_hits_after, alloc_hits_before + 1);

    // vm1 and the platform product changed (2 new misses); vm2's
    // product is untouched (1 new hit).
    let (pc_hits_before, pc_misses_before) = cache_counters(&before, "product_check");
    let (pc_hits_after, pc_misses_after) = cache_counters(&after, "product_check");
    assert_eq!(pc_misses_after, pc_misses_before + 2);
    assert_eq!(pc_hits_after, pc_hits_before + 1);

    // Coverage pairs all include the platform product, which changed:
    // both re-miss (correct, not a granularity bug).
    let (_, cov_misses_before) = cache_counters(&before, "coverage");
    let (_, cov_misses_after) = cache_counters(&after, "coverage");
    assert_eq!(cov_misses_after, cov_misses_before + 2);

    handle.shutdown();
    handle.join();
}

#[test]
fn repeated_check_hits_the_tree_cache() {
    let (handle, addr) = start();
    let dts = quadcore::core_dts_text();
    let first = client::request_ok(&addr, &check_json(&dts)).expect("cold check");
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let second = client::request_ok(&addr, &check_json(&dts)).expect("warm check");
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(first.get("stdout"), second.get("stdout"));
    assert_eq!(first.get("stderr"), second.get("stderr"));
    let stats = stats_of(&addr);
    assert_eq!(cache_counters(&stats, "tree_check"), (1, 1));
    handle.shutdown();
    handle.join();
}

#[test]
fn frontend_parse_failures_are_error_frames() {
    let (handle, addr) = start();
    let mut request = quadcore_build_request();
    request.model = "this is not a feature model".into();
    let err = client::request_ok(&addr, &build_json(&request)).expect_err("bad model");
    assert!(err.starts_with("model.fm:"), "{err}");

    let err = client::request_ok(&addr, &check_json("not a tree")).expect_err("bad dts");
    assert!(err.starts_with("parse:"), "{err}");

    let stats = stats_of(&addr);
    assert_eq!(stats.get("errors"), Some(&Json::Int(2)));
    handle.shutdown();
    handle.join();
}

#[test]
fn the_tree_cache_evicts_its_least_recently_used_board() {
    let (handle, addr) = start();
    // 65 distinct boards: one more than the tree cache holds.
    let board = |i: u64| {
        format!(
            "/ {{ #address-cells = <1>; #size-cells = <1>;\n\
             \x20   memory@{0:x} {{ device_type = \"memory\"; reg = <0x{0:x} 0x1000>; }}; }};",
            0x1000 * (i + 1)
        )
    };
    for i in 0..65 {
        let fresh = client::request_ok(&addr, &check_json(&board(i))).expect("check");
        assert_eq!(fresh.get("cached"), Some(&Json::Bool(false)), "board {i}");
    }
    let stats = stats_of(&addr);
    let evictions = |stats: &Json| {
        stats
            .get("cache")
            .and_then(|c| c.get("tree_check"))
            .and_then(|c| c.get("evictions"))
            .and_then(Json::as_int)
            .expect("evictions")
    };
    assert_eq!(cache_counters(&stats, "tree_check"), (0, 65));
    assert_eq!(evictions(&stats), 1);

    let last = client::request_ok(&addr, &check_json(&board(64))).expect("re-check");
    assert_eq!(last.get("cached"), Some(&Json::Bool(true)));
    let first = client::request_ok(&addr, &check_json(&board(0))).expect("re-check");
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let stats = stats_of(&addr);
    assert_eq!(cache_counters(&stats, "tree_check"), (1, 66));
    assert_eq!(evictions(&stats), 2);
    handle.shutdown();
    handle.join();
}
