#!/bin/sh
# Local CI: everything must pass before a change lands.
# Runs fully offline — the workspace has no registry dependencies
# (proptest is an in-tree shim, see crates/proptest).
set -eux

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Documentation must build without warnings, so a deleted item cannot
# leave an intra-doc link dangling. `--lib` because the `llhsc` binary
# and the `llhsc` library would both write doc/llhsc/index.html.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --lib

# The benchmark package (perf/) is a workspace of its own, so nothing
# above compiles it: build it, run its unit tests and its --quick smoke
# run of all four workloads, so an API change cannot silently break it.
cargo test --offline --manifest-path perf/Cargo.toml

# Panic-freedom: no unwrap/expect may creep into non-test code of the
# untrusted-input crates (see tools/unwrap_allowlist.txt), and a bounded
# fuzz run over all five drivers (four input surfaces plus the
# differential SAT driver) must come back clean
# (docs/FUZZING.md).
tools/check_unwraps.sh
target/release/llhsc-fuzz --iters 20000 --seed 1

# Daemon smoke test: boot llhsc-service on a free port, run one check
# through a client, require byte-identical output to the local command,
# then shut it down gracefully.
LLHSC=target/release/llhsc
SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
SERVE2_PID=""
SERVE3_PID=""
trap 'rm -rf "$SMOKE_DIR"; kill "$SERVE_PID" "$SERVE2_PID" "$SERVE3_PID" 2>/dev/null || true' EXIT

cat > "$SMOKE_DIR/board.dts" <<'EOF'
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x20000000>; };
    uart@9000000 { compatible = "ns16550a"; reg = <0x9000000 0x1000>; };
};
EOF

"$LLHSC" serve --addr 127.0.0.1:0 > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(awk '/listening on/ { print $4; exit }' "$SMOKE_DIR/serve.log")
    [ -n "$ADDR" ] && break
    sleep 0.05
done
test -n "$ADDR"

"$LLHSC" check "$SMOKE_DIR/board.dts" > "$SMOKE_DIR/local.out" 2> "$SMOKE_DIR/local.err"
"$LLHSC" client --addr "$ADDR" check "$SMOKE_DIR/board.dts" \
    > "$SMOKE_DIR/remote.out" 2> "$SMOKE_DIR/remote.err"
cmp "$SMOKE_DIR/local.out" "$SMOKE_DIR/remote.out"
cmp "$SMOKE_DIR/local.err" "$SMOKE_DIR/remote.err"

# Metrics smoke: the daemon served exactly one check above, and the
# Prometheus exposition must say so.
"$LLHSC" client --addr "$ADDR" metrics > "$SMOKE_DIR/metrics.prom"
grep -q '^llhsc_requests_total{op="check"} 1$' "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE llhsc_request_duration_us histogram$' "$SMOKE_DIR/metrics.prom"
grep -q '^llhsc_cache_misses_total{class="tree_check"} 1$' "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE llhsc_cache_evictions_total counter$' "$SMOKE_DIR/metrics.prom"

# CPU-address smoke: buses whose `ranges` translate, checked locally
# and through the same daemon. Two UARTs at bus-local 0 behind distinct
# windows are clean (exit 0); a UART that a window maps onto memory
# collides (exit 1); a device outside its bus's only window has no CPU
# address (exit 2); an I2C client's bus number behind a window that
# starts at child 0x7e000000 is an empty region that needs no window
# (exit 0). Both paths must agree byte for byte.
cat > "$SMOKE_DIR/xlat_fp.dts" <<'EOF'
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@80000000 { device_type = "memory"; reg = <0x80000000 0x10000000>; };
    soc0 {
        compatible = "simple-bus";
        #address-cells = <1>; #size-cells = <1>;
        ranges = <0x0 0x10000000 0x100000>;
        uart@0 { compatible = "ns16550a"; reg = <0x0 0x1000>; };
    };
    soc1 {
        compatible = "simple-bus";
        #address-cells = <1>; #size-cells = <1>;
        ranges = <0x0 0x20000000 0x100000>;
        uart@0 { compatible = "ns16550a"; reg = <0x0 0x1000>; };
    };
};
EOF
cat > "$SMOKE_DIR/xlat_fn.dts" <<'EOF'
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x10000000>; };
    soc {
        compatible = "simple-bus";
        #address-cells = <1>; #size-cells = <1>;
        ranges = <0x0 0x40000000 0x100000>;
        uart@0 { compatible = "ns16550a"; reg = <0x0 0x1000>; };
    };
};
EOF
cat > "$SMOKE_DIR/xlat_ghost.dts" <<'EOF'
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    soc {
        compatible = "simple-bus";
        #address-cells = <1>; #size-cells = <1>;
        ranges = <0x0 0xf0000000 0x1000>;
        ghost@8000 { reg = <0x8000 0x100>; };
    };
};
EOF
cat > "$SMOKE_DIR/xlat_i2c.dts" <<'EOF'
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    soc {
        compatible = "simple-bus";
        #address-cells = <1>; #size-cells = <1>;
        ranges = <0x7e000000 0x3f000000 0x1000000>;
        i2c@7e205000 {
            reg = <0x7e205000 0x200>;
            #address-cells = <1>; #size-cells = <0>;
            eeprom@50 { reg = <0x50>; };
        };
    };
};
EOF
for case in fp:0 fn:1 ghost:2 i2c:0; do
    board="$SMOKE_DIR/xlat_${case%:*}"
    LOCAL_RC=0
    "$LLHSC" check "$board.dts" > "$board.local.out" 2> "$board.local.err" || LOCAL_RC=$?
    REMOTE_RC=0
    "$LLHSC" client --addr "$ADDR" check "$board.dts" \
        > "$board.remote.out" 2> "$board.remote.err" || REMOTE_RC=$?
    test "$LOCAL_RC" -eq "${case#*:}"
    test "$REMOTE_RC" -eq "${case#*:}"
    cmp "$board.local.out" "$board.remote.out"
    cmp "$board.local.err" "$board.remote.err"
done
grep -q "address collision at 0x40000000" "$SMOKE_DIR/xlat_fn.local.err"
grep -q "outside every window of /soc's ranges" "$SMOKE_DIR/xlat_ghost.local.err"

# Framing smoke: every response leaves in one write on a TCP_NODELAY
# socket, so pings on one connection come back at once instead of each
# waiting ~40 ms on a delayed ACK; and every cache class in `stats`
# reports its evictions.
python3 - "$ADDR" <<'EOF'
import json, socket, statistics, sys, time

host, port = sys.argv[1].rsplit(":", 1)
conn = socket.create_connection((host, int(port)))
conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
responses = conn.makefile("rb")

def call(op):
    conn.sendall(json.dumps({"op": op}).encode() + b"\n")
    return json.loads(responses.readline())

rtts = []
for _ in range(50):
    started = time.perf_counter()
    assert call("ping")["ok"] is True
    rtts.append((time.perf_counter() - started) * 1000)
median = statistics.median(rtts)
assert median < 5, f"median ping round trip {median:.1f} ms"

cache = call("stats")["cache"]
for name, counters in cache.items():
    assert type(counters["evictions"]) is int, (name, counters)
print(f"framing ok: median ping {median:.2f} ms, {len(cache)} cache classes")
EOF

"$LLHSC" client --addr "$ADDR" shutdown
wait "$SERVE_PID"
grep -q "shut down cleanly" "$SMOKE_DIR/serve.log"

# Trace validation: a traced check must produce Chrome trace-event JSON
# with a complete (duration-bearing) span per stage, a check span that
# took time, and at least one counter-annotated solve span, and the
# report document's solver totals must equal the sum over its own solve
# spans.
"$LLHSC" check \
    --trace "$SMOKE_DIR/trace.json" --report-json "$SMOKE_DIR/report.json" \
    "$SMOKE_DIR/board.dts" > /dev/null
python3 - "$SMOKE_DIR/trace.json" "$SMOKE_DIR/report.json" <<'EOF'
import json, sys

events = json.load(open(sys.argv[1]))
spans = [e for e in events if e.get("ph") == "X"]
by_name = {}
for s in spans:
    by_name.setdefault(s["name"], []).append(s)
for stage in ("check", "syntactic", "semantic"):
    assert by_name.get(stage), f"missing complete {stage} span"
assert by_name["check"][0]["dur"] > 0, by_name["check"]
solves = by_name.get("solve", [])
assert solves, "no solve spans recorded"
for s in solves:
    assert "propagations" in s["args"], f"solve span without counters: {s}"

report = json.load(open(sys.argv[2]))
for key, total in report["solver"].items():
    summed = sum(s["counters"][key]
                 for s in report["spans"] if s["name"] == "solve")
    assert summed == total, f"{key}: span sum {summed} != total {total}"
print(f"trace ok: {len(spans)} spans, {len(solves)} solves")
EOF

# Proof certification smoke: a board with a genuine address collision
# must yield finding-exit 1 with a certified UNSAT verdict, write a
# DIMACS/DRAT pair for the semantic stage, and the in-tree backward
# checker must verify that refutation standalone — in both default
# (last-lemma) and --all modes (docs/SOLVER.md).
cat > "$SMOKE_DIR/collide.dts" <<'EOF'
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 { device_type = "memory"; reg = <0x0 0x40000000 0x0 0x20000000>; };
    uart@40000000 { compatible = "ns16550a"; reg = <0x0 0x40000000 0x0 0x1000>; };
};
EOF
PROOF_RC=0
"$LLHSC" check --proof "$SMOKE_DIR/proof" "$SMOKE_DIR/collide.dts" \
    > "$SMOKE_DIR/proof.out" || PROOF_RC=$?
test "$PROOF_RC" -eq 1
grep -q '^certified: 1 UNSAT verdict(s)' "$SMOKE_DIR/proof.out"
test -s "$SMOKE_DIR/proof.semantic.cnf"
test -s "$SMOKE_DIR/proof.semantic.drat"
"$LLHSC" drat "$SMOKE_DIR/proof.semantic.cnf" "$SMOKE_DIR/proof.semantic.drat"
"$LLHSC" drat --all "$SMOKE_DIR/proof.semantic.cnf" "$SMOKE_DIR/proof.semantic.drat"

# Bench smoke: the scale suite at a small board size must produce a
# well-formed BENCH_scale.json in which session reuse never performs
# more solver calls than the fresh-context baseline (pinned: 12 solves
# for 4 VMs at N=16) and strictly amortizes encoding and allocation.
# With --family it must also emit the family-checking scenarios, whose
# lifted solve count stays flat while the enumerated product count
# grows — the sublinear-scaling claim, gated on counters.
target/release/llhsc-bench scale --runs 1 --sizes 16 --family \
    --json "$SMOKE_DIR/scale.json" > /dev/null
python3 - "$SMOKE_DIR/scale.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc["schema_version"]
assert doc["suite"] == "scale", doc["suite"]
scenarios = [sc for sc in doc["scenarios"] if "features" not in sc]
families = [sc for sc in doc["scenarios"] if "features" in sc]
assert scenarios, "scale suite produced no device scenarios"
assert families, "scale --family produced no family scenarios"
for sc in scenarios:
    for mode in ("fresh", "session"):
        m = sc[mode]
        for key in ("solves", "terms_encoded", "terms_reused",
                    "asserts_encoded", "asserts_reused"):
            assert isinstance(m[key], int), (mode, key)
        for key in ("vars", "clauses", "arena_lits"):
            assert isinstance(m["alloc"][key], int), (mode, key)
    fresh, session = sc["fresh"], sc["session"]
    # Session reuse must not solve more than the fresh baseline, and at
    # N=16 x 4 VMs the whole suite is pinned to 12 solver calls.
    assert session["solves"] <= fresh["solves"], sc["name"]
    assert session["solves"] <= 12, (sc["name"], session["solves"])
    # The point of the shared context: strictly fewer bit-blasted terms
    # and strictly fewer SAT allocations than fresh contexts.
    assert session["terms_encoded"] < fresh["terms_encoded"], sc["name"]
    assert session["alloc"]["vars"] < fresh["alloc"]["vars"], sc["name"]
    assert session["alloc"]["arena_lits"] < fresh["alloc"]["arena_lits"], sc["name"]
    assert session["asserts_reused"] > 0, sc["name"]
for sc in families:
    fam, enum = sc["family"], sc["enumerate"]
    # One family-level query certifies the whole line: the lifted mode
    # derives no products, while the oracle walks every one of them.
    assert fam["family_solves"] == 1, sc["name"]
    assert fam["products_checked"] == 0, sc["name"]
    assert fam["witnesses_extracted"] == 0, sc["name"]
    assert enum["products_checked"] == sc["products"], sc["name"]
    assert fam["solves"] < enum["solves"], sc["name"]
# Flat, not just smaller: the lifted solver work must not grow with the
# product count (8 to 512 products across the default family sizes).
lifted_solves = {sc["family"]["solves"] for sc in families}
assert len(lifted_solves) == 1, lifted_solves
print(f"bench scale ok: {len(scenarios)} device + {len(families)} family scenario(s)")
EOF

# Family-mode smoke: lifting the quad-core product line through the CLI
# must agree with product-by-product enumeration — same clean verdict,
# same exit code — check zero products in lifted mode, and certify the
# clean verdict with a DRAT-checked proof under --certify.
mkdir -p "$SMOKE_DIR/quadcore"
cat > "$SMOKE_DIR/quadcore/core.dts" <<'EOF'
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@80000000 {
        device_type = "memory";
        reg = <0x80000000 0x40000000>;
    };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { compatible = "arm,cortex-a72"; device_type = "cpu";
                enable-method = "psci"; reg = <0x0>; };
        cpu@1 { compatible = "arm,cortex-a72"; device_type = "cpu";
                enable-method = "psci"; reg = <0x1>; };
        cpu@2 { compatible = "arm,cortex-a72"; device_type = "cpu";
                enable-method = "psci"; reg = <0x2>; };
        cpu@3 { compatible = "arm,cortex-a72"; device_type = "cpu";
                enable-method = "psci"; reg = <0x3>; };
    };
    uart@10000000 { compatible = "ns16550a"; reg = <0x10000000 0x1000>; };
    uart@10001000 { compatible = "ns16550a"; reg = <0x10001000 0x1000>; };
    uart@10002000 { compatible = "ns16550a"; reg = <0x10002000 0x1000>; };
    uart@10003000 { compatible = "ns16550a"; reg = <0x10003000 0x1000>; };
};
EOF
cat > "$SMOKE_DIR/quadcore/deltas.delta" <<'EOF'
delta drop_cpu0 when !cpu@0 { removes /cpus/cpu@0; }
delta drop_uart0 when !uart@10000000 { removes /uart@10000000; }
delta drop_cpu1 when !cpu@1 { removes /cpus/cpu@1; }
delta drop_uart1 when !uart@10001000 { removes /uart@10001000; }
delta drop_cpu2 when !cpu@2 { removes /cpus/cpu@2; }
delta drop_uart2 when !uart@10002000 { removes /uart@10002000; }
delta drop_cpu3 when !cpu@3 { removes /cpus/cpu@3; }
delta drop_uart3 when !uart@10003000 { removes /uart@10003000; }
EOF
cat > "$SMOKE_DIR/quadcore/model.fm" <<'EOF'
feature QuadSBC {
    memory
    cpus xor exclusive {
        cpu@0?
        cpu@1?
        cpu@2?
        cpu@3?
    }
    uarts abstract or {
        uart@10000000?
        uart@10001000?
        uart@10002000?
        uart@10003000?
    }
}
EOF
FAMILY_RC=0
"$LLHSC" build --family --stats --certify "$SMOKE_DIR/quadcore" \
    > "$SMOKE_DIR/family.out" || FAMILY_RC=$?
ENUM_RC=0
"$LLHSC" build --family-enumerate "$SMOKE_DIR/quadcore" \
    > "$SMOKE_DIR/family_enum.out" || ENUM_RC=$?
test "$FAMILY_RC" -eq "$ENUM_RC"
test "$FAMILY_RC" -eq 0
grep -q '^family check (lifted): 60 products, ' "$SMOKE_DIR/family.out"
grep -q '^family check (enumerated): 60 products, 0 family solves, 0 findings$' \
    "$SMOKE_DIR/family_enum.out"
grep -q '^  products checked:            0$' "$SMOKE_DIR/family.out"
grep -q '^certified: ' "$SMOKE_DIR/family.out"

# Analytics smoke: `llhsc count` must report the quad-core fixture's
# exact product count (60, pinned), `llhsc sample` must draw distinct
# well-formed configurations, daemon-served count/sample must be
# byte-identical to the local commands, and a warm repeat must be
# answered from the analytics cache with zero fresh solver calls
# (docs/ANALYTICS.md).
"$LLHSC" count --fixture quadcore > "$SMOKE_DIR/count.out"
grep -q '^count: 60 (exact; 2 components, 0 free variables, 19 enumerated)$' "$SMOKE_DIR/count.out"
# The benchmark's edit_loop model: an 8-CPU xor group and an 8-UART
# abstract or group under the asserted root. Fixing the root first
# splits the two groups, so 8 + 255 models are enumerated for the
# 8 × 255 products instead of all 2 040 in one component.
python3 - "$SMOKE_DIR/edit.fm" <<'EOF'
import sys

lines = ["feature edit {", "\tmemory", "\tcpus xor exclusive {"]
lines += [f"\t\tcpu@{i}?" for i in range(8)]
lines += ["\t}", "\tuarts abstract or {"]
lines += [f"\t\tuart@{0x10000000 + u * 0x1000:x}?" for u in range(8)]
lines += ["\t}", "}"]
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
EOF
"$LLHSC" count "$SMOKE_DIR/edit.fm" > "$SMOKE_DIR/edit_count.out"
grep -q '^count: 2040 (exact; 2 components, 0 free variables, 263 enumerated)$' \
    "$SMOKE_DIR/edit_count.out"
"$LLHSC" sample --fixture quadcore -k 50 --seed 7 --json > "$SMOKE_DIR/sample.json"
python3 - "$SMOKE_DIR/sample.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc["schema_version"]
assert doc["returned"] == 50, doc["returned"]
assert doc["min_hamming"] >= 1, doc["min_hamming"]
configs = [frozenset(c) for c in doc["configurations"]]
assert len(set(configs)) == 50, "sampled configurations must be distinct"
for c in configs:
    # Each draw is a well-formed quad-core product: mandatory memory,
    # exactly one CPU (xor group), at least one UART (or group).
    assert "memory" in c, c
    assert sum(1 for f in c if f.startswith("cpu@")) == 1, c
    assert any(f.startswith("uart@") for f in c), c
print(f"sample ok: 50 distinct products, min Hamming {doc['min_hamming']}")
EOF

"$LLHSC" serve --addr 127.0.0.1:0 > "$SMOKE_DIR/serve2.log" &
SERVE2_PID=$!
ADDR2=""
for _ in $(seq 1 100); do
    ADDR2=$(awk '/listening on/ { print $4; exit }' "$SMOKE_DIR/serve2.log")
    [ -n "$ADDR2" ] && break
    sleep 0.05
done
test -n "$ADDR2"

"$LLHSC" client --addr "$ADDR2" count --fixture quadcore > "$SMOKE_DIR/remote_count.out"
cmp "$SMOKE_DIR/count.out" "$SMOKE_DIR/remote_count.out"
"$LLHSC" client --addr "$ADDR2" count "$SMOKE_DIR/edit.fm" > "$SMOKE_DIR/remote_edit_count.out"
cmp "$SMOKE_DIR/edit_count.out" "$SMOKE_DIR/remote_edit_count.out"
"$LLHSC" sample --fixture quadcore -k 5 --seed 7 > "$SMOKE_DIR/local_sample.out"
"$LLHSC" client --addr "$ADDR2" sample --fixture quadcore -k 5 --seed 7 \
    > "$SMOKE_DIR/remote_sample.out"
cmp "$SMOKE_DIR/local_sample.out" "$SMOKE_DIR/remote_sample.out"

# Warm repeat: byte-identical again, served from the analytics cache,
# adding zero fresh solver calls to the daemon's lifetime totals.
"$LLHSC" client --addr "$ADDR2" stats --json > "$SMOKE_DIR/stats1.json"
"$LLHSC" client --addr "$ADDR2" count --fixture quadcore > "$SMOKE_DIR/repeat_count.out"
cmp "$SMOKE_DIR/count.out" "$SMOKE_DIR/repeat_count.out"
"$LLHSC" client --addr "$ADDR2" stats --json > "$SMOKE_DIR/stats2.json"
python3 - "$SMOKE_DIR/stats1.json" "$SMOKE_DIR/stats2.json" <<'EOF'
import json, sys

before = json.load(open(sys.argv[1]))
after = json.load(open(sys.argv[2]))
assert after["solver"]["solves"] == before["solver"]["solves"], \
    (before["solver"]["solves"], after["solver"]["solves"])
assert after["cache"]["analytics"]["hits"] == before["cache"]["analytics"]["hits"] + 1
print(f"warm count ok: {after['solver']['solves']} solves unchanged")
EOF
"$LLHSC" client --addr "$ADDR2" metrics > "$SMOKE_DIR/metrics2.prom"
grep -q '^llhsc_count_solves_total{op="count"}' "$SMOKE_DIR/metrics2.prom"
"$LLHSC" client --addr "$ADDR2" shutdown
wait "$SERVE2_PID"
SERVE2_PID=""

# Bench smoke: the count suite must produce a well-formed
# BENCH_count.json in which the quad-core exact count is 60, every
# approximation sits within its own (ε, δ) tolerance of the known true
# count, and sampling returns the requested draws.
target/release/llhsc-bench count --runs 1 --json "$SMOKE_DIR/count_bench.json" > /dev/null
python3 - "$SMOKE_DIR/count_bench.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc["schema_version"]
assert doc["suite"] == "count", doc["suite"]
by_name = {sc["name"]: sc["result"] for sc in doc["scenarios"]}
assert len(by_name) == 5, sorted(by_name)

exact = by_name["quadcore_count_exact"]
assert exact["models"] == 60 and exact["exact"] is True, exact

for name, truth in (("quadcore_count_approx", 60),
                    ("synth20_count_approx", 2**20 - 1)):
    a = by_name[name]
    eps = float(a["epsilon"])
    assert truth / (1 + eps) <= a["estimate"] <= truth * (1 + eps), (name, a)
assert by_name["synth20_count_approx"]["exact"] is False
assert by_name["synth20_count_approx"]["xor_constraints"] > 0

for name in ("quadcore_sample_k10", "synth20_sample_k10"):
    s = by_name[name]
    assert s["returned"] == 10 and s["min_hamming"] >= 1, (name, s)
print("bench count ok: 5 scenario(s)")
EOF

# Flight-recorder smoke: a daemon with the slow threshold at zero must
# auto-capture every request — one Chrome-trace dump per request, a warn
# line naming the trace_id, a histogram exemplar carrying it, and a
# flightdump ring entry flagged slow (docs/OBSERVABILITY.md).
mkdir -p "$SMOKE_DIR/slow"
"$LLHSC" serve --addr 127.0.0.1:0 --slow-threshold-us 0 \
    --slow-trace-dir "$SMOKE_DIR/slow" --flight-capacity 16 \
    > "$SMOKE_DIR/serve3.log" 2> "$SMOKE_DIR/serve3.err" &
SERVE3_PID=$!
ADDR3=""
for _ in $(seq 1 100); do
    ADDR3=$(awk '/listening on/ { print $4; exit }' "$SMOKE_DIR/serve3.log")
    [ -n "$ADDR3" ] && break
    sleep 0.05
done
test -n "$ADDR3"

"$LLHSC" client --addr "$ADDR3" check "$SMOKE_DIR/board.dts" > /dev/null
"$LLHSC" client --addr "$ADDR3" metrics > "$SMOKE_DIR/metrics3.prom"
"$LLHSC" client --addr "$ADDR3" flightdump --json > "$SMOKE_DIR/flight.json"
python3 - "$SMOKE_DIR" <<'EOF'
import json, re, sys
d = sys.argv[1]

# The check's warn line names the trace_id and the dump path.
warns = [l for l in open(f"{d}/serve3.err")
         if "slow request" in l and " check " in l]
assert len(warns) == 1, warns
m = re.search(r"([0-9a-f]{8}-[0-9a-f]{6}) check slow request: "
              r"\d+us >= 0us, trace dumped to (\S+)", warns[0])
assert m, warns[0]
trace_id, path = m.group(1), m.group(2)

# The dump is a well-formed Chrome trace with a check span that took
# time.
events = json.load(open(path))
spans = [e for e in events if e.get("ph") == "X"]
assert any(s["name"] == "check" and s["dur"] > 0 for s in spans), spans

# The p99 story: the same trace_id rides the latency histogram as an
# exemplar, linking the slow bucket to this capture.
prom = open(f"{d}/metrics3.prom").read()
assert f'trace_id="{trace_id}"' in prom, trace_id

# And the flight ring remembers the request, flagged slow.
flight = json.load(open(f"{d}/flight.json"))
records = [r for r in flight["records"] if r["trace_id"] == trace_id]
assert records and records[0]["slow"] and records[0]["op"] == "check", flight
print(f"flight ok: trace {trace_id} dumped, exemplared and ringed")
EOF

"$LLHSC" client --addr "$ADDR3" shutdown
wait "$SERVE3_PID"
SERVE3_PID=""

# Scaling smoke: checking a board declared in a root body takes time
# linear in its size (top-level `&label` overlays are not covered). Boards
# of 1 500 and 6 000 devices under the root node, one line per device as
# the benchmark's board_check workload writes them, are each checked
# three times. Every run must exit 0 and end `: ok`, and the median time
# of the larger board must stay under 8 times that of the smaller: 4
# times the devices, where a pass quadratic in the board reads about 16.
# The 6 000-device board is also written as a main file whose root body
# `/include/`s a .dtsi holding the devices: checking it must print exactly
# what the single file prints, under the same 8x bound. Its blob must
# round-trip at that scale: `llhsc dts` of it checks as the source does,
# and `llhsc dtb` of that text writes the blob again, byte for byte.
python3 - "$LLHSC" "$SMOKE_DIR" <<'EOF'
import statistics, subprocess, sys, time

llhsc, d = sys.argv[1], sys.argv[2]

def write(name, lines):
    path = f"{d}/{name}"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path

def board(n):
    head = [
        "/dts-v1/;", "/ {", "\t#address-cells = <1>;", "\t#size-cells = <1>;",
        "\tmemory@80000000 { device_type = \"memory\"; reg = <0x80000000 0x40000000>; };",
        "\tcpus {", "\t\t#address-cells = <1>;", "\t\t#size-cells = <0>;",
    ]
    for cpu in range(2):
        head.append(f"\t\tcpu@{cpu} {{ compatible = \"arm,cortex-a53\"; device_type = \"cpu\"; "
                    f"enable-method = \"psci\"; reg = <{cpu:#x}>; }};")
    head.append("\t};")
    devices = []
    for i in range(n):
        kind = ("dev", "timer", "gpio", "dma")[i % 4]
        base = 0x10000000 + 2 * i * 0x1000
        devices.append(f"\t{kind}{i}@{base:x} {{ compatible = \"acme,{kind}\"; "
                       f"reg = <{base:#x} 0x1000>; interrupts = <{32 + i}>; }};")
    single = write(f"scale{n}.dts", head + devices + ["};"])
    write(f"scale{n}-devices.dtsi", devices)
    split = write(f"scale{n}-include.dts",
                  head + [f"\t/include/ \"scale{n}-devices.dtsi\"", "};"])
    return single, split

def timed(path):
    times, outputs = [], set()
    for _ in range(3):
        started = time.perf_counter()
        run = subprocess.run([llhsc, "check", path], capture_output=True, text=True)
        times.append(time.perf_counter() - started)
        assert run.returncode == 0, (path, run.returncode, run.stderr)
        assert run.stdout.rstrip().endswith(": ok"), (path, run.stdout)
        outputs.add((run.stdout, run.stderr))
    assert len(outputs) == 1, (path, outputs)
    return statistics.median(times) * 1000, outputs.pop()

medians = {}
small, _ = board(1500)
medians[1500], _ = timed(small)
single, split = board(6000)
medians[6000], single_out = timed(single)
medians["include"], split_out = timed(split)
assert split_out == single_out, (split_out, single_out)
for key in (6000, "include"):
    ratio = medians[key] / medians[1500]
    assert ratio < 8, f"{key} check {ratio:.1f}x the 1500-device one: {medians}"

blob, text, again = f"{d}/scale6000.dtb", f"{d}/scale6000-dtb.dts", f"{d}/scale6000-again.dtb"
subprocess.run([llhsc, "dtb", single, blob], check=True, capture_output=True)
with open(text, "w") as f:
    subprocess.run([llhsc, "dts", blob], check=True, stdout=f)
run = subprocess.run([llhsc, "check", text], capture_output=True, text=True)
assert (run.returncode, run.stdout, run.stderr) == (0, *single_out), (run, single_out)
subprocess.run([llhsc, "dtb", text, again], check=True, capture_output=True)
with open(blob, "rb") as f:
    first = f.read()
with open(again, "rb") as f:
    assert f.read() == first, "the blob changed on a round trip"
print(f"scaling ok: {medians[1500]:.1f} ms at 1500 devices, "
      f"{medians[6000]:.1f} ms at 6000 ({medians[6000] / medians[1500]:.1f}x), "
      f"{medians['include']:.1f} ms through /include/ "
      f"({medians['include'] / medians[1500]:.1f}x); "
      f"its {len(first)}-byte blob round-trips")
EOF

# Overlap-scaling smoke: each address collision costs one pair-local
# solver refutation, so the semantic solver work is linear in the number
# of overlapping pairs. Two 256-device boards with 24 and 96 two-region
# chains must both exit 1 with one SAT solve per encoded pair, and 4
# times the pairs may cost at most 5 times the semantic propagations
# (about 4 is normal; re-propagating every region and pair on each
# solve reads about 16). The encoding size is pinned too: the 96-pair
# board may emit at most 1 600 problem clauses per encoded pair (a
# majority-gate comparator with constant-folding gates reads 1 433; the
# comparator without folding reads about 1 950, the and/iff/and/or
# comparator about 3 300).
python3 - "$LLHSC" "$SMOKE_DIR" <<'EOF'
import re, subprocess, sys

llhsc, d = sys.argv[1], sys.argv[2]

def board(pairs):
    lines = ["/dts-v1/;", "/ {", "\t#address-cells = <2>;", "\t#size-cells = <2>;"]
    for i in range(256):
        base = 0x10000000 + i * 0x10000
        if i % 2 == 1 and i < 2 * pairs:
            base -= 0x10000 - 0x800
        lines.append(f"\tdev{i}@{base:x} {{ reg = <0x0 {base:#x} 0x0 0x1000>; }};")
    lines.append("};")
    path = f"{d}/overlap{pairs}.dts"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path

propagations, clauses = {}, {}
for pairs in (24, 96):
    run = subprocess.run([llhsc, "check", "--stats", board(pairs)],
                         capture_output=True, text=True)
    assert run.returncode == 1, (pairs, run.returncode, run.stderr[-500:])
    block = run.stdout.split("semantic checker:\n", 1)[1].split("solver totals", 1)[0]
    stats = {k: int(v) for k, v in re.findall(r"^  (\S.*?)\s+(\d+)$", block, re.M)}
    assert stats["pairs encoded"] == pairs, (pairs, stats)
    assert stats["SAT solve calls"] == stats["pairs encoded"], (pairs, stats)
    propagations[pairs] = stats["propagations"]
    clauses[pairs] = stats["problem clauses"]
ratio = propagations[96] / propagations[24]
assert ratio <= 5, f"96 pairs propagate {ratio:.1f}x 24 pairs: {propagations}"
per_pair = clauses[96] / 96
assert per_pair <= 1600, f"96 pairs emit {per_pair:.0f} problem clauses per pair: {clauses}"
print(f"overlap scaling ok: one solve per pair, {ratio:.1f}x the propagations "
      f"for 4x the pairs, {per_pair:.0f} problem clauses per pair")
EOF

# Pigeonhole smoke: one VM more than there are exclusive CPUs is the
# pigeonhole formula, which CDCL alone refutes only in time exponential
# in the CPU count. The allocation checker orders interchangeable VMs
# lexicographically, so each run below must finish within 10 s (the
# unbroken encoding needs minutes for the first two): `llhsc model` on
# 15 exclusive CPUs prints 15, 13 VMs on 12 CPUs are rejected with
# `error[allocation]`, and 12 VMs on 12 CPUs are accepted, one distinct
# CPU per VM across out/vm*.dts. Under `--certify` the probe runs
# unbroken, so CDCL search alone must reject 8 VMs on 7 CPUs (about 2 s).
python3 - "$LLHSC" "$SMOKE_DIR" <<'EOF'
import glob, os, re, subprocess, sys

# Absolute, because the builds below run inside their project directory.
llhsc, d = os.path.abspath(sys.argv[1]), sys.argv[2]

def model(cpus):
    return ("feature P {\n\tmemory\n\tcpus xor exclusive {\n"
            + "".join(f"\t\tcpu@{i}?\n" for i in range(cpus)) + "\t}\n}\n")

def project(cpus, vms):
    path = f"{d}/pigeon{cpus}_{vms}"
    os.makedirs(path)
    core = ["/dts-v1/;", "/ {", "\t#address-cells = <1>;", "\t#size-cells = <1>;",
            "\tmemory@80000000 { device_type = \"memory\"; reg = <0x80000000 0x40000000>; };",
            "\tcpus {", "\t\t#address-cells = <1>;", "\t\t#size-cells = <0>;"]
    deltas = []
    for i in range(cpus):
        core.append(f"\t\tcpu@{i} {{ compatible = \"arm,cortex-a53\"; device_type = \"cpu\"; "
                    f"enable-method = \"psci\"; reg = <{i:#x}>; }};")
        deltas.append(f"delta drop_cpu{i} when !cpu@{i} {{ removes /cpus/cpu@{i}; }}")
    core += ["\t};", "};"]
    files = {"core.dts": core, "deltas.delta": deltas, "model.fm": [model(cpus)],
             "vms.cfg": [f"vm{k + 1}: memory" for k in range(vms)]}
    for name, lines in files.items():
        with open(f"{path}/{name}", "w") as f:
            f.write("\n".join(lines) + "\n")
    return path

def run(args, cwd=None):
    return subprocess.run([llhsc] + args, cwd=cwd, capture_output=True, text=True, timeout=10)

with open(f"{d}/pigeon15.fm", "w") as f:
    f.write(model(15))
out = run(["model", f"{d}/pigeon15.fm"])
assert out.returncode == 0, (out.returncode, out.stderr)
assert "maximum VMs under exclusive-resource partitioning: 15\n" in out.stdout, out.stdout

for cpus, vms, flags in [(12, 13, []), (7, 8, ["--certify"])]:
    rejected = run(["build", *flags, "."], cwd=project(cpus, vms))
    assert rejected.returncode == 1, (rejected.returncode, rejected.stdout, rejected.stderr)
    assert "error[allocation]" in rejected.stdout + rejected.stderr, rejected

accepted_dir = project(12, 12)
accepted = run(["build", "."], cwd=accepted_dir)
assert accepted.returncode == 0, (accepted.returncode, accepted.stdout, accepted.stderr)
cpus = []
for path in glob.glob(f"{accepted_dir}/out/vm*.dts"):
    cpus += re.findall(r"\bcpu@[0-9a-f]+\b", open(path).read())
assert len(cpus) == 12 and len(set(cpus)) == 12, sorted(cpus)
print("pigeonhole ok: 15 CPUs hold 15 VMs, 13 on 12 rejected, "
      "8 on 7 rejected under --certify, 12 on 12 placed")
EOF

# Progress determinism: two `--progress` runs of the same input must
# emit the same stderr once each heartbeat's `(N/s)` rate is removed
# (the heartbeat cadence is conflict-count based, only the rate reads
# the clock).
for run in 1 2; do
    "$LLHSC" check --progress "$SMOKE_DIR/board.dts" \
        > /dev/null 2> "$SMOKE_DIR/progress$run.raw"
    sed 's/ ([0-9-]*\/s)//' "$SMOKE_DIR/progress$run.raw" \
        > "$SMOKE_DIR/progress$run.err"
done
cmp "$SMOKE_DIR/progress1.err" "$SMOKE_DIR/progress2.err"

# Bench regression gate: re-running every committed baseline's suite
# must reproduce its counters exactly (wall times are gated on the
# capture machine only, so --skip-wall here), twice back to back; a
# fresh same-machine baseline must also pass with the wall gate on; and
# a seeded counter perturbation must make the gate fail.
BENCH=target/release/llhsc-bench
"$BENCH" compare --runs 1 --skip-wall \
    BENCH_pipeline.json BENCH_scale.json BENCH_count.json
"$BENCH" compare --runs 1 --skip-wall \
    BENCH_pipeline.json BENCH_scale.json BENCH_count.json
"$BENCH" --runs 3 --json "$SMOKE_DIR/fresh_pipeline.json" > /dev/null
"$BENCH" compare --runs 3 "$SMOKE_DIR/fresh_pipeline.json"
python3 - "$SMOKE_DIR" <<'EOF'
import json, sys
d = sys.argv[1]
doc = json.load(open("BENCH_pipeline.json"))
doc["scenarios"][0]["solver"]["solves"] += 1
json.dump(doc, open(f"{d}/perturbed.json", "w"))
print("perturbed one solver counter")
EOF
PERTURB_RC=0
"$BENCH" compare --runs 1 --skip-wall "$SMOKE_DIR/perturbed.json" \
    > "$SMOKE_DIR/perturbed.out" || PERTURB_RC=$?
test "$PERTURB_RC" -ne 0
grep -q 'REGRESSION' "$SMOKE_DIR/perturbed.out"
