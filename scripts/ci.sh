#!/usr/bin/env bash
# The CI gate, runnable locally: tier-1 verify, formatting, lints, the
# workspace's tests, then the smoke sweeps.
#
#   scripts/ci.sh
#
# Every registry name in the workspace resolves to a path crate (the
# root manifest's [patch.crates-io] table plus the committed Cargo.lock;
# see "Offline builds" in README.md), so nothing here needs a registry,
# a warm cargo cache or a flag.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo; echo "==> $*"; }

step "tier-1 verify (ROADMAP.md)"
cargo build --release && cargo test -q

step "cargo fmt --check"
cargo fmt --all -- --check

step "one send path (acme-distsys rules, meters and traces a send in one place)"
# Outside tests and comments, crates/distsys/src calls FaultState::on_send,
# Ledger::record and Ledger::record_retransmission once each (all three
# in network::route) and spells each "net.*" name once, so a new sink
# delivers what route decided instead of growing its own copy of it.
code_of() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$f"
    done
}
distsys_code() { code_of crates/distsys/src/*.rs; }
for call in '.on_send(' '.record(' '.record_retransmission('; do
    n="$(distsys_code | grep -cF -- "$call" || true)"
    if [ "$n" -ne 1 ]; then
        echo "ci.sh: expected one call of $call in crates/distsys/src, found $n" >&2
        exit 1
    fi
done
repeated="$(distsys_code | grep -oE '"net\.[a-z_]+"' | sort | uniq -d || true)"
if [ -n "$repeated" ]; then
    echo "ci.sh: net.* name spelled more than once:" $repeated >&2
    exit 1
fi

step "one node hasher (the simulator's node tables hash with fault::NodeHasher)"
# Outside tests and comments, crates/distsys/src/{driver,node,fault}.rs
# name HashMap / HashSet only in fault.rs's NodeMap / NodeSet alias
# definitions, so a SipHash table cannot creep back onto the
# simulator's per-event path.
aliases='^pub\(crate\) type Node(Map|Set)<'
hashed="$(code_of crates/distsys/src/{driver,node,fault}.rs | grep -E '\bHash(Map|Set)\b' || true)"
offenders="$(grep -vE "$aliases" <<<"$hashed" || true)"
if [ -n "$offenders" ] || [ "$(grep -cE "$aliases" <<<"$hashed" || true)" -ne 2 ]; then
    echo "ci.sh: the sim's tables name HashMap/HashSet outside the NodeMap/NodeSet aliases:" >&2
    printf '%s\n' "$offenders" >&2
    exit 1
fi

step "one teacher pass (Phase 1 runs the distillation teacher once, not per candidate)"
# Outside tests and comments, crates/core/src/phase1.rs never calls
# distill( — candidates call distill_from on targets computed once
# before the fan-out — and crates/vit/src/distill.rs runs teacher.forward(
# or teacher.embed( only inside TeacherTargets::compute.
offenders="$(
    code_of crates/core/src/phase1.rs | grep -E '\bdistill\(' || true
    code_of crates/vit/src/distill.rs | awk '
        /fn compute\(/ { inside = 1 }
        inside && /^    }$/ { inside = 0; next }
        !inside && /teacher\.(forward|embed)\(/ { print }'
)"
if [ -n "$offenders" ]; then
    echo "ci.sh: the teacher runs outside TeacherTargets::compute:" >&2
    printf '%s\n' "$offenders" >&2
    exit 1
fi

step "one frozen-backbone pass (header refits run the backbone once per example)"
# Outside tests and comments, crates/core/src/{refine,recustomize}.rs build
# no HeadedVit and call no backbone.forward( — the frozen backbone runs
# once per example inside FrozenFeatures::compute, and every refit,
# evaluation and importance score reads the cached features.
offenders="$(
    code_of crates/core/src/{refine,recustomize}.rs | grep -E 'HeadedVit|backbone\.forward\(' || true
)"
if [ -n "$offenders" ]; then
    echo "ci.sh: a header refit runs the frozen backbone per step:" >&2
    printf '%s\n' "$offenders" >&2
    exit 1
fi

step "one fork (threads start in acme-runtime's par_map and in the threaded driver)"
# Outside tests and comments, crates/*/src (crates/bench aside) names
# thread::scope / thread::spawn / thread::Builder twice: Pool::par_map's
# workers and ThreadedDriver's node pumps. Every other fan-out goes
# through par_map and so stays inside the one thread budget.
forks=""
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort); do
    n="$(code_of "$f" | grep -cE 'thread::(scope|spawn|Builder)' || true)"
    [ "$n" -eq 0 ] || forks="$forks $f:$n"
done
if [ "$forks" != " crates/distsys/src/driver.rs:1 crates/runtime/src/lib.rs:1" ]; then
    echo "ci.sh: threads are started outside par_map and the threaded driver:$forks" >&2
    exit 1
fi

step "one build (acme-obs is always compiled in; set_enabled is its only switch)"
# No crate compiles its recording out: no obs/enabled cargo feature, no
# cfg on one, no compiled() test, so what cargo test checks is what the
# benchmark measures.
gated="$(grep -rnE 'cfg\(feature = "(obs|enabled)"\)|acme_obs::compiled|\bcompiled\(\)' \
    crates tests examples --include='*.rs' || true)"
features="$(git ls-files '*Cargo.toml' | xargs awk '
    /^\[/ { in_features = ($0 == "[features]") }
    in_features && /^(obs|enabled)[[:space:]]*=/ { print FILENAME ": " $0 }')"
if [ -n "$gated$features" ]; then
    echo "ci.sh: observability is gated at build time:" >&2
    printf '%s\n' "$gated" "$features" | sed '/^$/d' >&2
    exit 1
fi

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --workspace --release

step "cargo test (release)"
cargo test --workspace --release -q

step "hermetic benchmark smoke (benchmarks/ builds --offline --locked from its own lock file)"
# ACMR resume == straight run; ACME/ACMD/ACMS persist -> lazy restore ->
# bitwise serving. A failed check exits non-zero; so does a crates/
# change that the benchmark's lock file no longer resolves.
bash benchmarks/run.sh --workload fleet_sim --seed 1 --seconds 1 --trace 0
bash benchmarks/run.sh --workload serve_churn --seed 1 --seconds 1 --trace 0

step "fleet-scale smoke (10k-device sim under a wall-clock ceiling)"
# Full protocol over 10k devices / 100 edges with 1% seeded loss on the
# virtual clock; the bin asserts a wall-clock ceiling so a complexity
# regression in the event queue fails CI. Writes to a scratch path to
# leave the committed full-sweep BENCH_fleet_scale.json alone.
FLEET_SMOKE_OUT="$(mktemp -t acme-fleet-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin fleet_scale -- \
    --smoke --out "$FLEET_SMOKE_OUT"
rm -f "$FLEET_SMOKE_OUT"

step "serving smoke (batched + quantized sweep under a wall-clock ceiling)"
# One fleet, baseline + one batched setting over the variant store —
# both the f32 batching axis and the f32-vs-int8 precision axis; the
# bin asserts a wall-clock ceiling and sanity-checks its own rows.
# Writes to a scratch path to leave the committed full-sweep
# BENCH_serving.json alone, then validates the JSON shape here.
SERVE_SMOKE_OUT="$(mktemp -t acme-serve-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin serving -- \
    --smoke --out "$SERVE_SMOKE_OUT"
python3 - "$SERVE_SMOKE_OUT" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))
assert rows, "serving sweep emitted no rows"
keys = {"bench", "fleet_devices", "clusters", "workers", "max_batch",
        "batch_window_us", "precision", "requests", "elapsed_s",
        "throughput_rps", "p50_ms", "p99_ms", "mean_batch", "occupancy",
        "early_exit_frac", "speedup_vs_unbatched", "mean_quant_error",
        "speedup_vs_f32"}
for r in rows:
    assert set(r) == keys, f"row keys drifted: {sorted(set(r) ^ keys)}"
    assert r["bench"] == "serving"
    assert r["precision"] in ("f32", "int8")
    assert r["throughput_rps"] > 0 and r["p99_ms"] >= r["p50_ms"] > 0
    assert 0 < r["occupancy"] <= 1 and 0 <= r["early_exit_frac"] <= 1
base = [r for r in rows if r["max_batch"] == 1]
batched = [r for r in rows if r["max_batch"] > 1]
assert base and batched, "need a baseline row and a batched row"
assert all(r["speedup_vs_unbatched"] > 1 for r in batched), \
    "batched serving did not beat the unbatched baseline"
int8 = [r for r in rows if r["precision"] == "int8"]
assert int8, "precision sweep lost its int8 rows"
assert all(r["mean_quant_error"] > 0 for r in int8), \
    "int8 rows did not record a quantization error"
assert all(r["speedup_vs_f32"] > 1 for r in int8 if r["max_batch"] > 1), \
    "batched int8 serving did not beat the matched f32 rows"
assert all(r["mean_quant_error"] == 0 and r["speedup_vs_f32"] == 1
           for r in rows if r["precision"] == "f32"), \
    "f32 rows must carry neutral precision-axis fields"
print(f"serving OK: {len(rows)} rows, "
      f"max speedup {max(r['speedup_vs_unbatched'] for r in batched):.2f}x, "
      f"int8 vs f32 {max(r['speedup_vs_f32'] for r in int8):.2f}x")
PY
rm -f "$SERVE_SMOKE_OUT"

step "model-store smoke (persist/restore footprint under a wall-clock ceiling)"
# Persist one fleet into the content-addressed store, restore it, and
# verify the bitwise round-trip plus the committed >= 10x saving over
# naive per-device checkpoints. Writes to a scratch path to leave the
# committed full-sweep BENCH_store.json alone, then validates the JSON
# shape here.
STORE_SMOKE_OUT="$(mktemp -t acme-store-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin store -- \
    --smoke --out "$STORE_SMOKE_OUT"
python3 - "$STORE_SMOKE_OUT" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))
assert rows, "store sweep emitted no rows"
keys = {"bench", "fleet_devices", "clusters", "backbone_params",
        "backbone_blob_bytes", "mean_delta_bytes", "manifest_bytes",
        "store_bytes", "naive_bytes", "ratio", "persist_s", "restore_s",
        "bitwise_identical"}
for r in rows:
    assert set(r) == keys, f"row keys drifted: {sorted(set(r) ^ keys)}"
    assert r["bench"] == "store"
    assert r["bitwise_identical"] is True, "restored fleet drifted bitwise"
    assert r["store_bytes"] < r["naive_bytes"]
    assert r["ratio"] >= 10, \
        f"store is only {r['ratio']:.1f}x smaller than naive (need >= 10x)"
    assert r["mean_delta_bytes"] * 10 < r["backbone_blob_bytes"], \
        "per-device deltas are not small against the backbone"
print(f"store OK: {len(rows)} rows, "
      f"best saving {max(r['ratio'] for r in rows):.1f}x over naive")
PY
rm -f "$STORE_SMOKE_OUT"

step "drift smoke (online re-customization under a wall-clock ceiling)"
# One strong-drift fleet through the full online loop: per-window drift
# statistics, sliding-window detection, header-only refit against the
# frozen backbone, and a structural delta shipped over the metered
# network. The bin asserts detection by a majority of the fleet (the
# detector's recall at this magnitude is 72 % of device-streams, gated
# as a rate in crates/core/src/recustomize.rs), deltas <= 25% of a
# cold-start redeploy, and accuracy recovery of the devices that
# re-customized. Writes to a scratch path
# to leave the committed full-sweep BENCH_drift.json alone, then
# validates the JSON shape here.
DRIFT_SMOKE_OUT="$(mktemp -t acme-drift-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin drift -- \
    --smoke --out "$DRIFT_SMOKE_OUT"
python3 - "$DRIFT_SMOKE_OUT" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))
assert rows, "drift sweep emitted no rows"
keys = {"bench", "magnitude", "fleet_devices", "windows", "onset",
        "drifted_devices", "mean_detection_latency", "total_delta_bytes",
        "total_cold_start_bytes", "transfer_ratio",
        "mean_accuracy_before", "mean_accuracy_at_detection",
        "mean_accuracy_final", "recustomized_accuracy_before",
        "recustomized_accuracy_final", "ledger_bytes", "wall_s"}
for r in rows:
    assert set(r) == keys, f"row keys drifted: {sorted(set(r) ^ keys)}"
    assert r["bench"] == "drift"
    assert 0 <= r["drifted_devices"] <= r["fleet_devices"]
strong = [r for r in rows if r["magnitude"] >= 0.9]
assert strong, "smoke grid lost its strong-drift row"
for r in strong:
    assert 2 * r["drifted_devices"] > r["fleet_devices"], \
        "strong drift was not detected by a majority of the fleet"
    assert r["mean_detection_latency"] is not None
    assert 0 < r["total_delta_bytes"] < r["total_cold_start_bytes"]
    assert r["transfer_ratio"] <= 0.25, \
        f"re-customization cost {100 * r['transfer_ratio']:.1f}% of cold start"
    assert r["recustomized_accuracy_final"] > r["mean_accuracy_at_detection"], \
        "adaptation did not improve on the stale header"
    # Ledger = delta payloads + the 16-byte routing header per message.
    assert r["ledger_bytes"] == r["total_delta_bytes"] + 16 * r["drifted_devices"]
print(f"drift OK: {len(rows)} rows, "
      f"transfer ratio {min(r['transfer_ratio'] for r in strong):.3f}, "
      f"recovery {max(r['recustomized_accuracy_final'] for r in strong):.3f}")
PY
rm -f "$DRIFT_SMOKE_OUT"

step "observability smoke (fault-injected trace -> acme-obs-trace-v1)"
# Run the fault-injected example with tracing on and validate the
# exported document: per-round protocol spans, at least one retry and
# one device-drop event, and the registry counters the ad-hoc meters
# migrated into (pool misses, pack-cache packs, retransmissions).
TRACE_OUT="$(mktemp -t acme-obs-trace.XXXXXX.json)"
cargo run --release --example edge_deployment -- \
    --quick --trace-out "$TRACE_OUT"
python3 - "$TRACE_OUT" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "acme-obs-trace-v1", "schema marker"
assert doc["dropped_events"] == 0, "trace ring overflowed"
names = [s["name"] for s in doc["spans"]]
assert "protocol.round" in names, "per-round protocol spans missing"
assert "protocol.retry" in names, "no retry event recorded"
assert "protocol.device_drop" in names, "no device-drop event recorded"
counters = doc["metrics"]["counters"]
for key in ("net.retransmissions", "net.retransmitted_bytes",
            "tensor.pool.misses", "tensor.packcache.packs"):
    assert key in counters, f"missing counter {key}"
print(f"trace OK: {len(names)} spans, {len(counters)} counters")
PY
rm -f "$TRACE_OUT"

step "kernel sweep smoke (quick GEMM sweep, f32 and int8)"
# Both sweep smokes write to a scratch path to leave the committed
# full-sweep BENCH_kernels.json / BENCH_training_step.json alone.
KERNELS_SMOKE_OUT="$(mktemp -t acme-kernels-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin kernels -- \
    --quick --out "$KERNELS_SMOKE_OUT"
rm -f "$KERNELS_SMOKE_OUT"

step "training-step sweep smoke (quick)"
# Panics (and fails CI) unless the pooled engine step is bit-identical
# to the pre-pool replica at every thread count.
TRAINSTEP_SMOKE_OUT="$(mktemp -t acme-trainstep-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin training_step -- \
    --quick --out "$TRAINSTEP_SMOKE_OUT"
rm -f "$TRAINSTEP_SMOKE_OUT"

echo
echo "CI checks passed."
