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

step "one net.* name (network::route traces a send; each event name is spelled once)"
# Outside tests and comments, crates/distsys/src spells each "net.*" name
# once, so a new sink delivers what route traced instead of a copy of it.
code_of() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$f"
    done
}
repeated="$(code_of crates/distsys/src/*.rs | grep -oE '"net\.[a-z_]+"' | sort | uniq -d || true)"
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
# Outside tests and comments, crates/vit/src/distill.rs runs
# teacher.forward( or teacher.embed( only inside TeacherTargets::compute.
# (Teacher and student are both a Vit, so the rule is about a name.)
offenders="$(
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

step "one attention kernel (multi-head attention is one Graph::attention node)"
# Outside tests and comments, crates/nn/src/attention.rs calls no
# softmax_last(, batch_matmul( or permute(: every attention path (plain,
# head-masked, importance) runs the fused op, and the unfused graph lives
# on only as the oracle in crates/tensor/tests/attention_props.rs.
offenders="$(
    code_of crates/nn/src/attention.rs | grep -E '\b(softmax_last|batch_matmul|permute)\(' || true
)"
if [ -n "$offenders" ]; then
    echo "ci.sh: attention is spelled as an unfused graph again:" >&2
    printf '%s\n' "$offenders" >&2
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

step "one switch (acme_obs::trace::set_enabled is the workspace's only on/off switch)"
# Outside comments, no file of crates/*/src but those of crates/obs/src
# defines a pub fn set_enabled. A second process-wide switch keeps a
# replaced path reachable, and doubles the configurations the tests and
# the benchmark would have to cover.
switches="$(
    for f in $(find crates/*/src -name '*.rs' -not -path 'crates/obs/src/*' | sort); do
        awk -v f="$f" '{ sub(/\/\/.*/, ""); print f ": " $0 }' "$f" |
            grep -E '\bpub fn set_enabled\b' || true
    done
)"
if [ -n "$switches" ]; then
    echo "ci.sh: a pub fn set_enabled outside crates/obs/src:" >&2
    printf '%s\n' "$switches" >&2
    exit 1
fi

step "no orphan pub item (every pub item of crates/*/src has a non-test use)"
# The compiler audit; its docstring states the rule and holds the one
# allow-list. Pub items of private modules are clippy's unreachable_pub.
python3 scripts/pub_audit.py

step "the protocol carries sizes (acme-distsys holds no tensor data)"
# Outside tests and comments, crates/distsys/src names no f32 and no
# serde: a message body is its kind, its round and its sizes (importance
# sets are lengths, weights parameter or byte counts), so no node, queue
# or ledger of the simulator holds stand-in tensor data, and nothing
# derives a serializer the tree does not have.
offenders="$(
    for f in crates/distsys/src/*.rs; do
        code_of "$f" | grep -E '\bf32\b|\bserde\b' | sed "s|^|$f: |" || true
    done
)"
if [ -n "$offenders" ]; then
    echo "ci.sh: the protocol layer names f32 or serde again:" >&2
    printf '%s\n' "$offenders" >&2
    exit 1
fi

step "one sub-network cut (Phase 1 cuts each candidate from the teacher in one copy)"
# Outside tests and comments, crates/vit/src/prune.rs builds one model
# skeleton (Vit::new( once, in sub_network): δ(θ₀, w, d) cuts width and
# depth in one copy, so a new parameter layout changes one function's
# index lists. And crates/nn/src names no Option<&[f32]> mask parameter:
# a layer is masked only through a graph variable, the path
# score_importance differentiates, so there is no second masked forward.
skeletons="$(code_of crates/vit/src/prune.rs | grep -cF 'Vit::new(' || true)"
const_masks="$(
    for f in crates/nn/src/*.rs; do
        code_of "$f" | grep -F 'Option<&[f32]>' | sed "s|^|$f: |" || true
    done
)"
if [ "$skeletons" -ne 1 ] || [ -n "$const_masks" ]; then
    echo "ci.sh: expected one Vit::new( in crates/vit/src/prune.rs (found $skeletons)" \
        "and no constant-mask parameter in crates/nn/src:" >&2
    printf '%s\n' "$const_masks" >&2
    exit 1
fi

step "one bind (a parameter enters a graph by reference, through one entry point)"
# Outside tests and comments, crates/tensor/src/graph.rs defines one
# pub fn bind_param…, and it takes the shared handle (&Arc<Array>): the
# node holds the parameter store's value, so no bind path copies a
# parameter into the tape, and a store that writes a bound value copies
# on write instead.
binds="$(
    code_of crates/tensor/src/graph.rs | awk '
        /pub fn bind_param/ { sig = ""; inside = 1 }
        inside { sig = sig $0; if ($0 ~ /\{[[:space:]]*$/) { print sig; inside = 0 } }'
)"
if [ "$(grep -c . <<<"$binds" || true)" -ne 1 ] || ! grep -qF '&Arc<Array>' <<<"$binds"; then
    echo "ci.sh: expected one pub fn bind_param… in crates/tensor/src/graph.rs, taking &Arc<Array>; found:" >&2
    printf '%s\n' "$binds" >&2
    exit 1
fi

step "no f32 pack cache (the f32 engine reads a weight where it lies)"
# Outside comments, no file of crates/*/src names Cache<F32> or
# F32_CACHE, and every lookup_or_pack( call is on I8_CACHE: an f32
# weight is read in place by gemm::gemm, so a packed f32 copy of it
# would hold the same floats twice. Only int8 weights, which serving
# quantizes once, are cached.
offenders="$(
    for f in $(find crates/*/src -name '*.rs' | sort); do
        awk -v f="$f" '{ sub(/\/\/.*/, ""); print f ": " $0 }' "$f" |
            grep -E '\bCache<F32>|\bF32_CACHE\b|lookup_or_pack\(' |
            grep -vE 'I8_CACHE\.lookup_or_pack\(|fn lookup_or_pack\(' || true
    done
)"
if [ -n "$offenders" ]; then
    echo "ci.sh: an f32 weight is packed into a cache:" >&2
    printf '%s\n' "$offenders" >&2
    exit 1
fi

step "one exit walk (the serving engine runs MultiExitVit::walk, not the backbone)"
# Outside tests and comments, crates/serve/src names no .blocks(): the
# engine does not walk the backbone's blocks itself.
serve_blocks="$(
    for f in $(find crates/serve/src -name '*.rs' | sort); do
        code_of "$f" | grep -F '.blocks()' | sed "s|^|$f: |" || true
    done
)"
if [ -n "$serve_blocks" ]; then
    echo "ci.sh: crates/serve/src walks the backbone's blocks itself:" >&2
    printf '%s\n' "$serve_blocks" >&2
    exit 1
fi

step "one RNG, no registry crate in code (SmallRng64 owns every seeded draw)"
# Outside comments, tests included, no file of crates/*/{src,tests,examples},
# tests/ or examples/ uses or paths the crates rand, crossbeam,
# parking_lot, serde or bytes. Every seeded draw is an inherent method of
# acme_tensor::SmallRng64, so a run's bits do not hang on which crate a
# registry name resolves to; channels and locks are std::sync's. The one
# exception is random.rs's single `impl rand::RngCore for SmallRng64`
# block, which lets code outside the crates draw through rand's traits.
# The bare words are not matched: `bytes` is a common identifier.
registry='\b(rand|crossbeam|parking_lot|serde|bytes)::|\b(use|extern crate) (rand|crossbeam|parking_lot|serde|bytes)\b'
rng_impl='^impl rand::RngCore for SmallRng64 \{'
named="$(
    for f in $(find crates/*/src crates/*/tests crates/*/examples tests examples \
        -name '*.rs' 2>/dev/null | sort); do
        awk -v f="$f" -v exempt="$rng_impl" '
            f == "crates/tensor/src/random.rs" && $0 ~ exempt { skip = 1 }
            skip { if (/^\}/) skip = 0; next }
            { sub(/\/\/.*/, ""); print f ": " $0 }' "$f" | grep -E "$registry" || true
    done
)"
impls="$(grep -cE "$rng_impl" crates/tensor/src/random.rs || true)"
if [ -n "$named" ] || [ "$impls" -ne 1 ]; then
    echo "ci.sh: code names a registry crate ($impls rand::RngCore impl blocks in random.rs):" >&2
    printf '%s\n' "$named" | sed '/^$/d' >&2
    echo "files: $(printf '%s\n' "$named" | sed '/^$/d' | cut -d: -f1 | sort -u | wc -l)" >&2
    exit 1
fi

step "one GlobalAlloc impl (acme_obs::mem::CountingAlloc counts every heap byte)"
# Outside comments, no file of crates/*/{src,tests,examples}, tests/ or
# examples/ but those of crates/obs/src implements GlobalAlloc. A binary
# or test that needs allocation counts installs acme_obs's allocator,
# which keeps live and peak bytes, the owner gauges at the peak and the
# calling thread's count and largest request; a second counting
# allocator would measure the same heap by other rules.
impls="$(
    for f in $(find crates/*/src crates/*/tests crates/*/examples tests examples \
        -name '*.rs' -not -path 'crates/obs/src/*' 2>/dev/null | sort); do
        awk -v f="$f" '{ sub(/\/\/.*/, ""); print f ": " $0 }' "$f" |
            grep -E '\bimpl\b.*\bGlobalAlloc\b' || true
    done
)"
if [ -n "$impls" ]; then
    echo "ci.sh: a GlobalAlloc impl outside crates/obs/src:" >&2
    printf '%s\n' "$impls" >&2
    exit 1
fi

step "figures from the pipeline (the paper bins take their data and teacher from its stages)"
# Outside tests and comments, no table1 / fig* / ablation_* bin of
# crates/bench/src/bin names cifar100_like, stanford_cars_like,
# generate( or .split(: each bin's data are Acme::pretrain's public
# splits or the devices' partition Phase 2 draws. And only fig1, whose
# from-scratch models are the comparison, calls Vit::new(: every other
# bin's backbones are the pipeline's teacher or Phase 1 pool.
figure_bins() { ls crates/bench/src/bin/{table1,fig*,ablation_*}.rs; }
offenders="$(
    for f in $(figure_bins); do
        rule='\b(cifar100_like|stanford_cars_like|generate\()|\.split\('
        [ "$f" = crates/bench/src/bin/fig1.rs ] || rule="$rule|\bVit::new\("
        code_of "$f" | sed 's|//.*||' | grep -E "$rule" | sed "s|^|$f: |" || true
    done
)"
if [ -n "$offenders" ]; then
    echo "ci.sh: a paper bin builds its own data or backbone:" >&2
    printf '%s\n' "$offenders" >&2
    exit 1
fi

step "perf rows (every PERF.jsonl row adds up; a claimed one meets the standing rule)"
# scripts/pairs.sh appends the rows. Each must parse, carry its pairs,
# and restate their medians, the parent's quartiles and the win count
# exactly; a row with claim: true must have at least 10 pairs, the change
# better in at least nine tenths of them, and a median gap in the better
# direction wider than the parent's IQR.
python3 - <<'PY'
import json, statistics

keys = {"id", "workload", "metric", "unit", "better", "bound", "seed", "seconds",
        "parent_rev", "change_rev", "change_crates_tree", "env", "pairs", "n_pairs",
        "parent_median", "parent_q1", "parent_q3", "parent_iqr", "change_median",
        "change_q1", "change_q3", "wins", "claim"}
seen = set()
rows = [json.loads(l) for l in open("PERF.jsonl") if l.strip()]
assert rows, "PERF.jsonl holds no row"
for r in rows:
    rid = r.get("id")
    assert set(r) == keys, f"{rid}: keys drifted: {sorted(set(r) ^ keys)}"
    assert rid not in seen, f"{rid}: id repeats"
    seen.add(rid)
    assert r["better"] in ("lower", "higher"), f"{rid}: better is {r['better']}"
    ps = [p["parent"] for p in r["pairs"]]
    cs = [p["change"] for p in r["pairs"]]
    assert r["n_pairs"] == len(r["pairs"]) >= 2, f"{rid}: pair count"
    assert [p["first"] for p in r["pairs"]] == [("parent", "change")[i % 2] for i in range(len(ps))], \
        f"{rid}: the order inside the pairs does not alternate"
    assert all(isinstance(p[k], (int, float)) for p in r["pairs"]
               for k in ("load_parent", "load_change")), f"{rid}: a run has no load stamp"
    q = lambda xs: statistics.quantiles(xs, n=4, method="inclusive")
    lower = r["better"] == "lower"
    derived = {
        "parent_median": statistics.median(ps), "change_median": statistics.median(cs),
        "parent_q1": q(ps)[0], "parent_q3": q(ps)[2], "parent_iqr": q(ps)[2] - q(ps)[0],
        "change_q1": q(cs)[0], "change_q3": q(cs)[2],
        "wins": sum((c < p) if lower else (c > p) for p, c in zip(ps, cs)),
    }
    for k, v in derived.items():
        assert abs(r[k] - v) <= 1e-9 * max(1.0, abs(v)), f"{rid}: {k} is {r[k]}, its pairs give {v}"
    if r["claim"]:
        gap = (r["parent_median"] - r["change_median"]) * (1 if lower else -1)
        assert r["n_pairs"] >= 10, f"{rid}: a claim needs 10 pairs, has {r['n_pairs']}"
        assert 10 * r["wins"] >= 9 * r["n_pairs"], f"{rid}: won {r['wins']}/{r['n_pairs']}"
        assert gap > r["parent_iqr"], f"{rid}: median gap {gap} is inside the parent's IQR {r['parent_iqr']}"
print(f"perf rows OK: {len(rows)} rows, {sum(r['claim'] for r in rows)} claimed")
PY

step "EXPERIMENTS.md (the generator rewrites it byte for byte, hand-written sections kept)"
python3 scripts/build_experiments_md.py
git diff --exit-code -- EXPERIMENTS.md

step "cargo clippy (deny warnings; clippy.toml holds the call-site rules)"
# A clippy.toml path that no longer resolves is only a warning, even
# under -D warnings, so the stage fails on it here.
CLIPPY_LOG="$(mktemp -t acme-clippy.XXXXXX.log)"
cargo clippy --workspace --all-targets -- -D warnings -W unreachable_pub 2>&1 | tee "$CLIPPY_LOG"
if grep -q 'does not refer to a reachable' "$CLIPPY_LOG"; then
    echo "ci.sh: a clippy.toml rule names a function that no longer resolves" >&2
    exit 1
fi
rm -f "$CLIPPY_LOG"

step "cargo build --release"
cargo build --workspace --release

step "cargo test (release)"
cargo test --workspace --release -q

step "value pins without FMA (a plain x86-64 build computes the same bits)"
# gemm::madd is always fused: a hardware FMA in the native build, the
# software fmaf here. The value pins (every Phase 1 candidate's loss and
# accuracy bits, every training epoch's loss and parameter bits, the
# GEMM oracle, fastmath's lane-position test, the whole-path pins of
# tests/golden_path.rs, SmallRng64's stream pin, the codec goldens) must
# pass unchanged in a build for the x86-64 baseline, which has no FMA.
# Its own target directory keeps the native build warm.
no_fma() {
    RUSTFLAGS=-Ctarget-cpu=x86-64 CARGO_TARGET_DIR=target/x86-64 cargo test --release -q "$@"
}
no_fma -p acme --lib phase1::tests::golden_pool_pins_every_bit
no_fma -p acme-vit --test training_pins
no_fma -p acme-tensor --test gemm_props
no_fma -p acme-tensor --lib fastmath::tests::slice_kernels_match_the_scalar_functions_at_every_lane
no_fma --test golden_path
no_fma -p acme-tensor --lib random::tests::stream_pins_every_draw
no_fma --test codec_sweep

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
# migrated into (pool misses, pack-cache packs, retransmissions), plus
# the pool's retained-bytes gauge.
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
gauges = doc["metrics"]["gauges"]
assert "tensor.pool.retained_bytes" in gauges, "missing gauge tensor.pool.retained_bytes"
print(f"trace OK: {len(names)} spans, {len(counters)} counters, {len(gauges)} gauges")
PY
rm -f "$TRACE_OUT"

step "memory smoke (owners cover the peak; Phase 1 hands its buffers back; the peak stays down; f32 serving packs nothing)"
# The memory bin runs the benchmark's customize configuration (≈5 s on 2
# cores) stage by stage under the counting allocator. It fails here when
# the named owners cover less than 90 % of the live heap at the run's
# highest stage peak (ROADMAP item 24(b)'s bar, which is about this
# configuration: in the quick preset's 7 MB peak, parameter values no
# owner names are a tenth), or when the pool's free lists hold any byte
# right after Phase 1, so that Phase 2's free lists hold only its own.
# It also fails when the highest stage peak passes 44 MB: five runs at
# seed 42 on a 2-core host peaked at 36.7–40.0 MB (Phase 2-1's)
# once each affine map became one tape node, against 49.3–51.4 MB
# before; the ceiling is that maximum plus 10 %. Its serving stage
# (serve_steady's set-up: an f32 fleet built, calibrated and warmed up)
# fails here when it holds any pack-cache byte: the f32 engine reads
# every weight in place, where a cache used to hold a second copy of
# both backbones (57 MB).
MEMORY_SMOKE_OUT="$(mktemp -t acme-memory-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin memory -- --out "$MEMORY_SMOKE_OUT"
python3 - "$MEMORY_SMOKE_OUT" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
peak = max(doc["stages"], key=lambda s: s["peak_mb"])
assert peak["coverage_pct"] >= 90.0, \
    f"owners cover {peak['coverage_pct']} % of the {peak['stage']} peak ({peak['peak_mb']} MB)"
retained = doc["pool_retained_after_phase1_bytes"]
assert retained == 0, f"the pool's free lists hold {retained} B right after Phase 1"
assert peak["peak_mb"] <= 44.0, \
    f"the {peak['stage']} peak is {peak['peak_mb']} MB, over the 44 MB ceiling"
serving = doc["serving"]
assert serving["pack_cache_bytes"] == 0, \
    f"f32 serving holds {serving['pack_cache_bytes']} B of packed weights"
print(f"memory OK: {peak['coverage_pct']} % of the {peak['stage']} peak named, "
      f"{peak['peak_mb']} MB, free lists empty after Phase 1; "
      f"serving peak {serving['peak_mb']} MB, no packed weight")
PY
rm -f "$MEMORY_SMOKE_OUT"

step "figure smoke (every table1 / fig* / ablation_* bin runs --quick)"
# The bin list is the gate's glob, so a new paper bin is run here too.
# Each prints its table to a scratch directory; a panic fails the stage.
FIG_OUT="$(mktemp -d -t acme-figures.XXXXXX)"
for f in $(figure_bins); do
    b="$(basename "$f" .rs)"
    echo "--> $b"
    cargo run -q --release -p acme-bench --bin "$b" -- --quick >"$FIG_OUT/$b.txt"
done
rm -rf "$FIG_OUT"

step "kernel sweep smoke (quick GEMM sweep, f32 and int8 on the same operands)"
# Both sweep smokes write to a scratch path to leave the committed
# full-sweep BENCH_kernels.json / BENCH_training_step.json alone.
KERNELS_SMOKE_OUT="$(mktemp -t acme-kernels-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin kernels -- \
    --quick --out "$KERNELS_SMOKE_OUT"
rm -f "$KERNELS_SMOKE_OUT"

step "training-step sweep smoke (quick)"
# Times the engine's step and the reference ViT's per-op table. The
# step's bits are checked in cargo test above, against the plain-loop
# reference step of crates/tensor/tests/pool_reuse_props.rs at 1, 2 and
# 4 threads.
TRAINSTEP_SMOKE_OUT="$(mktemp -t acme-trainstep-smoke.XXXXXX.json)"
cargo run --release -p acme-bench --bin training_step -- \
    --quick --out "$TRAINSTEP_SMOKE_OUT"
rm -f "$TRAINSTEP_SMOKE_OUT"

echo
echo "CI checks passed."
