#!/usr/bin/env bash
# Measures this checkout against a parent revision in alternating pairs of
# benchmark runs and appends one row per end-to-end metric to PERF.jsonl.
#
#   scripts/pairs.sh PARENT_REV --workload W [--seed S] [--pairs N] [--claim METRIC]
#
# The parent side is PARENT_REV exported with `git archive` into a fresh
# scratch directory under ${TMPDIR:-/tmp} (no worktree is registered, and
# the directory goes when the script exits); the change side is this
# checkout as it stands. Each side builds and runs through its own,
# unchanged benchmarks/run.sh, one process per run, at BENCHMARK.json's
# run length and untraced, as the benchmark's acceptance runs are. Pair i runs the parent first when i is
# even and the change first when it is odd. Before each run the script
# reads the 1-minute load average from /proc/loadavg (read-only) and keeps
# it beside the run's values. N defaults to 10, the fewest a claim needs;
# S defaults to 42.
#
# A row holds both revisions, the change side's environment stamp, every
# pair's values and loads, each side's median and quartiles, the parent's
# IQR, the change's wins (ties count for neither side) and a `claim` flag.
# `--claim METRIC` sets the flag on that metric's row; scripts/ci.sh then
# holds the row to the standing rule: at least 10 pairs, the change better
# in at least nine tenths of them, and the median gap wider than the
# parent's IQR. A run whose correctness checks fail stops the script and
# writes no row.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/pairs.sh PARENT_REV --workload W [--seed S] [--pairs N] [--claim METRIC]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev="$(git rev-parse --verify "$1^{commit}")" || usage
shift
workload="" seed=42 pairs=10 claim=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?}"; shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        --pairs) pairs="${2:?}"; shift 2 ;;
        --claim) claim="${2:?}"; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$workload" ] || usage
[ "$pairs" -ge 2 ] || usage
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

scratch="$(mktemp -d "${TMPDIR:-/tmp}/acme-pairs.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/parent"
git archive "$parent_rev" | tar -x -C "$scratch/parent"

# The change side as measured: HEAD, and the tree of crates/ as it stands
# in the checkout (staged or not), written through a throwaway index so
# the checkout's own index is left alone.
change_rev="$(git rev-parse HEAD)"
crates_tree="$(
    export GIT_INDEX_FILE="$scratch/index"
    git read-tree HEAD
    git add -A crates
    git rev-parse "$(git write-tree):crates"
)"

side_dir() { if [ "$1" = parent ]; then echo "$scratch/parent"; else pwd; fi; }
side_run() {
    CARGO_TARGET_DIR="$scratch/target-$1" bash "$(side_dir "$1")/benchmarks/run.sh" "${@:2}"
}

echo "pairs.sh: building both sides" >&2
for side in parent change; do
    side_run "$side" manifest >/dev/null
done

runs="$scratch/runs.jsonl"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        load="$(cut -d' ' -f1 /proc/loadavg)"
        out="$(side_run "$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
        python3 - "$side" "$i" "$load" "$out" >>"$runs" <<'PY'
import json, sys
side, pair, load, out = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
lines = out.strip().splitlines()
result = json.loads(lines[-1])
env = next((json.loads(l[len("# env "):]) for l in lines if l.startswith("# env ")), None)
if not result["correct"] or result["failed"]:
    sys.exit(f"pairs.sh: {side} run of pair {pair} failed its correctness checks")
print(json.dumps({"side": side, "pair": pair, "load": load, "env": env, "result": result}))
PY
        echo "pairs.sh: pair $i $side done (load $load)" >&2
    done
done

python3 - "$runs" "$workload" "$seed" "$parent_rev" "$change_rev" "$crates_tree" "$claim" <<'PY' >"$scratch/rows.jsonl"
import json, statistics, sys

runs_path, workload, seed, parent_rev, change_rev, crates_tree, claim = sys.argv[1:]
runs = [json.loads(l) for l in open(runs_path)]
bench = json.load(open("BENCHMARK.json"))
taken = set()
try:
    taken = {json.loads(l)["id"] for l in open("PERF.jsonl") if l.strip()}
except FileNotFoundError:
    pass
env = next(r["env"] for r in runs if r["side"] == "change")
quartiles = lambda xs: statistics.quantiles(xs, n=4, method="inclusive")
metrics = [m for m in bench["end_to_end"]]
if claim and claim not in {m["name"] for m in metrics}:
    sys.exit(f"pairs.sh: --claim {claim} is not an end-to-end metric")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = []
    for i in sorted(by_pair):
        p, c = by_pair[i]["parent"], by_pair[i]["change"]
        pairs.append({
            "first": "parent" if i % 2 == 0 else "change",
            "parent": p["result"]["metrics"][name]["value"],
            "change": c["result"]["metrics"][name]["value"],
            "load_parent": p["load"],
            "load_change": c["load"],
        })
    ps = [p["parent"] for p in pairs]
    cs = [p["change"] for p in pairs]
    pq, cq = quartiles(ps), quartiles(cs)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(ps, cs))
    base = f"{workload}.{name}.{crates_tree[:12]}.s{seed}"
    rid, k = base, 2
    while rid in taken:
        rid, k = f"{base}.{k}", k + 1
    taken.add(rid)
    print(json.dumps({
        "id": rid,
        "workload": workload,
        "metric": name,
        "unit": m["unit"],
        "better": m["better"],
        "bound": m["bound"],
        "seed": int(seed),
        "seconds": bench["run_seconds"],
        "parent_rev": parent_rev,
        "change_rev": change_rev,
        "change_crates_tree": crates_tree,
        "env": env,
        "pairs": pairs,
        "n_pairs": len(pairs),
        "parent_median": statistics.median(ps),
        "parent_q1": pq[0],
        "parent_q3": pq[2],
        "parent_iqr": pq[2] - pq[0],
        "change_median": statistics.median(cs),
        "change_q1": cq[0],
        "change_q3": cq[2],
        "wins": wins,
        "claim": name == claim,
    }, ensure_ascii=False))
PY
cat "$scratch/rows.jsonl" >>PERF.jsonl
echo "pairs.sh: appended $(wc -l <"$scratch/rows.jsonl") rows to PERF.jsonl" >&2
