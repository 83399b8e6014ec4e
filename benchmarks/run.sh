#!/usr/bin/env bash
# Builds the benchmark with no registry and no network, then runs it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is the result
#   run.sh [--seed N] [--seconds S] [--repeat R] [--out F]  every workload, untraced then traced
#   run.sh compare PARENT.json CHANGE.json                  verdict per workload and end-to-end metric
#   run.sh manifest                                          print BENCHMARK.json
#   run.sh describe                                          print README.md's metric tables
#
# Run from the repository root or anywhere else; paths are resolved from
# this file. CARGO_TARGET_DIR is honoured (relative to the caller's
# directory, as cargo does); the default is benchmarks/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# --offline --locked: a resolver that wants anything beyond the committed
# lock file and the shims stops here instead of reaching for a registry.
# Building from benchmarks/ lets cargo find the repository root's
# .cargo/config.toml (-Ctarget-cpu=native) wherever run.sh is called from.
if ! (cd "$here" && CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet >&2); then
    echo "run.sh: hermetic build failed (is crates/ beside benchmarks/?)" >&2
    exit 1
fi

exec "$target/release/acme-benchmarks" "$@"
