#!/usr/bin/env bash
# Regenerates every table/figure of the paper and stores the raw output
# under results/. Full-scale runs; pass --quick to downscale.
#
# The bins are crates/bench/src/bin/{table1,fig*,ablation_*}.rs, the
# list ci.sh's figure smoke runs. The script stops at the first bin that
# fails, with its stderr on the terminal.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build -p acme-bench --release --bins
for f in crates/bench/src/bin/{table1,fig*,ablation_*}.rs; do
  b="$(basename "$f" .rs)"
  echo ">>> $b"
  cargo run -q -p acme-bench --release --bin "$b" -- "$@" > "results/$b.txt"
done
echo "done; outputs in results/"
