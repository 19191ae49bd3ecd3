#!/usr/bin/env bash
# Builds the benchmark offline and runs the four workloads for one seed,
# untraced then traced. Writes benchmark/out/<workload>.json,
# benchmark/out/<workload>-trace.json and benchmark/out/trace-<workload>.json.
# Exits non-zero on a failed op, a ledger gap or an output that is not valid.
#
#   benchmark/run_all.sh [SEED] [SECONDS] [--smoke]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1}"
seconds="${2:-20}"
smoke="${3:-}"
# The repo's own target directory, so the crates are compiled once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/caba-benchmark"
mkdir -p "$here/out"
status=0
for workload in sim_base sim_caba serve_warm persist_churn; do
  for trace in 0 1; do
    if [ "$trace" = 1 ]; then out="$here/out/$workload-trace.json"; else out="$here/out/$workload.json"; fi
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      --commit "$commit" --out "$out" $smoke | tee "$here/out/last.txt"
    # The last line is the result; the record must be there and correct.
    if ! tail -n 1 "$here/out/last.txt" | grep -q '^{"correct": true, '; then
      echo "run_all: $workload trace=$trace is not correct" >&2
      status=1
    fi
    [ -s "$out" ] || { echo "run_all: $out was not written" >&2; status=1; }
  done
done
rm -f "$here/out/last.txt"
exit "$status"
