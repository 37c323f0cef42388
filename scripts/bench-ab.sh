#!/bin/sh
# Same-host A/B perf gate. Builds `benchmark/` in two checkouts of this
# repository, runs three pairs of the fig16 workload (alternating which
# side goes first), compares the record lines with
# `minnow-benchmark --compare`, and exits 1 when any end-to-end metric's
# verdict is `regressed` (B's median worse than A's by more than its
# BENCHMARK.json bound). `unresolved` and `worse (every run)` verdicts
# are reported but do not fail the gate.
#
#   sh scripts/bench-ab.sh BASE_CHECKOUT HEAD_CHECKOUT OUT_DIR
#
# OUT_DIR receives base.jsonl, head.jsonl and the table, compare.txt.
set -eu
[ $# -eq 3 ] || { echo "usage: $0 BASE_CHECKOUT HEAD_CHECKOUT OUT_DIR" >&2; exit 2; }
base=$1 head=$2 out=$3
mkdir -p "$out"
for dir in "$base" "$head"; do
    cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmark/Cargo.toml" --target-dir "$dir/benchmark/target"
done
run() {
    "$1/benchmark/target/release/minnow-benchmark" \
        --workload fig16 --seconds 10 --trace 0 >>"$out/$2.jsonl"
}
: >"$out/base.jsonl"
: >"$out/head.jsonl"
for pair in 1 2 3; do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$base" base
        run "$head" head
    else
        run "$head" head
        run "$base" base
    fi
done
# `--compare` exits 0 whatever its verdicts, so the gate reads the table.
"$head/benchmark/target/release/minnow-benchmark" \
    --compare "$out/base.jsonl" "$out/head.jsonl" >"$out/compare.txt"
cat "$out/compare.txt"
if grep -q ' regressed$' "$out/compare.txt"; then
    echo "bench gate: an end-to-end metric regressed past its bound" >&2
    exit 1
fi
