#!/bin/sh
# Same-host A/B perf gate. Builds `benchmark/` in two checkouts of this
# repository, runs three pairs of each named workload (default: fig16;
# alternating which side goes first), compares the record lines with
# `minnow-benchmark --compare`, and exits 1 when any end-to-end metric's
# verdict is `regressed` (B's median worse than A's by more than its
# BENCHMARK.json bound). `unresolved` and `worse (every run)` verdicts
# are reported but do not fail the gate.
#
#   sh scripts/bench-ab.sh BASE_CHECKOUT HEAD_CHECKOUT OUT_DIR [WORKLOAD...]
#
# OUT_DIR receives base.jsonl, head.jsonl and the table, compare.txt.
set -eu
[ $# -ge 3 ] || { echo "usage: $0 BASE_CHECKOUT HEAD_CHECKOUT OUT_DIR [WORKLOAD...]" >&2; exit 2; }
base=$1 head=$2 out=$3
shift 3
[ $# -gt 0 ] || set -- fig16
mkdir -p "$out"
for dir in "$base" "$head"; do
    cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmark/Cargo.toml" --target-dir "$dir/benchmark/target"
done
run() {
    "$1/benchmark/target/release/minnow-benchmark" \
        --workload "$3" --seconds 10 --trace 0 >>"$out/$2.jsonl"
}
: >"$out/base.jsonl"
: >"$out/head.jsonl"
for workload in "$@"; do
    for pair in 1 2 3; do
        if [ $((pair % 2)) -eq 1 ]; then
            run "$base" base "$workload"
            run "$head" head "$workload"
        else
            run "$head" head "$workload"
            run "$base" base "$workload"
        fi
    done
done
# `--compare` exits 0 whatever its verdicts, so the gate reads the table.
"$head/benchmark/target/release/minnow-benchmark" \
    --compare "$out/base.jsonl" "$out/head.jsonl" >"$out/compare.txt"
cat "$out/compare.txt"
if grep -q ' regressed$' "$out/compare.txt"; then
    echo "bench gate: an end-to-end metric regressed past its bound" >&2
    exit 1
fi
