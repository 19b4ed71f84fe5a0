#!/bin/sh
# A/A proof: build, run the whole benchmark twice on the same tree, and
# compare the two outputs against the bounds in BENCHMARK.json. Exits
# non-zero when a check fails or when `compare` reports a `worse` row.
# Takes about five minutes. Usage: benchmark/selftest.sh [SEED]
set -eu
here=$(cd "$(dirname "$0")" && pwd)
seed=${1:-1}
bench() {
    cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}
mkdir -p "$here/out"
bench run --seed "$seed" --out "$here/out/A.json" >"$here/out/A.txt"
bench run --seed "$seed" --out "$here/out/B.json" >"$here/out/B.txt"
bench compare "$here/out/A.json" "$here/out/B.json"
