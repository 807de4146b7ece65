#!/usr/bin/env bash
# Smoke test for the benchmark package, for a later PR to wire into .github/:
# builds it, checks BENCHMARK.json against the metric tables in src/spec.rs,
# and runs every workload (untraced and traced) at reduced scale with the
# correctness gates on.  About 25 s after the build; the numbers it prints are
# labelled non-comparable.  Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"; }

cargo test --release --quiet --offline --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/out
run spec | diff -u BENCHMARK.json - || { echo "BENCHMARK.json differs from 'fivm-e2e spec'" >&2; exit 1; }
run run --quick --seed "${SEED:-1}" 2> benchmark/out/smoke.stderr || { cat benchmark/out/smoke.stderr >&2; exit 1; }
# The driver's form must measure every per-layer metric in one traced run.
run run --quick --workload retailer-fact --seed "${SEED:-1}" --trace 1 > /dev/null 2>> benchmark/out/smoke.stderr \
    || { cat benchmark/out/smoke.stderr >&2; exit 1; }
if grep -q "did not measure" benchmark/out/smoke.stderr; then
    cat benchmark/out/smoke.stderr >&2
    exit 1
fi
echo "benchmark smoke: ok"
