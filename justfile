# Developer entry points.  `just ci` is the gate the CI workflow runs —
# build, tests, the contract lint, clippy-as-errors, and bench compilation
# so bench code cannot rot.

default: ci

# The full CI gate.
ci: build test lint clippy bench-build

build:
    cargo build --release

test:
    cargo test -q

# The in-tree contract lint (fivm-xlint): unsafe boundary, find_idx-first
# upserts, dict-lock discipline, byte-denominated thresholds, panic-free
# public surfaces, lift-name uniqueness, is_zero discipline.  See the
# "Static-analysis contract" section of ROADMAP.md.
lint:
    cargo run -q --release -p fivm-xlint -- .

# One clippy pass over every crate and target; the per-gate bench recipes
# below rely on this instead of re-running clippy per crate.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Compile (but do not run) every benchmark target.
bench-build:
    cargo bench --no-run

# The repository's benchmark (benchmark/README.md, BENCHMARK.json): every
# workload untraced then traced, every metric by name, outputs verified;
# about 2.5 min.  Performance claims come from here only.
bench:
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run

# The same at reduced scale (≤ 15 s after the build; numbers not comparable).
bench-quick:
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --quick

# Regenerate the machine-readable perf baseline (writes BENCH_ivm.json,
# including the encoded-vs-boxed probe-key ablation records and the
# paired single-vs-sharded PAR-* records).
bench-ivm:
    cargo build --release --bin exp_throughput
    ./target/release/exp_throughput --shards 4

# Sharding gate: the seeded sharded-vs-single differential suite, then the
# paired 1-vs-4-shard throughput runs.  (`just clippy` covers the lint.)
bench-shards: clippy
    cargo test -p fivm-shard -q
    cargo build --release --bin exp_throughput
    ./target/release/exp_throughput --shards 4

# Ring gate: the encoded-vs-boxed relation-ring differential suite and
# allocation guarantees, then a quick run emitting the RING-* ablation
# records (encoded vs boxed ring-interior keys).
bench-ring: clippy
    cargo test -p fivm-ring -q
    cargo build --release --bin exp_throughput
    ./target/release/exp_throughput --quick --json /tmp/bench_ring_smoke.json

# Memory gate: the bytes-per-entry regression gate and the churn-under-drop
# storage suite, then a quick run emitting the MEM-* ablation records
# (bytes/entry of the boxed reference vs the encoded relations, plus the
# Favorita gen-COVAR engine footprint).
bench-mem: clippy
    cargo test -p fivm-ring -q --test mem_gate
    cargo test -p fivm-common -q --test rawtable_differential
    cargo build --release --bin exp_throughput
    ./target/release/exp_throughput --quick --json /tmp/bench_mem_smoke.json

# Durability gate: the crash-recovery fault-injection differential suite,
# then the durability cost run — merges REC-* records (logged-ingest and
# replay rows/s, snapshot bytes and save/restore times) into
# BENCH_ivm.json without touching other records.
bench-recover: clippy
    cargo test -p fivm-cdc -q
    cargo test -p fivm-cdc --test service_faults -q
    cargo build --release --bin exp_recovery
    ./target/release/exp_recovery

# Multi-query DAG gate: the shared-vs-standalone differential suite and
# registration-churn tests, then the shared-pass experiment — merges DAG-*
# records (K-query fleet through one DagEngine vs K independent engines,
# medians of interleaved paired rounds) into BENCH_ivm.json without
# touching other records.
bench-dag: clippy
    cargo test -p fivm-dag -q
    cargo build --release --bin exp_dag
    ./target/release/exp_dag

# Kernel gate: the columnar/scalar seeded differential suite and the
# batch-lift allocation assertions, then the per-kernel ablation
# experiment — merges RING-kernel-* records (dense accumulate,
# continuous/categorical lift, paired scalar-vs-columnar engine runs;
# medians of interleaved paired rounds) into BENCH_ivm.json without
# touching other records.
bench-kernels: clippy
    cargo test -p fivm-bench -q --test kernel_differential
    cargo test -p fivm-ring -q --test alloc_fma
    cargo build --release --bin exp_ring
    ./target/release/exp_ring

# Quick hot-path diagnostic: allocations/row, ns/row and probe counters per
# engine, plus allocs/probe and ns/probe for both key representations
# (boxed Value tuples vs dictionary-encoded keys).
profile:
    cargo build --release --bin profile_hotpath
    ./target/release/profile_hotpath --quick

# Full-length hot-path diagnostic (100 bulks, 100 ablation passes).
profile-full:
    cargo build --release --bin profile_hotpath
    ./target/release/profile_hotpath
