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

# One clippy pass over every crate and target.
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

# The size figure the ROADMAP north star tracks: Rust lines under crates/.
loc:
    find crates -name '*.rs' | xargs cat | wc -l

# Quick hot-path diagnostic: allocations/row, ns/row and probe counters per
# engine.
profile:
    cargo build --release --bin profile_hotpath
    ./target/release/profile_hotpath --quick

# Full-length hot-path diagnostic (100 bulks).
profile-full:
    cargo build --release --bin profile_hotpath
    ./target/release/profile_hotpath
