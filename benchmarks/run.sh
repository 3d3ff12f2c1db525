#!/usr/bin/env bash
# Build cepbench from source and run it.
#
#   benchmarks/run.sh [--seed N] [--seconds S] [--trace] [--aa]
#       every workload, each in its own child process; prints every metric
#       and writes benchmarks/out/results.json (and trace.json)
#   benchmarks/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of output is the JSON result
set -euo pipefail
cd "$(dirname "$0")/.."

# A relative CARGO_TARGET_DIR is relative to this directory, the root.
target="${CARGO_TARGET_DIR:-benchmarks/target}"
cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml --target-dir "$target"

export CEPBENCH_RUSTC="$(rustc --version)"
export CEPBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/cepbench" "$@"
