#!/usr/bin/env bash
# Build hjsvd and the benchmark from source, then run one workload.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR
# (default .bench_build). The last line of stdout is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The server binary serve-mixed spawns, built by the repository's own
# manifest, then the benchmark package; cargo's output goes to stderr.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin hjsvd
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "$CARGO_TARGET_DIR/release/hjsvd-benchmark" "$@"
