#!/usr/bin/env bash
# One command for the federated-round benchmark (see README.md).
#
#   benchmark/run.sh [--seed N] [--sets 2] [--smoke]     every workload, every metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                         one pass, one JSON line (BENCHMARK.json)
#   benchmark/run.sh compare A.json B.json               apply the bounds to two results
#
# Builds the package (and with it the measured crates and the shard
# server) from source, then runs it from the checkout root. Everything it
# writes stays inside the checkout: the build under CARGO_TARGET_DIR
# (default .bench_build), traces and results under benchmark/out.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

TARGET="${CARGO_TARGET_DIR:-.bench_build}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$ROOT/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# The one GRADSEC_* variable the benchmark accepts: which binary
# DistributedCoordinator spawns. Any other makes the program refuse.
export GRADSEC_SHARD_SERVER="$TARGET/release/bench-shard-server"
BIN="$TARGET/release/gradsec-benchmark"

case "${1:-}" in
    compare) exec "$BIN" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$BIN" run "$@"
    fi
done
exec "$BIN" suite "$@"
