#!/usr/bin/env bash
# Builds the program's server binary and this benchmark from source, then
# runs the benchmark with the given arguments:
#
#   bash e2e_bench/run.sh --workload <paper_cold|edit_mix|pretrain> \
#       --seed <n> --seconds <s> --trace <0|1>
#   bash e2e_bench/run.sh --selfcheck
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p deepseq-serve --bin deepseq-serve >&2
cargo build --release --offline -q --manifest-path e2e_bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/deepseq-e2e-bench" \
    --server "$CARGO_TARGET_DIR/release/deepseq-serve" \
    --workdir "$CARGO_TARGET_DIR/e2e_bench_work" "$@"
