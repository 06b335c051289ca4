#!/usr/bin/env bash
# Run one benchmark workload from the repository root:
#
#   bash ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the `ftrepair` daemon and the ledger (release, offline) into
# $CARGO_TARGET_DIR (default .bench_build), then runs the ledger. Its last
# line of standard output is the result JSON; traces and scratch
# directories go to $CARGO_TARGET_DIR/ledger.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ftrepair >&2
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
exec "$target/release/ftrepair-ledger" --server "$target/release/ftrepair" \
    --out-dir "$target/ledger" "$@"
