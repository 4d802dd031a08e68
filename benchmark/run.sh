#!/usr/bin/env bash
# The benchmark's one entry point. Builds the standalone crate offline,
# then runs it from the repository root.
#
#   benchmark/run.sh [run|layers|all] [--seed N] [--seconds S] [--out FILE] [--workload W] [--quick]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     (the driver's protocol)
#
# With no mode and no --trace it runs `all`. Every metric is printed as
# `workload metric value unit`; results go to benchmark/out/result.json
# and the traced run's spans to benchmark/out/trace_<workload>.json.
# Exits non-zero on a failed job, a checksum mismatch, a dominance
# claim that no longer holds, or a regression found by `compare`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# CARGO_TARGET_DIR, when set, is relative to where cargo is invoked:
# this directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"

# Build output goes to standard error: standard output belongs to the
# results.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

mode=all
for arg in "$@"; do
    case "$arg" in
    run | layers | all | compare | --trace) mode= ;;
    esac
done

exec "$target/release/hamr-benchmark" $mode "$@"
