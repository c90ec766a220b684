#!/usr/bin/env bash
# The one command. Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                                 all five workloads, a table of every
#                                                    metric, benchmark/out/latest.json
#   benchmark/run.sh --workload W --seed N --reps N  part of that
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    one JSON result line (BENCHMARK.json's command)
#   benchmark/run.sh --compare A.json B.json | --selfcheck | --list
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo's progress goes to stderr; stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/gdur-benchmark" "$@"
