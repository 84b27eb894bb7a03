#!/usr/bin/env bash
# The one command of the benchmark: build it from source, then run it.
#
#   benchmark/run.sh                       all four workloads, both passes
#   benchmark/run.sh --workload chol-small --seed 7 --quick
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one pass; the last line of stdout
#                                          is the driver's result object
#   benchmark/run.sh compare A/ B/         two sets of out/ files
#
# Run it from the root of the repository: results go to benchmark/out/ and
# `compare` reads ./BENCHMARK.json. A relative CARGO_TARGET_DIR is taken
# from the current directory, so the script never changes directory.
set -euo pipefail
# glibc raises its mmap threshold after the first large free, so whether a
# run's heaps and gathered objects are freshly mapped depended on what the
# process had freed before: lu-panel's exec_s read 0.05 s or 0.10 s. Naming
# the threshold (at its default) switches that adjustment off, and every
# large buffer is mapped, faulted in and unmapped each time, as on a first
# call.
export MALLOC_MMAP_THRESHOLD_=131072
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
