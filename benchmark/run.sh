#!/usr/bin/env bash
# One command for the MobiEyes benchmark.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--smoke]
#       Builds the release binaries and the harness, runs the requested
#       workloads (all four by default) three timed repetitions plus one
#       traced repetition each, checks the outputs, prints every metric as
#       `workload metric value unit`, and writes benchmark/out/results.json
#       and benchmark/out/trace-<workload>.json. Exits non-zero when any
#       checked tick failed.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       The benchmark driver's form: one workload, one kind of metric
#       (0 = end-to-end, 1 = per-layer); the last line of standard output
#       is the JSON result object.
#   benchmark/run.sh --self-test
#       The harness's own unit tests.
#   benchmark/run.sh compare A.json B.json
#       Two results.json files side by side, judged against the bounds.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/sim" ]; then
    echo "run.sh: $root is not a MobiEyes checkout (the benchmark builds the system from source)" >&2
    exit 2
fi

# One target directory for both builds, so the crates they share compile
# once. A relative CARGO_TARGET_DIR means relative to the caller's
# directory; pin it before changing directory.
case "${CARGO_TARGET_DIR:-}" in
    "") CARGO_TARGET_DIR="$root/target" ;;
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR

# Build output goes to standard error: standard output carries results.
(cd "$root" && cargo build --release --offline --quiet -p mobieyes --bin mobieyes-serve) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2
harness="$CARGO_TARGET_DIR/release/mobieyes-benchmark"

case "${1:-}" in
    --self-test)
        cd "$here" && exec cargo test --release --offline --quiet >&2
        ;;
    compare)
        shift
        exec "$harness" compare "$@"
        ;;
esac
exec "$harness" run --serve "$CARGO_TARGET_DIR/release/mobieyes-serve" --out "$here/out" "$@"
