#!/usr/bin/env bash
# Regenerates the deterministic smokes' JSON at the repository root:
#  - crates/bench/src/bin/chaos.rs: chaos-recovery latency percentiles
#    under faults + churn -> BENCH_chaos.json
#  - crates/bench/src/bin/cluster.rs: partitioned-tier equivalence, load
#    split and rebalance skew over 1..8 partitions -> BENCH_cluster.json
#  - crates/bench/src/bin/recovery.rs: partition-crash recovery latency
#    under failover and supervised respawn -> BENCH_recovery.json
# Each file is a function of the code alone (counts and ticks, no wall
# clock), so a rerun on any host reproduces the committed bytes. Timing
# is benchmark/run.sh's.
#
# Run from the repository root: ./scripts/bench.sh
# Set MOBIEYES_QUICK=1 for a ~10x smaller smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

for smoke in chaos cluster recovery; do
  cargo run -q --release -p mobieyes-bench --bin "$smoke"
done
