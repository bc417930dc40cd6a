#!/usr/bin/env bash
# In-tree benchmark harnesses:
#  - crates/bench/src/bin/parallel.rs: sequential-vs-parallel tick engine
#    (the sequential engine is the 1-thread point) -> BENCH_parallel.json
#  - crates/bench/src/bin/chaos.rs: chaos-recovery latency percentiles
#    under faults + churn -> BENCH_chaos.json
#  - crates/bench/src/bin/cluster.rs: grid-sharded server-tier scaling
#    (per-partition load + bus traffic over 1..8 partitions)
#    -> BENCH_cluster.json
#  - crates/bench/src/bin/scale.rs: struct-of-arrays hot-path sweep from
#    2k to 1M objects at constant density, plus the seed-engine
#    head-to-head at 100k -> BENCH_scale.json
#  - crates/bench/src/bin/recovery.rs: partition-crash recovery latency
#    percentiles under failover and supervised respawn (one of 2, one of
#    4, two of 8 partitions killed) -> BENCH_recovery.json
#  - crates/bench/src/bin/persist.rs: durable-log write-path overhead,
#    append throughput, cold-start replay rate (digest-checked) and
#    checkpoint compaction cost -> BENCH_persist.json
# All JSON files land at the repository root. Every file records host
# provenance — the machine's core count and the MOBIEYES_THREADS setting
# in effect — so numbers from different machines stay attributable.
#
# Run from the repository root: ./scripts/bench.sh
# Set MOBIEYES_QUICK=1 for a ~10x smaller smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "host: $(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo '?') cores," \
     "MOBIEYES_THREADS=${MOBIEYES_THREADS:-auto}"

cargo run --release -p mobieyes-bench --bin parallel
cargo run --release -p mobieyes-bench --bin chaos
cargo run --release -p mobieyes-bench --bin cluster
cargo run --release -p mobieyes-bench --bin scale
cargo run --release -p mobieyes-bench --bin recovery
cargo run --release -p mobieyes-bench --bin persist
