#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, rustdoc, release build, full test suite.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Intra-doc links are checked like code: a link to an item this tree no
# longer has fails the gate instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> examples (the library server's end-to-end users)"
# `cargo test` only compiles them. `visualize` is left out: it writes the
# tracked results/snapshot.svg.
for example in quickstart knn_tracking taxi_dispatch battlefield; do
  if ! out=$(cargo run -q --release --example "$example" 2>&1) || grep -q 'panicked' <<<"$out"; then
    echo "example $example failed:"
    echo "$out"
    exit 1
  fi
done

echo "==> cargo test -q (MOBIEYES_THREADS=1)"
MOBIEYES_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q (MOBIEYES_THREADS=4)"
MOBIEYES_THREADS=4 cargo test -q --workspace

# JSON field assertions go through the assert-json helper instead of
# fragile grep -o pipelines.
assert_json() { cargo run -q --release -p mobieyes-bench --bin assert-json -- "$@"; }

echo "==> cost model and counter pins (exact)"
# The messaging-cost and power results rest on per-message byte counts,
# and those are counted off the encoder (codec::encoded_len): a changed
# message layout moves them. Two seeded runs — EQP, and LQP on four
# rebalancing partitions under loss, duplication and churn — pin the three
# wireless byte counters to the byte (each measured twice, identical both
# times). Changing a number here is a deliberate protocol change: update
# it and record why in CHANGES.md.
#
# The same runs pin the server's work counters. The server, the cluster
# coordinator and the journal count them in plain tallies and publish
# them once per phase, so a tally published late, twice or not at all
# shows here as a wrong number. The last two runs pin the journal itself:
# a store-backed run writes segment files whose sorted concatenation has
# one checksum, and its `store.appends` counts the measured ticks only
# (the warm-up's records are published before the warm-up reset clears
# them). The 4-partition run writes 20 files. The one-partition run (the
# paper's single server) writes 5: like every partition's log, the
# primitive records its coordinator sent it (cell changes, result
# changes, focal lease renewals, the heartbeat's time pushes, epoch bumps
# and the floors before them), nested lease teardowns included —
# `Server::apply` journals the record it is given and its handlers
# journal nothing.
pin_out=$(mktemp) && pin_store=$(mktemp -d)
pin() { # <label> <"keys"> <"values">: the keys' values in $pin_out, exactly
  local got="" key
  for key in $2; do
    got="$got $(assert_json "$pin_out" get "$key")"
  done
  [ "${got# }" = "$3" ] || { echo "$1: $2 read${got}, pinned $3"; exit 1; }
}
journal_pin() { # <label> <"files cksum bytes">: the segment files under $pin_store
  local segments store_sum
  segments=$(find "$pin_store" -type f | sort)
  store_sum="$(echo "$segments" | wc -l) $(echo "$segments" | xargs cat | cksum)"
  [ "$store_sum" = "$2" ] \
    || { echo "$1: files / cksum / bytes read $store_sum, pinned $2"; exit 1; }
  rm -rf "$pin_store" && mkdir "$pin_store"
}
net_bytes="net.uplink.bytes net.unicast.bytes net.broadcast.bytes"
srv_work="srv.uplinks_processed srv.velocity_reports srv.cell_changes srv.result_updates \
srv.broadcast_ops srv.unicast_ops srv.rqi_updates"
pin_run() { cargo run -q --release --bin mobieyes -- "$@" --metrics-out "$pin_out" >/dev/null; }
pin_run --objects 10000 --ticks 40 --seed 7
pin "cost model pin (eqp)" "$net_bytes" "3551150 4393920 3926469"
pin "counter pin (eqp)" "$srv_work" "79071 3108 50911 25052 42117 26494 106773"
pin_run --mode lqp --partitions 4 --rebalance-ticks 5 --objects 4000 --ticks 40 --seed 7 \
  --uplink-drop 0.1 --downlink-drop 0.1 --dup-rate 0.05 --churn-rate 0.05
pin "cost model pin (lqp-chaos)" "$net_bytes" "761440 255109 4390760"
pin "counter pin (lqp-chaos)" "$srv_work srv.resync_replies srv.stale_results_purged" \
  "15146 4478 2951 7584 39916 1499 67109 168 28"
pin_run --partitions 4 --rebalance-ticks 5 --objects 4000 --ticks 40 --seed 7 \
  --store-dir "$pin_store" --checkpoint-ticks 10
pin "counter pin (store)" "store.appends store.bytes" "65528 4223542"
journal_pin "journal pin" "20 3764039595 4786129"
# The in-process crash drill over a store: one partition is killed at tick 8
# (its journal flushed as the state is dropped), failed over — its lost
# queries come back by replaying that journal — and respawned two ticks
# later from a wiped store. The journals and the recovery counters pin
# kill -> flush -> failover replay -> fresh respawn.
pin_run --partitions 4 --partition-crash-ticks 8 --partition-crash-kills 1 --recovery respawn \
  --store-dir "$pin_store" --checkpoint-ticks 10 --objects 4000 --ticks 40 --seed 7
pin "counter pin (store, crash drill)" \
  "store.appends store.bytes rec.crash_detections rec.respawns rec.queries_replayed" \
  "66574 4274665 1 1 254"
journal_pin "journal pin (crash drill)" "19 944333207 4489904"
pin_run --mode lqp --objects 4000 --ticks 40 --seed 7 --uplink-drop 0.1 --downlink-drop 0.1 \
  --dup-rate 0.05 --churn-rate 0.05 --lease-ticks 6 --store-dir "$pin_store" --checkpoint-ticks 10
pin "counter pin (store, single server)" "store.appends store.bytes srv.leases_expired" \
  "108310 4564750 36"
# The only pinned run with leases is also the beacon path's pin: what the
# agents ask for on hearing a heartbeat and what the server answers. A
# digest looked up wrong shows as resyncs; a reconcile walked wrong as
# purges or bytes.
pin "beacon path pin (single server)" "agent.resync_requests agent.lqt_syncs \
agent.stale_discarded srv.lqt_syncs srv.resync_replies srv.stale_results_purged srv.heartbeats" \
  "19638 48655 26734 46027 18498 69 13"
pin "cost model pin (single server chaos)" "$net_bytes" "2662982 7532976 9280532"
journal_pin "journal pin (single server)" "5 1413112932 2972686"
rm -rf "$pin_out" "$pin_store"
unset -f pin_run journal_pin

echo "==> configuration (environment holds no knob but threads; misuse is classified)"
# A run is configured by its flags (SimConfig's fields) alone: the only
# variables the program reads are MOBIEYES_THREADS and the figure
# harness's MOBIEYES_QUICK. Eight more used to fill knobs left unset;
# each is set here to a value that would have reshaped the run (4
# rebalancing partitions, a crash drill, a durable store) or, for the
# tick engine, been refused, and the run must read exactly like a clean
# one and create no store. The names are spelled as prefix + suffix so
# no source line carries them.
inert_dir=$(mktemp -d)
inert_env=()
for knob in PARTITIONS=4 REBALANCE_TICKS=2 PARTITION_CRASH_TICKS=2 PARTITION_CRASH_KILLS=3 \
  RECOVERY=respawn STORE_CHECKPOINT_TICKS=1 "STORE_DIR=$inert_dir/store" ENGINE=sead; do
  inert_env+=("MOBIEYES_$knob")
done
inert_args=(--objects 400 --queries 40 --nmo 40 --ticks 8 --warmup 2 --area 10000 --seed 7)
err_clean=$(cargo run -q --release --bin mobieyes -- "${inert_args[@]}" \
  --metrics-out "$inert_dir/clean.json" 2>/dev/null | grep 'avg result error:')
err_hostile=$(env "${inert_env[@]}" cargo run -q --release --bin mobieyes -- "${inert_args[@]}" \
  --metrics-out "$inert_dir/hostile.json" 2>/dev/null | grep 'avg result error:')
[ "$err_hostile" = "$err_clean" ] \
  || { echo "configuration: removed variables moved the result error ($err_clean -> $err_hostile)"; exit 1; }
# Wall-clock fields (`*nanos`) differ run to run; every other line agrees.
diff <(grep -v nanos "$inert_dir/clean.json") <(grep -v nanos "$inert_dir/hostile.json") \
  || { echo "configuration: removed variables changed the telemetry snapshot"; exit 1; }
[ ! -e "$inert_dir/store" ] \
  || { echo "configuration: a removed variable still attached a durable store"; exit 1; }
rm -rf "$inert_dir"
# The same claim read off the source: nothing but the configuration module
# (MOBIEYES_THREADS) and the figure harness (MOBIEYES_QUICK) reads the
# environment, at run time or at build time.
env_readers=$(grep -rlE 'env::var|var_os|env!\(' src crates/*/src \
  | grep -vxE 'crates/sim/src/config\.rs|crates/bench/src/lib\.rs' || true)
[ -z "$env_readers" ] \
  || { echo "configuration: the environment is read in" $env_readers; exit 1; }
refused() { # <label> <command...>: exits non-zero naming the invalid configuration, no panic
  local label=$1 out
  shift
  if out=$("$@" 2>&1); then echo "configuration ($label): accepted"; exit 1; fi
  grep -q 'invalid configuration' <<<"$out" \
    || { echo "configuration ($label): not reported as an invalid configuration: $out"; exit 1; }
  if grep -q 'panicked' <<<"$out"; then echo "configuration ($label): panicked: $out"; exit 1; fi
}
refused "--partitions 0" cargo run -q --release --bin mobieyes -- "${inert_args[@]}" --partitions 0
refused "--alpha 0" cargo run -q --release --bin mobieyes -- "${inert_args[@]}" --alpha 0
refused "drive --partitions 0" cargo run -q --release --bin mobieyes-serve -- drive --partitions 0
unset -f refused

# The smokes below write their BENCH_*.json into the working tree, where
# the committed ones live: those are kept aside here and put back when the
# script exits, whether it passes or fails.
bench_kept=$(mktemp -d)
cp BENCH_chaos.json BENCH_cluster.json BENCH_recovery.json "$bench_kept"/
chaos_out_1=$(mktemp) && chaos_out_4=$(mktemp)
cluster_out_1=$(mktemp) && cluster_out_4=$(mktemp)
trap 'cp "$bench_kept"/BENCH_*.json . && rm -rf "$bench_kept"
  rm -f "$chaos_out_1" "$chaos_out_4" "$cluster_out_1" "$cluster_out_4"' EXIT

echo "==> chaos smoke (seq/parallel equivalence, convergence)"
# The chaos-recovery smoke is fully deterministic; the same scenario must
# produce byte-identical JSON at 1 and 4 worker threads,
# and every seed must converge back to exact ground truth (the bench caps
# recovery at the documented contract bound, so a non-converging seed
# shows up as recovery_ticks == contract_bound_ticks). The seed engine's
# agreement on churned, faulted steps is tests/engine_equivalence.rs's.
MOBIEYES_QUICK=1 MOBIEYES_THREADS=1 cargo run -q --release -p mobieyes-bench --bin chaos
mv BENCH_chaos.json "$chaos_out_1"
MOBIEYES_QUICK=1 MOBIEYES_THREADS=4 cargo run -q --release -p mobieyes-bench --bin chaos
mv BENCH_chaos.json "$chaos_out_4"
cmp "$chaos_out_1" "$chaos_out_4" \
  || { echo "chaos smoke: thread counts disagree"; exit 1; }
bound=$(assert_json "$chaos_out_1" get contract_bound_ticks)
assert_json "$chaos_out_1" forbid recovery_ticks "$bound" \
  || { echo "chaos smoke: a seed failed to converge within $bound ticks"; exit 1; }

echo "==> cluster smoke (partitioned-tier equivalence)"
# The cluster-scaling bench runs the same deployment over 1, 2, 4 and 8
# partitions and asserts internally that results and protocol telemetry
# are byte-identical to the single server. Running it at 1 and 4 worker
# threads and comparing the JSON additionally proves the partitioned tier
# is thread-count independent.
MOBIEYES_QUICK=1 MOBIEYES_THREADS=1 cargo run -q --release -p mobieyes-bench --bin cluster
mv BENCH_cluster.json "$cluster_out_1"
MOBIEYES_QUICK=1 MOBIEYES_THREADS=4 cargo run -q --release -p mobieyes-bench --bin cluster
mv BENCH_cluster.json "$cluster_out_4"
cmp "$cluster_out_1" "$cluster_out_4" \
  || { echo "cluster smoke: thread counts disagree"; exit 1; }
assert_json "$cluster_out_1" require bench cluster-scaling

echo "==> rebalance smoke (load-driven partition-map rebalancing)"
# The cluster bench's rebalance section re-runs the widest deployment with
# the partition map periodically recomputed from observed load, asserting
# internally that results and protocol telemetry still match the single
# server byte for byte. Here we additionally check the headline effect —
# the post-rebalance uplink skew must come in below the static-map skew —
# and drive the CLI path end to end with the new flag (a cadence short
# enough to fire several times in an 8-tick run).
skew_before=$(assert_json "$cluster_out_1" get skew_before)
skew_after=$(assert_json "$cluster_out_1" get skew_after)
awk -v a="$skew_after" -v b="$skew_before" 'BEGIN { exit !(a < b) }' \
  || { echo "rebalance smoke: skew did not improve ($skew_before -> $skew_after)"; exit 1; }
cargo run -q --release --bin mobieyes -- --partitions 4 --rebalance-ticks 3 \
  --objects 400 --queries 40 --nmo 40 --ticks 8 --warmup 2 --area 10000 >/dev/null

echo "==> remote rebalance smoke (rebalance fence over real sockets)"
# Four partition processes behind Unix-domain sockets with the partition
# map recomputed from observed load every 5 ticks: the quiesce / install /
# RQI-transfer fence rides the framed RPC surface instead of the in-process
# bus. `drive` exits non-zero unless the final digest matches the lock-step
# reference; on top of that at least one load-driven generation must have
# installed over the sockets and no fence may have aborted.
rebal_drive=$(mktemp)
cargo run -q --release --bin mobieyes-serve -- drive --transport uds \
  --partitions 4 --ticks 30 --seed 7 --rebalance-ticks 5 \
  --json "$rebal_drive" >/dev/null
assert_json "$rebal_drive" require digests_match true \
  || { echo "remote rebalance smoke: live digest diverged from lock-step"; exit 1; }
rebal_gen=$(assert_json "$rebal_drive" get map_generation)
awk -v g="$rebal_gen" 'BEGIN { exit !(g >= 1) }' \
  || { echo "remote rebalance smoke: no partition-map generation installed"; exit 1; }
assert_json "$rebal_drive" require rebalance_aborts 0 \
  || { echo "remote rebalance smoke: a rebalance fence aborted"; exit 1; }
rm -f "$rebal_drive"
# The cluster bench's rebalance_remote block measures the same fence over
# sockets; every skew_after in the file (in-process and remote) must beat
# every skew_before — the remote fence flattens load exactly like the
# in-process one.
assert_json "$cluster_out_1" require transport uds \
  || { echo "remote rebalance smoke: BENCH_cluster.json lacks the rebalance_remote block"; exit 1; }
r_after=$(assert_json "$cluster_out_1" max skew_after)
r_before=$(assert_json "$cluster_out_1" min skew_before)
awk -v a="$r_after" -v b="$r_before" 'BEGIN { exit !(a < b) }' \
  || { echo "remote rebalance smoke: socket skew did not improve ($r_before -> $r_after)"; exit 1; }

echo "==> recovery smoke (partition crash failover + supervised respawn)"
# The crash-recovery bench kills seeded partitions mid-run and measures
# frozen-mobility ticks back to exact ground truth; like the chaos bench
# it is deterministic across thread counts, and a non-converging scenario
# surfaces as recovery_ticks == contract_bound_ticks.
recovery_out_1=$(mktemp) && recovery_out_4=$(mktemp)
MOBIEYES_QUICK=1 MOBIEYES_THREADS=1 cargo run -q --release -p mobieyes-bench --bin recovery
mv BENCH_recovery.json "$recovery_out_1"
MOBIEYES_QUICK=1 MOBIEYES_THREADS=4 cargo run -q --release -p mobieyes-bench --bin recovery
mv BENCH_recovery.json "$recovery_out_4"
cmp "$recovery_out_1" "$recovery_out_4" \
  || { echo "recovery smoke: thread counts disagree"; exit 1; }
rec_bound=$(assert_json "$recovery_out_1" get contract_bound_ticks)
assert_json "$recovery_out_1" forbid recovery_ticks "$rec_bound" \
  || { echo "recovery smoke: a scenario failed to converge within $rec_bound ticks"; exit 1; }
rm -f "$recovery_out_1" "$recovery_out_4"
# Supervised kill -9 across a real process boundary: the coordinator
# SIGKILLs one of four UDS partition processes mid-run, fences it, and —
# in respawn mode — restarts the child and re-adopts its cells. `drive`
# exits non-zero unless the final digest matches the in-process lock-step
# reference playing the identical crash plan.
recovery_drive=$(mktemp)
for rec in failover respawn; do
  cargo run -q --release --bin mobieyes-serve -- drive --transport uds \
    --partitions 4 --ticks 40 --seed 7 --crash-tick 8 --kill 1 \
    --recovery "$rec" --json "$recovery_drive" >/dev/null
  assert_json "$recovery_drive" require digests_match true \
    || { echo "recovery smoke ($rec): live digest diverged from lock-step"; exit 1; }
  assert_json "$recovery_drive" require crash_detections 1 \
    || { echo "recovery smoke ($rec): the kill was never detected"; exit 1; }
done
rm -f "$recovery_drive"

echo "==> persistence smoke (store-backed failover + trajectory read-back)"
# Replayed = live is tests/replay_equivalence.rs's and the benchmark's
# store probe's. Here, store-backed kill -9 across a real process
# boundary: the dead partition's queries must come back via log replay
# (the fast path, no agent round trip) and the final digest must still
# match lock-step.
# Replies — batched ones included — leave a partition only after the
# journal records they acknowledge (pinned by the serve.rs unit test), so
# the replayed log holds everything the coordinator saw complete. Under
# `respawn` the restarted process wipes its stale log (`store_fresh`) and
# the coordinator starts it with an empty mirror. The rows with a 5-tick
# rebalance cadence crash between installed generations (tick 8 falls
# after the tick-5 install), so the dead partition's replay must honour
# the `Bounds` record its log holds, and the fences must still install
# and never abort.
persist_drive=$(mktemp) && persist_store=$(mktemp -d)
for rebalance in 0 5; do
  for rec in failover respawn; do
    row="$rec, --rebalance-ticks $rebalance"
    cargo run -q --release --bin mobieyes-serve -- drive --transport uds \
      --partitions 4 --ticks 40 --seed 7 --crash-tick 8 --kill 1 \
      --recovery "$rec" --rebalance-ticks "$rebalance" \
      --store-dir "$persist_store" --json "$persist_drive" >/dev/null
    assert_json "$persist_drive" require digests_match true \
      || { echo "persist smoke ($row): store-backed drive digest diverged from lock-step"; exit 1; }
    replayed=$(assert_json "$persist_drive" get queries_replayed)
    awk -v n="$replayed" 'BEGIN { exit !(n >= 1) }' \
      || { echo "persist smoke ($row): no query was recovered via log replay"; exit 1; }
    [ "$rebalance" -eq 0 ] && continue
    installs=$(assert_json "$persist_drive" get rebalance_installs)
    awk -v n="$installs" 'BEGIN { exit !(n >= 1) }' \
      || { echo "persist smoke ($row): no partition-map generation installed"; exit 1; }
    assert_json "$persist_drive" require rebalance_aborts 0 \
      || { echo "persist smoke ($row): a rebalance fence aborted"; exit 1; }
  done
done
rm -rf "$persist_drive" "$persist_store"
# Historical trajectories through the CLI: journal a short run, then
# query an object's motion history back out of the cold log.
traj_store=$(mktemp -d)
cargo run -q --release --bin mobieyes -- --objects 300 --queries 30 --nmo 30 \
  --ticks 10 --warmup 2 --area 10000 --store-dir "$traj_store" >/dev/null
traj_samples=0
for oid in 0 1 2 3 4 5 6 7 8 9; do
  n=$(cargo run -q --release --bin mobieyes -- trajectory --store-dir "$traj_store" \
    --oid "$oid" --t0 0 --t1 1e18 2>/dev/null | tail -n +2 | wc -l)
  traj_samples=$((traj_samples + n))
done
[ "$traj_samples" -ge 1 ] \
  || { echo "persist smoke: trajectory queries returned no motion samples"; exit 1; }
rm -rf "$traj_store"

echo "==> socket smoke (multi-process partitions over UDS)"
# Two partition services in separate OS processes behind Unix-domain
# sockets, driven for 50 ticks by the coordinator; the final result digest
# must match an in-process lock-step run of the identical configuration.
# `drive` already exits non-zero on divergence (and audits every
# partition, and the coordinator's mirror of what it homes, after every
# tick); the JSON assertion keeps the contract visible in this gate.
#
# The same run guards the wire budget without a timing run: the
# coordinator may wait for at most 0.3 RPC round trips per uplink, counted
# over the whole run (cluster.rpc.round_trips over uplinks decomposed;
# 2000 objects so the per-tick audit and result fetches stay a small
# share), and must post more ops than it waits for. History of the ratio
# on this shape: near 4 with a per-uplink ownership probe (2 per lookup at
# 2 partitions, before the homes mirror), near 1 while every cell change
# of a non-focal object was a call, 0.16 now that every closed op is
# posted — what is left is the audit plus the epoch-moving ops of focal
# objects. A closed op demoted to a call shows up in both checks.
socket_out=$(mktemp)
cargo run -q --release --bin mobieyes-serve -- drive --transport uds \
  --partitions 2 --objects 2000 --ticks 50 --seed 7 --json "$socket_out" >/dev/null
assert_json "$socket_out" require digests_match true \
  || { echo "socket smoke: live digest diverged from lock-step"; exit 1; }
rpc_trips=$(assert_json "$socket_out" get rpc_round_trips)
rpc_posted=$(assert_json "$socket_out" get rpc_posted)
rpc_uplinks=$(assert_json "$socket_out" get uplinks)
awk -v r="$rpc_trips" -v u="$rpc_uplinks" 'BEGIN { exit !(u > 0 && r / u <= 0.3) }' \
  || { echo "socket smoke: $rpc_trips round trips for $rpc_uplinks uplinks blows the 0.3 per-uplink budget"; exit 1; }
awk -v p="$rpc_posted" -v r="$rpc_trips" 'BEGIN { exit !(p >= r) }' \
  || { echo "socket smoke: $rpc_posted posted ops against $rpc_trips waited round trips — the posted lane is not carrying the closed ops"; exit 1; }
# The exact counts of this seeded run: a call, a post or a probe gained or
# lost anywhere in the coordinator's mediation moves them deterministically,
# where the two ratio checks above only catch a large drift.
[ "$rpc_uplinks $rpc_trips $rpc_posted" = "14960 2436 14920" ] \
  || { echo "socket smoke: uplinks/round trips/posted $rpc_uplinks/$rpc_trips/$rpc_posted, want 14960/2436/14920"; exit 1; }
# Partition wake-ups: flushes that wrote requests to a partition's socket.
# A call or read reads only its own partition, its request riding behind
# that partition's posted ones in one write; the other partitions' posted
# replies wait until they are next read. Collecting every partition's
# lane before each call, the rule this replaced, costs 3082 here.
rpc_flushes=$(assert_json "$socket_out" get rpc_flushes)
[ "$rpc_flushes" = "2645" ] \
  || { echo "socket smoke: $rpc_flushes partition flushes, want 2645"; exit 1; }
rm -f "$socket_out"
# The CLI's `--transport uds` hosts the same partition services on threads
# of one process. The run must report the lock-step run's result error,
# and its partition ops must really have crossed the sockets.
cli_args=(--partitions 2 --objects 400 --queries 40 --nmo 40 --ticks 8 --warmup 2 --area 10000)
cli_lockstep=$(mktemp) && cli_uds=$(mktemp)
err_lockstep=$(cargo run -q --release --bin mobieyes -- "${cli_args[@]}" --transport lockstep \
  --metrics-out "$cli_lockstep" 2>/dev/null | grep 'avg result error:')
err_uds=$(cargo run -q --release --bin mobieyes -- "${cli_args[@]}" --transport uds \
  --metrics-out "$cli_uds" 2>/dev/null | grep 'avg result error:')
[ "$err_uds" = "$err_lockstep" ] \
  || { echo "socket smoke: --transport uds read '$err_uds', lockstep '$err_lockstep'"; exit 1; }
cli_trips=$(assert_json "$cli_uds" get cluster.rpc.round_trips)
[ "${cli_trips:-0}" -gt 0 ] \
  || { echo "socket smoke: --transport uds made no RPC round trip"; exit 1; }
rm -f "$cli_lockstep" "$cli_uds"

echo "==> benchmark harness (self-test + smoke)"
# The benchmark's own unit tests, then every workload once at smoke size
# with all correctness gates on (twin digests, exact-output agreement,
# store probes): a change that breaks the harness, or a gate, fails here
# instead of in the next timing run. No number from this stage is kept.
benchmark/run.sh --self-test
benchmark/run.sh --smoke >/dev/null

echo "All checks passed."
