//! Transport equivalence: both deployment shapes must agree on query
//! results.
//!
//! The reference deployment runs its partitions in process, pumping
//! inter-server envelopes over the deterministic lock-step bus. The same
//! workload is then run against live partition services on real sockets
//! (thread-hosted — the identical service loop `mobieyes-serve` runs
//! behind a process boundary). Both must produce identical per-tick
//! result sets for every query, on every seed × propagation ×
//! partition-count cell of the matrix. A chaos row runs the
//! fault-tolerant paths (leases, resyncs, soft-state refreshes under
//! churn and message faults) over the remote handles too.

use mobieyes_core::server::srv_keys;
use mobieyes_core::{ObjectId, Propagation};
use mobieyes_net::ChurnPlan;
use mobieyes_sim::{ClusterClient, HostedPartitions, MobiEyesSim, SimConfig};
use mobieyes_telemetry::{rpc_keys, Telemetry};
use std::collections::BTreeSet;
use std::time::Duration;

const TICKS: usize = 10;

type ResultTrace = Vec<Vec<BTreeSet<ObjectId>>>;

fn config(seed: u64, propagation: Propagation, partitions: usize) -> SimConfig {
    SimConfig::small_test(seed)
        .with_propagation(propagation)
        .with_partitions(partitions)
}

/// Steps `sim` for `ticks`, capturing every query's result set after each
/// tick (owned fetch: works on remote deployments too).
fn trace_ticks(sim: &mut MobiEyesSim, ticks: usize) -> ResultTrace {
    // Every partition's invariants — and, on a remote deployment, every
    // handle's mirror of what its partition homes — hold after each tick.
    sim.set_audit(true);
    (0..ticks)
        .map(|_| {
            sim.step(true);
            sim.query_ids()
                .iter()
                .map(|&q| sim.query_result_owned(q).unwrap_or_default())
                .collect()
        })
        .collect()
}

/// [`trace_ticks`] over the comparison window.
fn trace(sim: &mut MobiEyesSim) -> ResultTrace {
    trace_ticks(sim, TICKS)
}

fn assert_traces_match(label: &str, reference: &ResultTrace, candidate: &ResultTrace) {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "{label}: tick counts differ"
    );
    for (t, (r, c)) in reference.iter().zip(candidate.iter()).enumerate() {
        assert_eq!(r, c, "{label}: result sets diverge at tick {t}");
    }
}

/// Runs the full workload against thread-hosted partition services over
/// real sockets and returns the per-tick trace plus the final digest.
fn remote_trace(cfg: SimConfig, partitions: usize, uds: bool) -> (ResultTrace, u64) {
    let hosted = HostedPartitions::spawn(partitions, uds).expect("spawn partition services");
    let client = ClusterClient::connect(hosted.endpoints(), Duration::from_secs(5))
        .expect("connect to hosted partitions");
    let mut sim = client.into_sim(cfg, Telemetry::new());
    let results = trace(&mut sim);
    let digest = sim.result_digest();
    sim.shutdown();
    hosted.join().expect("partition services exit cleanly");
    (results, digest)
}

fn check_cell(seed: u64, propagation: Propagation, partitions: usize, uds: bool) {
    let reference = {
        let mut sim = MobiEyesSim::new(config(seed, propagation, partitions));
        trace(&mut sim)
    };
    // Live services over real sockets, one per partition.
    let (remote, remote_digest) =
        remote_trace(config(seed, propagation, partitions), partitions, uds);
    assert_traces_match(
        &format!("remote seed={seed} p={partitions} {propagation:?}"),
        &reference,
        &remote,
    );
    // The digest summarizing the final sets must match the reference's.
    let mut ref_sim = MobiEyesSim::new(config(seed, propagation, partitions));
    for _ in 0..TICKS {
        ref_sim.step(true);
    }
    assert_eq!(
        ref_sim.result_digest(),
        remote_digest,
        "digest diverges: seed={seed} p={partitions} {propagation:?}"
    );
}

/// Like [`remote_trace`], but also reports the partition-map generation the
/// coordinator ended on — the rebalance cells assert the fence actually
/// installed new maps over the RPC surface, not just that results agree.
fn remote_rebalance_trace(cfg: SimConfig, partitions: usize, uds: bool) -> (ResultTrace, u64, u64) {
    let hosted = HostedPartitions::spawn(partitions, uds).expect("spawn partition services");
    let client = ClusterClient::connect(hosted.endpoints(), Duration::from_secs(5))
        .expect("connect to hosted partitions");
    let mut sim = client.into_sim(cfg, Telemetry::new());
    let results = trace(&mut sim);
    let digest = sim.result_digest();
    let generation = sim.cluster().map_generation();
    sim.shutdown();
    hosted.join().expect("partition services exit cleanly");
    (results, digest, generation)
}

/// Rebalance equivalence: with periodic load rebalancing enabled, the
/// coordinator quiesces the bus, installs a new partition-map generation,
/// and moves RQI cell state between partitions mid-run. The fence rides
/// the same bus/RPC surface as normal traffic, so lock-step and live
/// remote services must still agree per tick — and both must install the
/// identical sequence of generations (load planning uses coordinator-side
/// uplink counts, which are deployment-independent).
fn check_rebalance_cell(seed: u64, propagation: Propagation, partitions: usize, uds: bool) {
    let cfg = config(seed, propagation, partitions).with_rebalance_ticks(3);
    let (reference, reference_generation) = {
        let mut sim = MobiEyesSim::new(cfg.clone());
        let t = trace(&mut sim);
        (t, sim.cluster().map_generation())
    };
    assert!(
        reference_generation >= 1,
        "rebalance never installed a generation: seed={seed} p={partitions}"
    );
    let (remote, remote_digest, remote_generation) =
        remote_rebalance_trace(cfg.clone(), partitions, uds);
    assert_eq!(
        remote_generation, reference_generation,
        "remote generation diverges: seed={seed} p={partitions}"
    );
    assert_traces_match(
        &format!("rebalance remote seed={seed} p={partitions} {propagation:?}"),
        &reference,
        &remote,
    );
    let mut ref_sim = MobiEyesSim::new(cfg);
    for _ in 0..TICKS {
        ref_sim.step(true);
    }
    assert_eq!(
        ref_sim.result_digest(),
        remote_digest,
        "rebalance digest diverges: seed={seed} p={partitions} {propagation:?}"
    );
}

/// Warm-up, a chaos window (uplink and downlink drops and duplicates,
/// objects disconnecting and crashing), then fault-free recovery — every
/// tick traced.
fn chaos_trace(sim: &mut MobiEyesSim, seed: u64) -> ResultTrace {
    const WARMUP: usize = 3;
    const CHAOS: usize = 8;
    const RECOVERY: usize = 8;
    let mut results = trace_ticks(sim, WARMUP);
    sim.set_churn(ChurnPlan::new(
        0.3,
        0.2,
        0.3,
        0.2,
        0.12,
        CHAOS as u64,
        seed ^ 0xC0A5_7A11,
    ));
    results.extend(trace_ticks(sim, CHAOS));
    sim.clear_faults();
    results.extend(trace_ticks(sim, RECOVERY));
    results
}

/// The fault-tolerant paths over real sockets: with leases on, churn and
/// message faults drive resyncs (`resync → cell_change → posted fresh half
/// → calls`, purge deltas, focal reassert and cell-sync reply on the
/// lane) and soft-state refreshes (`lqt_sync`'s posted result deltas)
/// through remote handles, audited every tick, against the lock-step run
/// of the same plan.
fn check_chaos_cell(seed: u64, propagation: Propagation, partitions: usize, uds: bool) {
    let label = format!("chaos seed={seed} p={partitions} {propagation:?} uds={uds}");
    let cfg = config(seed, propagation, partitions).with_lease_ticks(3);
    let mut reference = MobiEyesSim::new(cfg.clone());
    let reference_trace = chaos_trace(&mut reference, seed);
    // Lock-step partitions count into the shared sink: the plan reached
    // the paths this row exists for.
    let counted = reference.telemetry().snapshot();
    let resyncs = counted.counter(srv_keys::RESYNC_REPLIES);
    assert!(resyncs > 0, "{label}: no resync");
    assert!(
        counted.counter(srv_keys::LQT_SYNCS) > 0,
        "{label}: no LQT sync"
    );

    let hosted = HostedPartitions::spawn(partitions, uds).expect("spawn partition services");
    let client = ClusterClient::connect(hosted.endpoints(), Duration::from_secs(5))
        .expect("connect to hosted partitions");
    let mut sim = client.into_sim(cfg, Telemetry::new());
    let remote_trace = chaos_trace(&mut sim, seed);
    let digest = sim.result_digest();
    let rpc = sim.bus_snapshot().expect("a cluster deployment");
    sim.shutdown();
    hosted.join().expect("partition services exit cleanly");

    assert_traces_match(&label, &reference_trace, &remote_trace);
    assert_eq!(reference.result_digest(), digest, "{label}: digest");
    // Every resync ends in a posted cell-sync reply, whatever else it did.
    let posted = rpc.counter(rpc_keys::POSTED);
    assert!(
        posted >= resyncs,
        "{label}: {posted} posted ops for {resyncs} resyncs"
    );
}

#[test]
fn chaos_matches_across_transports() {
    check_chaos_cell(61, Propagation::Eager, 2, true);
    check_chaos_cell(62, Propagation::Lazy, 2, false);
    check_chaos_cell(63, Propagation::Lazy, 4, true);
    check_chaos_cell(64, Propagation::Eager, 4, false);
}

#[test]
fn eqp_matches_across_transports() {
    for &seed in &[41u64, 42] {
        for &partitions in &[1usize, 2, 4] {
            check_cell(seed, Propagation::Eager, partitions, seed % 2 == 0);
        }
    }
}

#[test]
fn lqp_matches_across_transports() {
    for &seed in &[41u64, 42] {
        for &partitions in &[1usize, 2, 4] {
            check_cell(seed, Propagation::Lazy, partitions, seed % 2 == 1);
        }
    }
}

#[test]
fn rebalance_matches_across_transports() {
    for &seed in &[41u64, 42] {
        for &partitions in &[2usize, 4] {
            check_rebalance_cell(seed, Propagation::Eager, partitions, seed % 2 == 0);
        }
    }
    // One lazy cell: the fence must also preserve LQP's deferred state.
    check_rebalance_cell(41, Propagation::Lazy, 4, true);
}

/// `--transport tcp|uds` on a multi-partition config: the simulator hosts
/// the partition services itself, every partition op crosses a socket, and
/// the results are the lock-step run's.
#[test]
fn socket_transport_config_hosts_partition_services() {
    use mobieyes_sim::TransportKind;
    for (seed, kind) in [(43u64, TransportKind::Uds), (44, TransportKind::Tcp)] {
        let cfg = config(seed, Propagation::Eager, 2);
        let mut reference = MobiEyesSim::new(cfg.clone());
        let reference_trace = trace(&mut reference);
        let mut sim = MobiEyesSim::new(cfg.with_transport(kind));
        let hosted_trace = trace(&mut sim);
        let rpc = sim.bus_snapshot().expect("a cluster deployment");
        assert!(rpc.counter(rpc_keys::ROUND_TRIPS) > 0, "{kind}: no RPC");
        assert_eq!(reference.result_digest(), sim.result_digest(), "{kind}");
        sim.shutdown();
        assert_traces_match(&format!("hosted {kind}"), &reference_trace, &hosted_trace);
    }
}

/// A crash drill needs partitions this process can kill: over
/// thread-hosted services it is refused up front, naming the tool that
/// crashes real partition processes.
#[test]
#[should_panic(expected = "mobieyes-serve drive")]
fn crash_drill_on_hosted_services_is_refused() {
    let cfg = config(45, Propagation::Eager, 2)
        .with_transport(mobieyes_sim::TransportKind::Uds)
        .with_partition_crash_ticks(3);
    MobiEyesSim::new(cfg);
}
