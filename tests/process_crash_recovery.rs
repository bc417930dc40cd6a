//! Partition crash recovery across a real process boundary (DESIGN.md
//! §13): partition services run as separate OS processes spawned from the
//! `mobieyes-serve` binary, a victim is `SIGKILL`ed mid-run, and the
//! coordinator must detect the death, run the failover (and, in respawn
//! mode, re-adoption) fence, and reconverge to exact ground truth — with
//! per-tick results and the final digest byte-identical to an in-process
//! lock-step deployment playing the same crash plan.

use mobieyes::net::PartitionCrashPlan;
use mobieyes::prelude::*;
use std::cell::RefCell;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const PARTITIONS: usize = 4;
const LEASE_TICKS: usize = 6;
/// The §13 convergence contract: three leases plus the digest-beacon
/// round trip, with mobility frozen.
const MAX_RECOVERY: usize = 3 * LEASE_TICKS + 2;
const CRASH_TICK: u64 = 8;
const POST_CRASH_TICKS: usize = 4;

fn crash_config(seed: u64) -> SimConfig {
    SimConfig::small_test(seed)
        .with_lease_ticks(LEASE_TICKS)
        .with_partitions(PARTITIONS)
}

/// Spawns one `mobieyes-serve partition` child on a fresh Unix socket and
/// waits for its `READY` line. The tests of this file run on parallel
/// threads of one process, so the path is keyed on a process-wide spawn
/// counter — never on anything two tests could share.
fn spawn_service(p: usize) -> (Child, Endpoint) {
    static SPAWNS: AtomicU64 = AtomicU64::new(0);
    let listen = format!(
        "uds:{}",
        std::env::temp_dir()
            .join(format!(
                "mobieyes-crashtest-{}-{}.sock",
                std::process::id(),
                SPAWNS.fetch_add(1, Ordering::Relaxed)
            ))
            .display()
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_mobieyes-serve"))
        .args([
            "partition",
            "--partition",
            &p.to_string(),
            "--listen",
            &listen,
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn partition service");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut ready = String::new();
    BufReader::new(stdout)
        .read_line(&mut ready)
        .expect("read READY line");
    let bound = ready
        .trim()
        .strip_prefix("READY ")
        .expect("service announces READY");
    (child, Endpoint::parse(bound).expect("parse bound endpoint"))
}

fn connect(endpoint: &Endpoint, p: u32) -> FramedConn {
    let stream = endpoint
        .connect_with_retry(Duration::from_secs(10))
        .expect("connect to partition service");
    let mut conn = FramedConn::new(stream);
    conn.send_hello(0).expect("send hello");
    let announced = conn.expect_hello().expect("receive hello");
    assert_eq!(announced, p, "service announced the wrong partition");
    conn
}

struct Trace {
    results: Vec<Vec<std::collections::BTreeSet<mobieyes::core::ObjectId>>>,
    converged_after: usize,
    digest: u64,
    generation: u64,
}

fn collect(sim: &MobiEyesSim) -> Vec<std::collections::BTreeSet<mobieyes::core::ObjectId>> {
    sim.query_ids()
        .iter()
        .map(|&q| sim.query_result_owned(q).unwrap_or_default())
        .collect()
}

/// Steps a deployment through the crash and the convergence phase,
/// asserting the §13 contract along the way.
fn run_traced(mut sim: MobiEyesSim, victims: &[u32], respawn: bool) -> Trace {
    let mut results = Vec::new();
    for _ in 0..CRASH_TICK as usize + POST_CRASH_TICKS {
        sim.step(false);
        results.push(collect(&sim));
    }
    if respawn {
        assert!(
            sim.cluster().dead_partitions().is_empty(),
            "respawn must bring every victim back"
        );
    } else {
        assert_eq!(
            sim.cluster().dead_partitions(),
            victims,
            "victims must stay fenced off under failover"
        );
    }
    assert!(
        sim.cluster().map_generation() > 0,
        "failover fence must run"
    );
    sim.freeze(true);
    let truth = sim.ground_truth();
    let mut converged_after = None;
    for extra in 0..=MAX_RECOVERY {
        let exact = sim.query_ids().iter().zip(&truth).all(|(&q, t)| {
            sim.query_result_owned(q)
                .map(|r| &r == t)
                .unwrap_or(t.is_empty())
        });
        if exact {
            converged_after = Some(extra);
            break;
        }
        sim.step(false);
    }
    let converged_after =
        converged_after.unwrap_or_else(|| panic!("no reconvergence within {MAX_RECOVERY} ticks"));
    let digest = sim.result_digest();
    let generation = sim.cluster().map_generation();
    sim.shutdown();
    Trace {
        results,
        converged_after,
        digest,
        generation,
    }
}

fn assert_process_crash_recovery(seed: u64, recovery: RecoveryKind, rebalance_ticks: usize) {
    let plan = PartitionCrashPlan::seeded(seed, PARTITIONS as u32, 1, CRASH_TICK);
    let victims = plan.victims.clone();
    let config = || crash_config(seed).with_rebalance_ticks(rebalance_ticks);

    // The live deployment: one OS process per partition.
    let children: Rc<RefCell<Vec<Option<Child>>>> = Rc::new(RefCell::new(Vec::new()));
    let mut conns = Vec::with_capacity(PARTITIONS);
    for p in 0..PARTITIONS {
        let (child, endpoint) = spawn_service(p);
        conns.push(connect(&endpoint, p as u32));
        children.borrow_mut().push(Some(child));
    }
    let mut sim = MobiEyesSim::with_remote_cluster(config(), Telemetry::new(), conns);
    // Every tick — through the SIGKILL, the fences and the respawn — each
    // live handle's mirror must equal what its partition process homes.
    sim.set_audit(true);
    sim.set_crash_plan(plan.clone());
    sim.set_recovery(recovery);
    let kill_slots = Rc::clone(&children);
    sim.set_crash_hook(move |p| {
        // SIGKILL, then reap: the child's sockets are provably closed
        // before the coordinator's liveness probe runs.
        if let Some(mut child) = kill_slots.borrow_mut()[p as usize].take() {
            child.kill().expect("SIGKILL the victim service");
            child.wait().expect("reap the victim service");
        }
    });
    if recovery == RecoveryKind::Respawn {
        let respawn_slots = Rc::clone(&children);
        sim.set_respawn_hook(move |p| {
            let (child, endpoint) = spawn_service(p as usize);
            let conn = connect(&endpoint, p);
            respawn_slots.borrow_mut()[p as usize] = Some(child);
            Some(conn)
        });
    }
    let live = run_traced(sim, &victims, recovery == RecoveryKind::Respawn);
    // Survivors (and respawned victims) saw Shutdown and must exit
    // cleanly; failover victims were reaped by the kill hook.
    for (p, slot) in children.borrow_mut().iter_mut().enumerate() {
        if let Some(mut child) = slot.take() {
            let status = child.wait().expect("wait for partition service");
            assert!(status.success(), "partition {p} exited with {status}");
        }
    }

    // The reference: the identical crash plan on the in-process bus.
    let mut reference = MobiEyesSim::new(config());
    reference.set_crash_plan(plan);
    reference.set_recovery(recovery);
    let lockstep = run_traced(reference, &victims, recovery == RecoveryKind::Respawn);

    assert_eq!(
        live.results, lockstep.results,
        "per-tick results diverged between the process deployment and lock-step (seed {seed})"
    );
    assert_eq!(
        live.digest, lockstep.digest,
        "post-recovery digest diverged (seed {seed})"
    );
    assert_eq!(live.converged_after, lockstep.converged_after);
    assert_eq!(
        live.generation, lockstep.generation,
        "partition-map generation diverged (seed {seed})"
    );
    if rebalance_ticks > 0 {
        // The crash tick (8) straddles the rebalance schedule (5, 10, ...):
        // the load fence installed a generation before the SIGKILL and the
        // failover fence bumped again. Under respawn the victim rejoins, so
        // later load fences keep installing; under failover the partition
        // stays dead and every later attempt skips cleanly (the recovery
        // fences own the map while any slot is dead).
        let floor = if recovery == RecoveryKind::Respawn {
            3
        } else {
            2
        };
        assert!(
            live.generation >= floor,
            "expected rebalance generations around the crash, got {}",
            live.generation
        );
    }
}

#[test]
fn sigkilled_partition_process_fails_over_and_reconverges() {
    assert_process_crash_recovery(81, RecoveryKind::Failover, 0);
}

#[test]
fn sigkilled_partition_process_respawns_and_reconverges() {
    assert_process_crash_recovery(82, RecoveryKind::Respawn, 0);
}

/// The ISSUE-10 scenario: periodic load rebalancing is live, a partition
/// process is SIGKILLed between two installed map generations, and the
/// deployment must fence, recover, keep rebalancing, and still match the
/// lock-step reference byte-for-byte.
#[test]
fn sigkill_between_installed_generations_fails_over_and_reconverges() {
    assert_process_crash_recovery(81, RecoveryKind::Failover, 5);
}

#[test]
fn sigkill_between_installed_generations_respawns_and_reconverges() {
    assert_process_crash_recovery(82, RecoveryKind::Respawn, 5);
}
