//! Multi-process MobiEyes: partition services and a coordinator driver.
//!
//! `mobieyes-serve partition` hosts one grid partition behind the framed
//! RPC protocol on a TCP or Unix-domain endpoint; it prints `READY
//! <endpoint>` (with `port 0` resolved) once listening, then serves one
//! coordinator until `Shutdown`. Exit code 0 means a clean `Shutdown`;
//! exit code 2 means the transport died underneath the service (peer
//! vanished, poisoned listener) — the supervisor treats that as a crash.
//!
//! `mobieyes-serve drive` spawns one partition process per shard, runs
//! the standard simulation workload against them from this process, and
//! cross-checks the final result digest against an in-process lock-step
//! run of the identical configuration — the self-contained smoke test
//! `scripts/check.sh` calls. With `--crash-tick` it additionally plays
//! supervisor: at the scheduled tick it `SIGKILL`s the victim partition
//! processes, lets the coordinator detect the deaths and run the
//! failover fence, and — under `--recovery respawn` — restarts each
//! victim on a fresh endpoint and hands the re-connected socket back to
//! the coordinator for the re-adoption fence (DESIGN.md §13). The
//! lock-step reference runs the *same* crash plan in-process, so the
//! final digests must still match exactly.

use mobieyes::cluster::serve_partition;
use mobieyes::net::{Endpoint, Listener};
use mobieyes::prelude::*;
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::Duration;

const HELP: &str = "\
mobieyes-serve: run MobiEyes partitions as separate OS processes

USAGE:
    mobieyes-serve partition --partition <N> --listen <endpoint>
    mobieyes-serve drive [options]

ENDPOINTS:
    tcp:host:port    TCP (port 0 = OS-assigned, resolved in READY line)
    uds:/path.sock   Unix-domain socket

PARTITION:
    Hosts one grid partition. Prints `READY <endpoint>` when listening,
    serves exactly one coordinator connection, exits after Shutdown.
    Exits 0 on clean Shutdown, 2 when the transport dies underneath it.

DRIVE OPTIONS:
    --transport <tcp|uds>   socket family for the partition processes [uds]
    --partitions <N>        number of partition processes [2]
    --mode <eqp|lqp>        propagation mode [eqp]
    --objects <N>           moving objects [small-test default]
    --queries <N>           moving queries [small-test default]
    --ticks <N>             measured ticks [50]
    --warmup <N>            warm-up ticks [small-test default]
    --seed <N>              workload seed [7]
    --json <path>           write the outcome as JSON
    --crash-tick <N>        SIGKILL seeded victim partitions at measured
                            tick N (0 = off) [0]
    --kill <N>              partitions to kill at the crash tick [1]
    --recovery <mode>       failover | respawn: keep the victims' cells at
                            the survivors, or restart each victim process
                            and hand its cells back [failover]
    --store-dir <path>      journal every partition to durable logs under
                            <path>/live (the lock-step reference journals
                            under <path>/reference — never shared). Both
                            subtrees are wiped at start. A SIGKILLed
                            partition's queries are then recovered by log
                            replay instead of the agent round trip [off]
    --checkpoint-ticks <N>  checkpoint the durable logs every N ticks
                            (snapshot + segment GC) [0 = off]
    --rebalance-ticks <N>   rebalance the partition map from observed load
                            every N measured ticks; runs the remote fence
                            over the partition sockets (0 = off) [0]
";

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("unparseable value: {s}"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let code = match args.next().as_deref() {
        Some("partition") => run_partition(args),
        Some("drive") => run_drive(args),
        Some("-h") | Some("--help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{HELP}")),
    };
    if let Err(e) = code {
        eprintln!("mobieyes-serve: {e}");
        std::process::exit(1);
    }
}

fn run_partition(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut partition: Option<u32> = None;
    let mut listen: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--partition" => partition = Some(parse(&value("--partition")?)?),
            "--listen" => listen = Some(value("--listen")?),
            other => return Err(format!("unknown partition flag {other:?}")),
        }
    }
    let partition = partition.ok_or("--partition is required")?;
    let listen = listen.ok_or("--listen is required")?;
    let endpoint = Endpoint::parse(&listen).map_err(|e| e.to_string())?;
    let listener = Listener::bind(&endpoint).map_err(|e| e.to_string())?;
    let bound = listener.local_endpoint().map_err(|e| e.to_string())?;
    println!("READY {bound}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // A transport death is not a usage error: exit 2 so a supervisor can
    // tell "the coordinator vanished" apart from "bad arguments".
    if let Err(e) = serve_partition(listener, partition) {
        eprintln!("mobieyes-serve: partition {partition}: {e}");
        std::process::exit(2);
    }
    Ok(())
}

/// Spawns one partition service process and waits for its `READY` line.
/// `incarnation` keeps respawned Unix-socket paths collision-free: the
/// SIGKILLed predecessor never unlinked its socket.
fn spawn_service(
    exe: &std::path::Path,
    transport: TransportKind,
    p: usize,
    incarnation: u64,
) -> Result<(Child, Endpoint), String> {
    let listen = match transport {
        TransportKind::Tcp => "tcp:127.0.0.1:0".to_string(),
        TransportKind::Uds => format!(
            "uds:{}",
            std::env::temp_dir()
                .join(format!(
                    "mobieyes-serve-{}-{p}-{incarnation}.sock",
                    std::process::id()
                ))
                .display()
        ),
        TransportKind::Lockstep => unreachable!("rejected at parse"),
    };
    let mut child = Command::new(exe)
        .args([
            "partition",
            "--partition",
            &p.to_string(),
            "--listen",
            &listen,
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning partition {p}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut ready = String::new();
    BufReader::new(stdout)
        .read_line(&mut ready)
        .map_err(|e| format!("reading READY from partition {p}: {e}"))?;
    let bound = ready
        .trim()
        .strip_prefix("READY ")
        .ok_or_else(|| format!("partition {p} printed {ready:?}, expected READY"))?;
    let endpoint = Endpoint::parse(bound).map_err(|e| e.to_string())?;
    Ok((child, endpoint))
}

fn run_drive(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut transport = TransportKind::Uds;
    let mut partitions: usize = 2;
    let mut mode = Propagation::Eager;
    let mut ticks: usize = 50;
    let mut seed: u64 = 7;
    let mut objects: Option<usize> = None;
    let mut queries: Option<usize> = None;
    let mut warmup: Option<usize> = None;
    let mut json_out: Option<String> = None;
    let mut crash_tick: usize = 0;
    let mut kills: usize = 1;
    let mut recovery = RecoveryKind::Failover;
    let mut store_dir: Option<String> = None;
    let mut checkpoint_ticks: usize = 0;
    let mut rebalance_ticks: usize = 0;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--transport" => {
                transport =
                    TransportKind::parse(&value("--transport")?).map_err(|e| e.to_string())?;
                if transport == TransportKind::Lockstep {
                    return Err("drive needs a socket transport: tcp or uds".into());
                }
            }
            "--partitions" => partitions = parse(&value("--partitions")?)?,
            "--mode" => {
                mode = match value("--mode")?.as_str() {
                    "eqp" => Propagation::Eager,
                    "lqp" => Propagation::Lazy,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--objects" => objects = Some(parse(&value("--objects")?)?),
            "--queries" => queries = Some(parse(&value("--queries")?)?),
            "--ticks" => ticks = parse(&value("--ticks")?)?,
            "--warmup" => warmup = Some(parse(&value("--warmup")?)?),
            "--seed" => seed = parse(&value("--seed")?)?,
            "--json" => json_out = Some(value("--json")?),
            "--crash-tick" => crash_tick = parse(&value("--crash-tick")?)?,
            "--kill" => kills = parse(&value("--kill")?)?,
            "--recovery" => {
                recovery = RecoveryKind::parse(&value("--recovery")?).map_err(|e| e.to_string())?
            }
            "--store-dir" => store_dir = Some(value("--store-dir")?),
            "--checkpoint-ticks" => checkpoint_ticks = parse(&value("--checkpoint-ticks")?)?,
            "--rebalance-ticks" => rebalance_ticks = parse(&value("--rebalance-ticks")?)?,
            other => return Err(format!("unknown drive flag {other:?}")),
        }
    }
    if partitions == 0 {
        return Err("--partitions must be at least 1".into());
    }
    if crash_tick > 0 {
        if partitions < 2 {
            return Err("--crash-tick needs at least 2 partitions".into());
        }
        if kills == 0 || kills >= partitions {
            return Err(format!(
                "--kill must be between 1 and {} for {partitions} partitions",
                partitions - 1
            ));
        }
        if crash_tick >= ticks {
            return Err(format!(
                "--crash-tick {crash_tick} never fires within --ticks {ticks}"
            ));
        }
    }

    let mut config = SimConfig::small_test(seed)
        .with_propagation(mode)
        .with_partitions(partitions);
    {
        let mut b = SimConfigBuilder::from_config(config).ticks(ticks);
        if let Some(n) = objects {
            b = b.objects(n);
        }
        if let Some(n) = queries {
            b = b.queries(n);
        }
        if let Some(n) = warmup {
            b = b.warmup_ticks(n);
        }
        if crash_tick > 0 {
            b = b
                .partition_crash_ticks(crash_tick)
                .partition_crash_kills(kills)
                .recovery(recovery);
        }
        if checkpoint_ticks > 0 {
            b = b.store_checkpoint_ticks(checkpoint_ticks);
        }
        if rebalance_ticks > 0 {
            b = b.rebalance_ticks(rebalance_ticks);
        }
        config = b.build().map_err(|e| e.to_string())?;
    }

    // Resolve persistence exactly once, here: the live deployment and the
    // lock-step reference run the same configuration in the same process,
    // so they must never share (or inherit via MOBIEYES_STORE_DIR) a log
    // directory — the reference would replay the live run's journal. An
    // empty store path pins persistence off for both when no root is set.
    let store_root = store_dir
        .map(std::path::PathBuf::from)
        .or_else(|| config.resolved_store_dir());
    let (live_store, reference_store) = match &store_root {
        Some(root) => {
            let (live, reference) = (root.join("live"), root.join("reference"));
            for dir in [&live, &reference] {
                if let Err(e) = std::fs::remove_dir_all(dir) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(format!("wiping {}: {e}", dir.display()));
                    }
                }
            }
            (live, reference)
        }
        None => (std::path::PathBuf::new(), std::path::PathBuf::new()),
    };
    config = config.with_store_dir(live_store);

    // Spawn one partition process per shard and collect their endpoints.
    // The supervisor hooks below take and refill slots, so the children
    // live behind a shared, optional-per-slot vector.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let children: Rc<RefCell<Vec<Option<Child>>>> = Rc::new(RefCell::new(Vec::new()));
    let mut endpoints: Vec<Endpoint> = Vec::with_capacity(partitions);
    for p in 0..partitions {
        let (child, endpoint) = spawn_service(&exe, transport, p, 0)?;
        endpoints.push(endpoint);
        children.borrow_mut().push(Some(child));
    }

    // Run the workload against the live processes...
    let client =
        ClusterClient::connect(&endpoints, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let mut sim = client.into_sim(config.clone(), Telemetry::new());
    // `drive` is a verification run: audit every partition (and the
    // coordinator's mirror of what each one homes) after every tick.
    sim.set_audit(true);
    if crash_tick > 0 {
        // Kill hook: SIGKILL the victim and reap it, so its sockets are
        // provably closed before the coordinator's liveness probe runs.
        let kill_slots = Rc::clone(&children);
        sim.set_crash_hook(move |p| {
            if let Some(mut child) = kill_slots.borrow_mut()[p as usize].take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        });
        if recovery == RecoveryKind::Respawn {
            // Respawn hook: restart the victim on a fresh endpoint,
            // redo the hello exchange, and hand the connection back for
            // the re-adoption fence. `None` retries at the next tick.
            let respawn_slots = Rc::clone(&children);
            let respawn_exe = exe.clone();
            let incarnation = RefCell::new(0u64);
            sim.set_respawn_hook(move |p| {
                *incarnation.borrow_mut() += 1;
                let seq = *incarnation.borrow();
                let (child, endpoint) =
                    match spawn_service(&respawn_exe, transport, p as usize, seq) {
                        Ok(ok) => ok,
                        Err(e) => {
                            eprintln!("mobieyes-serve: respawning partition {p}: {e}");
                            return None;
                        }
                    };
                let conn = endpoint
                    .connect_with_retry(Duration::from_secs(10))
                    .map(FramedConn::new)
                    .and_then(|mut conn| {
                        conn.send_hello(0)?;
                        let announced = conn.expect_hello()?;
                        if announced != p {
                            return Err(TransportError::Handshake(format!(
                                "respawned service announced partition {announced}, expected {p}"
                            )));
                        }
                        Ok(conn)
                    });
                match conn {
                    Ok(conn) => {
                        respawn_slots.borrow_mut()[p as usize] = Some(child);
                        Some(conn)
                    }
                    Err(e) => {
                        eprintln!("mobieyes-serve: reconnecting partition {p}: {e}");
                        None
                    }
                }
            });
        }
    }
    let metrics = sim.run();
    let digest = sim.result_digest();
    // Crash-recovery and rebalance counters live on the cluster's private
    // bus sink (kept out of the protocol snapshot the equivalence tests
    // compare).
    let snapshot = sim.cluster().bus_telemetry().snapshot();
    let map_generation = sim.cluster().map_generation();
    // Whole-run base for the RPC counts below (neither is reset at the
    // end of warm-up).
    let uplinks: u64 = (0..partitions)
        .map(|p| sim.cluster().partition_ops(p))
        .sum();
    sim.shutdown();
    drop(sim);
    // Surviving children (and respawned victims) saw `Shutdown` and must
    // exit cleanly; failover victims were reaped by the kill hook and
    // their slots hold `None`.
    for (p, slot) in children.borrow_mut().iter_mut().enumerate() {
        if let Some(mut child) = slot.take() {
            let status = child
                .wait()
                .map_err(|e| format!("waiting for partition {p}: {e}"))?;
            if !status.success() {
                return Err(format!("partition {p} exited with {status}"));
            }
        }
    }

    // ...and the identical configuration on the in-process lock-step bus:
    // same seed, same crash plan, same recovery mode, so the final
    // digests must agree byte-for-byte even across a mid-run crash.
    let reference_config = config
        .with_transport(TransportKind::Lockstep)
        .with_store_dir(reference_store);
    let mut reference = MobiEyesSim::new(reference_config);
    reference.run();
    let reference_digest = reference.result_digest();

    let matched = digest == reference_digest;
    let crash_detections = snapshot.counter(mobieyes::telemetry::rec_keys::CRASH_DETECTIONS);
    let fences = snapshot.counter(mobieyes::telemetry::rec_keys::FENCES);
    let queries_replayed = snapshot.counter(mobieyes::telemetry::rec_keys::QUERIES_REPLAYED);
    let rebalance_installs = snapshot.counter(mobieyes::telemetry::rebal_keys::INSTALLS);
    let rebalance_skips = snapshot.counter(mobieyes::telemetry::rebal_keys::SKIPPED);
    let rebalance_aborts = snapshot.counter(mobieyes::telemetry::rebal_keys::ABORTS);
    let rpc_round_trips = snapshot.counter(mobieyes::telemetry::rpc_keys::ROUND_TRIPS);
    let rpc_posted = snapshot.counter(mobieyes::telemetry::rpc_keys::POSTED);
    let rpc_mirror_hits = snapshot.counter(mobieyes::telemetry::rpc_keys::MIRROR_HITS);
    let rpc_flushes = snapshot.counter(mobieyes::telemetry::rpc_keys::FLUSHES);
    let json = format!(
        concat!(
            "{{\n",
            "  \"transport\": \"{}\",\n",
            "  \"partitions\": {},\n",
            "  \"mode\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"ticks\": {},\n",
            "  \"crash_tick\": {},\n",
            "  \"kills\": {},\n",
            "  \"recovery\": \"{}\",\n",
            "  \"crash_detections\": {},\n",
            "  \"fences\": {},\n",
            "  \"store\": {},\n",
            "  \"queries_replayed\": {},\n",
            "  \"rebalance_ticks\": {},\n",
            "  \"map_generation\": {},\n",
            "  \"rebalance_installs\": {},\n",
            "  \"rebalance_skips\": {},\n",
            "  \"rebalance_aborts\": {},\n",
            "  \"uplinks\": {},\n",
            "  \"rpc_round_trips\": {},\n",
            "  \"rpc_posted\": {},\n",
            "  \"rpc_mirror_hits\": {},\n",
            "  \"rpc_flushes\": {},\n",
            "  \"digest\": \"{:016x}\",\n",
            "  \"reference_digest\": \"{:016x}\",\n",
            "  \"digests_match\": {},\n",
            "  \"msgs_per_second\": {},\n",
            "  \"avg_result_error\": {}\n",
            "}}\n"
        ),
        transport,
        partitions,
        if mode == Propagation::Lazy {
            "lqp"
        } else {
            "eqp"
        },
        seed,
        ticks,
        crash_tick,
        if crash_tick > 0 { kills } else { 0 },
        recovery,
        crash_detections,
        fences,
        store_root.is_some(),
        queries_replayed,
        rebalance_ticks,
        map_generation,
        rebalance_installs,
        rebalance_skips,
        rebalance_aborts,
        uplinks,
        rpc_round_trips,
        rpc_posted,
        rpc_mirror_hits,
        rpc_flushes,
        digest,
        reference_digest,
        matched,
        metrics.msgs_per_second,
        metrics.avg_result_error,
    );
    print!("{json}");
    if let Some(path) = json_out {
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if !matched {
        return Err(format!(
            "result digest diverged: live {digest:016x} vs lock-step {reference_digest:016x}"
        ));
    }
    Ok(())
}
