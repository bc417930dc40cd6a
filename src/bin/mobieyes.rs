//! Command-line simulation driver: run any MobiEyes or baseline scenario
//! with Table 1 defaults and per-flag overrides, printing the full metric
//! set and optionally exporting the raw telemetry snapshot.
//!
//! ```console
//! $ mobieyes --objects 5000 --queries 500 --mode mobieyes-lqp --alpha 4
//! $ mobieyes --mode mobieyes-eqp --grouping --safe-period --ticks 60
//! $ mobieyes --mode naive            # centralized messaging baselines
//! $ mobieyes --mode object-index     # centralized engine baselines
//! $ mobieyes run --metrics-out results/run.json
//! $ mobieyes run --store-dir results/log --checkpoint-ticks 20
//! $ mobieyes trajectory --store-dir results/log --oid 7 --t0 0 --t1 600
//! ```

use mobieyes::prelude::*;

const HELP: &str = "\
mobieyes — distributed moving-query simulation driver

USAGE:
    mobieyes [run] [OPTIONS]
    mobieyes trajectory --store-dir <P> --oid <N> [--t0 <S>] [--t1 <S>]

The `trajectory` subcommand answers a historical query offline: it scans
the durable logs a previous `run --store-dir` left behind (one `p<N>`
directory per partition), merges every motion sample object <N> reported
within simulated seconds [t0, t1], and prints them in time order. The
logs are read cold — no simulation runs and nothing is modified.

OPTIONS:
    --mode <M>         mobieyes-eqp | mobieyes-lqp | naive | central-optimal |
                       object-index | query-index   [default: mobieyes-eqp]
                       (eqp / lqp are accepted as short aliases)
    --objects <N>      number of moving objects          [default: 10000]
    --queries <N>      number of moving queries          [default: 1000]
    --nmo <N>          velocity changes per time step    [default: 1000]
    --alpha <MILES>    grid cell side length             [default: 5]
    --alen <MILES>     base station side length          [default: 10]
    --area <SQMI>      universe area                     [default: 100000]
    --ticks <N>        measured time steps               [default: 40]
    --warmup <N>       warm-up time steps                [default: 5]
    --delta <MILES>    dead-reckoning threshold          [default: 0.2]
    --radius-factor <F> query radius multiplier          [default: 1]
    --focal-pool <N>   draw focal objects from first N objects
    --grouping         enable query grouping
    --safe-period      enable safe-period optimization
    --threads <N>      tick-engine worker threads; 0 = auto from
                       MOBIEYES_THREADS or the host CPU count [default: 0]
    --partitions <N>   grid-sharded server partitions (at least 1; 1 runs
                       the single server); results are byte-identical at
                       every count                       [default: 1]
    --transport <T>    where partitions run: lockstep | tcp | uds. With
                       --partitions > 1, tcp / uds host one partition
                       service per partition on a thread and drive it over
                       a socket, like mobieyes-serve; results are the same
                       (crash drills: mobieyes-serve drive) [default: lockstep]
    --engine <E>       tick engine: soa | seed; unset = auto from
                       MOBIEYES_ENGINE, else soa. The struct-of-arrays
                       engine skips provably-inert agents; results are
                       byte-identical either way. The seed engine runs
                       one worker thread                 [default: soa]
    --rebalance-ticks <N> rebalance the partition map from observed load
                       every N ticks; 0 = off. Never changes results, only
                       the load split                    [default: 0]
    --partition-crash-ticks <N> kill seeded victim partitions at measured
                       tick N and recover (DESIGN.md §13); 0 = off
                                                         [default: 0]
    --partition-crash-kills <N> partitions to kill at the crash tick
                       (fewer than --partitions)         [default: 1]
    --recovery <R>     crash recovery mode: failover (survivors keep the
                       dead cells) | respawn (victims restart and re-adopt
                       them)                             [default: failover]
    --store-dir <P>    journal every state-changing server input to an
                       append-only log under P (one `p<N>` directory per
                       partition); unset = off. A restarted server pointed
                       at the same directory replays to byte-identical
                       state
    --checkpoint-ticks <N> checkpoint the durable logs every N ticks
                       (snapshot + segment GC, bounding log size); 0 = off
                                                         [default: 0]
    --seed <N>         RNG seed
    --uplink-drop <P>  uplink message drop probability (0..=1)   [default: 0]
    --downlink-drop <P> downlink message drop probability (0..=1) [default: 0]
    --dup-rate <P>     message duplication probability (0..=1)   [default: 0]
    --churn-rate <P>   fraction of objects that disconnect (0..=1) [default: 0]
    --lease-ticks <N>  focal-object lease duration in ticks; 0 disables
                       the fault-tolerance layer             [default: 0]
    --metrics-out <P>  write the telemetry snapshot (phase timings,
                       message counters, query lifecycle events) to P;
                       .csv extension selects CSV, anything else JSON
    -h, --help         print this help
";

struct Cli {
    approach: Approach,
    config: SimConfig,
    metrics_out: Option<String>,
}

fn parse_approach(name: &str) -> Result<Approach, String> {
    // Back-compat aliases from the pre-`Approach` CLI.
    match name {
        "eqp" => Ok(Approach::MobiEyesEqp),
        "lqp" => Ok(Approach::MobiEyesLqp),
        other => other.parse(),
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut c = SimConfig::default();
    let mut approach = Approach::MobiEyesEqp;
    let mut metrics_out = None;
    let mut args = std::env::args().skip(1).peekable();
    // Accept an optional leading `run` subcommand (`mobieyes run ...`).
    if args.peek().map(String::as_str) == Some("run") {
        args.next();
    }
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--mode" => approach = parse_approach(&value("--mode")?)?,
            "--objects" => c.num_objects = parse(&value("--objects")?)?,
            "--queries" => c.num_queries = parse(&value("--queries")?)?,
            "--nmo" => c.objects_changing_velocity = parse(&value("--nmo")?)?,
            "--alpha" => c.alpha = parse(&value("--alpha")?)?,
            "--alen" => c.alen = parse(&value("--alen")?)?,
            "--area" => c.area = parse(&value("--area")?)?,
            "--ticks" => c.ticks = parse(&value("--ticks")?)?,
            "--warmup" => c.warmup_ticks = parse(&value("--warmup")?)?,
            "--delta" => c.delta = parse(&value("--delta")?)?,
            "--radius-factor" => c.radius_factor = parse(&value("--radius-factor")?)?,
            "--focal-pool" => c.focal_pool = Some(parse(&value("--focal-pool")?)?),
            "--threads" => c.threads = parse(&value("--threads")?)?,
            "--partitions" => c.partitions = parse(&value("--partitions")?)?,
            "--transport" => {
                let t = TransportKind::parse(&value("--transport")?).map_err(|e| e.to_string())?;
                c.transport = Some(t);
            }
            "--engine" => {
                let e = EngineKind::parse(&value("--engine")?).map_err(|e| e.to_string())?;
                c.engine = Some(e);
            }
            "--rebalance-ticks" => c.rebalance_ticks = parse(&value("--rebalance-ticks")?)?,
            "--partition-crash-ticks" => {
                c.partition_crash_ticks = parse(&value("--partition-crash-ticks")?)?;
            }
            "--partition-crash-kills" => {
                c.partition_crash_kills = parse(&value("--partition-crash-kills")?)?;
            }
            "--recovery" => {
                c.recovery =
                    RecoveryKind::parse(&value("--recovery")?).map_err(|e| e.to_string())?;
            }
            "--store-dir" => c.store_dir = Some(value("--store-dir")?.into()),
            "--checkpoint-ticks" => {
                c.store_checkpoint_ticks = parse(&value("--checkpoint-ticks")?)?;
            }
            "--seed" => c.seed = parse(&value("--seed")?)?,
            "--uplink-drop" => c.uplink_drop = parse(&value("--uplink-drop")?)?,
            "--downlink-drop" => c.downlink_drop = parse(&value("--downlink-drop")?)?,
            "--dup-rate" => c.dup_rate = parse(&value("--dup-rate")?)?,
            "--churn-rate" => c.churn_rate = parse(&value("--churn-rate")?)?,
            "--lease-ticks" => c.lease_ticks = parse(&value("--lease-ticks")?)?,
            "--grouping" => c.grouping = true,
            "--safe-period" => c.safe_period = true,
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    c.validate().map_err(|e| e.to_string())?;
    Ok(Cli {
        approach,
        config: c,
        metrics_out,
    })
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value: {s}"))
}

/// `mobieyes trajectory`: offline historical query over the durable logs
/// of a previous `run --store-dir`, no simulation involved.
fn run_trajectory(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut oid: Option<u32> = None;
    let mut t0 = 0.0f64;
    let mut t1 = f64::INFINITY;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--store-dir" => dir = Some(value("--store-dir")?),
            "--oid" => oid = Some(parse(&value("--oid")?)?),
            "--t0" => t0 = parse(&value("--t0")?)?,
            "--t1" => t1 = parse(&value("--t1")?)?,
            "-h" | "--help" => {
                print!("{HELP}");
                return Ok(());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let dir = std::path::PathBuf::from(dir.ok_or("trajectory requires --store-dir")?);
    let oid = ObjectId(oid.ok_or("trajectory requires --oid")?);
    // One `p<N>` log directory per partition; a single-server run writes
    // only `p0`. Merge whatever partitions the run left behind.
    let mut motions = Vec::new();
    let mut partitions = 0u32;
    loop {
        let sub = dir.join(format!("p{partitions}"));
        if !sub.is_dir() {
            break;
        }
        let part = mobieyes::store::read_trajectory(&sub, partitions, oid, t0, t1)
            .map_err(|e| format!("reading {}: {e}", sub.display()))?;
        motions.extend(part);
        partitions += 1;
    }
    if partitions == 0 {
        return Err(format!(
            "no partition logs (p0, p1, ...) under {}",
            dir.display()
        ));
    }
    mobieyes::store::sort_dedupe_motions(&mut motions);
    eprintln!(
        "trajectory of object {} over [{t0}, {}] s: {} samples from {partitions} partition log(s)",
        oid.0,
        if t1.is_finite() {
            format!("{t1}")
        } else {
            "inf".to_string()
        },
        motions.len()
    );
    println!("time_s\tpos_x\tpos_y\tvel_x\tvel_y");
    for m in &motions {
        println!(
            "{:.3}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            m.tm, m.pos.x, m.pos.y, m.vel.x, m.vel.y
        );
    }
    Ok(())
}

fn print_metrics(m: &RunMetrics) {
    println!("label:                        {}", m.label);
    println!("measured ticks:               {}", m.ticks);
    println!("simulated duration:           {:.0} s", m.duration_s);
    println!(
        "server load:                  {:.6} s/tick",
        m.server_seconds_per_tick
    );
    println!("messages/second:              {:.2}", m.msgs_per_second);
    println!(
        "  uplink:                     {:.2}",
        m.uplink_msgs_per_second
    );
    println!(
        "  downlink:                   {:.2}",
        m.downlink_msgs_per_second
    );
    println!(
        "bytes (up/down):              {} / {}",
        m.uplink_bytes, m.downlink_bytes
    );
    println!("avg LQT size:                 {:.3}", m.avg_lqt_size);
    println!(
        "avg evals/object/tick:        {:.3}",
        m.avg_evals_per_object_tick
    );
    println!(
        "avg safe-period skips:        {:.3}",
        m.avg_safe_period_skips
    );
    println!(
        "avg eval time:                {:.3} µs/object/tick",
        m.avg_eval_micros_per_object_tick
    );
    println!("avg result error:             {:.5}", m.avg_result_error);
    println!(
        "avg power:                    {:.3} mW/object",
        m.avg_power_mw
    );
}

fn export_snapshot(path: &str, snapshot: &MetricsSnapshot) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let body = if path.ends_with(".csv") {
        snapshot.to_csv()
    } else {
        snapshot.to_json()
    };
    std::fs::write(path, body)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("trajectory") {
        if let Err(e) = run_trajectory(std::env::args().skip(2)) {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(2);
        }
        return;
    }
    let cli = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    let config = cli.config;
    eprintln!(
        "running {}: {} objects, {} queries, alpha={}, alen={}, {} ticks (+{} warmup)...",
        cli.approach.name(),
        config.num_objects,
        config.num_queries,
        config.alpha,
        config.alen,
        config.ticks,
        config.warmup_ticks
    );
    let start = std::time::Instant::now();
    let report = run_approach(config, cli.approach);
    print_metrics(&report.metrics);
    if let Some(path) = &cli.metrics_out {
        // Exported snapshots include the coordinator's private bus-sink
        // data (rec.* / rebal.* counters, recovery + rebalance events) so
        // skipped or aborted fences are diagnosable from --metrics-out.
        let mut snapshot = report.snapshot.clone();
        if let Some(bus) = &report.bus_snapshot {
            snapshot.absorb(bus);
        }
        match export_snapshot(path, &snapshot) {
            Ok(()) => eprintln!("wrote telemetry snapshot to {path}"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("(wall time {:.1} s)", start.elapsed().as_secs_f64());
}
