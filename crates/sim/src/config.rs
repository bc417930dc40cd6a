//! Simulation parameters (Table 1 of the paper).

use crate::mobility::MobilityKind;
use mobieyes_core::Propagation;

/// How the cluster tier reaches its partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process partitions called directly (the default; byte-identical
    /// to the single server at any partition count).
    #[default]
    Lockstep,
    /// Partition services hosted on threads of this process, reached over
    /// loopback TCP: every partition op crosses the kernel as a framed RPC.
    Tcp,
    /// Thread-hosted partition services over Unix-domain sockets; same
    /// framing as TCP.
    Uds,
}

impl TransportKind {
    /// Parses `"lockstep"`, `"tcp"` or `"uds"` (case-insensitive).
    pub fn parse(s: &str) -> Result<TransportKind, ConfigError> {
        match s.to_ascii_lowercase().as_str() {
            "lockstep" => Ok(TransportKind::Lockstep),
            "tcp" => Ok(TransportKind::Tcp),
            "uds" | "unix" => Ok(TransportKind::Uds),
            other => Err(ConfigError(format!(
                "unknown transport {other:?} (expected lockstep, tcp or uds)"
            ))),
        }
    }

    /// The backend name (`"lockstep"`, `"tcp"`, `"uds"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::Lockstep => "lockstep",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How the cluster tier brings a crashed partition's cells back into
/// service (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryKind {
    /// Reassign the dead partition's cells to the surviving neighbors
    /// under an epoch fence; the process stays dead (the default).
    #[default]
    Failover,
    /// Fail over first, then restart the partition and hand its original
    /// cell span back under a second fence.
    Respawn,
}

impl RecoveryKind {
    /// Parses `"failover"` or `"respawn"` (case-insensitive).
    pub fn parse(s: &str) -> Result<RecoveryKind, ConfigError> {
        match s.to_ascii_lowercase().as_str() {
            "failover" => Ok(RecoveryKind::Failover),
            "respawn" => Ok(RecoveryKind::Respawn),
            other => Err(ConfigError(format!(
                "unknown recovery mode {other:?} (expected failover or respawn)"
            ))),
        }
    }

    /// The mode name (`"failover"`, `"respawn"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryKind::Failover => "failover",
            RecoveryKind::Respawn => "respawn",
        }
    }
}

impl std::fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tick-engine variant driving the agent side of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Struct-of-arrays fast path (the default): cold agents — empty LQT,
    /// not focal, cell unchanged, nothing to deliver — are skipped from
    /// per-agent flag/cell/deadline vectors without touching their heap
    /// state. Protocol-identical to the seed engine (only wall-clock
    /// samples differ) and takes every step, faulted and churned ones
    /// included.
    #[default]
    Soa,
    /// The original engine: every agent's motion and processing hooks run
    /// every tick. Kept as the reference the SoA engine is checked
    /// against (tests, the benchmark's twin).
    Seed,
}

impl EngineKind {
    /// Parses `"soa"` or `"seed"` (case-insensitive).
    pub fn parse(s: &str) -> Result<EngineKind, ConfigError> {
        match s.to_ascii_lowercase().as_str() {
            "soa" => Ok(EngineKind::Soa),
            "seed" => Ok(EngineKind::Seed),
            other => Err(ConfigError(format!(
                "unknown engine {other:?} (expected soa or seed)"
            ))),
        }
    }

    /// The engine name (`"soa"`, `"seed"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Soa => "soa",
            EngineKind::Seed => "seed",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rejected simulation configuration: which knob, what value, and what
/// the validator expected instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// All knobs of a simulation run. `Default` reproduces Table 1's default
/// column; the figure harnesses sweep individual fields.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every run with the same seed and parameters produces
    /// bit-identical traces and metrics.
    pub seed: u64,
    /// Time step `ts` in seconds (Table 1: 30 s).
    pub time_step: f64,
    /// Number of simulated time steps measured (after warm-up).
    pub ticks: usize,
    /// Warm-up steps excluded from metrics (query installation settles).
    pub warmup_ticks: usize,
    /// Grid cell side length α in miles (Table 1: 5, range 0.5–16).
    pub alpha: f64,
    /// Number of moving objects (Table 1: 10 000).
    pub num_objects: usize,
    /// Number of moving queries (Table 1: 1 000).
    pub num_queries: usize,
    /// Objects changing velocity vector per time step (Table 1: 1 000).
    pub objects_changing_velocity: usize,
    /// Area of the (square) universe of discourse in square miles
    /// (Table 1: 100 000).
    pub area: f64,
    /// Base station side length in miles (Table 1: 10, range 5–80).
    pub alen: f64,
    /// Query radius means in miles, zipf-ordered (Table 1: {3,2,1,4,5}).
    pub radius_means: Vec<f64>,
    /// Zipf parameter for radius means and speed classes (paper: 0.8).
    pub zipf_param: f64,
    /// Multiplier applied to every query radius (Figure 12's radius
    /// factor; 1.0 elsewhere).
    pub radius_factor: f64,
    /// Query filter selectivity (Table 1: 0.75).
    pub selectivity: f64,
    /// Object maximum speed classes in miles/hour, zipf-ordered
    /// (Table 1: {100, 50, 150, 200, 250}).
    pub speed_classes_mph: Vec<f64>,
    /// Dead-reckoning threshold Δ in miles (see DESIGN.md: chosen so every
    /// simulated velocity reset triggers a report on the next step).
    pub delta: f64,
    /// MobiEyes propagation mode.
    pub propagation: Propagation,
    /// MobiEyes query grouping optimization.
    pub grouping: bool,
    /// MobiEyes safe-period optimization.
    pub safe_period: bool,
    /// Trajectory generator (paper's velocity-reset model by default).
    pub mobility: MobilityKind,
    /// When set, query focal objects are drawn uniformly from the first
    /// `k` objects only, skewing the query-per-focal distribution (used by
    /// the grouping experiments; `None` = uniform over all objects, the
    /// paper's default).
    pub focal_pool: Option<usize>,
    /// Worker threads for the parallel tick engine. `0` (the default)
    /// means auto: the `MOBIEYES_THREADS` environment variable if set,
    /// otherwise the machine's available parallelism. Results are
    /// byte-identical at every thread count (see
    /// [`resolved_threads`](Self::resolved_threads)).
    pub threads: usize,
    /// Probability that an uplink message is dropped ([0, 1]; 0 = off).
    pub uplink_drop: f64,
    /// Probability that a downlink message is dropped ([0, 1]; 0 = off).
    pub downlink_drop: f64,
    /// Probability that a delivered message (either direction) is
    /// duplicated ([0, 1]; 0 = off).
    pub dup_rate: f64,
    /// Fraction of objects that experience one offline window during the
    /// faulty phase of the run ([0, 1]; 0 = no churn).
    pub churn_rate: f64,
    /// Focal-object lease duration in ticks; 0 disables the
    /// fault-tolerance layer (leases, heartbeats, soft-state refresh).
    /// Heartbeats fire every `max(1, lease_ticks / 2)` ticks.
    pub lease_ticks: usize,
    /// Server partitions for the grid-sharded cluster tier. `0` (the
    /// default) means auto: the `MOBIEYES_PARTITIONS` environment variable
    /// if set, otherwise 1. A resolved count of 1 runs the plain
    /// single-server path; results are byte-identical at every partition
    /// count (see [`resolved_partitions`](Self::resolved_partitions)).
    pub partitions: usize,
    /// Rebalance cadence for the cluster tier: recompute the partition
    /// map from observed load every `n` ticks. `0` (the default) means
    /// auto: the `MOBIEYES_REBALANCE_TICKS` environment variable if set,
    /// otherwise off. Ignored on the single-server path. Rebalancing
    /// never changes query results — only the load split (see
    /// [`resolved_rebalance_ticks`](Self::resolved_rebalance_ticks)).
    pub rebalance_ticks: usize,
    /// How the cluster tier reaches its partitions. `None` (the default)
    /// means lock-step in-process partitions; `tcp` / `uds` host one
    /// partition service per partition on a thread and drive it over a
    /// socket. Ignored on the single-server path; results are identical
    /// either way (see [`resolved_transport`](Self::resolved_transport)).
    pub transport: Option<TransportKind>,
    /// Agent tick-engine variant. `None` (the default) means auto: the
    /// `MOBIEYES_ENGINE` environment variable if set, otherwise the
    /// struct-of-arrays fast path. Results are protocol-identical on
    /// either engine (see [`resolved_engine`](Self::resolved_engine)).
    pub engine: Option<EngineKind>,
    /// Tick at which the crash-injection plan kills partitions (once per
    /// run). `0` (the default) means auto: the
    /// `MOBIEYES_PARTITION_CRASH_TICKS` environment variable if set,
    /// otherwise off. Victims are drawn deterministically from the seed;
    /// partition 0 (the epoch anchor) is never chosen. Requires the
    /// cluster tier (see
    /// [`resolved_partition_crash_ticks`](Self::resolved_partition_crash_ticks)).
    pub partition_crash_ticks: usize,
    /// Partitions killed at the crash tick. `0` (the default) means auto:
    /// the `MOBIEYES_PARTITION_CRASH_KILLS` environment variable if set,
    /// otherwise 1. Clamped to `partitions - 1` so at least one partition
    /// survives (see
    /// [`resolved_partition_crash_kills`](Self::resolved_partition_crash_kills)).
    pub partition_crash_kills: usize,
    /// Recovery mode for crashed partitions. `None` (the default) means
    /// auto: the `MOBIEYES_RECOVERY` environment variable if set,
    /// otherwise failover (see
    /// [`resolved_recovery`](Self::resolved_recovery)).
    pub recovery: Option<RecoveryKind>,
    /// Root directory of the durable trajectory logs (`<dir>/p<N>` per
    /// partition). `None` (the default) means auto: the
    /// `MOBIEYES_STORE_DIR` environment variable if set, otherwise no
    /// persistence (see [`resolved_store_dir`](Self::resolved_store_dir)).
    /// Existing logs under the directory are replayed into the server
    /// tier at build — point a fresh run at a fresh directory.
    pub store_dir: Option<std::path::PathBuf>,
    /// Checkpoint cadence in ticks for the durable logs (snapshot +
    /// segment GC; this is what bounds log growth). `0` (the default)
    /// means auto: the `MOBIEYES_STORE_CHECKPOINT_TICKS` environment
    /// variable if set, otherwise no periodic checkpoints (see
    /// [`resolved_store_checkpoint_ticks`](Self::resolved_store_checkpoint_ticks)).
    pub store_checkpoint_ticks: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x4D6F6269_45796573, // "MobiEyes"
            time_step: 30.0,
            ticks: 40,
            warmup_ticks: 5,
            alpha: 5.0,
            num_objects: 10_000,
            num_queries: 1_000,
            objects_changing_velocity: 1_000,
            area: 100_000.0,
            alen: 10.0,
            radius_means: vec![3.0, 2.0, 1.0, 4.0, 5.0],
            zipf_param: 0.8,
            radius_factor: 1.0,
            selectivity: 0.75,
            speed_classes_mph: vec![100.0, 50.0, 150.0, 200.0, 250.0],
            delta: 0.2,
            propagation: Propagation::Eager,
            grouping: false,
            safe_period: false,
            mobility: MobilityKind::default(),
            focal_pool: None,
            threads: 0,
            uplink_drop: 0.0,
            downlink_drop: 0.0,
            dup_rate: 0.0,
            churn_rate: 0.0,
            lease_ticks: 0,
            partitions: 0,
            rebalance_ticks: 0,
            transport: None,
            engine: None,
            partition_crash_ticks: 0,
            partition_crash_kills: 0,
            recovery: None,
            store_dir: None,
            store_checkpoint_ticks: 0,
        }
    }
}

impl SimConfig {
    /// Starts a validated fluent builder from the Table 1 defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Side length of the square universe of discourse, miles.
    pub fn side(&self) -> f64 {
        self.area.sqrt()
    }

    /// A small configuration for tests: few objects, small area, fast.
    pub fn small_test(seed: u64) -> Self {
        SimConfig {
            seed,
            ticks: 15,
            warmup_ticks: 3,
            num_objects: 300,
            num_queries: 30,
            objects_changing_velocity: 30,
            area: 10_000.0, // 100 x 100 miles
            ..SimConfig::default()
        }
    }

    /// Builder-style helpers for parameter sweeps.
    pub fn with_queries(mut self, n: usize) -> Self {
        self.num_queries = n;
        self
    }

    pub fn with_objects(mut self, n: usize) -> Self {
        self.num_objects = n;
        self
    }

    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    pub fn with_alen(mut self, alen: f64) -> Self {
        self.alen = alen;
        self
    }

    pub fn with_nmo(mut self, nmo: usize) -> Self {
        self.objects_changing_velocity = nmo;
        self
    }

    pub fn with_propagation(mut self, p: Propagation) -> Self {
        self.propagation = p;
        self
    }

    pub fn with_grouping(mut self, on: bool) -> Self {
        self.grouping = on;
        self
    }

    pub fn with_safe_period(mut self, on: bool) -> Self {
        self.safe_period = on;
        self
    }

    pub fn with_radius_factor(mut self, f: f64) -> Self {
        self.radius_factor = f;
        self
    }

    pub fn with_focal_pool(mut self, k: usize) -> Self {
        self.focal_pool = Some(k);
        self
    }

    pub fn with_mobility(mut self, kind: MobilityKind) -> Self {
        self.mobility = kind;
        self
    }

    pub fn with_lease_ticks(mut self, n: usize) -> Self {
        self.lease_ticks = n;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    pub fn with_rebalance_ticks(mut self, n: usize) -> Self {
        self.rebalance_ticks = n;
        self
    }

    pub fn with_transport(mut self, t: TransportKind) -> Self {
        self.transport = Some(t);
        self
    }

    pub fn with_engine(mut self, e: EngineKind) -> Self {
        self.engine = Some(e);
        self
    }

    pub fn with_partition_crash_ticks(mut self, tick: usize) -> Self {
        self.partition_crash_ticks = tick;
        self
    }

    pub fn with_partition_crash_kills(mut self, kills: usize) -> Self {
        self.partition_crash_kills = kills;
        self
    }

    pub fn with_recovery(mut self, r: RecoveryKind) -> Self {
        self.recovery = Some(r);
        self
    }

    pub fn with_store_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    pub fn with_store_checkpoint_ticks(mut self, n: usize) -> Self {
        self.store_checkpoint_ticks = n;
        self
    }

    /// Resolves the effective worker-thread count: an explicit
    /// `threads > 0` wins; otherwise a positive `MOBIEYES_THREADS`
    /// environment variable; otherwise the machine's available
    /// parallelism. Always at least 1.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Ok(v) = std::env::var("MOBIEYES_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Resolves the effective server-partition count: an explicit
    /// `partitions > 0` wins; otherwise a positive `MOBIEYES_PARTITIONS`
    /// environment variable; otherwise 1 (the single-server path).
    pub fn resolved_partitions(&self) -> usize {
        if self.partitions > 0 {
            return self.partitions;
        }
        if let Ok(v) = std::env::var("MOBIEYES_PARTITIONS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        1
    }

    /// Resolves the effective rebalance cadence (in ticks): an explicit
    /// `rebalance_ticks > 0` wins; otherwise a positive
    /// `MOBIEYES_REBALANCE_TICKS` environment variable; otherwise 0
    /// (rebalancing off).
    pub fn resolved_rebalance_ticks(&self) -> usize {
        if self.rebalance_ticks > 0 {
            return self.rebalance_ticks;
        }
        if let Ok(v) = std::env::var("MOBIEYES_REBALANCE_TICKS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        0
    }

    /// Resolves how the cluster tier reaches its partitions: an explicit
    /// `transport`, otherwise lock-step.
    pub fn resolved_transport(&self) -> TransportKind {
        self.transport.unwrap_or_default()
    }

    /// Refuses a partition-crash schedule on thread-hosted partition
    /// services: this process has no way to kill one. Lock-step
    /// partitions crash in-process; `mobieyes-serve drive` crashes real
    /// partition processes.
    pub(crate) fn check_crash_drill(&self) -> Result<(), ConfigError> {
        let transport = self.resolved_transport();
        let partitions = self.resolved_partitions();
        if transport == TransportKind::Lockstep
            || partitions < 2
            || self.resolved_partition_crash_ticks() == 0
        {
            return Ok(());
        }
        Err(ConfigError(format!(
            "a partition-crash schedule cannot run on --transport {transport} with \
             {partitions} partitions (thread-hosted services this process cannot kill); \
             crash real partitions with `mobieyes-serve drive --crash-tick N`, or use \
             --transport lockstep"
        )))
    }

    /// Resolves the effective agent tick engine: an explicit `engine`
    /// wins; otherwise a valid `MOBIEYES_ENGINE` environment variable;
    /// otherwise the struct-of-arrays fast path.
    pub fn resolved_engine(&self) -> EngineKind {
        if let Some(e) = self.engine {
            return e;
        }
        if let Ok(v) = std::env::var("MOBIEYES_ENGINE") {
            if let Ok(e) = EngineKind::parse(&v) {
                return e;
            }
        }
        EngineKind::default()
    }

    /// Resolves the crash-injection tick: an explicit
    /// `partition_crash_ticks > 0` wins; otherwise a positive
    /// `MOBIEYES_PARTITION_CRASH_TICKS` environment variable; otherwise 0
    /// (crash injection off).
    pub fn resolved_partition_crash_ticks(&self) -> usize {
        if self.partition_crash_ticks > 0 {
            return self.partition_crash_ticks;
        }
        if let Ok(v) = std::env::var("MOBIEYES_PARTITION_CRASH_TICKS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        0
    }

    /// Resolves the number of partitions killed at the crash tick: an
    /// explicit `partition_crash_kills > 0` wins; otherwise a positive
    /// `MOBIEYES_PARTITION_CRASH_KILLS` environment variable; otherwise 1.
    /// The crash plan additionally clamps the count to `partitions - 1` so
    /// at least one partition survives.
    pub fn resolved_partition_crash_kills(&self) -> usize {
        if self.partition_crash_kills > 0 {
            return self.partition_crash_kills;
        }
        if let Ok(v) = std::env::var("MOBIEYES_PARTITION_CRASH_KILLS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        1
    }

    /// Resolves the crash-recovery mode: an explicit `recovery` wins;
    /// otherwise a valid `MOBIEYES_RECOVERY` environment variable;
    /// otherwise failover.
    pub fn resolved_recovery(&self) -> RecoveryKind {
        if let Some(r) = self.recovery {
            return r;
        }
        if let Ok(v) = std::env::var("MOBIEYES_RECOVERY") {
            if let Ok(r) = RecoveryKind::parse(&v) {
                return r;
            }
        }
        RecoveryKind::default()
    }

    /// Resolves the durable-log root directory: an explicit `store_dir`
    /// wins; otherwise a non-empty `MOBIEYES_STORE_DIR` environment
    /// variable; otherwise `None` (persistence off). An explicitly empty
    /// path (`with_store_dir("")`) pins persistence OFF even when the
    /// environment variable is set — drivers that run a reference twin
    /// in the same process use it so both deployments never share (or
    /// accidentally inherit) a log directory.
    pub fn resolved_store_dir(&self) -> Option<std::path::PathBuf> {
        if let Some(d) = &self.store_dir {
            if d.as_os_str().is_empty() {
                return None;
            }
            return Some(d.clone());
        }
        if let Ok(v) = std::env::var("MOBIEYES_STORE_DIR") {
            if !v.is_empty() {
                return Some(std::path::PathBuf::from(v));
            }
        }
        None
    }

    /// Resolves the checkpoint cadence (in ticks) for the durable logs:
    /// an explicit `store_checkpoint_ticks > 0` wins; otherwise a
    /// positive `MOBIEYES_STORE_CHECKPOINT_TICKS` environment variable;
    /// otherwise 0 (periodic checkpoints off).
    pub fn resolved_store_checkpoint_ticks(&self) -> usize {
        if self.store_checkpoint_ticks > 0 {
            return self.store_checkpoint_ticks;
        }
        if let Ok(v) = std::env::var("MOBIEYES_STORE_CHECKPOINT_TICKS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        0
    }

    /// Number of grid cells the run's universe decomposes into, matching
    /// `Grid::new(universe, alpha)` for the square universe the workload
    /// builds (`ceil(side/alpha)²`).
    pub fn grid_cells(&self) -> usize {
        let cols = (self.side() / self.alpha).ceil() as usize;
        cols * cols
    }

    /// Total measured duration in seconds.
    pub fn measured_seconds(&self) -> f64 {
        self.ticks as f64 * self.time_step
    }
}

/// Fluent, validating construction of [`SimConfig`].
///
/// Unlike the raw struct (whose fields remain public for sweeps), the
/// builder rejects configurations the simulator cannot meaningfully run:
/// non-positive α, zero objects, a non-positive radius factor, and the
/// analogous degenerate values for the remaining knobs.
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Starts from an existing configuration instead of the defaults.
    pub fn from_config(config: SimConfig) -> Self {
        SimConfigBuilder { config }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    pub fn time_step(mut self, seconds: f64) -> Self {
        self.config.time_step = seconds;
        self
    }

    pub fn ticks(mut self, ticks: usize) -> Self {
        self.config.ticks = ticks;
        self
    }

    pub fn warmup_ticks(mut self, ticks: usize) -> Self {
        self.config.warmup_ticks = ticks;
        self
    }

    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    pub fn objects(mut self, n: usize) -> Self {
        self.config.num_objects = n;
        self
    }

    pub fn queries(mut self, n: usize) -> Self {
        self.config.num_queries = n;
        self
    }

    pub fn objects_changing_velocity(mut self, n: usize) -> Self {
        self.config.objects_changing_velocity = n;
        self
    }

    pub fn area(mut self, square_miles: f64) -> Self {
        self.config.area = square_miles;
        self
    }

    pub fn alen(mut self, miles: f64) -> Self {
        self.config.alen = miles;
        self
    }

    pub fn radius_factor(mut self, factor: f64) -> Self {
        self.config.radius_factor = factor;
        self
    }

    pub fn selectivity(mut self, s: f64) -> Self {
        self.config.selectivity = s;
        self
    }

    pub fn delta(mut self, miles: f64) -> Self {
        self.config.delta = miles;
        self
    }

    pub fn propagation(mut self, p: Propagation) -> Self {
        self.config.propagation = p;
        self
    }

    pub fn grouping(mut self, on: bool) -> Self {
        self.config.grouping = on;
        self
    }

    pub fn safe_period(mut self, on: bool) -> Self {
        self.config.safe_period = on;
        self
    }

    pub fn mobility(mut self, kind: MobilityKind) -> Self {
        self.config.mobility = kind;
        self
    }

    pub fn focal_pool(mut self, k: usize) -> Self {
        self.config.focal_pool = Some(k);
        self
    }

    /// Worker threads for the parallel tick engine; `0` = auto (see
    /// [`SimConfig::resolved_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Uplink drop probability ([0, 1]).
    pub fn uplink_drop(mut self, p: f64) -> Self {
        self.config.uplink_drop = p;
        self
    }

    /// Downlink drop probability ([0, 1]).
    pub fn downlink_drop(mut self, p: f64) -> Self {
        self.config.downlink_drop = p;
        self
    }

    /// Duplication probability for delivered messages ([0, 1]).
    pub fn dup_rate(mut self, p: f64) -> Self {
        self.config.dup_rate = p;
        self
    }

    /// Fraction of objects given an offline window ([0, 1]).
    pub fn churn_rate(mut self, p: f64) -> Self {
        self.config.churn_rate = p;
        self
    }

    /// Focal-object lease duration in ticks (0 = fault tolerance off).
    pub fn lease_ticks(mut self, ticks: usize) -> Self {
        self.config.lease_ticks = ticks;
        self
    }

    /// Server partitions for the sharded cluster tier; `0` = auto (see
    /// [`SimConfig::resolved_partitions`]).
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.config.partitions = partitions;
        self
    }

    /// Rebalance cadence in ticks for the cluster tier; `0` = auto (see
    /// [`SimConfig::resolved_rebalance_ticks`]).
    pub fn rebalance_ticks(mut self, ticks: usize) -> Self {
        self.config.rebalance_ticks = ticks;
        self
    }

    /// How the cluster tier reaches its partitions; unset = lock-step
    /// (see [`SimConfig::resolved_transport`]).
    pub fn transport(mut self, t: TransportKind) -> Self {
        self.config.transport = Some(t);
        self
    }

    /// Agent tick-engine variant; unset = auto (see
    /// [`SimConfig::resolved_engine`]).
    pub fn engine(mut self, e: EngineKind) -> Self {
        self.config.engine = Some(e);
        self
    }

    /// Tick at which the crash plan kills partitions; `0` = auto (see
    /// [`SimConfig::resolved_partition_crash_ticks`]).
    pub fn partition_crash_ticks(mut self, tick: usize) -> Self {
        self.config.partition_crash_ticks = tick;
        self
    }

    /// Partitions killed at the crash tick; `0` = auto (see
    /// [`SimConfig::resolved_partition_crash_kills`]).
    pub fn partition_crash_kills(mut self, kills: usize) -> Self {
        self.config.partition_crash_kills = kills;
        self
    }

    /// Crash-recovery mode; unset = auto (see
    /// [`SimConfig::resolved_recovery`]).
    pub fn recovery(mut self, r: RecoveryKind) -> Self {
        self.config.recovery = Some(r);
        self
    }

    /// Durable-log root directory; unset = auto (see
    /// [`SimConfig::resolved_store_dir`]).
    pub fn store_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.store_dir = Some(dir.into());
        self
    }

    /// Checkpoint cadence for the durable logs; `0` = auto (see
    /// [`SimConfig::resolved_store_checkpoint_ticks`]).
    pub fn store_checkpoint_ticks(mut self, ticks: usize) -> Self {
        self.config.store_checkpoint_ticks = ticks;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        // Written to reject NaN along with non-positive values.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        let err = |msg: String| Err(ConfigError(msg));
        let c = self.config;
        if !positive(c.alpha) {
            return err(format!("alpha must be > 0 (got {})", c.alpha));
        }
        if c.num_objects == 0 {
            return err("num_objects must be > 0".to_string());
        }
        if !positive(c.radius_factor) {
            return err(format!(
                "radius_factor must be > 0 (got {})",
                c.radius_factor
            ));
        }
        if !positive(c.time_step) {
            return err(format!("time_step must be > 0 (got {})", c.time_step));
        }
        if !positive(c.area) {
            return err(format!("area must be > 0 (got {})", c.area));
        }
        if !positive(c.alen) {
            return err(format!("alen must be > 0 (got {})", c.alen));
        }
        if !positive(c.delta) {
            return err(format!("delta must be > 0 (got {})", c.delta));
        }
        if !(0.0..=1.0).contains(&c.selectivity) {
            return err(format!(
                "selectivity must be within [0, 1] (got {})",
                c.selectivity
            ));
        }
        if c.ticks == 0 {
            return err("ticks must be > 0".to_string());
        }
        if c.radius_means.is_empty() || c.speed_classes_mph.is_empty() {
            return err("radius_means and speed_classes_mph must be non-empty".to_string());
        }
        if c.focal_pool == Some(0) {
            return err("focal_pool must be > 0 when set".to_string());
        }
        for (name, v) in [
            ("uplink_drop", c.uplink_drop),
            ("downlink_drop", c.downlink_drop),
            ("dup_rate", c.dup_rate),
            ("churn_rate", c.churn_rate),
        ] {
            // `!(..).contains()` also rejects NaN.
            if !(0.0..=1.0).contains(&v) {
                return err(format!("{name} must be within [0, 1] (got {v})"));
            }
        }
        // The cluster tier needs at least one grid cell per partition;
        // catching this here turns a `PartitionMap::contiguous` panic
        // deep inside the run into a clear configuration error.
        let cells = c.grid_cells();
        let partitions = c.resolved_partitions();
        if partitions > cells {
            return err(format!(
                "partitions ({partitions}) exceeds the grid's cell count ({cells}); \
                 shrink --partitions (or MOBIEYES_PARTITIONS), lower alpha, or grow the area"
            ));
        }
        // Crash injection needs a survivor to fail over to; the plan also
        // clamps, but an explicit impossible request is a config error.
        if c.partition_crash_ticks > 0 && partitions < 2 {
            return err(format!(
                "partition_crash_ticks requires at least 2 partitions (got {partitions})"
            ));
        }
        if c.partition_crash_kills > 0 && c.partition_crash_kills >= partitions {
            return err(format!(
                "partition_crash_kills ({}) must leave a survivor out of {partitions} partitions",
                c.partition_crash_kills
            ));
        }
        c.check_crash_drill()?;
        Ok(c)
    }

    /// [`build`](Self::build) that panics on invalid input — for the
    /// figure binaries, where a bad sweep value is a programming error.
    pub fn build_or_panic(self) -> SimConfig {
        self.build()
            .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = SimConfig::default();
        assert_eq!(c.time_step, 30.0);
        assert_eq!(c.alpha, 5.0);
        assert_eq!(c.num_objects, 10_000);
        assert_eq!(c.num_queries, 1_000);
        assert_eq!(c.objects_changing_velocity, 1_000);
        assert_eq!(c.area, 100_000.0);
        assert_eq!(c.alen, 10.0);
        assert_eq!(c.radius_means, vec![3.0, 2.0, 1.0, 4.0, 5.0]);
        assert_eq!(c.selectivity, 0.75);
        assert_eq!(c.speed_classes_mph, vec![100.0, 50.0, 150.0, 200.0, 250.0]);
        assert!((c.side() - 316.227766).abs() < 1e-6);
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::small_test(1)
            .with_queries(5)
            .with_alpha(2.0)
            .with_nmo(7);
        assert_eq!(c.num_queries, 5);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.objects_changing_velocity, 7);
    }

    #[test]
    fn measured_seconds() {
        let c = SimConfig {
            ticks: 10,
            time_step: 30.0,
            ..SimConfig::default()
        };
        assert_eq!(c.measured_seconds(), 300.0);
    }

    #[test]
    fn builder_accepts_valid_configs() {
        let c = SimConfig::builder()
            .seed(7)
            .alpha(2.0)
            .objects(500)
            .queries(50)
            .radius_factor(1.5)
            .build()
            .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.num_objects, 500);
        assert_eq!(c.num_queries, 50);
        assert_eq!(c.radius_factor, 1.5);
    }

    #[test]
    fn builder_rejects_degenerate_values() {
        assert!(SimConfig::builder().alpha(0.0).build().is_err());
        assert!(SimConfig::builder().alpha(-1.0).build().is_err());
        assert!(SimConfig::builder().alpha(f64::NAN).build().is_err());
        assert!(SimConfig::builder().objects(0).build().is_err());
        assert!(SimConfig::builder().radius_factor(0.0).build().is_err());
        assert!(SimConfig::builder().radius_factor(-2.0).build().is_err());
        assert!(SimConfig::builder().time_step(0.0).build().is_err());
        assert!(SimConfig::builder().selectivity(1.5).build().is_err());
        assert!(SimConfig::builder().focal_pool(0).build().is_err());
        assert!(SimConfig::builder().uplink_drop(1.5).build().is_err());
        assert!(SimConfig::builder().downlink_drop(-0.1).build().is_err());
        assert!(SimConfig::builder().dup_rate(f64::NAN).build().is_err());
        assert!(SimConfig::builder().churn_rate(2.0).build().is_err());
    }

    #[test]
    fn builder_accepts_fault_knobs() {
        let c = SimConfig::builder()
            .uplink_drop(0.3)
            .downlink_drop(0.2)
            .dup_rate(0.1)
            .churn_rate(0.15)
            .lease_ticks(6)
            .build()
            .unwrap();
        assert_eq!(c.uplink_drop, 0.3);
        assert_eq!(c.downlink_drop, 0.2);
        assert_eq!(c.dup_rate, 0.1);
        assert_eq!(c.churn_rate, 0.15);
        assert_eq!(c.lease_ticks, 6);
    }

    #[test]
    fn thread_resolution_precedence() {
        // An explicit count always wins.
        assert_eq!(SimConfig::default().with_threads(3).resolved_threads(), 3);
        assert_eq!(SimConfig::builder().threads(2).build().unwrap().threads, 2);
        // Auto resolves to something positive whatever the environment.
        assert!(SimConfig::default().resolved_threads() >= 1);
    }

    #[test]
    fn partition_resolution_precedence() {
        // An explicit count always wins; auto defaults to 1 when the
        // environment doesn't say otherwise.
        assert_eq!(
            SimConfig::default()
                .with_partitions(4)
                .resolved_partitions(),
            4
        );
        assert_eq!(
            SimConfig::builder()
                .partitions(2)
                .build()
                .unwrap()
                .partitions,
            2
        );
        assert!(SimConfig::default().resolved_partitions() >= 1);
    }

    #[test]
    fn builder_rejects_more_partitions_than_cells() {
        // 100 mi² with α = 5 → a 2×2 grid of 4 cells; 8 partitions can
        // never tile it and used to panic deep inside
        // `PartitionMap::contiguous`.
        let err = SimConfig::builder()
            .area(100.0)
            .alpha(5.0)
            .partitions(8)
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("exceeds the grid's cell count"),
            "unhelpful message: {err}"
        );
        // The boundary case (one cell per partition) stays valid.
        assert!(SimConfig::builder()
            .area(100.0)
            .alpha(5.0)
            .partitions(4)
            .build()
            .is_ok());
    }

    #[test]
    fn rebalance_resolution_precedence() {
        assert_eq!(
            SimConfig::default()
                .with_rebalance_ticks(5)
                .resolved_rebalance_ticks(),
            5
        );
        assert_eq!(
            SimConfig::builder()
                .rebalance_ticks(3)
                .build()
                .unwrap()
                .rebalance_ticks,
            3
        );
        // Auto defaults to off (0) when the environment doesn't say
        // otherwise; the suite never sets MOBIEYES_REBALANCE_TICKS.
        assert_eq!(SimConfig::default().rebalance_ticks, 0);
    }

    #[test]
    fn transport_parses_and_resolves() {
        assert_eq!(TransportKind::parse("tcp").unwrap(), TransportKind::Tcp);
        assert_eq!(TransportKind::parse("UDS").unwrap(), TransportKind::Uds);
        assert_eq!(
            TransportKind::parse("lockstep").unwrap(),
            TransportKind::Lockstep
        );
        assert!(TransportKind::parse("carrier-pigeon").is_err());
        assert_eq!(
            SimConfig::default().resolved_transport(),
            TransportKind::Lockstep
        );
        assert_eq!(
            SimConfig::default()
                .with_transport(TransportKind::Tcp)
                .resolved_transport(),
            TransportKind::Tcp
        );
        assert_eq!(
            SimConfig::builder()
                .transport(TransportKind::Uds)
                .build()
                .unwrap()
                .transport,
            Some(TransportKind::Uds)
        );
    }

    #[test]
    fn recovery_parses_and_resolves() {
        assert_eq!(
            RecoveryKind::parse("failover").unwrap(),
            RecoveryKind::Failover
        );
        assert_eq!(
            RecoveryKind::parse("RESPAWN").unwrap(),
            RecoveryKind::Respawn
        );
        assert!(RecoveryKind::parse("reboot").is_err());
        assert_eq!(
            SimConfig::default()
                .with_recovery(RecoveryKind::Respawn)
                .resolved_recovery(),
            RecoveryKind::Respawn
        );
        assert_eq!(
            SimConfig::builder()
                .recovery(RecoveryKind::Failover)
                .build()
                .unwrap()
                .recovery,
            Some(RecoveryKind::Failover)
        );
    }

    #[test]
    fn crash_knob_resolution_and_validation() {
        // Explicit values win; kills defaults to 1 when unset.
        let c = SimConfig::default()
            .with_partitions(4)
            .with_partition_crash_ticks(10)
            .with_partition_crash_kills(2);
        assert_eq!(c.resolved_partition_crash_ticks(), 10);
        assert_eq!(c.resolved_partition_crash_kills(), 2);
        assert_eq!(
            SimConfig::default().resolved_partition_crash_kills(),
            1,
            "auto kill count is one partition"
        );
        // Crashing a single-partition deployment is rejected, as is
        // killing every partition.
        assert!(SimConfig::builder()
            .partitions(1)
            .partition_crash_ticks(5)
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .partitions(4)
            .partition_crash_ticks(5)
            .partition_crash_kills(4)
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .partitions(4)
            .partition_crash_ticks(5)
            .partition_crash_kills(2)
            .recovery(RecoveryKind::Respawn)
            .build()
            .is_ok());
    }

    #[test]
    fn crash_drill_on_hosted_services_is_a_config_error() {
        let drill = |t: TransportKind| {
            SimConfig::builder()
                .partitions(2)
                .transport(t)
                .partition_crash_ticks(5)
                .build()
        };
        for t in [TransportKind::Tcp, TransportKind::Uds] {
            let err = drill(t).expect_err("hosted services cannot be killed");
            assert!(err.0.contains("mobieyes-serve drive"), "{err}");
        }
        assert!(drill(TransportKind::Lockstep).is_ok());
        // Without a crash schedule, hosted services are fine.
        assert!(SimConfig::builder()
            .partitions(2)
            .transport(TransportKind::Uds)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_starts_from_existing_config() {
        let base = SimConfig::small_test(9);
        let c = SimConfigBuilder::from_config(base.clone())
            .queries(77)
            .build()
            .unwrap();
        assert_eq!(c.num_objects, base.num_objects);
        assert_eq!(c.num_queries, 77);
    }
}
