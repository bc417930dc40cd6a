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
/// column; the figure harnesses sweep individual fields. Set a knob by its
/// field or a `with_*` helper; [`validate`](Self::validate) is the one
/// check, and every run constructor applies it.
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
    /// Server partitions for the grid-sharded server tier (at least 1;
    /// the default 1 is the paper's single server). Results are
    /// byte-identical at every partition count.
    pub partitions: usize,
    /// Rebalance cadence for the server tier: recompute the partition
    /// map from observed load every `n` ticks; `0` (the default) is off.
    /// One partition has nothing to balance (each round is a counted
    /// skip). Rebalancing never changes query results — only the load
    /// split.
    pub rebalance_ticks: usize,
    /// How the server tier reaches its partitions. `None` (the default)
    /// means lock-step in-process partitions; `tcp` / `uds` host one
    /// partition service per partition on a thread and drive it over a
    /// socket. Results are identical either way (see
    /// [`resolved_transport`](Self::resolved_transport)).
    pub transport: Option<TransportKind>,
    /// Agent tick-engine variant. `None` (the default) means the
    /// struct-of-arrays fast path; the seed engine is the reference it is
    /// checked against, chosen by setting this field. Results are
    /// protocol-identical on either engine (see
    /// [`resolved_engine`](Self::resolved_engine)).
    pub engine: Option<EngineKind>,
    /// Measured tick at which the crash-injection plan kills partitions
    /// (once per run); `0` (the default) is off. Victims are drawn
    /// deterministically from the seed; partition 0 (the epoch anchor) is
    /// never chosen. Needs at least 2 lock-step partitions.
    pub partition_crash_ticks: usize,
    /// Partitions killed at the crash tick (default 1). With a crash
    /// scheduled it must be at least 1 and leave a survivor.
    pub partition_crash_kills: usize,
    /// Recovery mode for crashed partitions (default failover).
    pub recovery: RecoveryKind,
    /// Root directory of the durable trajectory logs (`<dir>/p<N>` per
    /// partition). `None` (the default) or the empty path means no
    /// persistence (see [`resolved_store_dir`](Self::resolved_store_dir)).
    /// Existing logs under the directory are replayed into the server
    /// tier at build — point a fresh run at a fresh directory.
    pub store_dir: Option<std::path::PathBuf>,
    /// Checkpoint cadence in ticks for the durable logs (snapshot +
    /// segment GC; this is what bounds log growth); `0` (the default) is
    /// off.
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
            partitions: 1,
            rebalance_ticks: 0,
            transport: None,
            engine: None,
            partition_crash_ticks: 0,
            partition_crash_kills: 1,
            recovery: RecoveryKind::Failover,
            store_dir: None,
            store_checkpoint_ticks: 0,
        }
    }
}

impl SimConfig {
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
        self.recovery = r;
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

    /// Checks that the simulator can meaningfully run this configuration:
    /// finite, positive α, area, lengths and time step, probabilities
    /// within [0, 1], at least one object, tick and partition, no more
    /// partitions than grid cells, a crash schedule it can carry out, one
    /// worker thread for the seed engine, and a parsable value in each
    /// environment variable the run will read. Every run constructor calls
    /// it, and `mobieyes` and `mobieyes-serve drive` call it right after
    /// parsing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Rejects NaN and infinity along with non-positive values.
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let err = |msg: String| Err(ConfigError(msg));
        for (name, v) in [
            ("alpha", self.alpha),
            ("radius_factor", self.radius_factor),
            ("time_step", self.time_step),
            ("area", self.area),
            ("alen", self.alen),
            ("delta", self.delta),
        ] {
            if !positive(v) {
                return err(format!("{name} must be finite and > 0 (got {v})"));
            }
        }
        for (name, v) in [
            ("selectivity", self.selectivity),
            ("uplink_drop", self.uplink_drop),
            ("downlink_drop", self.downlink_drop),
            ("dup_rate", self.dup_rate),
            ("churn_rate", self.churn_rate),
        ] {
            // `!(..).contains()` also rejects NaN.
            if !(0.0..=1.0).contains(&v) {
                return err(format!("{name} must be within [0, 1] (got {v})"));
            }
        }
        for (name, n) in [
            ("num_objects", self.num_objects),
            ("ticks", self.ticks),
            ("partitions", self.partitions),
        ] {
            if n == 0 {
                return err(format!("{name} must be > 0"));
            }
        }
        if self.radius_means.is_empty() || self.speed_classes_mph.is_empty() {
            return err("radius_means and speed_classes_mph must be non-empty".to_string());
        }
        if self.focal_pool == Some(0) {
            return err("focal_pool must be > 0 when set".to_string());
        }
        // The cluster tier needs at least one grid cell per partition;
        // catching this here turns a `PartitionTable::contiguous` panic
        // deep inside the run into a clear configuration error.
        let (partitions, cells) = (self.partitions, self.grid_cells());
        if partitions > cells {
            return err(format!(
                "partitions ({partitions}) exceeds the grid's cell count ({cells}); \
                 shrink --partitions, lower alpha, or grow the area"
            ));
        }
        if self.partition_crash_ticks > 0 {
            // Crash injection needs a victim and a survivor to fail over to.
            if partitions < 2 {
                return err(format!(
                    "partition_crash_ticks requires at least 2 partitions (got {partitions})"
                ));
            }
            let kills = self.partition_crash_kills;
            if kills == 0 || kills >= partitions {
                return err(format!(
                    "partition_crash_kills must be between 1 and {} for {partitions} \
                     partitions (got {kills})",
                    partitions - 1
                ));
            }
            // Thread-hosted partition services cannot be killed from this
            // process; `mobieyes-serve drive` crashes real partitions.
            let transport = self.resolved_transport();
            if transport != TransportKind::Lockstep {
                return err(format!(
                    "a partition-crash schedule cannot run on --transport {transport} with \
                     {partitions} partitions (thread-hosted services this process cannot \
                     kill); crash real partitions with `mobieyes-serve drive --crash-tick N`, \
                     or use --transport lockstep"
                ));
            }
        }
        let threads = match self.threads {
            0 => env_threads()?,
            n => Some(n),
        };
        // The seed engine is the one-shard oracle the struct-of-arrays
        // engine is checked against; it has no parallel path.
        if let (Some(EngineKind::Seed), Some(n @ 2..)) = (self.engine, threads) {
            return err(format!(
                "the seed engine runs one worker thread (got {n}); drop --threads / \
                 MOBIEYES_THREADS or use the soa engine"
            ));
        }
        Ok(())
    }

    /// Resolves the effective worker-thread count: an explicit
    /// `threads > 0` wins; otherwise a positive `MOBIEYES_THREADS`
    /// environment variable; otherwise the machine's available
    /// parallelism. Always at least 1.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        match env_threads() {
            Ok(Some(n)) => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Resolves how the cluster tier reaches its partitions: an explicit
    /// `transport`, otherwise lock-step.
    pub fn resolved_transport(&self) -> TransportKind {
        self.transport.unwrap_or_default()
    }

    /// Resolves the effective agent tick engine: an explicit `engine`,
    /// otherwise the struct-of-arrays fast path.
    pub fn resolved_engine(&self) -> EngineKind {
        self.engine.unwrap_or_default()
    }

    /// The durable-log root directory, or `None` when persistence is off:
    /// `store_dir` unset, or set to the empty path. A run with a reference
    /// twin in the same process pins the twin's to the empty path so the
    /// two deployments never share a log directory.
    pub fn resolved_store_dir(&self) -> Option<std::path::PathBuf> {
        self.store_dir.clone().filter(|d| !d.as_os_str().is_empty())
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

/// Reads environment variable `name` through `parse`: `Ok(None)` when it
/// is unset, a [`ConfigError`] naming it when it is set to something
/// `parse` refuses.
fn env_knob<T>(
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    let Some(raw) = std::env::var_os(name) else {
        return Ok(None);
    };
    match raw.to_str().and_then(parse) {
        Some(v) => Ok(Some(v)),
        None => Err(ConfigError(format!(
            "environment variable {name} is {raw:?}; expected {expected}"
        ))),
    }
}

/// `MOBIEYES_THREADS` as a worker count; `Ok(None)` when unset or `0`
/// (auto).
fn env_threads() -> Result<Option<usize>, ConfigError> {
    let count = env_knob("MOBIEYES_THREADS", "a thread count", |v| {
        v.parse::<usize>().ok()
    })?;
    Ok(count.filter(|&n| n > 0))
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
        assert_eq!(c.validate(), Ok(()));
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
        let c = SimConfig {
            seed: 7,
            ..SimConfig::default()
        }
        .with_alpha(2.0)
        .with_objects(500)
        .with_queries(50)
        .with_radius_factor(1.5);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.seed, 7);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.num_objects, 500);
        assert_eq!(c.num_queries, 50);
        assert_eq!(c.radius_factor, 1.5);
    }

    /// Asserts `validate` refuses every row, with a message carrying the
    /// row's fragment.
    fn assert_refused(cases: &[(SimConfig, &str)]) {
        for (i, (config, fragment)) in cases.iter().enumerate() {
            let err = config
                .validate()
                .expect_err(&format!("case {i} ({fragment}) must be refused"));
            assert!(
                err.to_string().contains(fragment),
                "case {i}: {err} does not name {fragment:?}"
            );
        }
    }

    #[test]
    fn builder_rejects_degenerate_values() {
        let d = SimConfig::default;
        assert_refused(&[
            (d().with_alpha(0.0), "alpha"),
            (d().with_alpha(-1.0), "alpha"),
            (d().with_alpha(f64::NAN), "alpha"),
            (d().with_objects(0), "num_objects"),
            (d().with_radius_factor(0.0), "radius_factor"),
            (d().with_radius_factor(-2.0), "radius_factor"),
            (
                SimConfig {
                    time_step: 0.0,
                    ..d()
                },
                "time_step",
            ),
            (SimConfig { area: 0.0, ..d() }, "area"),
            (d().with_alen(0.0), "alen"),
            (SimConfig { delta: 0.0, ..d() }, "delta"),
            (
                SimConfig {
                    selectivity: 1.5,
                    ..d()
                },
                "selectivity",
            ),
            (SimConfig { ticks: 0, ..d() }, "ticks"),
            (
                SimConfig {
                    radius_means: Vec::new(),
                    ..d()
                },
                "radius_means",
            ),
            (
                SimConfig {
                    speed_classes_mph: Vec::new(),
                    ..d()
                },
                "speed_classes_mph",
            ),
            (d().with_focal_pool(0), "focal_pool"),
            (
                SimConfig {
                    uplink_drop: 1.5,
                    ..d()
                },
                "uplink_drop",
            ),
            (
                SimConfig {
                    downlink_drop: -0.1,
                    ..d()
                },
                "downlink_drop",
            ),
            (
                SimConfig {
                    dup_rate: f64::NAN,
                    ..d()
                },
                "dup_rate",
            ),
            (
                SimConfig {
                    churn_rate: 2.0,
                    ..d()
                },
                "churn_rate",
            ),
        ]);
    }

    #[test]
    fn builder_rejects_infinite_values() {
        let d = SimConfig::default;
        let inf = f64::INFINITY;
        assert_refused(&[
            (d().with_alpha(inf), "alpha must be finite"),
            (SimConfig { area: inf, ..d() }, "area must be finite"),
            (d().with_alen(inf), "alen must be finite"),
            (
                SimConfig {
                    time_step: inf,
                    ..d()
                },
                "time_step must be finite",
            ),
            (SimConfig { delta: inf, ..d() }, "delta must be finite"),
            (d().with_radius_factor(inf), "radius_factor must be finite"),
        ]);
    }

    #[test]
    fn the_seed_engine_runs_one_thread() {
        let seed = || SimConfig::default().with_engine(EngineKind::Seed);
        assert_refused(&[
            (seed().with_threads(2), "seed engine runs one worker thread"),
            (seed().with_threads(8), "got 8"),
        ]);
        assert_eq!(seed().with_threads(1).validate(), Ok(()));
        let soa = SimConfig::default().with_engine(EngineKind::Soa);
        assert_eq!(soa.with_threads(8).validate(), Ok(()));
    }

    #[test]
    fn builder_rejects_more_partitions_than_cells() {
        let d = SimConfig::default;
        // 100 mi² with α = 5 is a 2×2 grid of 4 cells; 8 partitions can
        // never tile it.
        let tiny = || SimConfig { area: 100.0, ..d() };
        assert_refused(&[
            (d().with_partitions(0), "partitions must be > 0"),
            (tiny().with_partitions(8), "exceeds the grid's cell count"),
        ]);
        // The boundary case (one cell per partition) stays valid.
        assert_eq!(tiny().with_partitions(4).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_crash_drills() {
        let d = SimConfig::default;
        let drill = |t: TransportKind| {
            d().with_partitions(2)
                .with_transport(t)
                .with_partition_crash_ticks(5)
        };
        assert_refused(&[
            (
                d().with_partitions(1).with_partition_crash_ticks(5),
                "at least 2 partitions",
            ),
            (
                d().with_partitions(4)
                    .with_partition_crash_ticks(5)
                    .with_partition_crash_kills(0),
                "partition_crash_kills",
            ),
            (
                d().with_partitions(4)
                    .with_partition_crash_ticks(5)
                    .with_partition_crash_kills(4),
                "partition_crash_kills",
            ),
            (drill(TransportKind::Tcp), "mobieyes-serve drive"),
            (drill(TransportKind::Uds), "mobieyes-serve drive"),
        ]);
        // The boundary cases stay valid: the last kill count that leaves a
        // survivor, a lock-step crash drill.
        assert_eq!(
            d().with_partitions(4)
                .with_partition_crash_ticks(5)
                .with_partition_crash_kills(3)
                .validate(),
            Ok(())
        );
        assert_eq!(drill(TransportKind::Lockstep).validate(), Ok(()));
    }

    #[test]
    fn builder_accepts_fault_knobs() {
        let c = SimConfig {
            uplink_drop: 0.3,
            downlink_drop: 0.2,
            dup_rate: 0.1,
            churn_rate: 0.15,
            ..SimConfig::default()
        }
        .with_lease_ticks(6);
        assert_eq!(c.validate(), Ok(()));
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
        // Auto resolves to something positive whatever the environment.
        assert!(SimConfig::default().resolved_threads() >= 1);
    }

    #[test]
    fn environment_garbage_is_a_config_error() {
        // A variable of this test's own, so no concurrently running test
        // reads it.
        const KNOB: &str = "SIM_CONFIG_TEST_KNOB";
        let read = || env_knob(KNOB, "soa or seed", |v| EngineKind::parse(v).ok());
        std::env::remove_var(KNOB);
        assert_eq!(read(), Ok(None));
        std::env::set_var(KNOB, "seed");
        assert_eq!(read(), Ok(Some(EngineKind::Seed)));
        std::env::set_var(KNOB, "sead");
        let err = read().unwrap_err();
        assert!(
            err.0.contains(KNOB) && err.0.contains("sead"),
            "the error must name the variable and its value: {err}"
        );
        std::env::remove_var(KNOB);
    }

    #[test]
    fn partition_resolution_precedence() {
        // One partition (the single server) unless set; the field is the
        // only source.
        assert_eq!(SimConfig::default().partitions, 1);
        assert_eq!(SimConfig::default().with_partitions(4).partitions, 4);
        assert_eq!(SimConfig::default().with_partitions(2).validate(), Ok(()));
    }

    #[test]
    fn rebalance_resolution_precedence() {
        assert_eq!(
            SimConfig::default().with_rebalance_ticks(5).rebalance_ticks,
            5
        );
        // Off (0) unless set.
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
        // Hosted services without a crash schedule are fine.
        assert_eq!(
            SimConfig::default()
                .with_partitions(2)
                .with_transport(TransportKind::Uds)
                .validate(),
            Ok(())
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
        assert_eq!(SimConfig::default().recovery, RecoveryKind::Failover);
        assert_eq!(
            SimConfig::default()
                .with_recovery(RecoveryKind::Respawn)
                .recovery,
            RecoveryKind::Respawn
        );
    }

    #[test]
    fn crash_knob_resolution_and_validation() {
        // Off by default, and one victim once a crash is scheduled.
        let d = SimConfig::default();
        assert_eq!((d.partition_crash_ticks, d.partition_crash_kills), (0, 1));
        // The kill count only matters with a crash scheduled.
        assert_eq!(d.clone().with_partition_crash_kills(0).validate(), Ok(()));
        let c = d
            .with_partitions(4)
            .with_partition_crash_ticks(10)
            .with_partition_crash_kills(2)
            .with_recovery(RecoveryKind::Respawn);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!((c.partition_crash_ticks, c.partition_crash_kills), (10, 2));
    }

    #[test]
    fn crash_drill_on_hosted_services_is_a_config_error() {
        let drill = |t: TransportKind| {
            SimConfig::default()
                .with_partitions(2)
                .with_transport(t)
                .with_partition_crash_ticks(5)
                .validate()
        };
        for t in [TransportKind::Tcp, TransportKind::Uds] {
            let err = drill(t).expect_err("hosted services cannot be killed");
            assert!(err.0.contains("mobieyes-serve drive"), "{err}");
        }
        assert_eq!(drill(TransportKind::Lockstep), Ok(()));
    }

    #[test]
    fn empty_store_dir_pins_persistence_off() {
        assert_eq!(SimConfig::default().resolved_store_dir(), None);
        assert_eq!(
            SimConfig::default().with_store_dir("").resolved_store_dir(),
            None
        );
        assert_eq!(
            SimConfig::default()
                .with_store_dir("logs")
                .resolved_store_dir(),
            Some(std::path::PathBuf::from("logs"))
        );
    }
}
