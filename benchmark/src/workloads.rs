//! The four deterministic workloads and their reference twins.
//!
//! Every workload is `SimConfig::small_test(seed)` reshaped: Table 1
//! density (area = objects × 10 sq mi, 10-mile base stations), one
//! velocity change per query per step, five warm-up ticks. Every knob a
//! `resolved_*()` accessor could otherwise take from the environment is
//! set explicitly; the seed enters only through `SimConfig::seed`.

use mobieyes_core::Propagation;
use mobieyes_sim::{EngineKind, SimConfig, TransportKind};
use std::path::Path;

pub const WARMUP_TICKS: usize = 5;
/// Ticks whose result digest is checked against the reference twin.
pub const TWIN_TICKS: usize = 10;
/// Every this many measured ticks the result error against the exact
/// ground truth is sampled (outside the timed span).
pub const ERROR_SAMPLE_EVERY: usize = 10;
/// Timed repetitions of a workload in one run.
pub const REPETITIONS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// One server inside the harness process.
    Single,
    /// Partitions inside the harness process on the lock-step bus.
    InProcess { partitions: usize },
    /// One `mobieyes-serve partition` child per partition, over Unix
    /// sockets; coordinator and partitions pinned to one CPU (see
    /// `hermetic::pin_to_current_cpu`).
    RemoteUds { partitions: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub objects: usize,
    pub queries: usize,
    pub deployment: Deployment,
    pub threads: usize,
    pub store: bool,
    /// Measured ticks per second of `--seconds` budget and repetition on
    /// the reference host (2 cores): `--seconds S` measures
    /// `S / REPETITIONS * ticks_per_second` ticks per repetition, so the
    /// tick count — and with it every exact metric — is a function of
    /// the arguments alone, never of how fast this host happens to be.
    pub ticks_per_second: f64,
    /// Mean sampled result error the protocol may show on this workload.
    pub max_result_error: f64,
    shape: fn(&mut SimConfig),
}

/// Rebalance cadence of the cluster workloads, in ticks.
pub const REBALANCE_TICKS: usize = 25;
/// Checkpoint cadence of the store workloads, in ticks.
pub const CHECKPOINT_TICKS: usize = 50;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "mono_quiet",
        why: "100k objects, EQP with safe periods, one server, one thread: agent-side work (skip engine, broadcast index, local evaluation) is ~80% of the tick; the no-change control for server-tier changes",
        objects: 100_000,
        queries: 1_000,
        deployment: Deployment::Single,
        threads: 1,
        store: false,
        ticks_per_second: 20.0,
        max_result_error: 0.01,
        shape: |c| c.safe_period = true,
    },
    WorkloadSpec {
        name: "mono_chaos",
        why: "LQP with leases under message loss, duplication and churn: every step leaves the fast path, so the per-agent fallback and heartbeat/resync ingest dominate; guards the fallback path and convergence",
        objects: 4_000,
        queries: 400,
        deployment: Deployment::Single,
        threads: 1,
        store: false,
        ticks_per_second: 25.0,
        max_result_error: 0.15,
        shape: |c| {
            c.propagation = Propagation::Lazy;
            c.lease_ticks = 6;
            c.uplink_drop = 0.10;
            c.downlink_drop = 0.10;
            c.dup_rate = 0.05;
            c.churn_rate = 0.05;
        },
    },
    WorkloadSpec {
        name: "cluster_local",
        why: "4 in-process partitions, 2 threads, query grouping, rebalance fence and journal with no socket in the way: separates 'cluster logic is slow' from 'the wire is slow'",
        objects: 50_000,
        queries: 1_000,
        deployment: Deployment::InProcess { partitions: 4 },
        threads: 2,
        store: true,
        ticks_per_second: 40.0,
        max_result_error: 0.01,
        shape: |c| {
            c.focal_pool = Some(250);
            c.grouping = true;
        },
    },
    WorkloadSpec {
        name: "remote_uds",
        why: "2 mobieyes-serve partition processes over Unix sockets: one framed RPC round trip per primitive op puts ~97% of the tick in mediation+ingest; wire batching must show here and only here",
        objects: 4_000,
        queries: 400,
        deployment: Deployment::RemoteUds { partitions: 2 },
        threads: 1,
        store: true,
        ticks_per_second: 30.0,
        max_result_error: 0.01,
        shape: |_| {},
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Measured ticks per repetition for a `--seconds` budget.
pub fn ticks_for(spec: &WorkloadSpec, seconds: f64) -> usize {
    ((seconds / REPETITIONS as f64 * spec.ticks_per_second).round() as usize).max(TWIN_TICKS)
}

impl WorkloadSpec {
    fn base(&self, seed: u64, ticks: usize) -> SimConfig {
        let mut c = SimConfig::small_test(seed);
        c.num_objects = self.objects;
        c.num_queries = self.queries;
        c.objects_changing_velocity = self.queries;
        c.area = self.objects as f64 * 10.0;
        c.alen = 10.0;
        c.warmup_ticks = WARMUP_TICKS;
        // The fault plan's horizon is `warmup + ticks`.
        c.ticks = ticks;
        c.propagation = Propagation::Eager;
        (self.shape)(&mut c);
        c
    }

    /// The measured deployment. `store_root` is where the durable logs
    /// go when the workload journals. `checkpoint_ticks` is lowered by
    /// smoke runs so a ten-tick run still cuts a checkpoint.
    pub fn config(
        &self,
        seed: u64,
        ticks: usize,
        store_root: &Path,
        checkpoint_ticks: usize,
    ) -> SimConfig {
        let mut c = self.base(seed, ticks);
        c.threads = self.threads;
        c.transport = Some(TransportKind::Lockstep);
        match self.deployment {
            Deployment::Single => c.partitions = 1,
            Deployment::InProcess { partitions } | Deployment::RemoteUds { partitions } => {
                c.partitions = partitions;
                c.rebalance_ticks = REBALANCE_TICKS;
            }
        }
        if self.store {
            c.store_dir = Some(store_root.to_path_buf());
            c.store_checkpoint_ticks = checkpoint_ticks;
        } else {
            // The empty path pins persistence off.
            c.store_dir = Some(Default::default());
        }
        c
    }

    /// The reference twin: same workload on the plainest deployment —
    /// single server, lock-step, one thread, no store, no rebalance, the
    /// seed engine. Its result sets are the oracle for the measured run.
    pub fn twin_config(&self, seed: u64, ticks: usize) -> SimConfig {
        let mut c = self.base(seed, ticks);
        c.threads = 1;
        c.partitions = 1;
        c.transport = Some(TransportKind::Lockstep);
        c.engine = Some(EngineKind::Seed);
        c.store_dir = Some(Default::default());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_counts_follow_the_seconds_budget() {
        let quiet = find("mono_quiet").unwrap();
        assert_eq!(ticks_for(quiet, 25.0), 100);
        assert_eq!(ticks_for(find("cluster_local").unwrap(), 25.0), 200);
        assert_eq!(ticks_for(quiet, 0.1), TWIN_TICKS);
    }

    #[test]
    fn configs_pin_every_environment_backed_knob() {
        for w in &WORKLOADS {
            let c = w.config(7, 100, Path::new("store"), CHECKPOINT_TICKS);
            assert!(c.threads > 0 && c.partitions > 0, "{}", w.name);
            assert!(c.transport.is_some() && c.store_dir.is_some(), "{}", w.name);
            assert_eq!(c.resolved_store_dir().is_some(), w.store, "{}", w.name);
            let t = w.twin_config(7, 100);
            assert_eq!((t.threads, t.partitions), (1, 1));
            assert_eq!(t.engine, Some(EngineKind::Seed));
            assert!(t.resolved_store_dir().is_none());
            assert_eq!((t.num_objects, t.seed), (c.num_objects, c.seed));
        }
        assert!(find("nope").is_none());
    }
}
