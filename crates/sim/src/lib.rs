//! Simulation harness reproducing the paper's evaluation setup (§5.1).
//!
//! The harness generates Table 1 workloads (zipf-distributed query radii
//! and object speed classes, uniform focal objects, 0.75-selectivity
//! filters), drives a shared deterministic mobility trace through either
//! the MobiEyes protocol or a centralized baseline, measures server load,
//! messaging cost, per-object power and object-side computation, and
//! checks reported results against an exact grid-bucketed ground truth.

pub mod alpha_model;
pub mod approach;
pub mod central_run;
pub mod config;
pub mod metrics;
pub mod mobieyes_run;
pub mod mobility;
pub mod rng;
pub mod soa;
pub mod transport_run;
pub mod truth;
pub mod workload;

pub use alpha_model::{optimal_alpha, AlphaCost, WorkloadMoments};
pub use approach::{run_approach, run_approach_with, Approach, RunReport};
pub use central_run::{CentralKind, CentralSim, MessagingKind, MessagingModel};
pub use config::{
    ConfigError, EngineKind, RecoveryKind, SimConfig, SimConfigBuilder, TransportKind,
};
pub use metrics::RunMetrics;
pub use mobieyes_run::{MobiEyesSim, TickWork};
pub use mobility::{Mobility, MobilityKind};
pub use rng::{Normal, Rng, Zipf};
pub use transport_run::{ClusterClient, HostedPartitions};
pub use truth::GroundTruth;
pub use workload::{ObjectSpec, QueryWorkloadSpec, Workload};
