//! Grid-sharded MobiEyes server tier.
//!
//! Splits the α-grid into contiguous blocks of cells owned by independent
//! partition servers, routes each agent uplink to the partition owning the
//! sender's cell, and runs an inter-server handoff protocol (focal-object
//! migration + remote-region stubs) over a deterministic lock-step
//! message bus so that an N-partition deployment produces byte-identical
//! query results and telemetry to the single-server protocol.

pub mod cluster_server;
pub mod handle;
pub mod partition;
pub mod serve;
pub mod wire;

pub use cluster_server::{skip_reason, ClusterServer, Envelope};
pub use handle::{PartitionHandle, RemotePartition};
pub use partition::{plan_bounds, PartitionMap, Router};
pub use serve::{dial_partition, serve_connection, serve_partition};
pub use wire::{InitConfig, NetAction, PartitionOp, PartitionReply, ReplyPayload};
