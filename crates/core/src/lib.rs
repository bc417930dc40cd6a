//! The MobiEyes protocol: distributed processing of continuously moving
//! queries (MQs) on moving objects (paper §3–§4).
//!
//! A moving query is a spatial region bound to a *focal* moving object plus
//! a boolean filter over target-object properties; its result — the set of
//! objects inside the region that satisfy the filter — is maintained
//! continuously and cooperatively:
//!
//! - the [`Server`] mediates: it tracks focal objects (FOT),
//!   queries (SQT), a reverse query index (RQI) and disseminates query state
//!   to the objects inside each query's *monitoring region*;
//! - each [`MovingObjectAgent`] keeps a local
//!   query table (LQT) of nearby queries and decides *by itself*, via
//!   dead-reckoning prediction of the focal object, whether it belongs to
//!   each query's result, reporting only containment *changes*.
//!
//! The three optimizations of the paper are implemented and individually
//! switchable in [`ProtocolConfig`]: lazy query
//! propagation (§3.5), query grouping (§4.1) and safe periods (§4.2).
//!
//! The protocol logic is pure message-passing (uplink in → downlink out), so
//! the same server/agent types run under the sequential and the sharded
//! tick engine (`mobieyes-sim`) and inside partition processes behind
//! sockets (`mobieyes-cluster`).

pub mod codec;
pub mod config;
pub mod filter;
mod flat;
pub mod journal;
pub mod knn;
pub mod messages;
pub mod model;
pub mod object;
pub mod server;

pub use config::{Propagation, ProtocolConfig};
pub use filter::Filter;
pub use journal::{JournalSink, LogRecord, ReplyPayload};
pub use knn::{KnnConfig, KnnCoordinator};
pub use messages::{
    CellDigests, ClusterMsg, Downlink, QueryGroupInfo, QueryMigration, QuerySpec, StubSeed, Uplink,
};
pub use model::{ObjectId, PropValue, Properties, QueryId};
pub use object::{prefetch, AgentOutbox, AgentStats, AgentTally, MovingObjectAgent};
pub use server::{HomeChange, PartitionScope, PartitionTable, Server, ServerStats};
