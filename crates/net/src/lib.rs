//! Simulated asymmetric wireless network substrate for MobiEyes.
//!
//! The paper assumes a three-tier architecture: moving objects talk *up* to
//! base stations (uplink), and the server talks *down* either one-to-one or
//! by broadcasting through a base station to every object inside its
//! coverage area (downlink). This crate simulates exactly that, plus the
//! measurement machinery the paper's evaluation needs:
//!
//! - [`BaseStationLayout`]: a lattice of circular-coverage base stations
//!   covering the universe of discourse, with the `Bmap` cell→stations
//!   mapping and a greedy minimal covering set for monitoring regions.
//! - [`NetworkSim`]: tick-based uplink/unicast/broadcast queues with
//!   closed-loop delivery semantics (a broadcast reaches an object iff the
//!   object lies inside the transmitting station's coverage circle).
//! - [`MessageMeter`]: message and byte counts split by direction, plus
//!   per-node sent/received byte totals.
//! - [`RadioModel`]: the GSM/GPRS energy model of the paper (§5.3) turning
//!   byte counts into per-object communication energy.
//! - Fault injection (drop/duplicate downlink messages) for robustness
//!   tests.

pub mod fault;
pub mod meter;
pub mod radio;
pub mod sim;
pub mod socket;
pub mod station;
pub mod transport;

pub use fault::{ChurnPlan, FaultPlan, PartitionCrashPlan, TornWritePlan};
pub use meter::{Direction, MessageMeter};
pub use radio::RadioModel;
pub use sim::{NetworkSim, NodeId, WireSized};
pub use socket::{Endpoint, FramedConn, Listener, Stream, MAX_FRAME};
pub use station::{BaseStationLayout, StationId, StationsOver};
pub use transport::TransportError;
