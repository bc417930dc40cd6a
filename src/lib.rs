//! # MobiEyes
//!
//! A from-scratch Rust reproduction of *"MobiEyes: Distributed Processing
//! of Continuously Moving Queries on Moving Objects in a Mobile System"*
//! (Gedik & Liu, EDBT 2004): a distributed protocol that maintains the
//! results of *moving queries over moving objects* by pushing containment
//! evaluation onto the moving objects themselves, with the server acting
//! only as a mediator.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`geo`]: geometry, the gridded universe of discourse, monitoring
//!   regions, dead-reckoning motion model.
//! - [`rstar`]: an R*-tree (used by the centralized baselines).
//! - [`net`]: the simulated asymmetric wireless network with base-station
//!   broadcast, message accounting and the GPRS radio energy model.
//! - [`core`]: the MobiEyes protocol — server, moving-object agents,
//!   messages, filters, and the lazy-propagation / grouping / safe-period
//!   optimizations.
//! - [`baselines`]: centralized engines (object index, query index, brute
//!   force oracle).
//! - [`sim`]: Table 1 workload generation, mobility, ground truth and the
//!   measurement drivers behind every figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use mobieyes::core::{
//!     Filter, Kinematics, MovingObjectAgent, ObjectId, Properties, ProtocolConfig, Server,
//! };
//! use mobieyes::core::server::Net;
//! use mobieyes::geo::{Grid, Point, QueryRegion, Rect, Vec2};
//! use mobieyes::net::BaseStationLayout;
//! use std::sync::Arc;
//!
//! // A 100x100 mile universe gridded into 10-mile cells.
//! let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
//! let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 10.0)));
//! let mut net = Net::new(BaseStationLayout::new(universe, 20.0));
//! let mut server = Server::new(Arc::clone(&config));
//!
//! // Two moving objects at rest: a taxi driver (focal) and a customer.
//! // The agents hold protocol state only; where each object is and how
//! // it moves is handed to every call.
//! let driver_at = Kinematics::new(Point::new(50.0, 50.0), Vec2::ZERO, 0.02);
//! let customer_at = Kinematics::new(Point::new(52.0, 50.0), Vec2::ZERO, 0.02);
//! let mut driver = MovingObjectAgent::new(ObjectId(0), Properties::new(), &config, driver_at.pos);
//! let mut customer = MovingObjectAgent::new(
//!     ObjectId(1),
//!     Properties::new().with("looking_for_taxi", true),
//!     &config,
//!     customer_at.pos,
//! );
//!
//! // "Customers looking for a taxi within 5 miles of me."
//! let qid = server.install_query(
//!     ObjectId(0),
//!     QueryRegion::circle(5.0),
//!     Filter::Eq("looking_for_taxi".into(), true.into()),
//!     &mut net,
//! );
//!
//! // Run a few protocol rounds: deliver downlinks, tick agents, tick server.
//! for step in 0..3 {
//!     let t = step as f64 * 30.0;
//!     for (agent, k) in [(&mut driver, driver_at), (&mut customer, customer_at)] {
//!         let mut inbox = Vec::new();
//!         net.deliver(agent.oid().node(), k.pos, &mut inbox);
//!         agent.tick(&config, t, k, inbox.iter().map(|m| &**m), &mut net);
//!     }
//!     net.end_tick();
//!     server.tick(&mut net);
//! }
//! assert!(server.query_result(qid).unwrap().contains(&ObjectId(1)));
//! ```

pub use mobieyes_baselines as baselines;
pub use mobieyes_cluster as cluster;
pub use mobieyes_core as core;
pub use mobieyes_geo as geo;
pub use mobieyes_net as net;
pub use mobieyes_rstar as rstar;
pub use mobieyes_sim as sim;
pub use mobieyes_store as store;
pub use mobieyes_telemetry as telemetry;

/// The unified error of the facade: every fallible entry point — wire
/// decoding, configuration validation, transport I/O — converts into this
/// enum, so callers can `?` across layers without juggling three error
/// types.
#[derive(Debug)]
pub enum Error {
    /// A wire frame failed to decode: truncated, oversized or malformed.
    Decode(mobieyes_core::codec::DecodeError),
    /// A simulation configuration failed validation.
    Config(mobieyes_sim::ConfigError),
    /// A transport backend failed to move or frame bytes.
    Transport(mobieyes_net::TransportError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Decode(e) => write!(f, "decode: {e}"),
            Error::Config(e) => write!(f, "config: {e}"),
            Error::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Decode(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Transport(e) => Some(e),
        }
    }
}

impl From<mobieyes_core::codec::DecodeError> for Error {
    fn from(e: mobieyes_core::codec::DecodeError) -> Error {
        Error::Decode(e)
    }
}

impl From<mobieyes_sim::ConfigError> for Error {
    fn from(e: mobieyes_sim::ConfigError) -> Error {
        Error::Config(e)
    }
}

impl From<mobieyes_net::TransportError> for Error {
    fn from(e: mobieyes_net::TransportError) -> Error {
        Error::Transport(e)
    }
}

pub mod prelude {
    //! The common vocabulary in one import: `use mobieyes::prelude::*;`.
    //!
    //! Re-exports the types almost every program touches — the protocol
    //! endpoints ([`Server`], [`MovingObjectAgent`] and the [`Kinematics`]
    //! it is driven with), the socket layer
    //! ([`FramedConn`], [`HostedPartitions`], [`ClusterClient`],
    //! [`TransportKind`]), geometry primitives, the simulation drivers and their configuration, the
    //! unified [`Approach`] entry point, and the telemetry sink every layer
    //! records into.
    //!
    //! The simulated-network plumbing (`NetworkSim`, `BaseStationLayout`,
    //! `MessageMeter`, `RadioModel`) is no longer part of the prelude: those
    //! are internals of the lock-step simulation; reach them at
    //! [`crate::net`] directly.

    pub use crate::Error;
    pub use mobieyes_core::{
        Filter, Kinematics, MovingObjectAgent, ObjectId, PropValue, Propagation, Properties,
        ProtocolConfig, QueryId, Server,
    };
    pub use mobieyes_geo::{CellId, Grid, Point, QueryRegion, Rect, Region, Vec2};
    pub use mobieyes_net::{Endpoint, FramedConn, Listener, TransportError};
    pub use mobieyes_sim::{
        run_approach, run_approach_with, Approach, ClusterClient, ConfigError, EngineKind,
        HostedPartitions, MobiEyesSim, Mobility, RecoveryKind, RunMetrics, RunReport, SimConfig,
        TickWork, TransportKind, Workload,
    };
    pub use mobieyes_telemetry::{
        MetricsRegistry, MetricsSnapshot, Phase, Telemetry, TickProfiler,
    };
}
