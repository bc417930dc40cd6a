//! Transport abstraction for the inter-server cluster bus.
//!
//! The partitioned server tier moves `mobieyes-cluster` envelopes between
//! partitions. Historically that link was hard-wired to the deterministic
//! in-memory [`NetworkSim`]; this module extracts the contract into a
//! [`Transport`] trait so the same coordinator runs unchanged over the
//! lock-step simulation ([`LockstepTransport`]) or a real socket
//! ([`crate::socket::SocketTransport`], TCP or Unix-domain).
//!
//! ## Contract
//!
//! - [`Transport::send`] enqueues one message from a node, subject to the
//!   installed [`FaultPlan`] (drop / duplicate, identical semantics to
//!   [`NetworkSim::send_uplink`]: the sender always pays the transmission,
//!   the receiver sees zero, one or two copies).
//! - [`Transport::flush`] pushes any buffered bytes to the peer.
//! - [`Transport::poll`] returns *every* message sent (and not dropped)
//!   since the previous poll, in send order. All backends are reliable and
//!   ordered at this interface; loss is injected only by the fault plan,
//!   never by the medium.
//! - Failures surface as [`TransportError`] values — a malformed or
//!   truncated frame must never panic the transport.

use crate::fault::FaultPlan;
use crate::meter::MessageMeter;
use crate::sim::{NetworkSim, NodeId, WireSized};
use crate::station::BaseStationLayout;
use mobieyes_telemetry::Telemetry;

/// Failure of a transport backend. The lock-step backend is infallible;
/// socket backends surface I/O, framing and handshake problems here
/// instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Underlying socket I/O failed.
    Io(String),
    /// The peer closed the connection.
    Closed,
    /// A length-prefixed frame was malformed or could not be decoded.
    Frame(String),
    /// A frame declared a length above [`crate::socket::MAX_FRAME`].
    Oversize { len: usize, max: usize },
    /// The connection handshake failed (bad magic, version or node id).
    Handshake(String),
    /// The peer violated the RPC protocol (unexpected reply shape).
    Protocol(String),
    /// A read deadline elapsed before the peer produced a frame. Distinct
    /// from [`TransportError::Closed`]: the socket is still open, the peer
    /// is hung — crash detection treats both as a dead partition.
    Timeout,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Closed => write!(f, "transport closed by peer"),
            TransportError::Frame(e) => write!(f, "transport frame error: {e}"),
            TransportError::Oversize { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            TransportError::Handshake(e) => write!(f, "transport handshake failed: {e}"),
            TransportError::Protocol(e) => write!(f, "transport protocol violation: {e}"),
            TransportError::Timeout => write!(f, "transport read deadline elapsed"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::Timeout
            }
            _ => TransportError::Io(e.to_string()),
        }
    }
}

impl TransportError {
    /// Whether this failure means the peer itself is gone or unresponsive
    /// (as opposed to a protocol-level disagreement): a closed socket, an
    /// I/O error on the stream, or an elapsed read deadline. The
    /// coordinator classifies these as a partition crash and triggers
    /// failover; the remaining variants indicate a bug, not a dead peer.
    pub fn is_peer_death(&self) -> bool {
        matches!(
            self,
            TransportError::Closed | TransportError::Io(_) | TransportError::Timeout
        )
    }
}

/// A message that can cross a byte-oriented transport: encodes itself into
/// a buffer and decodes from exactly those bytes. `wire_size` (via
/// [`WireSized`]) must equal the encoded length — the accounting depends
/// on it.
pub trait Frame: WireSized + Sized {
    fn encode_frame(&self, out: &mut Vec<u8>);
    fn decode_frame(bytes: &[u8]) -> Result<Self, TransportError>;
}

/// A message that knows its destination partition.
pub trait Routed {
    fn dest(&self) -> u32;
}

/// The inter-server bus contract. Object-safe: the coordinator holds a
/// `Box<dyn Transport<Envelope>>` and never knows which backend it runs on.
pub trait Transport<M> {
    /// Enqueues `msg` from `from`, applying the fault plan.
    fn send(&mut self, from: NodeId, msg: M) -> Result<(), TransportError>;

    /// Pushes buffered bytes toward the receiver.
    fn flush(&mut self) -> Result<(), TransportError>;

    /// Returns every surviving message sent since the last poll, in order.
    fn poll(&mut self) -> Result<Vec<(NodeId, M)>, TransportError>;

    /// Installs a fault plan (drop / duplicate on send).
    fn set_fault(&mut self, plan: FaultPlan);

    /// The installed fault plan.
    fn fault(&self) -> &FaultPlan;

    /// Message/byte accounting for everything sent through this transport.
    fn meter(&self) -> MessageMeter;

    /// Backend name (`"lockstep"`, `"tcp"`, `"uds"`).
    fn kind(&self) -> &'static str;
}

/// The original deterministic in-memory bus: a thin adapter over the
/// uplink path of [`NetworkSim`], preserved verbatim so the byte-identical
/// cluster equivalence matrix keeps meaning what it always meant.
#[derive(Debug)]
pub struct LockstepTransport<M> {
    sim: NetworkSim<M, M>,
}

impl<M: WireSized + Clone> LockstepTransport<M> {
    pub fn new(layout: BaseStationLayout) -> Self {
        LockstepTransport {
            sim: NetworkSim::new(layout),
        }
    }

    /// Records traffic into a shared telemetry sink (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.sim = self.sim.with_telemetry(telemetry);
        self
    }
}

impl<M: WireSized + Clone> Transport<M> for LockstepTransport<M> {
    fn send(&mut self, from: NodeId, msg: M) -> Result<(), TransportError> {
        self.sim.send_uplink(from, msg);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    fn poll(&mut self) -> Result<Vec<(NodeId, M)>, TransportError> {
        Ok(self.sim.drain_uplinks())
    }

    fn set_fault(&mut self, plan: FaultPlan) {
        self.sim.set_uplink_fault(plan);
    }

    fn fault(&self) -> &FaultPlan {
        self.sim.uplink_fault()
    }

    fn meter(&self) -> MessageMeter {
        self.sim.meter()
    }

    fn kind(&self) -> &'static str {
        "lockstep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_geo::Rect;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u32);

    impl WireSized for Msg {
        fn wire_size(&self) -> usize {
            4
        }
    }

    fn bus() -> LockstepTransport<Msg> {
        LockstepTransport::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        ))
    }

    #[test]
    fn lockstep_send_poll_roundtrip() {
        let mut t = bus();
        t.send(NodeId(0), Msg(1)).unwrap();
        t.send(NodeId(1), Msg(2)).unwrap();
        t.flush().unwrap();
        assert_eq!(
            t.poll().unwrap(),
            vec![(NodeId(0), Msg(1)), (NodeId(1), Msg(2))]
        );
        assert!(t.poll().unwrap().is_empty());
        assert_eq!(t.meter().uplink_msgs, 2);
        assert_eq!(t.kind(), "lockstep");
    }

    #[test]
    fn lockstep_fault_plan_drops_and_meters() {
        let mut t = bus();
        t.set_fault(FaultPlan::new(1.0, 0.0, 7));
        t.send(NodeId(0), Msg(1)).unwrap();
        assert!(t.poll().unwrap().is_empty());
        // The transmission is still metered — identical to NetworkSim.
        assert_eq!(t.meter().uplink_msgs, 1);
    }
}
