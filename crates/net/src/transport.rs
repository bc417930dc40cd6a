//! The error type of the socket layer.
//!
//! [`crate::socket::FramedConn`] and the cluster RPC built on it surface
//! every I/O, framing and handshake failure as a [`TransportError`] value:
//! a malformed or truncated frame must never panic the reader.

/// Failure of a framed socket connection: I/O, framing and handshake
/// problems surface here instead of panicking.
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
