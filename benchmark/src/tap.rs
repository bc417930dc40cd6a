//! A transparent tap between the coordinator and one partition process.
//!
//! The tap listens on its own Unix socket, connects to the partition's
//! real one, and forwards bytes unchanged in both directions — one thread
//! per direction. It understands nothing of the RPC protocol beyond the
//! `[len: u32 LE][payload]` framing: every complete frame travelling
//! towards the partition is a request, every complete frame travelling
//! back is the reply to the oldest unanswered request on that connection
//! (the service executes strictly in order). A request/reply pair is one
//! RPC span, from the request's last byte passing the tap to the reply's
//! last byte passing it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Splits a byte stream into length-prefixed frames, however the bytes
/// are chunked: a header dribbling in one byte at a time and many frames
/// arriving in one read both come out as the same frame sequence.
#[derive(Default)]
pub struct FrameParser {
    header: [u8; 4],
    header_have: usize,
    /// Payload bytes of the current frame still to come.
    remaining: usize,
    /// Payload length of the current frame (valid once the header is in).
    len: u32,
}

impl FrameParser {
    /// Consumes `chunk`, calling `on_frame(payload_len)` once per frame
    /// whose last byte lies in this chunk.
    pub fn feed(&mut self, mut chunk: &[u8], mut on_frame: impl FnMut(u32)) {
        while !chunk.is_empty() {
            if self.header_have < 4 {
                let take = (4 - self.header_have).min(chunk.len());
                self.header[self.header_have..self.header_have + take]
                    .copy_from_slice(&chunk[..take]);
                self.header_have += take;
                chunk = &chunk[take..];
                if self.header_have < 4 {
                    return;
                }
                self.len = u32::from_le_bytes(self.header);
                self.remaining = self.len as usize;
            }
            let take = self.remaining.min(chunk.len());
            self.remaining -= take;
            chunk = &chunk[take..];
            if self.remaining == 0 {
                on_frame(self.len);
                self.header_have = 0;
            }
        }
    }
}

/// One request/reply pair observed on a tapped connection. Times are
/// nanoseconds since the episode's epoch instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcSpan {
    pub conn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request_bytes: u32,
    pub reply_bytes: u32,
}

/// Everything one tap saw.
#[derive(Debug, Default)]
pub struct TapTrace {
    pub spans: Vec<RpcSpan>,
    /// Largest number of requests awaiting a reply at once.
    pub max_in_flight: usize,
    /// Replies that arrived with no request outstanding (protocol
    /// violation; stays 0 on a healthy run).
    pub unmatched_replies: u64,
    /// When each write burst reached the tap, either direction: one
    /// successful read of the forwarding loop, which is one `send` at the
    /// writer (several only if the kernel coalesced them) and at least one
    /// `recv` at the reader. Nanoseconds since the epoch, unordered.
    pub burst_ns: Vec<u64>,
}

#[derive(Default)]
struct Matcher {
    pending: VecDeque<(u64, u32)>,
    trace: TapTrace,
}

impl Matcher {
    fn burst(&mut self, at_ns: u64) {
        self.trace.burst_ns.push(at_ns);
    }

    fn request(&mut self, at_ns: u64, len: u32) {
        self.pending.push_back((at_ns, len));
        self.trace.max_in_flight = self.trace.max_in_flight.max(self.pending.len());
    }

    fn reply(&mut self, conn: u32, at_ns: u64, len: u32) {
        match self.pending.pop_front() {
            Some((start_ns, request_bytes)) => self.trace.spans.push(RpcSpan {
                conn,
                start_ns,
                end_ns: at_ns,
                request_bytes,
                reply_bytes: len,
            }),
            None => self.trace.unmatched_replies += 1,
        }
    }
}

/// Copies `from` into `to` until end of stream, reporting each burst and
/// each complete frame with the time its last byte was read; then
/// half-closes `to` so the peer sees the same end of stream.
fn forward(
    mut from: UnixStream,
    mut to: UnixStream,
    epoch: Instant,
    matcher: &Mutex<Matcher>,
    on_frame: impl Fn(&mut Matcher, u64, u32),
) -> io::Result<()> {
    let mut parser = FrameParser::default();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A peer that exits with unread data resets the connection;
            // for a tap that is just another end of stream.
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => break,
            Err(e) => return Err(e),
        };
        let at_ns = epoch.elapsed().as_nanos() as u64;
        {
            // Recorded before forwarding, so a request is always on the
            // books before its reply can come back.
            let mut m = matcher
                .lock()
                .expect("tap matcher poisoned: the other direction panicked");
            m.burst(at_ns);
            parser.feed(&buf[..n], |len| on_frame(&mut m, at_ns, len));
        }
        to.write_all(&buf[..n])?;
    }
    // The peer may already be gone; its end of stream is what matters.
    let _ = to.shutdown(Shutdown::Write);
    Ok(())
}

/// A running tap for one coordinator↔partition connection.
pub struct Tap {
    handle: JoinHandle<io::Result<()>>,
    shared: Arc<Mutex<Matcher>>,
}

impl Tap {
    /// Binds `listen`, and — once the coordinator connects — dials
    /// `upstream` and forwards until both directions reach end of stream.
    pub fn start(listen: &Path, upstream: &Path, conn: u32, epoch: Instant) -> io::Result<Tap> {
        let listener = UnixListener::bind(listen)?;
        let upstream = upstream.to_path_buf();
        let shared = Arc::new(Mutex::new(Matcher::default()));
        let requests = Arc::clone(&shared);
        let handle = std::thread::spawn(move || -> io::Result<()> {
            let (down, _) = listener.accept()?;
            let up = UnixStream::connect(&upstream)?;
            let (down_w, up_r) = (down.try_clone()?, up.try_clone()?);
            let replies = Arc::clone(&requests);
            let back = std::thread::spawn(move || {
                forward(up_r, down_w, epoch, &replies, |m, at, len| {
                    m.reply(conn, at, len)
                })
            });
            let forth = forward(down, up, epoch, &requests, |m, at, len| m.request(at, len));
            let back = back
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("tap reply thread panicked")));
            forth.and(back)
        });
        Ok(Tap { handle, shared })
    }

    /// Waits for both directions to drain (the coordinator and the
    /// partition must have closed their ends) and returns what was seen.
    pub fn finish(self) -> io::Result<TapTrace> {
        self.handle
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("tap thread panicked")))?;
        let mut matcher = self
            .shared
            .lock()
            .map_err(|_| io::Error::other("tap matcher poisoned"))?;
        Ok(std::mem::take(&mut matcher.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    fn parse_chunked(bytes: &[u8], chunk_sizes: impl Iterator<Item = usize>) -> Vec<u32> {
        let mut parser = FrameParser::default();
        let mut seen = Vec::new();
        let mut at = 0;
        for size in chunk_sizes {
            if at >= bytes.len() {
                break;
            }
            let end = (at + size).min(bytes.len());
            parser.feed(&bytes[at..end], |len| seen.push(len));
            at = end;
        }
        assert_eq!(at, bytes.len(), "test chunking must cover the stream");
        seen
    }

    #[test]
    fn frames_survive_dribbled_writes() {
        let payloads: [&[u8]; 5] = [b"", b"x", b"hello", &[7u8; 300], b"tail"];
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
        let expect: Vec<u32> = payloads.iter().map(|p| p.len() as u32).collect();
        for dribble in 1..=7usize {
            let seen = parse_chunked(&stream, std::iter::repeat(dribble));
            assert_eq!(seen, expect, "{dribble}-byte dribble");
        }
        // Irregular chunking, cycling through every size from 1 to 7.
        let seen = parse_chunked(&stream, (1..=7usize).cycle());
        assert_eq!(seen, expect);
    }

    #[test]
    fn pipelined_frames_in_one_chunk_all_surface() {
        let stream: Vec<u8> = [frame(b"ab"), frame(b""), frame(b"cdef")].concat();
        let mut parser = FrameParser::default();
        let mut seen = Vec::new();
        parser.feed(&stream, |len| seen.push(len));
        assert_eq!(seen, vec![2, 0, 4]);
    }

    #[test]
    fn matcher_pairs_pipelined_requests_fifo() {
        let mut m = Matcher::default();
        m.request(10, 100);
        m.request(20, 200);
        m.request(30, 300);
        m.reply(4, 40, 1);
        m.reply(4, 50, 2);
        m.request(60, 400);
        m.reply(4, 70, 3);
        m.reply(4, 80, 4);
        m.reply(4, 90, 5); // nothing outstanding
        assert_eq!(m.trace.max_in_flight, 3);
        assert_eq!(m.trace.unmatched_replies, 1);
        let got: Vec<(u64, u64, u32, u32)> = m
            .trace
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.request_bytes, s.reply_bytes))
            .collect();
        assert_eq!(
            got,
            vec![
                (10, 40, 100, 1),
                (20, 50, 200, 2),
                (30, 70, 300, 3),
                (60, 80, 400, 4)
            ]
        );
    }

    #[test]
    fn tap_forwards_bytes_and_sees_every_rpc() {
        let dir = std::env::temp_dir().join(format!("mobieyes-tap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (listen, upstream) = (dir.join("tap.sock"), dir.join("up.sock"));
        let server = UnixListener::bind(&upstream).unwrap();
        // Echo service: replies to each frame with its payload reversed.
        let service = std::thread::spawn(move || {
            let (mut s, _) = server.accept().unwrap();
            let mut head = [0u8; 4];
            while s.read_exact(&mut head).is_ok() {
                let mut body = vec![0u8; u32::from_le_bytes(head) as usize];
                s.read_exact(&mut body).unwrap();
                body.reverse();
                s.write_all(&frame(&body)).unwrap();
            }
        });
        let tap = Tap::start(&listen, &upstream, 9, Instant::now()).unwrap();
        let mut client = UnixStream::connect(&listen).unwrap();
        // Two pipelined requests, the second dribbled byte by byte.
        client.write_all(&frame(b"abc")).unwrap();
        for b in frame(b"12345") {
            client.write_all(&[b]).unwrap();
        }
        let mut replies = vec![0u8; 4 + 3 + 4 + 5];
        client.read_exact(&mut replies).unwrap();
        assert_eq!(replies, [frame(b"cba"), frame(b"54321")].concat());
        drop(client);
        let trace = tap.finish().unwrap();
        service.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(trace.unmatched_replies, 0);
        let sizes: Vec<(u32, u32, u32)> = trace
            .spans
            .iter()
            .map(|s| (s.conn, s.request_bytes, s.reply_bytes))
            .collect();
        assert_eq!(sizes, vec![(9, 3, 3), (9, 5, 5)]);
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
        // At least one burst each way; at most one per client write (the
        // kernel coalesces whatever queued up before a read) plus two
        // replies.
        assert!(
            (2..=12).contains(&trace.burst_ns.len()),
            "{:?}",
            trace.burst_ns
        );
    }
}
