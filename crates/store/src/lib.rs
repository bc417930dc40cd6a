//! The durable trajectory log (DESIGN.md §14): hot/cold state separation
//! for MobiEyes servers.
//!
//! The hot tier is the in-memory FOT/SQT/RQI of a [`Server`]; this crate
//! is the cold tier — an append-only, segmented binary log of the server's
//! *inputs* ([`LogRecord`]s), with:
//!
//! - **length-prefixed, CRC-guarded, monotonically sequenced frames**
//!   behind the in-tree codec (no external dependencies);
//! - **group-flush batching**: frames buffer in memory and hit the file in
//!   batches (every `flush_every` records, and always at the tick-boundary
//!   `SetTime`/`Heartbeat` records), bounding `kill -9` loss to one tick;
//! - **a torn-tail-tolerant reader**: a frame cut short by a crash (or a
//!   [`TornWritePlan`] fault injection) is detected by length/CRC/sequence
//!   checks and truncated away on the next open;
//! - **snapshot + truncate compaction**: a periodic [`LogRecord::Checkpoint`]
//!   (the full [`Server::checkpoint_bytes`] image) opens a fresh segment,
//!   and segments older than `keep_segments` before it are deleted —
//!   replay starts at the newest checkpoint, so the deleted prefix is
//!   subsumed;
//! - **replay recovery** ([`replay_into`]): rebuilding a server
//!   byte-for-byte by re-applying the logged inputs;
//! - **historical trajectory queries** ([`Store::trajectory`],
//!   [`read_trajectory`]): "where was object X over `[t0, t1]`", answered
//!   by a segment-index scan — each segment carries an in-memory
//!   `(min_tm, max_tm)` motion-sample range, so segments outside the
//!   window are skipped without touching disk.
//!
//! On-disk layout: `<dir>/seg-NNNNNNNN.log`, each segment starting with a
//! 20-byte header `[magic "MEST"][version][partition][first_seq]` followed
//! by frames `[len u32][crc u32][seq u64][payload]`, where `crc` is
//! CRC-32 (IEEE) over `seq ‖ payload` and `len` counts payload bytes.

use mobieyes_core::codec::{Reader, Wire};
use mobieyes_core::journal::{JournalSink, LogRecord};
use mobieyes_core::server::Net;
use mobieyes_core::{ObjectId, Server};
use mobieyes_geo::LinearMotion;
use mobieyes_net::TornWritePlan;
use mobieyes_telemetry::{store_keys, Tally, Telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Segment header magic: `"MEST"` (MobiEyes STore).
pub const MAGIC: u32 = 0x4D45_5354;
/// On-disk format version.
pub const VERSION: u32 = 1;
/// Segment header size: magic, version, partition, first_seq.
pub const SEGMENT_HEADER_LEN: usize = 20;
/// Frame header size: len, crc, seq.
pub const FRAME_HEADER_LEN: usize = 16;
/// Upper bound on a single record payload (spans checkpoints of very
/// large servers; anything bigger on disk is corruption).
pub const MAX_RECORD: usize = 1 << 24;

/// The per-record counters, counted in a [`Tally`] (slot order) and
/// published at every group flush and by [`Store::publish`].
const APPEND_KEYS: [&str; 2] = [store_keys::APPENDS, store_keys::BYTES];
const APPENDS: usize = 0;
const BYTES: usize = 1;

/// The slice-by-8 tables of CRC-32 (IEEE 802.3, reflected polynomial
/// `0xEDB8_8320`): `CRC_TABLES[0][b]` is the CRC register after byte `b`,
/// and `CRC_TABLES[k][b]` the register after `b` followed by `k` zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3) — the frame guard. Eight bytes per step
/// (slice-by-8), the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Store knobs. Segment size and flush batching trade recovery granularity
/// against syscall volume; `keep_segments` bounds how much pre-checkpoint
/// trajectory history compaction retains.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding this partition's segments.
    pub dir: PathBuf,
    /// The partition slot this log belongs to (0 for a single server).
    pub partition: u32,
    /// Group-flush batching: buffered frames hit the file every this many
    /// records (tick-boundary records always flush).
    pub flush_every: usize,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Segments *before* the newest checkpoint's segment retained by
    /// compaction for historical trajectory queries; older ones are
    /// deleted.
    pub keep_segments: u64,
}

impl StoreConfig {
    pub fn new(dir: impl Into<PathBuf>, partition: u32) -> Self {
        StoreConfig {
            dir: dir.into(),
            partition,
            flush_every: 64,
            segment_bytes: 1 << 20,
            keep_segments: 4,
        }
    }
}

/// Per-segment motion-sample statistics — the trajectory segment index.
#[derive(Debug, Clone, Copy)]
struct SegStat {
    min_tm: f64,
    max_tm: f64,
    samples: u64,
}

impl SegStat {
    fn empty() -> Self {
        SegStat {
            min_tm: f64::INFINITY,
            max_tm: f64::NEG_INFINITY,
            samples: 0,
        }
    }

    fn note(&mut self, tm: f64) {
        self.min_tm = self.min_tm.min(tm);
        self.max_tm = self.max_tm.max(tm);
        self.samples += 1;
    }

    fn covers(&self, t0: f64, t1: f64) -> bool {
        self.samples > 0 && self.min_tm <= t1 && self.max_tm >= t0
    }
}

struct Inner {
    cfg: StoreConfig,
    telemetry: Telemetry,
    /// `store.appends` / `store.bytes` since the last publish.
    appended: Tally<2>,
    /// Current segment writer; `None` after a (simulated) crash or I/O
    /// error — the store is poisoned and drops further appends, like the
    /// dead process it models.
    file: Option<File>,
    seg_index: u64,
    seg_bytes: u64,
    buf: Vec<u8>,
    pending: usize,
    next_seq: u64,
    torn: TornWritePlan,
    /// Closed segments' trajectory index; the open segment accumulates in
    /// `cur_stat`.
    seg_stats: BTreeMap<u64, SegStat>,
    cur_stat: SegStat,
    /// Segment holding the newest checkpoint record (compaction floor).
    checkpoint_seg: Option<u64>,
}

/// A handle to one partition's durable log: cheap to clone, internally
/// synchronized, injected into a [`Server`] as its [`JournalSink`].
#[derive(Clone)]
pub struct Store {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Store")
            .field("dir", &inner.cfg.dir)
            .field("partition", &inner.cfg.partition)
            .field("seg_index", &inner.seg_index)
            .field("next_seq", &inner.next_seq)
            .field("poisoned", &inner.file.is_none())
            .finish()
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.log"))
}

/// Segment file indices present in `dir`, ascending.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(i) = num.parse::<u64>() {
                out.push(i);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

struct SegmentScan {
    first_seq: u64,
    /// `(seq, record)` pairs of every valid frame, in order.
    records: Vec<(u64, LogRecord)>,
    /// Byte offset of the first invalid frame (file length when clean).
    valid_len: u64,
    /// Whether the segment ends in a torn/corrupt tail.
    torn: bool,
}

/// Parses one segment, stopping at the first invalid frame — short header,
/// oversized length, CRC mismatch, undecodable payload or out-of-order
/// sequence all mark a torn tail (never a panic: this is disk input).
fn scan_segment(bytes: &[u8], partition: u32, expect_seq: Option<u64>) -> io::Result<SegmentScan> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(bad_data("segment shorter than its header"));
    }
    let hdr = &mut Reader::new(&bytes[..SEGMENT_HEADER_LEN]);
    let (magic, version, seg_partition, first_seq) =
        <(u32, u32, u32, u64)>::get(hdr).map_err(|e| bad_data(e.0))?;
    if magic != MAGIC {
        return Err(bad_data(format!("bad segment magic {magic:#x}")));
    }
    if version != VERSION {
        return Err(bad_data(format!("unsupported segment version {version}")));
    }
    if seg_partition != partition {
        return Err(bad_data(format!(
            "segment belongs to partition {seg_partition}, expected {partition}"
        )));
    }
    if let Some(expect) = expect_seq {
        if first_seq != expect {
            return Err(bad_data(format!(
                "segment first seq {first_seq} breaks continuity (expected {expect})"
            )));
        }
    }

    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    let mut seq = first_seq;
    let mut torn = false;
    while offset < bytes.len() {
        let frame = &mut Reader::new(&bytes[offset..]);
        let Ok((len, crc, frame_seq)) = <(u32, u32, u64)>::get(frame) else {
            torn = true;
            break;
        };
        let len = len as usize;
        let payload = match frame.take(len, "frame payload") {
            Ok(payload) if len <= MAX_RECORD && frame_seq == seq => payload,
            _ => {
                torn = true;
                break;
            }
        };
        let guarded = &bytes[offset + 8..offset + FRAME_HEADER_LEN + len];
        if crc32(guarded) != crc {
            torn = true;
            break;
        }
        let buf = &mut Reader::new(payload);
        let Ok(rec) = LogRecord::get(buf) else {
            torn = true;
            break;
        };
        if buf.remaining() != 0 {
            torn = true;
            break;
        }
        records.push((seq, rec));
        seq += 1;
        offset += FRAME_HEADER_LEN + len;
    }
    Ok(SegmentScan {
        first_seq,
        records,
        valid_len: offset as u64,
        torn,
    })
}

fn encode_frame(seq: u64, rec: &LogRecord, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    (0u32, 0u32, seq).put(out); // len and crc placeholders
    rec.put(out);
    let len = out.len() - start - FRAME_HEADER_LEN;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    FRAME_HEADER_LEN + len
}

impl Store {
    /// Opens (or creates) the log directory of one partition. Existing
    /// segments are scanned: a torn tail is truncated away (counted in
    /// `store.torn_tails`), segments after a corrupt one are dropped, and
    /// writing resumes in a fresh segment continuing the sequence.
    pub fn open(cfg: StoreConfig, telemetry: Telemetry) -> io::Result<Store> {
        fs::create_dir_all(&cfg.dir)?;
        let indices = segment_indices(&cfg.dir)?;
        let mut next_seq = 0u64;
        let mut seg_stats = BTreeMap::new();
        let mut checkpoint_seg = None;
        let mut expect: Option<u64> = None;
        let mut dead = false;
        for (pos, &i) in indices.iter().enumerate() {
            let path = segment_path(&cfg.dir, i);
            if dead {
                // Everything after a torn segment is unreachable by
                // replay; drop it.
                fs::remove_file(&path)?;
                telemetry.incr(store_keys::TORN_TAILS);
                continue;
            }
            let bytes = fs::read(&path)?;
            // Continuity is only checkable from the second retained
            // segment on (compaction may have deleted the prefix).
            let scan = scan_segment(&bytes, cfg.partition, expect.filter(|_| pos > 0))?;
            let mut stat = SegStat::empty();
            for (seq, rec) in &scan.records {
                if let Some((_, motion)) = rec.motion_sample() {
                    stat.note(motion.tm);
                }
                if matches!(rec, LogRecord::Checkpoint(_)) {
                    checkpoint_seg = Some(i);
                }
                next_seq = seq + 1;
            }
            seg_stats.insert(i, stat);
            if scan.records.is_empty() {
                next_seq = next_seq.max(scan.first_seq);
            }
            if scan.torn {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
                f.sync_all()?;
                telemetry.incr(store_keys::TORN_TAILS);
                dead = true;
            }
            expect = Some(next_seq);
        }

        let seg_index = indices.last().map_or(0, |l| l + 1);
        let mut inner = Inner {
            cfg,
            telemetry,
            appended: Tally::new(APPEND_KEYS),
            file: None,
            seg_index,
            seg_bytes: 0,
            buf: Vec::new(),
            pending: 0,
            next_seq,
            torn: TornWritePlan::none(),
            seg_stats,
            cur_stat: SegStat::empty(),
            checkpoint_seg,
        };
        inner.open_segment(seg_index)?;
        Ok(Store {
            inner: Arc::new(Mutex::new(inner)),
        })
    }

    /// Installs a deterministic torn-write fault schedule (tests). A
    /// firing tear writes a prefix of the batch and poisons the writer —
    /// the simulated process died mid-`write`.
    pub fn set_torn_plan(&self, plan: TornWritePlan) {
        self.inner.lock().unwrap().torn = plan;
    }

    /// Appends one record (the [`JournalSink`] entry point). Tick-boundary
    /// records (`SetTime`, `Heartbeat`) force a group flush.
    pub fn append_record(&self, rec: &LogRecord) {
        let mut inner = self.inner.lock().unwrap();
        inner.append(rec);
    }

    /// Forces the buffered frames onto disk.
    pub fn flush(&self) {
        self.inner.lock().unwrap().flush();
    }

    /// Publishes the append counters counted since the last group flush
    /// into the telemetry sink, without touching the log. The owner of the
    /// sink calls this before it drains, resets or reads it.
    pub fn publish(&self) {
        self.inner.lock().unwrap().publish();
    }

    /// Whether flushing now would fill the current segment and rotate. A
    /// caller that batches several ops per [`flush`](Self::flush) checks
    /// this after each op and flushes when it holds, so segments end at
    /// the same record they would with one flush per op.
    pub fn segment_full(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.seg_bytes + inner.buf.len() as u64 >= inner.cfg.segment_bytes
    }

    /// Cuts a checkpoint: flushes, rotates to a fresh segment whose first
    /// record is `Checkpoint(state)`, syncs it durably, and garbage
    /// collects segments older than `keep_segments` before it. `state` is
    /// [`Server::checkpoint_bytes`] output.
    pub fn checkpoint(&self, state: Vec<u8>) {
        let mut inner = self.inner.lock().unwrap();
        inner.checkpoint(state);
    }

    /// Historical trajectory query: every motion sample recorded for
    /// `oid` with `tm` in `[t0, t1]`, ascending by time, deduplicated.
    /// Answered by a segment-index scan — only segments whose sample-time
    /// range intersects the window are read.
    pub fn trajectory(&self, oid: ObjectId, t0: f64, t1: f64) -> io::Result<Vec<LinearMotion>> {
        let (dir, partition, picks) = {
            let mut inner = self.inner.lock().unwrap();
            inner.flush();
            let mut picks: Vec<u64> = inner
                .seg_stats
                .iter()
                .filter(|(_, s)| s.covers(t0, t1))
                .map(|(&i, _)| i)
                .collect();
            if inner.cur_stat.covers(t0, t1) {
                picks.push(inner.seg_index);
            }
            (inner.cfg.dir.clone(), inner.cfg.partition, picks)
        };
        let mut out = Vec::new();
        for i in picks {
            let bytes = fs::read(segment_path(&dir, i))?;
            let scan = scan_segment(&bytes, partition, None)?;
            for (_, rec) in &scan.records {
                if let Some((o, motion)) = rec.motion_sample() {
                    if o == oid && motion.tm >= t0 && motion.tm <= t1 {
                        out.push(motion);
                    }
                }
            }
        }
        sort_dedupe_motions(&mut out);
        Ok(out)
    }

    /// The sequence number the next append receives.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Whether a torn write or I/O error killed this writer.
    pub fn poisoned(&self) -> bool {
        self.inner.lock().unwrap().file.is_none()
    }

    /// The log directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().unwrap().cfg.dir.clone()
    }

    /// Number of live segment files (closed + the open one).
    pub fn num_segments(&self) -> usize {
        self.inner.lock().unwrap().seg_stats.len() + 1
    }

    /// Total on-disk size of the log in bytes (flushed data only).
    pub fn log_bytes(&self) -> io::Result<u64> {
        let dir = self.dir();
        let mut total = 0;
        for i in segment_indices(&dir)? {
            total += fs::metadata(segment_path(&dir, i))?.len();
        }
        Ok(total)
    }
}

impl JournalSink for Store {
    fn append(&self, rec: &LogRecord) {
        self.append_record(rec);
    }
}

impl Inner {
    fn open_segment(&mut self, index: u64) -> io::Result<()> {
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        (MAGIC, VERSION, self.cfg.partition, self.next_seq).put(&mut header);
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&self.cfg.dir, index))?;
        f.write_all(&header)?;
        self.file = Some(f);
        self.seg_index = index;
        self.seg_bytes = SEGMENT_HEADER_LEN as u64;
        self.cur_stat = SegStat::empty();
        Ok(())
    }

    fn append(&mut self, rec: &LogRecord) {
        if self.file.is_none() {
            return; // poisoned: the simulated process is dead
        }
        let seq = self.next_seq;
        let frame_len = encode_frame(seq, rec, &mut self.buf);
        if frame_len - FRAME_HEADER_LEN > MAX_RECORD {
            // Un-replayable frame; refuse it and poison.
            self.buf.truncate(self.buf.len() - frame_len);
            self.poison(store_keys::WRITE_ERRORS);
            return;
        }
        self.next_seq += 1;
        self.pending += 1;
        if let Some((_, motion)) = rec.motion_sample() {
            self.cur_stat.note(motion.tm);
        }
        if matches!(rec, LogRecord::Checkpoint(_)) {
            self.checkpoint_seg = Some(self.seg_index);
        }
        self.appended.incr(APPENDS);
        self.appended.add(BYTES, frame_len as u64);
        let boundary = matches!(rec, LogRecord::SetTime(_) | LogRecord::Heartbeat(_));
        if boundary || self.pending >= self.cfg.flush_every {
            self.flush();
        }
    }

    fn poison(&mut self, counter: &'static str) {
        self.file = None;
        self.buf.clear();
        self.pending = 0;
        self.telemetry.incr(counter);
    }

    fn publish(&mut self) {
        self.appended.flush(&self.telemetry);
    }

    /// The group flush: buffered frames to the file, counters to the sink.
    fn flush(&mut self) {
        self.publish();
        if self.buf.is_empty() {
            return;
        }
        let Some(f) = self.file.as_mut() else { return };
        if let Some(keep) = self.torn.torn_len(self.buf.len()) {
            // Simulated crash mid-write: a prefix lands, the writer dies.
            let _ = f.write_all(&self.buf[..keep]);
            let _ = f.sync_all();
            self.poison(store_keys::TORN_WRITES);
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        let wrote = f.write_all(&buf).and_then(|()| f.flush());
        self.buf = buf;
        if wrote.is_err() {
            self.poison(store_keys::WRITE_ERRORS);
            return;
        }
        self.seg_bytes += self.buf.len() as u64;
        self.buf.clear();
        self.pending = 0;
        self.telemetry.incr(store_keys::FLUSHES);
        if self.seg_bytes >= self.cfg.segment_bytes {
            let _ = self.rotate();
        }
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.seg_stats.insert(self.seg_index, self.cur_stat);
        self.telemetry.incr(store_keys::ROTATIONS);
        let next = self.seg_index + 1;
        self.open_segment(next).inspect_err(|_| {
            self.poison(store_keys::WRITE_ERRORS);
        })
    }

    fn checkpoint(&mut self, state: Vec<u8>) {
        if self.file.is_none() {
            return;
        }
        self.flush();
        if self.file.is_none() || self.rotate().is_err() {
            return;
        }
        self.append(&LogRecord::Checkpoint(state));
        self.flush();
        if let Some(f) = self.file.as_mut() {
            if f.sync_all().is_err() {
                self.poison(store_keys::WRITE_ERRORS);
                return;
            }
        }
        self.telemetry.incr(store_keys::CHECKPOINTS);
        self.gc();
    }

    /// Deletes segments more than `keep_segments` before the newest
    /// checkpoint's segment: replay never needs them (it starts at the
    /// checkpoint) and trajectory history keeps a bounded window.
    fn gc(&mut self) {
        let Some(ckpt) = self.checkpoint_seg else {
            return;
        };
        let floor = ckpt.saturating_sub(self.cfg.keep_segments);
        let doomed: Vec<u64> = self.seg_stats.range(..floor).map(|(&i, _)| i).collect();
        for i in doomed {
            if fs::remove_file(segment_path(&self.cfg.dir, i)).is_ok() {
                self.seg_stats.remove(&i);
                self.telemetry.incr(store_keys::GC_SEGMENTS);
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Best-effort: an orderly shutdown should not lose the buffered
        // tail (a crash still can — that is what replay tolerates).
        self.flush();
    }
}

/// Orders motion samples by timestamp and drops exact duplicates —
/// the merge step for trajectory fragments gathered across partitions.
pub fn sort_dedupe_motions(out: &mut Vec<LinearMotion>) {
    out.sort_by(|a, b| a.tm.partial_cmp(&b.tm).unwrap_or(std::cmp::Ordering::Equal));
    out.dedup_by(|a, b| a.tm == b.tm && a.pos == b.pos && a.vel == b.vel);
}

/// A whole-directory read: every valid record, in sequence order.
#[derive(Debug)]
pub struct LogScan {
    /// `(seq, record)` pairs across all segments.
    pub records: Vec<(u64, LogRecord)>,
    /// Whether a torn tail was encountered (records after it, if any,
    /// were not returned).
    pub torn: bool,
}

/// Reads every valid record of a partition log directory, tolerating a
/// torn tail (read-only — nothing is repaired or created).
pub fn read_log_dir(dir: &Path, partition: u32) -> io::Result<LogScan> {
    let mut records = Vec::new();
    let mut torn = false;
    let mut expect: Option<u64> = None;
    for (pos, i) in segment_indices(dir)?.into_iter().enumerate() {
        if torn {
            break;
        }
        let bytes = fs::read(segment_path(dir, i))?;
        let scan = scan_segment(&bytes, partition, expect.filter(|_| pos > 0))?;
        torn = scan.torn;
        let mut last = scan.first_seq;
        for (seq, rec) in scan.records {
            last = seq + 1;
            records.push((seq, rec));
        }
        expect = Some(last);
    }
    Ok(LogScan { records, torn })
}

/// What [`replay_into`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Valid records found in the log.
    pub records_scanned: u64,
    /// Records actually applied (from the newest checkpoint on).
    pub records_applied: u64,
    /// Sequence number of the last applied record.
    pub last_seq: Option<u64>,
    /// Whether replay started from a checkpoint record.
    pub from_checkpoint: bool,
}

/// Rebuilds a server from its log: finds the newest
/// [`LogRecord::Checkpoint`] and re-applies it plus the tail after it (the
/// whole log when no checkpoint exists — only valid for logs whose first
/// record is still seq 0). Deterministic protocol logic makes the result
/// byte-identical to the server that wrote the log. Downlinks and cluster
/// messages regenerated into `net`/the server's outbox during replay are
/// echoes of traffic already delivered live; the caller discards them.
///
/// Every record goes through [`Server::apply`], which journals what it
/// applies, so the target must not have a journal attached (an
/// [`io::ErrorKind::InvalidInput`] error): attach it after the replay, as
/// [`attach`] does.
pub fn replay_into(
    dir: &Path,
    partition: u32,
    server: &mut Server,
    net: &mut Net,
    telemetry: &Telemetry,
) -> io::Result<ReplaySummary> {
    if server.has_journal() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "replay target has a journal attached: it would journal the replayed records again",
        ));
    }
    let scan = read_log_dir(dir, partition)?;
    let start = scan
        .records
        .iter()
        .rposition(|(_, r)| matches!(r, LogRecord::Checkpoint(_)));
    if start.is_none() {
        if let Some(&(first_seq, _)) = scan.records.first().filter(|(s, _)| *s != 0) {
            return Err(bad_data(format!(
                "log begins mid-stream at seq {first_seq:?} without a checkpoint"
            )));
        }
    }
    let start = start.unwrap_or(0);
    let mut applied = 0u64;
    let mut last_seq = None;
    for (seq, rec) in &scan.records[start..] {
        server.apply(rec, net).map_err(|e| bad_data(e.0))?;
        applied += 1;
        last_seq = Some(*seq);
    }
    telemetry.add(store_keys::REPLAYED, applied);
    Ok(ReplaySummary {
        records_scanned: scan.records.len() as u64,
        records_applied: applied,
        last_seq,
        from_checkpoint: start > 0
            || matches!(scan.records.first(), Some((_, LogRecord::Checkpoint(_)))),
    })
}

/// Attaches the log at `dir` to `server` as its journal: opens it, replays
/// what it holds into `server` (dropping the downlinks and bus envelopes
/// the replay re-emits — the previous life delivered them), starts a fresh
/// log with its `Meta` record, and only then attaches it, so replayed ops
/// are not journaled twice. An error names the step and the directory.
pub fn attach(
    dir: &Path,
    partition: u32,
    num_partitions: u32,
    server: &mut Server,
    net: &mut Net,
    telemetry: &Telemetry,
) -> io::Result<Store> {
    let failed = |what: &'static str| {
        move |e: io::Error| io::Error::new(e.kind(), format!("{what} store {}: {e}", dir.display()))
    };
    let store = Store::open(StoreConfig::new(dir, partition), telemetry.clone())
        .map_err(failed("opening"))?;
    replay_into(dir, partition, server, net, telemetry).map_err(failed("replaying"))?;
    net.take_downlinks();
    server.take_outbox();
    if store.next_seq() == 0 {
        store.append_record(&LogRecord::Meta {
            partition,
            num_partitions,
        });
    }
    server.set_journal(Some(Arc::new(store.clone())));
    Ok(store)
}

/// Historical trajectory query over a log directory on disk (the offline
/// twin of [`Store::trajectory`]).
pub fn read_trajectory(
    dir: &Path,
    partition: u32,
    oid: ObjectId,
    t0: f64,
    t1: f64,
) -> io::Result<Vec<LinearMotion>> {
    let scan = read_log_dir(dir, partition)?;
    let mut out = Vec::new();
    for (_, rec) in &scan.records {
        if let Some((o, motion)) = rec.motion_sample() {
            if o == oid && motion.tm >= t0 && motion.tm <= t1 {
                out.push(motion);
            }
        }
    }
    sort_dedupe_motions(&mut out);
    Ok(out)
}

/// Deletes every segment of a log directory (respawn recovery wipes the
/// stale journal of a fenced-out partition before re-attaching a sink).
pub fn wipe_dir(dir: &Path) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for i in segment_indices(dir)? {
        fs::remove_file(segment_path(dir, i))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_core::{
        Filter, Kinematics, MovingObjectAgent, ObjectId, Propagation, Properties, ProtocolConfig,
        Server,
    };
    use mobieyes_geo::{Grid, Point, QueryRegion, Rect, Vec2};
    use mobieyes_net::BaseStationLayout;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mobieyes-store-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn motion(x: f64, y: f64, tm: f64) -> LinearMotion {
        LinearMotion::new(Point::new(x, y), Vec2::new(0.01, -0.02), tm)
    }

    fn sample_records(n: usize) -> Vec<LogRecord> {
        let mut out = vec![LogRecord::Meta {
            partition: 0,
            num_partitions: 1,
        }];
        for i in 0..n {
            out.push(LogRecord::VelocityReport {
                oid: ObjectId(i as u32 % 5),
                motion: motion(i as f64, 2.0 * i as f64, 30.0 * i as f64),
            });
            if i % 4 == 3 {
                out.push(LogRecord::Heartbeat(30.0 * i as f64));
            }
        }
        out
    }

    /// The CRC a byte at a time — the loop slice-by-8 replaced, kept as
    /// its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_answers_and_the_bytewise_oracle() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Every length around the 8-byte step, at every start offset.
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        // Seeded random buffers up to 4 KiB.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let len = (next() % 4097) as usize;
            let s: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&s), crc32_bytewise(&s), "len {len}");
        }
    }

    #[test]
    fn frames_roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let recs = sample_records(10);
        let tel = Telemetry::new();
        {
            let store = Store::open(StoreConfig::new(&dir, 0), tel.clone()).unwrap();
            for r in &recs {
                store.append_record(r);
            }
            assert_eq!(store.next_seq(), recs.len() as u64);
            assert!(!store.poisoned());
        } // drop flushes the buffered tail
        let scan = read_log_dir(&dir, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), recs.len());
        for (i, (seq, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(rec, &recs[i]);
        }

        // Reopening continues the sequence in a fresh segment.
        let store = Store::open(StoreConfig::new(&dir, 0), tel).unwrap();
        assert_eq!(store.next_seq(), recs.len() as u64);
        store.append_record(&LogRecord::Heartbeat(999.0));
        store.flush();
        let scan = read_log_dir(&dir, 0).unwrap();
        assert_eq!(scan.records.last().unwrap().1, LogRecord::Heartbeat(999.0));
        assert_eq!(scan.records.len(), recs.len() + 1);
    }

    /// `store.appends` / `store.bytes` take no lock per record: they reach
    /// the sink at the group flush, or when the owner publishes.
    #[test]
    fn append_counters_publish_at_group_flush_not_per_record() {
        let dir = tmp_dir("tally");
        let tel = Telemetry::new();
        let store = Store::open(StoreConfig::new(&dir, 0), tel.clone()).unwrap();
        let recs = sample_records(40);
        let (head, tail) = recs.split_at(10);
        let frame_bytes = |recs: &[LogRecord]| -> u64 {
            let frame = |r| mobieyes_core::codec::encoded_len(r) + FRAME_HEADER_LEN;
            recs.iter().map(frame).sum::<usize>() as u64
        };
        // No tick boundary among them, and fewer than a flush batch.
        let quiet: Vec<LogRecord> = head
            .iter()
            .filter(|r| !matches!(r, LogRecord::Heartbeat(_)))
            .cloned()
            .collect();
        let locks = tel.acquisitions();
        for r in &quiet {
            store.append_record(r);
        }
        assert_eq!(tel.acquisitions(), locks, "an append took the lock");
        store.publish();
        assert_eq!(tel.counter(store_keys::APPENDS), quiet.len() as u64);
        assert_eq!(tel.counter(store_keys::BYTES), frame_bytes(&quiet));
        tel.reset();
        // Each tick-boundary record flushes, and publishes with it.
        for r in tail {
            store.append_record(r);
        }
        let last_boundary = tail
            .iter()
            .rposition(|r| matches!(r, LogRecord::Heartbeat(_)))
            .unwrap();
        let flushed = &tail[..=last_boundary];
        assert_eq!(tel.counter(store_keys::APPENDS), flushed.len() as u64);
        assert_eq!(tel.counter(store_keys::BYTES), frame_bytes(flushed));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_partition_is_rejected() {
        let dir = tmp_dir("wrongpart");
        {
            let store = Store::open(StoreConfig::new(&dir, 3), Telemetry::new()).unwrap();
            store.append_record(&LogRecord::Heartbeat(1.0));
        }
        assert!(read_log_dir(&dir, 0).is_err());
        assert!(read_log_dir(&dir, 3).is_ok());
    }

    /// Truncating the log at EVERY byte offset must never panic, and must
    /// recover exactly the frames wholly before the cut.
    #[test]
    fn torn_tail_truncation_sweep() {
        let dir = tmp_dir("sweep");
        let recs = sample_records(8);
        {
            let store = Store::open(StoreConfig::new(&dir, 0), Telemetry::new()).unwrap();
            for r in &recs {
                store.append_record(r);
            }
        }
        let seg = segment_path(&dir, 0);
        let full = fs::read(&seg).unwrap();
        // Frame boundaries: prefix lengths that keep k whole frames.
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        for r in &recs {
            let payload = mobieyes_core::codec::to_bytes(r);
            boundaries.push(boundaries.last().unwrap() + FRAME_HEADER_LEN + payload.len());
        }
        assert_eq!(*boundaries.last().unwrap(), full.len());

        for cut in SEGMENT_HEADER_LEN..full.len() {
            let dir2 = tmp_dir("sweepcase");
            fs::create_dir_all(&dir2).unwrap();
            fs::write(segment_path(&dir2, 0), &full[..cut]).unwrap();
            let scan = read_log_dir(&dir2, 0).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.records.len(), whole, "cut at {cut}");
            // A cut landing exactly on a frame boundary is
            // indistinguishable from a clean shutdown.
            assert_eq!(scan.torn, !boundaries.contains(&cut), "cut at {cut}");

            // The writer repairs the tail and keeps going.
            let tel = Telemetry::new();
            let store = Store::open(StoreConfig::new(&dir2, 0), tel.clone()).unwrap();
            assert_eq!(store.next_seq(), whole as u64);
            store.append_record(&LogRecord::Heartbeat(1e6));
            drop(store);
            let scan = read_log_dir(&dir2, 0).unwrap();
            assert!(!scan.torn);
            assert_eq!(scan.records.len(), whole + 1);
            if !boundaries.contains(&cut) {
                assert!(tel.counter(store_keys::TORN_TAILS) >= 1);
            }
            fs::remove_dir_all(&dir2).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any single byte of a frame body must never panic and must
    /// cut the log at (or before) the corrupted frame.
    #[test]
    fn corrupt_byte_sweep_never_panics() {
        let dir = tmp_dir("corrupt");
        let recs = sample_records(6);
        {
            let store = Store::open(StoreConfig::new(&dir, 0), Telemetry::new()).unwrap();
            for r in &recs {
                store.append_record(r);
            }
        }
        let seg = segment_path(&dir, 0);
        let full = fs::read(&seg).unwrap();
        for pos in SEGMENT_HEADER_LEN..full.len() {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x5A;
            let dir2 = tmp_dir("corruptcase");
            fs::create_dir_all(&dir2).unwrap();
            fs::write(segment_path(&dir2, 0), &bytes).unwrap();
            let scan = read_log_dir(&dir2, 0).unwrap();
            assert!(scan.torn, "flip at {pos} went undetected");
            assert!(scan.records.len() < recs.len());
            for (i, (seq, rec)) in scan.records.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(rec, &recs[i], "flip at {pos} corrupted an earlier frame");
            }
            fs::remove_dir_all(&dir2).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_plan_poisons_writer_and_reader_recovers() {
        let dir = tmp_dir("tornplan");
        let tel = Telemetry::new();
        let mut cfg = StoreConfig::new(&dir, 0);
        cfg.flush_every = 1000; // only tick boundaries flush
        let store = Store::open(cfg, tel.clone()).unwrap();
        for r in sample_records(6) {
            store.append_record(&r);
        }
        store.flush();
        let clean = read_log_dir(&dir, 0).unwrap().records.len();

        // The next flush tears mid-batch and kills the writer.
        store.set_torn_plan(TornWritePlan::nth(0, 0.5));
        store.append_record(&LogRecord::VelocityReport {
            oid: ObjectId(99),
            motion: motion(1.0, 1.0, 500.0),
        });
        store.append_record(&LogRecord::Heartbeat(500.0)); // boundary -> torn flush
        assert!(store.poisoned());
        assert_eq!(tel.counter(store_keys::TORN_WRITES), 1);
        store.append_record(&LogRecord::Heartbeat(501.0)); // dropped
        drop(store);

        let scan = read_log_dir(&dir, 0).unwrap();
        assert!(scan.records.len() <= clean + 2);
        // Reopen repairs; appending resumes from the surviving prefix.
        let tel2 = Telemetry::new();
        let store = Store::open(StoreConfig::new(&dir, 0), tel2.clone()).unwrap();
        let survived = store.next_seq();
        assert!(survived >= clean as u64);
        store.append_record(&LogRecord::Heartbeat(600.0));
        drop(store);
        let scan = read_log_dir(&dir, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len() as u64, survived + 1);
    }

    #[test]
    fn seeded_torn_plan_chaos_sweep() {
        for seed in 0..20u64 {
            let dir = tmp_dir("chaos");
            let tel = Telemetry::new();
            let mut cfg = StoreConfig::new(&dir, 0);
            cfg.segment_bytes = 512; // force rotations mid-chaos
            let store = Store::open(cfg, tel.clone()).unwrap();
            store.set_torn_plan(TornWritePlan::seeded(0.3, seed));
            for r in sample_records(40) {
                store.append_record(&r);
            }
            drop(store);
            // Whatever survived must be a clean, contiguous prefix.
            let scan = read_log_dir(&dir, 0).unwrap();
            for (i, (seq, _)) in scan.records.iter().enumerate() {
                assert_eq!(*seq, i as u64);
            }
            let store = Store::open(StoreConfig::new(&dir, 0), tel).unwrap();
            assert!(!store.poisoned());
            assert_eq!(store.next_seq(), scan.records.len() as u64);
            drop(store);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rotation_checkpoint_gc_bounds_log_size() {
        let dir = tmp_dir("gc");
        let tel = Telemetry::new();
        let mut cfg = StoreConfig::new(&dir, 0);
        cfg.segment_bytes = 256;
        cfg.keep_segments = 1;
        let store = Store::open(cfg, tel.clone()).unwrap();
        for round in 0..30u32 {
            for r in sample_records(12) {
                store.append_record(&r);
            }
            store.checkpoint(vec![round as u8; 64]);
            // Steady state: keep_segments before the checkpoint segment,
            // the checkpoint segment, and at most a few trailing ones.
            assert!(
                segment_indices(&dir).unwrap().len() <= 4,
                "round {round}: compaction failed to bound the log"
            );
        }
        assert!(tel.counter(store_keys::GC_SEGMENTS) > 0);
        assert_eq!(tel.counter(store_keys::CHECKPOINTS), 30);
        // The retained tail still reads cleanly and ends with data after
        // the newest checkpoint.
        let scan = read_log_dir(&dir, 0).unwrap();
        assert!(!scan.torn);
        assert!(scan
            .records
            .iter()
            .any(|(_, r)| matches!(r, LogRecord::Checkpoint(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trajectory_scan_uses_segment_index_and_matches_ground_truth() {
        let dir = tmp_dir("traj");
        let mut cfg = StoreConfig::new(&dir, 0);
        cfg.segment_bytes = 300; // several segments
        let store = Store::open(cfg, Telemetry::new()).unwrap();
        let mut expect = Vec::new();
        for i in 0..60 {
            let oid = ObjectId(i % 3);
            let m = motion(i as f64, i as f64, 10.0 * i as f64);
            if oid == ObjectId(1) && (100.0..=400.0).contains(&m.tm) {
                expect.push(m);
            }
            store.append_record(&LogRecord::VelocityReport { oid, motion: m });
            if i % 5 == 4 {
                store.append_record(&LogRecord::Heartbeat(10.0 * i as f64));
            }
        }
        assert!(store.num_segments() > 2, "wanted multiple segments");
        let got = store.trajectory(ObjectId(1), 100.0, 400.0).unwrap();
        assert_eq!(got, expect);
        drop(store);
        // Offline twin agrees.
        let got = read_trajectory(&dir, 0, ObjectId(1), 100.0, 400.0).unwrap();
        assert_eq!(got, expect);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// End-to-end: a server journaling into the store, checkpointed
    /// mid-run, replays to a byte-identical state digest.
    #[test]
    fn scenario_replay_matches_live_digest() {
        const SIDE: f64 = 60.0;
        const TS: f64 = 30.0;
        let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
        let config = Arc::new(
            ProtocolConfig::new(Grid::new(universe, 8.0))
                .with_propagation(Propagation::Eager)
                .with_grouping(true)
                .with_delta(0.05),
        );
        let dir = tmp_dir("replay");
        let mut cfg = StoreConfig::new(&dir, 0);
        cfg.segment_bytes = 2048;
        let store = Store::open(cfg, Telemetry::new()).unwrap();

        let mut net = Net::new(BaseStationLayout::new(universe, 15.0));
        let mut server = Server::new(Arc::clone(&config)).with_journal(Arc::new(store.clone()));
        let n = 8usize;
        let mut positions: Vec<Point> = (0..n)
            .map(|i| Point::new(5.0 + 6.0 * i as f64, 50.0 - 5.0 * i as f64))
            .collect();
        let mut agents: Vec<MovingObjectAgent> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                MovingObjectAgent::new(ObjectId(i as u32), Properties::new(), &config, p)
            })
            .collect();
        for f in [0usize, 3, 6] {
            server.install_query(
                ObjectId(f as u32),
                QueryRegion::circle(9.0),
                Filter::True,
                &mut net,
            );
        }
        for k in 0..8 {
            let t = (k + 1) as f64 * TS;
            let vels: Vec<Vec2> = (0..n)
                .map(|i| Vec2::new(0.02 * ((i + k) % 3) as f64 - 0.02, 0.015))
                .collect();
            for i in 0..n {
                let p = positions[i] + vels[i] * TS;
                positions[i] = Point::new(p.x.clamp(0.0, SIDE), p.y.clamp(0.0, SIDE));
            }
            let body = |i: usize| Kinematics::new(positions[i], vels[i], 0.08);
            for (i, a) in agents.iter_mut().enumerate() {
                a.tick_motion(&config, t, body(i), &mut net);
            }
            server.tick(&mut net);
            for (i, a) in agents.iter_mut().enumerate() {
                let mut inbox = Vec::new();
                net.deliver(ObjectId(i as u32).node(), positions[i], &mut inbox);
                a.tick_process(&config, t, body(i), inbox.iter().map(|m| &**m), &mut net);
            }
            net.end_tick();
            server.tick(&mut net);
            server.heartbeat(t, &mut net);
            if k == 4 {
                store.checkpoint(server.checkpoint_bytes());
            }
        }
        store.flush();

        let mut net2 = Net::new(BaseStationLayout::new(universe, 15.0));
        let mut twin = Server::new(Arc::clone(&config));
        let tel = Telemetry::new();
        let summary = replay_into(&dir, 0, &mut twin, &mut net2, &tel).unwrap();
        assert!(summary.from_checkpoint);
        assert!(summary.records_applied < summary.records_scanned);
        assert_eq!(tel.counter(store_keys::REPLAYED), summary.records_applied);
        assert_eq!(twin.state_digest(), server.state_digest());
        twin.check_invariants();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A replay target with a journal attached is refused before anything
    /// is applied: `apply` would journal every replayed record again.
    #[test]
    fn replay_refuses_a_server_with_a_journal() {
        let dir = tmp_dir("journaled-target");
        let universe = Rect::new(0.0, 0.0, 60.0, 60.0);
        let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 8.0)));
        let store = Store::open(StoreConfig::new(&dir, 0), Telemetry::new()).unwrap();
        let mut net = Net::new(BaseStationLayout::new(universe, 15.0));
        let mut server = Server::new(Arc::clone(&config)).with_journal(Arc::new(store.clone()));
        server.heartbeat(30.0, &mut net);
        store.flush();
        let digest = server.state_digest();
        let err = replay_into(&dir, 0, &mut server, &mut net, &Telemetry::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(
            server.state_digest(),
            digest,
            "a refused replay applied records"
        );
        assert_eq!(store.next_seq(), 1, "a refused replay journaled records");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log with no checkpoint replays from seq 0.
    #[test]
    fn replay_without_checkpoint_requires_full_log() {
        let dir = tmp_dir("nockpt");
        let universe = Rect::new(0.0, 0.0, 60.0, 60.0);
        let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 8.0)));
        let store = Store::open(StoreConfig::new(&dir, 0), Telemetry::new()).unwrap();
        let mut net = Net::new(BaseStationLayout::new(universe, 15.0));
        let mut server = Server::new(Arc::clone(&config)).with_journal(Arc::new(store.clone()));
        server.heartbeat(30.0, &mut net);
        store.flush();

        let mut twin = Server::new(Arc::clone(&config));
        let s = replay_into(&dir, 0, &mut twin, &mut net, &Telemetry::new()).unwrap();
        assert!(!s.from_checkpoint);
        assert_eq!(twin.state_digest(), server.state_digest());

        // A mid-stream log (GC'd prefix) without a checkpoint must refuse:
        // deleting the first segment leaves the tail starting past seq 0.
        {
            let store = Store::open(StoreConfig::new(&dir, 0), Telemetry::new()).unwrap();
            store.append_record(&LogRecord::Heartbeat(60.0));
        }
        fs::remove_file(segment_path(&dir, 0)).unwrap();
        assert!(read_log_dir(&dir, 0).unwrap().records[0].0 > 0);
        let mut twin = Server::new(config);
        assert!(replay_into(&dir, 0, &mut twin, &mut net, &Telemetry::new()).is_err());

        // And a wiped directory starts over cleanly from seq 0.
        wipe_dir(&dir).unwrap();
        let store = Store::open(StoreConfig::new(&dir, 0), Telemetry::new()).unwrap();
        assert_eq!(store.next_seq(), 0);
    }
}
