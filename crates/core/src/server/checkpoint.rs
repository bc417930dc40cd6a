//! Checkpointing: the full-state image a `LogRecord::Checkpoint` carries,
//! its restore, and the state digest cut from it.

use super::tables::{FotEntry, FotTable, PendingInstall, Rqi, SqtEntry, StubEntry};
use super::{HomeChange, Server};
use crate::codec::{DecodeError, Reader, Wire};
use crate::model::{ObjectId, QueryId};
use std::collections::BTreeMap;

impl Server {
    /// Serializes the complete server state — the payload of a
    /// [`LogRecord::Checkpoint`](crate::LogRecord::Checkpoint). Transient per-op buffers (outbox, uplink
    /// scratch) are excluded: checkpoints are cut at
    /// quiesced tick boundaries where they are empty, and
    /// restoring a [`LogRecord::Checkpoint`](crate::LogRecord::Checkpoint) clears them.
    ///
    /// The final 8 bytes are the *observed* (shared) epoch, which sibling
    /// partitions advance independently; [`state_digest`](Self::state_digest)
    /// excludes them so a replayed partition — whose private sequencer only
    /// saw the floors its own ops observed — digests equal to its live twin.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        (self.next_qid, self.epoch, self.now, self.last_heartbeat).put(&mut out);
        self.fot.entries.put(&mut out);
        self.sqt.put(&mut out);
        // RQI rows verbatim — order within a row is load-bearing (it
        // drives fresh-query reply ordering), so rows are not derivable
        // from the SQT alone. Only occupied rows travel, behind their flat
        // index: the layout of a `Vec<(u32, Vec<QueryId>)>`.
        let rows = || self.rqi.occupied_rows();
        (rows().count() as u32).put(&mut out);
        for (flat, row) in rows() {
            (flat as u32).put(&mut out);
            row.put(&mut out);
        }
        self.pending.put(&mut out);
        self.stubs.put(&mut out);
        self.current_epoch().put(&mut out);
        out
    }

    /// Restores the full server state from [`checkpoint_bytes`](Self::checkpoint_bytes)
    /// output — the handler of a [`LogRecord::Checkpoint`](crate::LogRecord::Checkpoint). Decodes
    /// everything before committing, so a malformed payload leaves the
    /// server untouched.
    pub(super) fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let buf = &mut Reader::new(bytes);
        let (next_qid, epoch, now, last_heartbeat) = <(u32, u64, f64, f64)>::get(buf)?;
        let fot_entries: Vec<(ObjectId, FotEntry)> = Wire::get(buf)?;
        let sqt: BTreeMap<QueryId, SqtEntry> = Wire::get(buf)?;
        let rows: Vec<(u32, Vec<QueryId>)> = Wire::get(buf)?;
        let pending: BTreeMap<ObjectId, Vec<PendingInstall>> = Wire::get(buf)?;
        let stubs: BTreeMap<QueryId, StubEntry> = Wire::get(buf)?;
        let observed = u64::get(buf)?;
        if buf.remaining() != 0 {
            let n = buf.remaining();
            return Err(DecodeError(format!("{n} trailing bytes after checkpoint")));
        }
        let cells = self.config.grid.num_cells();
        let mut rqi = Rqi::new(cells);
        for (flat, row) in rows {
            if flat as usize >= cells {
                let e = format!("RQI flat index {flat} out of range ({cells} cells)");
                return Err(DecodeError(e));
            }
            rqi.set(flat as usize, row);
        }

        // Commit. The tables are replaced wholesale, so a home log sees
        // every old key leave and every restored key arrive.
        let mut fot = FotTable::default();
        for (oid, e) in fot_entries {
            fot.entry_or_insert(oid, e);
        }
        if let Some(log) = &mut self.home_log {
            log.extend(self.fot.keys().map(|&o| HomeChange::FocalRemoved(o)));
            log.extend(self.sqt.keys().map(|&q| HomeChange::QueryRemoved(q)));
            log.extend(fot.keys().map(|&o| HomeChange::FocalAdded(o)));
            log.extend(sqt.keys().map(|&q| HomeChange::QueryAdded(q)));
        }
        self.fot = fot;
        self.members = sqt
            .iter()
            .flat_map(|(&qid, e)| e.result.iter().map(move |&oid| (oid, qid)))
            .collect();
        self.sqt = sqt;
        self.rqi = rqi;
        self.pending = pending;
        self.stubs = stubs;
        self.next_qid = next_qid;
        self.epoch = epoch;
        self.now = now;
        self.last_heartbeat = last_heartbeat;
        self.outbox.clear();
        self.uplink_scratch.clear();
        self.raise_epoch(observed);
        Ok(())
    }

    /// FNV-1a digest of the durable server state (the checkpoint image
    /// minus the shared-epoch trailer — see
    /// [`checkpoint_bytes`](Self::checkpoint_bytes)). Two servers with
    /// equal digests hold byte-identical FOT/SQT/RQI/pending/stub tables.
    pub fn state_digest(&self) -> u64 {
        let bytes = self.checkpoint_bytes();
        crate::journal::fnv1a(&bytes[..bytes.len() - 8])
    }
}
