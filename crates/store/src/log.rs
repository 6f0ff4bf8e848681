//! The per-session append-only snapshot log.
//!
//! One log file holds one session's cumulative snapshots, oldest first,
//! each encoded as an ordinary [`crate::frame::Frame`] of type
//! [`FrameType::Snapshot`] whose payload is the gmon-encoded snapshot —
//! byte-for-byte the same record the client pushed over the wire, which
//! means every record carries the codec's CRC and version field for
//! free and the corruption-handling test surface is shared with the
//! protocol.
//!
//! **Torn-tail rule.** A crash can leave a partially-written record at
//! the end of the file. On open, the log is scanned front to back; the
//! first record that fails to decode (truncated, bad CRC, wrong type,
//! undecodable payload, or a non-increasing sample index) marks the end
//! of the valid prefix, and the file is truncated there. Everything
//! before the tear survives; nothing after it is trusted.

use crate::frame::{Frame, FrameType, DEFAULT_MAX_PAYLOAD};
use crate::retention::RecordMeta;
use incprof_profile::{GmonData, GmonDecoder};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// An open snapshot log: an append handle plus an in-memory index of
/// the retained records (their sample indices and encoded sizes), which
/// is what the retention policy evaluates.
#[derive(Debug)]
pub struct SnapshotLog {
    path: PathBuf,
    file: File,
    session_id: u64,
    records: Vec<RecordMeta>,
}

/// What [`SnapshotLog::open`] recovered from disk.
#[derive(Debug)]
pub struct LogReplay {
    /// The retained snapshots, oldest first, decoded and verified.
    pub snapshots: Vec<GmonData>,
    /// Bytes cut off the file's tail by the torn-tail rule (0 for a
    /// cleanly closed log).
    pub truncated_bytes: u64,
}

impl SnapshotLog {
    /// Create a fresh, empty log at `path` (truncating any existing
    /// file — callers use [`SnapshotLog::open`] to preserve one).
    pub fn create(path: &Path, session_id: u64) -> io::Result<SnapshotLog> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(SnapshotLog {
            path: path.to_path_buf(),
            file,
            session_id,
            records: Vec::new(),
        })
    }

    /// Open an existing log, replaying its records and applying the
    /// torn-tail rule: the file is truncated at the first undecodable or
    /// out-of-order record, and only the valid prefix is returned.
    pub fn open(path: &Path, session_id: u64) -> io::Result<(SnapshotLog, LogReplay)> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let mut offset = 0usize;
        let mut records = Vec::new();
        let mut snapshots = Vec::new();
        let mut last_index: Option<u64> = None;
        // One decoder per log: its records repeat one function table,
        // parsed once and shared by every replayed snapshot.
        let mut decoder = GmonDecoder::new();
        while offset < bytes.len() {
            let (frame, consumed) = match Frame::decode(&bytes[offset..], DEFAULT_MAX_PAYLOAD) {
                Ok(parts) => parts,
                Err(_) => break,
            };
            if frame.frame_type != FrameType::Snapshot || frame.session_id != session_id {
                break;
            }
            let gmon = match decoder.decode(&frame.payload) {
                Ok(g) => g,
                Err(_) => break,
            };
            if last_index.is_some_and(|prev| gmon.sample_index <= prev) {
                break;
            }
            last_index = Some(gmon.sample_index);
            records.push(RecordMeta {
                sample_index: gmon.sample_index,
                bytes: consumed as u64,
            });
            snapshots.push(gmon);
            offset += consumed;
        }
        let truncated_bytes = (bytes.len() - offset) as u64;
        if truncated_bytes > 0 {
            incprof_obs::counter(incprof_obs::names::STORE_TORN_TAILS).inc();
            incprof_obs::warn!(
                "session {session_id} log {}: truncating {truncated_bytes} torn byte(s) at offset {offset}",
                path.display()
            );
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(offset as u64)?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            SnapshotLog {
                path: path.to_path_buf(),
                file,
                session_id,
                records,
            },
            LogReplay {
                snapshots,
                truncated_bytes,
            },
        ))
    }

    /// Append one gmon-encoded snapshot payload; `sample_index` must
    /// exceed the last retained record's. Returns the encoded record
    /// size in bytes.
    pub fn append(&mut self, sample_index: u64, payload: &[u8]) -> io::Result<u64> {
        if self
            .records
            .last()
            .is_some_and(|last| sample_index <= last.sample_index)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "snapshot {sample_index} is not past the log tail ({})",
                    self.records.last().map(|r| r.sample_index).unwrap_or(0)
                ),
            ));
        }
        let frame = Frame::with_payload(FrameType::Snapshot, self.session_id, payload.to_vec());
        let bytes = frame
            .try_encode(DEFAULT_MAX_PAYLOAD)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.file.write_all(&bytes)?;
        self.file.flush()?;
        self.records.push(RecordMeta {
            sample_index,
            bytes: bytes.len() as u64,
        });
        Ok(bytes.len() as u64)
    }

    /// Rewrite the log without the records at the given ascending
    /// positions (a retention trim), atomically via tmp-file + rename.
    /// Returns the dropped records' sample indices.
    pub fn compact(&mut self, drop_positions: &[usize]) -> io::Result<Vec<u64>> {
        if drop_positions.is_empty() {
            return Ok(Vec::new());
        }
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        let mut keep_bytes = Vec::with_capacity(bytes.len());
        let mut kept = Vec::with_capacity(self.records.len() - drop_positions.len());
        let mut dropped = Vec::with_capacity(drop_positions.len());
        let mut drops = drop_positions.iter().peekable();
        let mut offset = 0usize;
        for (pos, rec) in self.records.iter().enumerate() {
            let end = offset + rec.bytes as usize;
            if drops.peek() == Some(&&pos) {
                drops.next();
                dropped.push(rec.sample_index);
            } else {
                keep_bytes.extend_from_slice(&bytes[offset..end]);
                kept.push(*rec);
            }
            offset = end;
        }
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&keep_bytes)?;
            f.flush()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.records = kept;
        incprof_obs::counter(incprof_obs::names::STORE_COMPACTIONS).inc();
        incprof_obs::counter(incprof_obs::names::STORE_RECORDS_DROPPED).add(dropped.len() as u64);
        Ok(dropped)
    }

    /// The retained records' metadata, oldest first.
    pub fn records(&self) -> &[RecordMeta] {
        &self.records
    }

    /// Total retained bytes on disk.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::{FlatProfile, FunctionStats, FunctionTable};

    fn gmon(idx: u64, self_ns: u64) -> GmonData {
        let mut table = FunctionTable::new();
        let id = table.register("f");
        let mut flat = FlatProfile::new();
        flat.set(
            id,
            FunctionStats {
                self_time: self_ns,
                calls: idx + 1,
                child_time: 0,
            },
        );
        GmonData {
            sample_index: idx,
            timestamp_ns: idx * 1_000_000_000,
            functions: table,
            flat,
            callgraph: Default::default(),
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("incprof_log_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_open_replays_everything() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("log.iprf");
        let mut log = SnapshotLog::create(&path, 7).unwrap();
        for i in 0..5 {
            log.append(i, &gmon(i, (i + 1) * 100).encode()).unwrap();
        }
        assert_eq!(log.records().len(), 5);
        drop(log);
        let (log, replay) = SnapshotLog::open(&path, 7).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.snapshots.len(), 5);
        for (i, snap) in replay.snapshots.iter().enumerate() {
            assert_eq!(snap.sample_index, i as u64);
            assert_eq!(
                *snap,
                GmonData::decode(&gmon(i as u64, (i as u64 + 1) * 100).encode()).unwrap()
            );
            // The records repeat one function table: decoded once, shared.
            assert!(snap
                .functions
                .shares_contents_with(&replay.snapshots[0].functions));
        }
        assert_eq!(log.records().len(), 5);
    }

    #[test]
    fn torn_tail_is_truncated_cleanly() {
        let dir = tmpdir("torn");
        let path = dir.join("log.iprf");
        let mut log = SnapshotLog::create(&path, 1).unwrap();
        for i in 0..3 {
            log.append(i, &gmon(i, 100).encode()).unwrap();
        }
        drop(log);
        // Tear the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (log, replay) = SnapshotLog::open(&path, 1).unwrap();
        assert_eq!(replay.snapshots.len(), 2, "torn record dropped");
        assert!(replay.truncated_bytes > 0);
        // The file itself was truncated to the valid prefix.
        let after = std::fs::read(&path).unwrap();
        assert!(after.len() < bytes.len() - 7 || replay.snapshots.len() == 2);
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn corrupt_middle_record_cuts_the_rest() {
        let dir = tmpdir("corrupt");
        let path = dir.join("log.iprf");
        let mut log = SnapshotLog::create(&path, 1).unwrap();
        let mut offsets = vec![0u64];
        for i in 0..3 {
            let n = log.append(i, &gmon(i, 100).encode()).unwrap();
            offsets.push(offsets.last().unwrap() + n);
        }
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the second record: its CRC fails,
        // and the valid prefix is just the first record.
        bytes[offsets[1] as usize + 20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = SnapshotLog::open(&path, 1).unwrap();
        assert_eq!(replay.snapshots.len(), 1);
    }

    #[test]
    fn append_after_reopen_continues_the_log() {
        let dir = tmpdir("reopen");
        let path = dir.join("log.iprf");
        let mut log = SnapshotLog::create(&path, 3).unwrap();
        log.append(0, &gmon(0, 10).encode()).unwrap();
        drop(log);
        let (mut log, _) = SnapshotLog::open(&path, 3).unwrap();
        log.append(1, &gmon(1, 20).encode()).unwrap();
        drop(log);
        let (_, replay) = SnapshotLog::open(&path, 3).unwrap();
        assert_eq!(replay.snapshots.len(), 2);
    }

    #[test]
    fn out_of_order_append_is_rejected() {
        let dir = tmpdir("order");
        let path = dir.join("log.iprf");
        let mut log = SnapshotLog::create(&path, 1).unwrap();
        log.append(4, &gmon(4, 10).encode()).unwrap();
        assert!(log.append(4, &gmon(4, 10).encode()).is_err());
        assert!(log.append(2, &gmon(2, 10).encode()).is_err());
        assert!(log.append(5, &gmon(5, 10).encode()).is_ok());
    }

    #[test]
    fn compact_drops_positions_and_survives_reopen() {
        let dir = tmpdir("compact");
        let path = dir.join("log.iprf");
        let mut log = SnapshotLog::create(&path, 9).unwrap();
        for i in 0..6 {
            log.append(i, &gmon(i, 100).encode()).unwrap();
        }
        let dropped = log.compact(&[1, 3]).unwrap();
        assert_eq!(dropped, vec![1, 3]);
        let kept: Vec<u64> = log.records().iter().map(|r| r.sample_index).collect();
        assert_eq!(kept, vec![0, 2, 4, 5]);
        // Appends keep working after the rewrite.
        log.append(6, &gmon(6, 100).encode()).unwrap();
        drop(log);
        let (_, replay) = SnapshotLog::open(&path, 9).unwrap();
        let indices: Vec<u64> = replay.snapshots.iter().map(|s| s.sample_index).collect();
        assert_eq!(indices, vec![0, 2, 4, 5, 6]);
    }

    #[test]
    fn wrong_session_id_records_stop_the_replay() {
        let dir = tmpdir("session");
        let path = dir.join("log.iprf");
        let mut log = SnapshotLog::create(&path, 1).unwrap();
        log.append(0, &gmon(0, 10).encode()).unwrap();
        drop(log);
        let (_, replay) = SnapshotLog::open(&path, 2).unwrap();
        assert!(replay.snapshots.is_empty(), "records belong to session 1");
    }
}
