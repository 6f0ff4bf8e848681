//! The per-session append-only snapshot log.
//!
//! One log file holds one session's cumulative snapshots, oldest first,
//! each encoded as an ordinary [`crate::frame::Frame`] of type
//! [`FrameType::Snapshot`] whose payload is a gmon payload, so every
//! record carries the codec's CRC and version field for free and the
//! corruption-handling test surface is shared with the protocol.
//!
//! **Table rule (R).** The records form one gmon stream
//! ([`GmonData::decode_in`]): a record without a function section reads
//! the table of the record before it. A record carries its table
//! whenever that table differs from the previous *retained* record's, so
//! the first retained record always carries one; it may carry it in other
//! cases too, which is why a log that repeats the table in every record
//! replays unchanged. [`SnapshotLog::append_gmon`] writes the table only
//! when R asks for it, and [`SnapshotLog::compact`] puts the table back
//! into the first kept record that read it from a dropped one.
//!
//! **Torn-tail rule.** A crash can leave a partially-written record at
//! the end of the file. On open, the log is scanned front to back; the
//! first record that fails to decode (truncated, bad CRC, wrong type,
//! undecodable payload, or a non-increasing sample index) marks the end
//! of the valid prefix, and the file is truncated there. Everything
//! before the tear survives; nothing after it is trusted.

use crate::frame::{Frame, FrameType, DEFAULT_MAX_PAYLOAD};
use crate::retention::RecordMeta;
use incprof_profile::gmon::carries_table;
use incprof_profile::{FunctionTable, GmonData};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::ops::Range;
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
    /// Per retained record: whether it carries its function table.
    carries: Vec<bool>,
    /// The last retained record's table, when known; `None` makes the
    /// next [`SnapshotLog::append_gmon`] write its table.
    tail_table: Option<FunctionTable>,
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
            carries: Vec::new(),
            tail_table: None,
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
        let mut carries = Vec::new();
        let mut snapshots: Vec<GmonData> = Vec::new();
        let mut last_index: Option<u64> = None;
        let empty = FunctionTable::new();
        while offset < bytes.len() {
            let (frame, consumed) = match Frame::decode(&bytes[offset..], DEFAULT_MAX_PAYLOAD) {
                Ok(parts) => parts,
                Err(_) => break,
            };
            if frame.frame_type != FrameType::Snapshot || frame.session_id != session_id {
                break;
            }
            let table = snapshots.last().map_or(&empty, |g| &g.functions);
            let gmon = match GmonData::decode_in(&frame.payload, table) {
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
            carries.push(carries_table(&frame.payload));
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
                carries,
                tail_table: snapshots.last().map(|g| g.functions.clone()),
            },
            LogReplay {
                snapshots,
                truncated_bytes,
            },
        ))
    }

    /// Append one gmon payload as it is; `sample_index` must exceed the
    /// last retained record's. A payload without a function section reads
    /// the last retained record's table. Returns the encoded record size
    /// in bytes.
    pub fn append(&mut self, sample_index: u64, payload: &[u8]) -> io::Result<u64> {
        let bytes = self.write_record(sample_index, payload, carries_table(payload))?;
        self.tail_table = None;
        Ok(bytes)
    }

    /// Append one snapshot, its function table included only when it
    /// differs from the last retained record's (rule R). Returns the
    /// encoded record size in bytes.
    pub fn append_gmon(&mut self, gmon: &GmonData) -> io::Result<u64> {
        let carries = self.tail_table.as_ref() != Some(&gmon.functions);
        let payload = if carries {
            gmon.encode()
        } else {
            gmon.encode_counters()
        };
        let bytes = self.write_record(gmon.sample_index, &payload, carries)?;
        self.tail_table = Some(gmon.functions.clone());
        Ok(bytes)
    }

    fn write_record(
        &mut self,
        sample_index: u64,
        payload: &[u8],
        carries: bool,
    ) -> io::Result<u64> {
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
        let bytes = self.frame(payload.to_vec())?;
        self.file.write_all(&bytes)?;
        self.file.flush()?;
        self.records.push(RecordMeta {
            sample_index,
            bytes: bytes.len() as u64,
        });
        self.carries.push(carries);
        Ok(bytes.len() as u64)
    }

    fn frame(&self, payload: Vec<u8>) -> io::Result<Vec<u8>> {
        Frame::with_payload(FrameType::Snapshot, self.session_id, payload)
            .try_encode(DEFAULT_MAX_PAYLOAD)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
    }

    /// Rewrite the log without the records at the given ascending
    /// positions (a retention trim), atomically via tmp-file + rename.
    /// A kept record that read its table from a dropped one is rewritten
    /// with that table, which keeps rule R. Returns the dropped records'
    /// sample indices. The newest record is never dropped (no
    /// [`RetentionPolicy`](crate::RetentionPolicy) drops it): the next
    /// append is ordered after it and compares its table with it.
    pub fn compact(&mut self, drop_positions: &[usize]) -> io::Result<Vec<u64>> {
        if drop_positions.is_empty() {
            return Ok(Vec::new());
        }
        if drop_positions.last() == Some(&(self.records.len() - 1)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "compaction never drops the newest record",
            ));
        }
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        let mut keep_bytes = Vec::with_capacity(bytes.len());
        let kept_len = self.records.len() - drop_positions.len();
        let (mut kept, mut kept_carries) =
            (Vec::with_capacity(kept_len), Vec::with_capacity(kept_len));
        let mut dropped = Vec::with_capacity(drop_positions.len());
        let mut drops = drop_positions.iter().peekable();
        // The newest record so far that carries a table, and whether the
        // last kept record reads that table.
        let mut introducer: Option<Range<usize>> = None;
        let mut kept_reads_it = true;
        let mut offset = 0usize;
        for (pos, rec) in self.records.iter().enumerate() {
            let range = offset..offset + rec.bytes as usize;
            offset = range.end;
            if self.carries[pos] {
                introducer = Some(range.clone());
                kept_reads_it = false;
            }
            if drops.peek() == Some(&&pos) {
                drops.next();
                dropped.push(rec.sample_index);
                continue;
            }
            let mut record = *rec;
            match &introducer {
                Some(from) if !kept_reads_it && !self.carries[pos] => {
                    let rewritten = self.with_table_of(&bytes[from.clone()], &bytes[range])?;
                    record.bytes = rewritten.len() as u64;
                    keep_bytes.extend_from_slice(&rewritten);
                    kept_carries.push(true);
                }
                _ => {
                    keep_bytes.extend_from_slice(&bytes[range]);
                    kept_carries.push(self.carries[pos]);
                }
            }
            kept.push(record);
            kept_reads_it = true;
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
        self.carries = kept_carries;
        incprof_obs::counter(incprof_obs::names::STORE_COMPACTIONS).inc();
        incprof_obs::counter(incprof_obs::names::STORE_RECORDS_DROPPED).add(dropped.len() as u64);
        Ok(dropped)
    }

    /// The framed `record`, rewritten to carry the table of the framed
    /// record `introducer`, which it reads its table from.
    fn with_table_of(&self, introducer: &[u8], record: &[u8]) -> io::Result<Vec<u8>> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let payload = |framed: &[u8]| {
            Frame::decode(framed, DEFAULT_MAX_PAYLOAD)
                .map(|(frame, _)| frame.payload)
                .map_err(|e| invalid(e.to_string()))
        };
        let table = GmonData::decode(&payload(introducer)?)
            .map_err(|e| invalid(e.to_string()))?
            .functions;
        let gmon =
            GmonData::decode_in(&payload(record)?, &table).map_err(|e| invalid(e.to_string()))?;
        self.frame(gmon.encode().to_vec())
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
    use crate::retention::RetentionPolicy;
    use incprof_profile::{FlatProfile, FunctionStats};

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
        }
        assert_eq!(log.records().len(), 5);
    }

    /// `n` functions named as perfbench names them.
    fn names(n: usize) -> FunctionTable {
        let mut t = FunctionTable::new();
        for i in 0..n {
            t.register(format!("fn_{i:03}"));
        }
        t
    }

    /// Snapshot `idx` over `table`: every function's counters grow.
    fn snap(idx: u64, table: &FunctionTable) -> GmonData {
        let mut flat = FlatProfile::new();
        for (id, _) in table.iter() {
            let stats = FunctionStats {
                self_time: (idx + 1) * (id.0 as u64 + 1) * 100,
                calls: idx + 1,
                child_time: 0,
            };
            flat.set(id, stats);
        }
        GmonData {
            sample_index: idx,
            timestamp_ns: idx * 1_000_000_000,
            functions: table.clone(),
            flat,
            callgraph: Default::default(),
        }
    }

    /// Append `g` the way a session store does: write, then trim.
    fn append_retained(log: &mut SnapshotLog, policy: &RetentionPolicy, g: &GmonData) {
        log.append_gmon(g).unwrap();
        let drops = policy.drops(log.records());
        log.compact(&drops).unwrap();
    }

    /// Reopen `path` and check that it replays exactly `want`, tables
    /// included, with every retained record obeying rule R.
    fn assert_replays(path: &Path, session_id: u64, want: &[&GmonData]) {
        let (log, replay) = SnapshotLog::open(path, session_id).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        let got: Vec<&GmonData> = replay.snapshots.iter().collect();
        assert_eq!(got, want);
        for (i, carries) in log.carries.iter().enumerate() {
            let changed = i == 0 || want[i].functions != want[i - 1].functions;
            assert!(
                *carries || !changed,
                "record {i} lacks the table it changed to"
            );
        }
    }

    #[test]
    fn table_once_log_writes_the_table_where_it_changes() {
        let dir = tmpdir("table_once");
        let path = dir.join("log.iprf");
        let (small, big) = (names(20), names(24));
        let snaps: Vec<GmonData> = (0..6)
            .map(|i| snap(i, if i < 3 { &small } else { &big }))
            .collect();
        let mut log = SnapshotLog::create(&path, 4).unwrap();
        let sizes: Vec<u64> = snaps.iter().map(|g| log.append_gmon(g).unwrap()).collect();
        assert_eq!(log.carries, [true, false, false, true, false, false]);
        assert!(sizes[1] < sizes[0] && sizes[4] < sizes[3], "{sizes:?}");
        drop(log);
        assert_replays(&path, 4, &snaps.iter().collect::<Vec<_>>());
        let (_, replay) = SnapshotLog::open(&path, 4).unwrap();
        let t = |i: usize| &replay.snapshots[i].functions;
        assert!(t(2).shares_contents_with(t(0)) && t(5).shares_contents_with(t(3)));
    }

    #[test]
    fn stride_retention_keeps_the_table_of_a_dropped_growth_record() {
        // Record 5 grows the table between the retained 4 and 8; the
        // stride drops it, and 6 and 7 after it, once they leave the
        // hot tail.
        let dir = tmpdir("stride_growth");
        let path = dir.join("log.iprf");
        let policy = RetentionPolicy {
            hot: 2,
            stride: 4,
            max_bytes: 0,
        };
        let (small, big) = (names(20), names(24));
        let snaps: Vec<GmonData> = (0..11)
            .map(|i| snap(i, if i < 5 { &small } else { &big }))
            .collect();
        let mut log = SnapshotLog::create(&path, 5).unwrap();
        for g in &snaps {
            append_retained(&mut log, &policy, g);
        }
        drop(log);
        assert_replays(
            &path,
            5,
            &[&snaps[0], &snaps[4], &snaps[8], &snaps[9], &snaps[10]],
        );
    }

    #[test]
    fn byte_budget_dropping_the_first_record_moves_its_table_forward() {
        let dir = tmpdir("budget_first");
        let path = dir.join("log.iprf");
        let t = names(24);
        let snaps: Vec<GmonData> = (0..6).map(|i| snap(i, &t)).collect();
        let policy = RetentionPolicy {
            hot: 2,
            stride: 1,
            max_bytes: 1,
        };
        let mut log = SnapshotLog::create(&path, 6).unwrap();
        for g in &snaps {
            append_retained(&mut log, &policy, g);
        }
        // Only the hot tail survives, and its first record carries the
        // table the dropped record 0 introduced.
        assert_eq!(log.carries, [true, false]);
        drop(log);
        assert_replays(&path, 6, &[&snaps[4], &snaps[5]]);
    }

    #[test]
    fn a_policy_without_a_hot_tail_keeps_the_newest_record() {
        let dir = tmpdir("hot_zero");
        let path = dir.join("log.iprf");
        let policy = RetentionPolicy::parse("stride=4").unwrap();
        assert_eq!(policy.hot, 0);
        // Record 2 grows the table. Each record stays while it is the
        // newest; the next append drops it unless it is a stride
        // multiple, and that append's record takes over its table.
        let (small, big) = (names(20), names(24));
        let snaps: Vec<GmonData> = (0..6)
            .map(|i| snap(i, if i < 2 { &small } else { &big }))
            .collect();
        let mut log = SnapshotLog::create(&path, 8).unwrap();
        for g in &snaps[..5] {
            append_retained(&mut log, &policy, g);
            let newest = log.records().last().map(|r| r.sample_index);
            assert_eq!(newest, Some(g.sample_index));
        }
        assert_eq!(log.carries, [true, true]);
        drop(log);
        assert_replays(&path, 8, &[&snaps[0], &snaps[4]]);
        let (mut log, _) = SnapshotLog::open(&path, 8).unwrap();
        append_retained(&mut log, &policy, &snaps[5]);
        assert_eq!(log.carries, [true, true, false]);
        drop(log);
        assert_replays(&path, 8, &[&snaps[0], &snaps[4], &snaps[5]]);
    }

    #[test]
    fn a_torn_tail_right_after_a_growth_record_leaves_the_prefix() {
        let (small, big) = (names(20), names(24));
        let snaps: Vec<GmonData> = (0..4)
            .map(|i| snap(i, if i < 2 { &small } else { &big }))
            .collect();
        // Tear the growth record itself, then the record right after it.
        for (torn, name) in [(2usize, "torn_growth"), (3, "torn_after_growth")] {
            let dir = tmpdir(name);
            let path = dir.join("log.iprf");
            let mut log = SnapshotLog::create(&path, 2).unwrap();
            for g in &snaps[..=torn] {
                log.append_gmon(g).unwrap();
            }
            drop(log);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
            let (mut log, replay) = SnapshotLog::open(&path, 2).unwrap();
            assert!(replay.truncated_bytes > 0);
            let prefix: Vec<&GmonData> = snaps[..torn].iter().collect();
            assert_eq!(replay.snapshots.iter().collect::<Vec<_>>(), prefix);
            // The stream picks up where the prefix left it.
            for g in &snaps[torn..] {
                log.append_gmon(g).unwrap();
            }
            drop(log);
            assert_replays(&path, 2, &snaps.iter().collect::<Vec<_>>());
        }
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
        let newest = log.compact(&[2, 3]).unwrap_err();
        assert_eq!(newest.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(log.records().len(), 4, "a refused compaction drops nothing");
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
