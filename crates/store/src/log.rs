//! The per-session append-only snapshot log.
//!
//! One log file holds one session's cumulative snapshots, oldest first,
//! each encoded as an ordinary [`crate::frame::Frame`] of type
//! [`FrameType::Snapshot`] whose payload is a gmon payload, so every
//! record carries the codec's CRC and version field for free and the
//! corruption-handling test surface is shared with the protocol.
//!
//! **Stream rule (R).** The records form one gmon [`Stream`]: each
//! record is read against the retained record before it, and
//! [`SnapshotLog::append_gmon`] writes what that stream's encoder
//! picks — a delta against the previous record, or the snapshot
//! self-contained (the first record, a new table, a lowered counter).
//! Every record a stream reads must still follow the record it was
//! written after, so [`SnapshotLog::compact`] rewrites self-contained
//! each kept record that is not, and whose predecessor it drops. A log
//! written before deltas (a table in every record, or counters without
//! one) replays unchanged.
//!
//! **Torn-tail rule.** A crash can leave a partially-written record at
//! the end of the file. On open, the log is scanned front to back; the
//! first record that fails to decode (truncated, bad CRC, wrong type,
//! undecodable payload, a delta whose base is not the record before it,
//! or a non-increasing sample index) marks the end of the valid prefix,
//! and the file is truncated there. Everything before the tear
//! survives; nothing after it is trusted.

use crate::frame::{Frame, FrameType, DEFAULT_MAX_PAYLOAD};
use crate::retention::RecordMeta;
use incprof_profile::gmon::{carries_table, Stream};
use incprof_profile::GmonData;
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
    /// The records as one stream: its newest snapshot is the last
    /// retained record's, when known.
    stream: Stream,
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
            stream: Stream::new(),
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
        let mut snapshots: Vec<GmonData> = Vec::new();
        let mut stream = Stream::new();
        while offset < bytes.len() {
            let (frame, consumed) = match Frame::decode(&bytes[offset..], DEFAULT_MAX_PAYLOAD) {
                Ok(parts) => parts,
                Err(_) => break,
            };
            if frame.frame_type != FrameType::Snapshot || frame.session_id != session_id {
                break;
            }
            let gmon = match stream.decode(&frame.payload) {
                Ok(g) => g,
                Err(_) => break,
            };
            if records
                .last()
                .is_some_and(|prev: &RecordMeta| gmon.sample_index <= prev.sample_index)
            {
                break;
            }
            records.push(RecordMeta {
                sample_index: gmon.sample_index,
                bytes: consumed as u64,
            });
            snapshots.extend(stream.advance(gmon));
            offset += consumed;
        }
        snapshots.extend(stream.tail().cloned());
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
                stream,
            },
            LogReplay {
                snapshots,
                truncated_bytes,
            },
        ))
    }

    /// Append one gmon payload as it is; `sample_index` must exceed the
    /// last retained record's, and the payload is read against that
    /// record on replay. The next [`SnapshotLog::append_gmon`] writes its
    /// snapshot self-contained. Returns the encoded record size in bytes.
    pub fn append(&mut self, sample_index: u64, payload: &[u8]) -> io::Result<u64> {
        let bytes = self.write_record(sample_index, payload)?;
        self.stream = Stream::new();
        Ok(bytes)
    }

    /// Append one snapshot in the form the log's stream picks (rule R).
    /// Returns the encoded record size in bytes.
    pub fn append_gmon(&mut self, gmon: &GmonData) -> io::Result<u64> {
        let payload = self.stream.encode(gmon);
        let bytes = self.write_record(gmon.sample_index, &payload)?;
        self.stream.advance(gmon.clone());
        Ok(bytes)
    }

    fn write_record(&mut self, sample_index: u64, payload: &[u8]) -> io::Result<u64> {
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
        Ok(bytes.len() as u64)
    }

    fn frame(&self, payload: Vec<u8>) -> io::Result<Vec<u8>> {
        Frame::with_payload(FrameType::Snapshot, self.session_id, payload)
            .try_encode(DEFAULT_MAX_PAYLOAD)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
    }

    /// Rewrite the log without the records at the given ascending
    /// positions (a retention trim), atomically via tmp-file + rename.
    /// A kept record that is not self-contained and whose predecessor is
    /// dropped is rewritten self-contained, which keeps rule R. Returns
    /// the dropped records' sample indices. The newest record is never
    /// dropped (no [`RetentionPolicy`](crate::RetentionPolicy) drops
    /// it): the next append is written against it.
    pub fn compact(&mut self, drop_positions: &[usize]) -> io::Result<Vec<u64>> {
        if drop_positions.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.records.len();
        if drop_positions.last() == Some(&(n - 1)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "compaction never drops the newest record",
            ));
        }
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let mut ranges = Vec::with_capacity(n);
        let mut offset = 0usize;
        for rec in &self.records {
            ranges.push(offset..offset + rec.bytes as usize);
            offset += rec.bytes as usize;
        }
        let payload = |pos: usize| {
            Frame::decode(&bytes[ranges[pos].clone()], DEFAULT_MAX_PAYLOAD)
                .map(|(frame, _)| frame.payload)
                .map_err(|e| invalid(e.to_string()))
        };
        let mut kept = vec![true; n];
        for &pos in drop_positions {
            kept[pos] = false;
        }
        let mut rewrite = vec![false; n];
        for pos in 1..n {
            rewrite[pos] = kept[pos] && !kept[pos - 1] && !carries_table(&payload(pos)?);
        }
        // A rewritten record is decoded as the stream reads it: from the
        // last self-contained record before the first rewrite on.
        let last = rewrite.iter().rposition(|&r| r);
        let mut from = rewrite.iter().position(|&r| r).unwrap_or(n);
        while from > 0 && from < n && !carries_table(&payload(from)?) {
            from -= 1;
        }
        let mut stream = Stream::new();
        let mut keep_bytes = Vec::with_capacity(bytes.len());
        let mut records = Vec::with_capacity(n - drop_positions.len());
        let mut dropped = Vec::with_capacity(drop_positions.len());
        for (pos, rec) in self.records.iter().enumerate() {
            let mut rewritten = None;
            if last.is_some_and(|last| (from..=last).contains(&pos)) {
                let gmon = stream
                    .decode(&payload(pos)?)
                    .map_err(|e| invalid(e.to_string()))?;
                if rewrite[pos] {
                    rewritten = Some(self.frame(gmon.encode().to_vec())?);
                }
                stream.advance(gmon);
            }
            if !kept[pos] {
                dropped.push(rec.sample_index);
                continue;
            }
            let framed = rewritten.as_deref().unwrap_or(&bytes[ranges[pos].clone()]);
            keep_bytes.extend_from_slice(framed);
            records.push(RecordMeta {
                sample_index: rec.sample_index,
                bytes: framed.len() as u64,
            });
        }
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&keep_bytes)?;
            f.flush()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.records = records;
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
    use crate::retention::RetentionPolicy;
    use incprof_profile::{FlatProfile, FunctionId, FunctionStats, FunctionTable};

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
    /// included: every retained record reads the one before it.
    fn assert_replays(path: &Path, session_id: u64, want: &[&GmonData]) {
        let (_, replay) = SnapshotLog::open(path, session_id).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        let got: Vec<&GmonData> = replay.snapshots.iter().collect();
        assert_eq!(got, want);
    }

    /// Per record of the log at `path`: whether it is self-contained.
    fn whole(path: &Path) -> Vec<bool> {
        let bytes = std::fs::read(path).unwrap();
        let mut at = 0;
        let mut out = Vec::new();
        while at < bytes.len() {
            let (frame, used) = Frame::decode(&bytes[at..], DEFAULT_MAX_PAYLOAD).unwrap();
            out.push(carries_table(&frame.payload));
            at += used;
        }
        out
    }

    #[test]
    fn a_delta_log_writes_the_table_where_it_changes() {
        let dir = tmpdir("table_once");
        let path = dir.join("log.iprf");
        let (small, big) = (names(20), names(24));
        let snaps: Vec<GmonData> = (0..6)
            .map(|i| snap(i, if i < 3 { &small } else { &big }))
            .collect();
        let mut log = SnapshotLog::create(&path, 4).unwrap();
        let sizes: Vec<u64> = snaps.iter().map(|g| log.append_gmon(g).unwrap()).collect();
        assert_eq!(whole(&path), [true, false, false, true, false, false]);
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
        // Only the hot tail survives, and its first record, whose base
        // was dropped, is rewritten self-contained.
        assert_eq!(whole(&path), [true, false]);
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
        assert_eq!(whole(&path), [true, true]);
        drop(log);
        assert_replays(&path, 8, &[&snaps[0], &snaps[4]]);
        let (mut log, _) = SnapshotLog::open(&path, 8).unwrap();
        append_retained(&mut log, &policy, &snaps[5]);
        assert_eq!(whole(&path), [true, true, false]);
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
    fn a_log_written_before_deltas_replays_and_compacts_unchanged() {
        // Tables in records 0 and 3, absolute counters without one in
        // the others: the form logs took before deltas.
        let dir = tmpdir("before_deltas");
        let path = dir.join("log.iprf");
        let (small, big) = (names(20), names(24));
        let snaps: Vec<GmonData> = (0..6)
            .map(|i| snap(i, if i < 3 { &small } else { &big }))
            .collect();
        let mut log = SnapshotLog::create(&path, 3).unwrap();
        for (i, g) in snaps.iter().enumerate() {
            let payload = if i % 3 == 0 {
                g.encode()
            } else {
                g.encode_counters()
            };
            log.append(g.sample_index, &payload).unwrap();
        }
        drop(log);
        assert_replays(&path, 3, &snaps.iter().collect::<Vec<_>>());
        // Dropping 1 and 3 leaves 2 and 4 without the record they read
        // their table from: both are rewritten whole, 5 still reads 4.
        let (mut log, _) = SnapshotLog::open(&path, 3).unwrap();
        assert_eq!(log.compact(&[1, 3]).unwrap(), [1, 3]);
        assert_eq!(whole(&path), [true, true, true, false]);
        // The stream picks up after the old records: a delta.
        let next = snap(6, &big);
        log.append_gmon(&next).unwrap();
        assert_eq!(whole(&path), [true, true, true, false, false]);
        drop(log);
        let want = [&snaps[0], &snaps[2], &snaps[4], &snaps[5], &next];
        assert_replays(&path, 3, &want);
    }

    #[test]
    fn a_lowered_counter_is_written_whole_and_deltas_resume_after_it() {
        let dir = tmpdir("lowered");
        let path = dir.join("log.iprf");
        let t = names(4);
        let mut snaps: Vec<GmonData> = (0..5).map(|i| snap(i, &t)).collect();
        snaps[2].flat.set(FunctionId(1), FunctionStats::default());
        let mut log = SnapshotLog::create(&path, 5).unwrap();
        for g in &snaps {
            log.append_gmon(g).unwrap();
        }
        assert_eq!(whole(&path), [true, false, true, false, false]);
        drop(log);
        assert_replays(&path, 5, &snaps.iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_delta_whose_base_is_not_the_record_before_cuts_the_replay() {
        let dir = tmpdir("wrong_base");
        let path = dir.join("log.iprf");
        let t = names(4);
        let snaps: Vec<GmonData> = (0..4).map(|i| snap(i, &t)).collect();
        let mut log = SnapshotLog::create(&path, 6).unwrap();
        for g in &snaps[..2] {
            log.append_gmon(g).unwrap();
        }
        // Snapshot 3 as a delta against 2, which the log never held.
        let mut stream = Stream::new();
        stream.advance(snaps[2].clone());
        log.append(3, &stream.encode(&snaps[3])).unwrap();
        drop(log);
        let (log, replay) = SnapshotLog::open(&path, 6).unwrap();
        assert!(replay.truncated_bytes > 0);
        assert_eq!(replay.snapshots, snaps[..2]);
        assert_eq!(log.records().len(), 2);
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
