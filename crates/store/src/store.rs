//! The store root: one directory per session, recovery scanning, and
//! per-session handles combining log, checkpoint, and retention.
//!
//! Directory layout under the store root:
//!
//! ```text
//! <root>/
//!   <session_id>/            one directory per session (decimal id)
//!     log.iprf               append-only snapshot log (see crate::log)
//!     checkpoint.iprf        latest analysis checkpoint, one Checkpoint
//!                            frame, replaced atomically (tmp + rename)
//! ```
//!
//! The checkpoint file holds exactly one [`FrameType::Checkpoint`]
//! frame whose payload is an opaque `incprof_core::AnalysisCache` state
//! blob (see `AnalysisCache::encode_state`). It is advisory: rehydration
//! validates it against the replayed log and silently falls back to a
//! cold replay when it does not match, so deleting it is always safe.

use crate::frame::{Frame, FrameType, DEFAULT_MAX_PAYLOAD};
use crate::log::{LogReplay, SnapshotLog};
use crate::retention::RetentionPolicy;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// What [`Store::open_session`] recovers for one session: its durable
/// handle, the replayed log (torn-tail rule already applied), and the
/// checkpoint state blob when a valid one exists on disk.
pub type RecoveredSession = (SessionStore, LogReplay, Option<Vec<u8>>);

/// Name of the snapshot log file inside a session directory.
pub const LOG_FILE: &str = "log.iprf";
/// Name of the checkpoint file inside a session directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.iprf";

/// A store root directory plus the policy applied to every session log.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    retention: RetentionPolicy,
    checkpoint_every: u64,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(
        root: &Path,
        retention: RetentionPolicy,
        checkpoint_every: u64,
    ) -> io::Result<Store> {
        std::fs::create_dir_all(root)?;
        Ok(Store {
            root: root.to_path_buf(),
            retention,
            checkpoint_every: checkpoint_every.max(1),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Session ids present on disk, ascending. Non-numeric directory
    /// names are ignored (they are not ours).
    pub fn scan(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(id) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Whether session `id` has on-disk state.
    pub fn has_session(&self, id: u64) -> bool {
        self.session_dir(id).join(LOG_FILE).exists()
    }

    /// Create a fresh session directory and empty log for `id`.
    pub fn create_session(&self, id: u64) -> io::Result<SessionStore> {
        let dir = self.session_dir(id);
        std::fs::create_dir_all(&dir)?;
        let log = SnapshotLog::create(&dir.join(LOG_FILE), id)?;
        Ok(self.session_store(id, log))
    }

    /// Open session `id`'s on-disk state, replaying its log (with the
    /// torn-tail rule) and loading its checkpoint blob if one exists.
    /// Returns `None` when the session has no state on disk.
    pub fn open_session(&self, id: u64) -> io::Result<Option<RecoveredSession>> {
        let dir = self.session_dir(id);
        if !dir.join(LOG_FILE).exists() {
            return Ok(None);
        }
        let (log, replay) = SnapshotLog::open(&dir.join(LOG_FILE), id)?;
        let checkpoint = read_checkpoint(&dir.join(CHECKPOINT_FILE), id);
        incprof_obs::counter(incprof_obs::names::STORE_REHYDRATIONS).inc();
        Ok(Some((self.session_store(id, log), replay, checkpoint)))
    }

    /// Delete session `id`'s directory (a wire `Close`). Returns whether
    /// anything existed.
    pub fn remove_session(&self, id: u64) -> io::Result<bool> {
        let dir = self.session_dir(id);
        if !dir.exists() {
            return Ok(false);
        }
        std::fs::remove_dir_all(&dir)?;
        Ok(true)
    }

    fn session_dir(&self, id: u64) -> PathBuf {
        self.root.join(id.to_string())
    }

    fn session_store(&self, id: u64, log: SnapshotLog) -> SessionStore {
        SessionStore {
            id,
            dir: self.session_dir(id),
            log,
            retention: self.retention,
            checkpoint_every: self.checkpoint_every,
            appends_since_checkpoint: 0,
        }
    }
}

/// Result of appending a snapshot to a session's durable log.
#[derive(Debug, Default)]
pub struct AppendOutcome {
    /// Encoded record size written, in bytes.
    pub bytes: u64,
    /// Sample indices the retention policy dropped from the log as part
    /// of this append. The caller must drop the same snapshots from its
    /// in-memory series so memory and disk stay in lockstep.
    pub dropped: Vec<u64>,
}

/// One live session's durable state: its log plus checkpoint cadence.
#[derive(Debug)]
pub struct SessionStore {
    id: u64,
    dir: PathBuf,
    log: SnapshotLog,
    retention: RetentionPolicy,
    checkpoint_every: u64,
    appends_since_checkpoint: u64,
}

impl SessionStore {
    /// The session id this store belongs to.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Append one gmon-encoded snapshot and apply the retention policy,
    /// compacting the log when it decides to drop records.
    pub fn append_snapshot(
        &mut self,
        sample_index: u64,
        payload: &[u8],
    ) -> io::Result<AppendOutcome> {
        let bytes = self.log.append(sample_index, payload)?;
        incprof_obs::counter(incprof_obs::names::STORE_APPENDS).inc();
        incprof_obs::counter(incprof_obs::names::STORE_BYTES_APPENDED).add(bytes);
        self.appends_since_checkpoint += 1;
        let drops = self.retention.drops(self.log.records());
        let dropped = self.log.compact(&drops)?;
        Ok(AppendOutcome { bytes, dropped })
    }

    /// Whether enough appends have accumulated since the last checkpoint
    /// for a new one to be worth writing.
    pub fn checkpoint_due(&self) -> bool {
        self.appends_since_checkpoint >= self.checkpoint_every
    }

    /// Atomically replace the session's checkpoint with `state` (an
    /// `incprof_core::AnalysisCache` state blob), wrapped in a single
    /// [`FrameType::Checkpoint`] frame.
    ///
    /// The cadence restarts whether or not the write succeeds: a blob
    /// that cannot be written (over the frame cap, disk full) is retried
    /// once per `checkpoint_every` appends, not after every append.
    /// Failures are counted in `store.checkpoint.write_errors`.
    pub fn write_checkpoint(&mut self, state: Vec<u8>) -> io::Result<()> {
        self.appends_since_checkpoint = 0;
        let written = self.replace_checkpoint(state);
        let outcome = match written {
            Ok(()) => incprof_obs::names::STORE_CHECKPOINTS,
            Err(_) => incprof_obs::names::STORE_CHECKPOINT_WRITE_ERRORS,
        };
        incprof_obs::counter(outcome).inc();
        written
    }

    fn replace_checkpoint(&self, state: Vec<u8>) -> io::Result<()> {
        let frame = Frame::with_payload(FrameType::Checkpoint, self.id, state);
        let bytes = frame
            .try_encode(DEFAULT_MAX_PAYLOAD)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.flush()?;
        }
        std::fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))
    }

    /// Total retained log bytes on disk.
    pub fn log_bytes(&self) -> u64 {
        self.log.total_bytes()
    }

    /// Number of retained log records.
    pub fn log_records(&self) -> usize {
        self.log.records().len()
    }
}

/// Read and validate a checkpoint file, returning its state blob. Any
/// problem (missing file, torn write, CRC mismatch, wrong type or
/// session) yields `None`: checkpoints are advisory and rehydration
/// falls back to a cold replay.
fn read_checkpoint(path: &Path, session_id: u64) -> Option<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path).ok()?.read_to_end(&mut bytes).ok()?;
    let (frame, consumed) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).ok()?;
    if frame.frame_type != FrameType::Checkpoint
        || frame.session_id != session_id
        || consumed != bytes.len()
    {
        return None;
    }
    Some(frame.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};

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

    fn store(name: &str, retention: RetentionPolicy) -> Store {
        let root =
            std::env::temp_dir().join(format!("incprof_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Store::open(&root, retention, 4).unwrap()
    }

    #[test]
    fn scan_finds_created_sessions() {
        let s = store("scan", RetentionPolicy::keep_all());
        assert!(s.scan().unwrap().is_empty());
        s.create_session(2).unwrap();
        s.create_session(7).unwrap();
        assert_eq!(s.scan().unwrap(), vec![2, 7]);
        assert!(s.has_session(2));
        assert!(!s.has_session(3));
    }

    #[test]
    fn create_append_reopen_roundtrip() {
        let s = store("roundtrip", RetentionPolicy::keep_all());
        let mut sess = s.create_session(1).unwrap();
        for i in 0..6 {
            let out = sess
                .append_snapshot(i, &gmon(i, (i + 1) * 50).encode())
                .unwrap();
            assert!(out.dropped.is_empty());
        }
        drop(sess);
        let (sess, replay, checkpoint) = s.open_session(1).unwrap().unwrap();
        assert_eq!(replay.snapshots.len(), 6);
        assert!(checkpoint.is_none(), "no checkpoint written yet");
        assert_eq!(sess.log_records(), 6);
        assert!(s.open_session(99).unwrap().is_none());
    }

    #[test]
    fn checkpoint_roundtrips_and_survives_garbage() {
        let s = store("checkpoint", RetentionPolicy::keep_all());
        let mut sess = s.create_session(5).unwrap();
        sess.append_snapshot(0, &gmon(0, 10).encode()).unwrap();
        sess.write_checkpoint(vec![1, 2, 3, 4]).unwrap();
        let (_, _, checkpoint) = s.open_session(5).unwrap().unwrap();
        assert_eq!(checkpoint, Some(vec![1, 2, 3, 4]));
        // A torn checkpoint is ignored, not fatal.
        let path = s.root().join("5").join(CHECKPOINT_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let (_, replay, checkpoint) = s.open_session(5).unwrap().unwrap();
        assert!(checkpoint.is_none());
        assert_eq!(replay.snapshots.len(), 1);
    }

    #[test]
    fn checkpoint_cadence() {
        let s = store("cadence", RetentionPolicy::keep_all());
        let mut sess = s.create_session(1).unwrap();
        for i in 0..3 {
            sess.append_snapshot(i, &gmon(i, 10).encode()).unwrap();
        }
        assert!(!sess.checkpoint_due(), "cadence is 4");
        sess.append_snapshot(3, &gmon(3, 10).encode()).unwrap();
        assert!(sess.checkpoint_due());
        sess.write_checkpoint(Vec::new()).unwrap();
        assert!(!sess.checkpoint_due(), "write resets the counter");
    }

    #[test]
    fn failed_checkpoint_is_counted_and_does_not_rearm_itself() {
        let s = store("cadence_fail", RetentionPolicy::keep_all());
        let mut sess = s.create_session(1).unwrap();
        for i in 0..4 {
            sess.append_snapshot(i, &gmon(i, 10).encode()).unwrap();
        }
        assert!(sess.checkpoint_due());
        let errors = incprof_obs::counter(incprof_obs::names::STORE_CHECKPOINT_WRITE_ERRORS);
        let before = errors.get();
        let over_cap = vec![0u8; DEFAULT_MAX_PAYLOAD as usize + 1];
        assert!(sess.write_checkpoint(over_cap).is_err());
        assert_eq!(errors.get(), before + 1);
        assert!(
            !sess.checkpoint_due(),
            "a failed write waits a full cadence before the retry"
        );
        assert!(!s.root().join("1").join(CHECKPOINT_FILE).exists());
    }

    #[test]
    fn retention_trims_on_append_and_reports_drops() {
        let retention = RetentionPolicy {
            hot: 2,
            stride: 4,
            max_bytes: 0,
        };
        let s = store("retention", retention);
        let mut sess = s.create_session(1).unwrap();
        let mut dropped_all = Vec::new();
        for i in 0..8 {
            let out = sess.append_snapshot(i, &gmon(i, 10).encode()).unwrap();
            dropped_all.extend(out.dropped);
        }
        // Kept: stride multiples (0, 4) plus the hot tail (6, 7).
        drop(sess);
        let (_, replay, _) = s.open_session(1).unwrap().unwrap();
        let kept: Vec<u64> = replay.snapshots.iter().map(|g| g.sample_index).collect();
        assert_eq!(kept, vec![0, 4, 6, 7]);
        dropped_all.sort_unstable();
        assert_eq!(dropped_all, vec![1, 2, 3, 5]);
    }

    #[test]
    fn remove_session_deletes_state() {
        let s = store("remove", RetentionPolicy::keep_all());
        s.create_session(1).unwrap();
        assert!(s.remove_session(1).unwrap());
        assert!(!s.remove_session(1).unwrap());
        assert!(!s.has_session(1));
    }
}
