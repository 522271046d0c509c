//! Crash recovery: newest valid checkpoint + WAL tail replay.
//!
//! The invariant recovery restores is exactly the durability contract
//! the writer upheld: *every acked mutation whose fsync completed is
//! present; the first torn or corrupt record ends the world*. Replay
//! applies records to a fresh [`Session`] with no observer installed
//! (nothing is re-logged), re-interning symbols in their original order
//! so every id on disk stays meaningful. Anything wrong — torn frame,
//! checksum mismatch, structurally invalid record, a record the session
//! rejects — stops replay cleanly at the last good record; the tail is
//! truncated, counted, and warned about, never panicked over.

use crate::checkpoint::{load_newest_valid, wal_path};
use crate::codec::{decode_record, WalRecord};
use crate::wal::{read_wal, FsyncPolicy, WalWriter};
use hdl_base::{Error, Json, Result};
use hdl_core::{Session, Snapshot};
use std::fs;
use std::path::Path;

/// What recovery found and did, for `:stats` and the `stats` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint restored from (0 = none, fresh world).
    pub checkpoint_epoch: u64,
    /// WAL records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Torn or corrupt records dropped from the WAL tail.
    pub records_truncated: u64,
    /// Bytes cut off the WAL tail.
    pub bytes_truncated: u64,
    /// Newer-but-corrupt checkpoints skipped during selection.
    pub checkpoints_skipped: u64,
}

impl RecoveryReport {
    /// Whether recovery had anything at all to restore.
    pub fn restored_anything(&self) -> bool {
        self.checkpoint_epoch > 0 || self.records_replayed > 0
    }

    /// Whether recovery found anything worth telling an operator:
    /// state restored, a torn tail truncated, or a corrupt checkpoint
    /// skipped.
    pub fn is_noteworthy(&self) -> bool {
        self.restored_anything() || self.records_truncated > 0 || self.checkpoints_skipped > 0
    }

    /// JSON object of the report (for `:stats --json` and the network
    /// protocol's `stats` op). Keys are stable.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::num(v as f64);
        Json::obj(vec![
            ("checkpoint_epoch", n(self.checkpoint_epoch)),
            ("records_replayed", n(self.records_replayed)),
            ("records_truncated", n(self.records_truncated)),
            ("bytes_truncated", n(self.bytes_truncated)),
            ("checkpoints_skipped", n(self.checkpoints_skipped)),
        ])
    }
}

/// A recovered world: the session, its epoch, and an open WAL writer
/// positioned after the last valid record.
pub struct Recovered {
    /// The restored session (no observer installed yet).
    pub session: Session,
    /// The active checkpoint epoch (WAL file names follow it).
    pub epoch: u64,
    /// What recovery found.
    pub report: RecoveryReport,
    /// Writer for the active WAL, ready to append.
    pub writer: WalWriter,
}

/// Restores a session from `dir`, creating the directory on first use.
pub fn recover(dir: &Path, policy: FsyncPolicy) -> Result<Recovered> {
    fs::create_dir_all(dir).map_err(|e| Error::io(dir.display(), e))?;
    sweep_tmp_files(dir)?;

    let (state, checkpoints_skipped) = load_newest_valid(dir)?;
    let mut report = RecoveryReport {
        checkpoints_skipped,
        ..RecoveryReport::default()
    };
    let (mut session, epoch) = match state {
        Some(s) => {
            // Never reuse a snapshot epoch the pre-crash process issued.
            Snapshot::advance_epoch_to(s.watermark);
            report.checkpoint_epoch = s.epoch;
            (
                Session::from_parts(s.symbols, s.rulebase, s.base, s.frames),
                s.epoch,
            )
        }
        None => (Session::new(), 0),
    };

    sweep_stale_wals(dir, epoch)?;

    let path = wal_path(dir, epoch);
    let writer = if path.exists() {
        match read_wal(&path) {
            Ok(scan) if scan.epoch == epoch => {
                let mut valid_len = crate::wal::WAL_HEADER_LEN;
                for frame in &scan.records {
                    let record = match decode_record(&frame.payload, session.symbols()) {
                        Ok(r) => r,
                        Err(err) => {
                            eprintln!(
                                "warning: WAL record {} is corrupt ({err}); truncating",
                                report.records_replayed + 1
                            );
                            break;
                        }
                    };
                    if let Err(err) = apply(&mut session, record) {
                        eprintln!(
                            "warning: WAL record {} was rejected on replay ({err}); truncating",
                            report.records_replayed + 1
                        );
                        break;
                    }
                    report.records_replayed += 1;
                    valid_len = frame.end;
                }
                let dropped_records = scan.records.len() as u64 - report.records_replayed;
                let torn_tail = scan.file_len > scan.valid_len;
                report.records_truncated = dropped_records + u64::from(torn_tail);
                report.bytes_truncated = scan.file_len - valid_len;
                WalWriter::open_end(&path, valid_len, policy)?
            }
            other => {
                // Unreadable header or an epoch that contradicts the file
                // name: nothing in it can be trusted, start the epoch's
                // log over. (A crash during WAL creation leaves exactly
                // this: an empty or half-headered file with no records.)
                if let Ok(scan) = &other {
                    eprintln!(
                        "warning: {} claims epoch {} (expected {epoch}); discarding",
                        path.display(),
                        scan.epoch
                    );
                } else {
                    eprintln!(
                        "warning: {} has no valid WAL header; discarding",
                        path.display()
                    );
                }
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                report.bytes_truncated = len;
                report.records_truncated = u64::from(len > 0);
                WalWriter::create(&path, epoch, policy)?
            }
        }
    } else {
        WalWriter::create(&path, epoch, policy)?
    };
    crate::checkpoint::sync_dir(dir)?;

    Ok(Recovered {
        session,
        epoch,
        report,
        writer,
    })
}

/// Applies one replayed record to the session. Shared with the
/// replication follower ([`crate::replicate::Replica`]), which applies
/// shipped records through exactly this path so a replica's world is the
/// world recovery would rebuild from its local log.
pub(crate) fn apply(session: &mut Session, record: WalRecord) -> Result<()> {
    match record {
        WalRecord::Symbols(names) => {
            session.sync_symbols(&names);
            Ok(())
        }
        WalRecord::Op(op) => session.apply(op).map(drop),
    }
}

/// Removes half-written checkpoint temp files left by a crash.
fn sweep_tmp_files(dir: &Path) -> Result<()> {
    for entry in fs::read_dir(dir).map_err(|e| Error::io(dir.display(), e))? {
        let entry = entry.map_err(|e| Error::io(dir.display(), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Removes WAL files from epochs other than the selected one.
///
/// These exist only inside checkpoint-rotation crash windows: the new
/// checkpoint renamed but its WAL not yet created (no file for `epoch`,
/// old epoch's file still present), or the old WAL not yet deleted. In
/// both cases the selected checkpoint already *contains* everything the
/// old epoch's WAL held, so the stale file must go before it can be
/// replayed against the wrong base state.
fn sweep_stale_wals(dir: &Path, epoch: u64) -> Result<()> {
    for entry in fs::read_dir(dir).map_err(|e| Error::io(dir.display(), e))? {
        let entry = entry.map_err(|e| Error::io(dir.display(), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(e) = crate::checkpoint::parse_epoch(name, "wal-", ".log") {
            if e != epoch {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    Ok(())
}
