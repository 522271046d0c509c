//! Primary/follower replication: WAL log shipping over a byte-identical
//! mirror of the primary's log.
//!
//! The unit of replication is a *window* of committed WAL bytes,
//! addressed by `(epoch, offset)`:
//!
//! - the **primary** exposes a [`WalTap`] on each tenant's shared WAL.
//!   A shipper snapshots the tenant's `(epoch, committed)` position
//!   under the WAL lock, then reads `[offset..committed]` straight out
//!   of the log file — whole flushed frames only, since the committed
//!   watermark ([`WalWriter::committed`]) advances exclusively by whole
//!   mutation groups;
//! - the **follower** holds a [`Replica`]: the same on-disk layout as a
//!   primary tenant directory, built by appending shipped windows at
//!   identical offsets ([`WalWriter::append_raw`]) and fsyncing before
//!   acknowledging. Records are applied to the in-memory session through
//!   the *recovery* code path, so a follower's world is — by
//!   construction — the world crash recovery would rebuild from its own
//!   files.
//!
//! When the primary checkpoints, its WAL rotates to a new epoch and the
//! old file is deleted; a follower still inside the old epoch can no
//! longer be served windows. [`WalTap::plan_ship`] then returns the
//! current epoch's checkpoint image instead, the follower installs it
//! ([`Replica::install_checkpoint`]), and window shipping resumes from
//! the top of the new epoch's log. A follower claiming a position the
//! primary has never written (a diverged or forged log) is refused with
//! [`Ship::Diverged`]; the operator-visible fix is a primary checkpoint,
//! which forces the checkpoint-transfer path above.
//!
//! The safety invariant, per tenant: **acked ⊆ follower-state ⊆
//! submitted**. An ack is only sent after the follower fsynced the
//! bytes; the follower only ever holds byte prefixes of the primary's
//! committed log (never reordered, never invented); and everything in
//! that log was a client-submitted mutation. The two-process failover
//! harness in `tests/replication.rs` asserts exactly this across crash
//! sites.

use crate::checkpoint::{checkpoint_path, sync_dir, write_checkpoint};
use crate::codec::{decode_checkpoint, decode_record};
use crate::crashpoint;
use crate::group::SharedWal;
use crate::recover::{recover, RecoveryReport};
use crate::wal::{FsyncPolicy, WalWriter, MAX_RECORD_LEN, WAL_HEADER_LEN};
use hdl_base::{crc32, Error, Result};
use hdl_core::Session;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A replication position: checkpoint epoch plus byte offset into that
/// epoch's WAL file. Fresh worlds start at `(0, WAL_HEADER_LEN)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// Checkpoint epoch the offset refers to.
    pub epoch: u64,
    /// Byte offset into `wal-<epoch>.log` (≥ [`WAL_HEADER_LEN`]).
    pub offset: u64,
}

impl Position {
    /// The position of an empty epoch-0 world.
    pub fn start() -> Self {
        Position {
            epoch: 0,
            offset: WAL_HEADER_LEN,
        }
    }

    /// Whether a follower acked at `self` has durably replicated
    /// everything up to `at`. A later epoch always covers: the follower
    /// only reaches it through a checkpoint image that contains the
    /// whole earlier history.
    pub fn covers(&self, at: Position) -> bool {
        self.epoch > at.epoch || (self.epoch == at.epoch && self.offset >= at.offset)
    }
}

/// What the primary should send a follower at a given position.
#[derive(Debug)]
pub enum Ship {
    /// Committed log bytes starting exactly at the follower's offset.
    /// Empty when the follower is caught up (send a heartbeat instead).
    Window {
        /// Epoch the bytes belong to.
        epoch: u64,
        /// Offset of the first byte within that epoch's WAL.
        offset: u64,
        /// Whole-frame log bytes, `[offset..offset + bytes.len())`.
        bytes: Vec<u8>,
    },
    /// The follower is behind a WAL rotation; it must install this
    /// checkpoint image and resume windows at the top of `epoch`'s log.
    Checkpoint {
        /// Epoch of the image (the primary's current epoch).
        epoch: u64,
        /// Serialized checkpoint (already CRC-framed by the codec).
        image: Vec<u8>,
    },
    /// The follower claims a position ahead of anything the primary
    /// committed — its log is not a prefix of ours. Shipping anything
    /// would corrupt it; a primary-side checkpoint (raising the epoch)
    /// converts this into a clean checkpoint transfer.
    Diverged {
        /// The primary's current position, for the error report.
        primary: Position,
    },
}

/// Read-side tap on a primary tenant's WAL, detached from the session
/// lock: shipper threads read committed windows and checkpoint images
/// while the session keeps serving queries and mutations.
pub struct WalTap {
    shared: Arc<Mutex<SharedWal>>,
    dir: PathBuf,
}

impl WalTap {
    pub(crate) fn new(shared: Arc<Mutex<SharedWal>>, dir: PathBuf) -> Self {
        WalTap { shared, dir }
    }

    /// The primary's current `(epoch, committed)` position.
    pub fn position(&self) -> Position {
        let guard = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        Position {
            epoch: guard.epoch,
            offset: guard.writer.committed(),
        }
    }

    /// Plans the next shipment for a follower at `from`, reading at most
    /// `max_bytes` of log. See [`Ship`] for the three outcomes.
    ///
    /// The `(epoch, committed, path)` snapshot is taken under the WAL
    /// lock, but the file read happens outside it — the writer only ever
    /// appends, so bytes below `committed` are immutable. A checkpoint
    /// racing the read can delete the file out from under us; that
    /// surfaces as an I/O error the shipper retries, and the retry's
    /// snapshot sees the new epoch.
    pub fn plan_ship(&self, from: Position, max_bytes: u64) -> Result<Ship> {
        let (epoch, committed, path) = {
            let guard = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
            (
                guard.epoch,
                guard.writer.committed(),
                guard.writer.path().to_path_buf(),
            )
        };
        if from.epoch > epoch || (from.epoch == epoch && from.offset > committed) {
            return Ok(Ship::Diverged {
                primary: Position {
                    epoch,
                    offset: committed,
                },
            });
        }
        if from.epoch < epoch {
            // Rotation already deleted the follower's epoch; epoch ≥ 1
            // here, so the current checkpoint image always exists (it is
            // what the rotation published, and pruning spares it).
            let ckpt = checkpoint_path(&self.dir, epoch);
            let image = std::fs::read(&ckpt).map_err(|e| Error::io(ckpt.display(), e))?;
            return Ok(Ship::Checkpoint { epoch, image });
        }
        if from.offset < WAL_HEADER_LEN {
            return Err(Error::Invalid(format!(
                "replication offset {} is inside the WAL header",
                from.offset
            )));
        }
        let len = (committed - from.offset).min(max_bytes);
        let mut bytes = vec![0u8; len as usize];
        if len > 0 {
            let mut file = File::open(&path).map_err(|e| Error::io(path.display(), e))?;
            file.seek(SeekFrom::Start(from.offset))
                .and_then(|_| file.read_exact(&mut bytes))
                .map_err(|e| Error::io(path.display(), e))?;
        }
        Ok(Ship::Window {
            epoch,
            offset: from.offset,
            bytes,
        })
    }
}

/// Splits a shipped window into its frame payloads, verifying structure
/// and checksums. Unlike [`crate::wal::read_wal`] — where a torn tail is
/// an expected crash artifact — a window must parse *exactly*: the
/// primary only ships whole committed frames, so any leftover or
/// mismatch means the peer is not speaking the protocol, and nothing
/// from the window may be applied.
pub fn parse_frames(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let header = bytes
            .get(pos..pos + 8)
            .ok_or_else(|| Error::Invalid("replication window has a torn frame header".into()))?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return Err(Error::Invalid(format!(
                "replication frame claims {len} bytes (limit {MAX_RECORD_LEN})"
            )));
        }
        let payload = bytes
            .get(pos + 8..pos + 8 + len as usize)
            .ok_or_else(|| Error::Invalid("replication window has a torn frame payload".into()))?;
        if crc32(payload) != crc {
            return Err(Error::Invalid(
                "replication frame failed its checksum".into(),
            ));
        }
        frames.push(payload);
        pos += 8 + len as usize;
    }
    Ok(frames)
}

/// Shared scoreboard of follower replication progress, per tenant ×
/// target, for synchronous (quorum-acknowledged) commits.
///
/// The shipper calls [`AckTracker::record`] with each follower ack it
/// receives; a committing session calls [`AckTracker::wait_quorum`]
/// with the position its batch reached locally and blocks — bounded by
/// a deadline — until enough targets' acked positions [`Position::covers`]
/// that point. The wait returns the count actually covering, so the
/// caller can degrade to a structured under-replication report instead
/// of hanging the commit window.
pub struct AckTracker {
    targets: usize,
    state: Mutex<BTreeMap<String, Vec<Option<Position>>>>,
    cond: Condvar,
}

impl AckTracker {
    /// A tracker for `targets` replication targets (indexed `0..targets`).
    pub fn new(targets: usize) -> Self {
        AckTracker {
            targets,
            state: Mutex::new(BTreeMap::new()),
            cond: Condvar::new(),
        }
    }

    /// How many replication targets this tracker scores.
    pub fn targets(&self) -> usize {
        self.targets
    }

    /// Records that target `target` acked `tenant` up to `pos`
    /// (monotonic: an older ack never regresses the scoreboard).
    pub fn record(&self, tenant: &str, target: usize, pos: Position) {
        if target >= self.targets {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let slots = state
            .entry(tenant.to_string())
            .or_insert_with(|| vec![None; self.targets]);
        match slots[target] {
            Some(have) if have.covers(pos) => {}
            _ => {
                slots[target] = Some(pos);
                self.cond.notify_all();
            }
        }
    }

    /// Forgets a target's progress for every tenant — called when its
    /// connection drops, so a quorum never counts a dead follower.
    pub fn forget_target(&self, target: usize) {
        if target >= self.targets {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        for slots in state.values_mut() {
            slots[target] = None;
        }
    }

    /// How many targets currently cover `at` for `tenant`.
    pub fn covering(&self, tenant: &str, at: Position) -> usize {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state
            .get(tenant)
            .map(|slots| {
                slots
                    .iter()
                    .filter(|p| p.is_some_and(|p| p.covers(at)))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Blocks until at least `need` targets cover `at` for `tenant`, or
    /// `deadline` elapses. Returns the number of targets covering at
    /// return time (`>= need` on success, the shortfall count on
    /// timeout).
    pub fn wait_quorum(
        &self,
        tenant: &str,
        at: Position,
        need: usize,
        deadline: Duration,
    ) -> usize {
        let need = need.min(self.targets);
        let started = Instant::now();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let covering = state
                .get(tenant)
                .map(|slots| {
                    slots
                        .iter()
                        .filter(|p| p.is_some_and(|p| p.covers(at)))
                        .count()
                })
                .unwrap_or(0);
            if covering >= need {
                return covering;
            }
            let elapsed = started.elapsed();
            if elapsed >= deadline {
                return covering;
            }
            let (next, timeout) = self
                .cond
                .wait_timeout(state, deadline - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if timeout.timed_out() {
                // Loop once more to pick up a racing final record().
                continue;
            }
        }
    }
}

/// A follower's mirror of one tenant: the primary's on-disk layout,
/// grown by appending shipped windows, plus the live session replaying
/// them for read-only queries.
///
/// Opening a replica *is* crash recovery — whatever prefix of the log
/// survived the last run is rebuilt, and [`Replica::position`] tells the
/// primary where to resume. Promotion needs no data movement at all:
/// drop the replica and open the directory as a normal durable session.
pub struct Replica {
    dir: PathBuf,
    policy: FsyncPolicy,
    epoch: u64,
    writer: WalWriter,
    session: Session,
    report: RecoveryReport,
    records_applied: u64,
}

impl Replica {
    /// Opens (recovering if needed) a replica rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self> {
        let dir = dir.into();
        let recovered = recover(&dir, policy)?;
        Ok(Replica {
            dir,
            policy,
            epoch: recovered.epoch,
            writer: recovered.writer,
            session: recovered.session,
            report: recovered.report,
            records_applied: 0,
        })
    }

    /// Where the primary should resume shipping.
    pub fn position(&self) -> Position {
        Position {
            epoch: self.epoch,
            offset: self.writer.committed(),
        }
    }

    /// The replayed session, for read-only query serving.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable session access — for the query service's snapshot
    /// machinery only; replication owns all real mutations.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// What recovery found when the replica opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Records applied since this replica was opened (not counting the
    /// recovery replay of earlier runs' windows).
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// Lands one shipped window: verify it, fsync it into the local log
    /// at the exact shipped offset, then apply each record to the
    /// session through the recovery path. Returns the number of records
    /// applied. The caller may ack `(epoch, offset + bytes.len())` to
    /// the primary once this returns `Ok` — the bytes are durable.
    ///
    /// A position mismatch is an error carrying the replica's actual
    /// position in its message; the primary re-negotiates rather than
    /// guessing. A validation failure applies nothing. A failure *after*
    /// the fsync (a record the session rejects) leaves disk ahead of
    /// memory — the caller must drop and reopen the replica, which
    /// replays the durable prefix and truncates whatever broke.
    pub fn apply_window(&mut self, epoch: u64, offset: u64, bytes: &[u8]) -> Result<u64> {
        hdl_base::failpoint!("replicate::apply");
        let at = self.position();
        if epoch != at.epoch || offset != at.offset {
            return Err(Error::Invalid(format!(
                "replication window at {epoch}:{offset} but replica is at {}:{}",
                at.epoch, at.offset
            )));
        }
        if bytes.is_empty() {
            return Ok(0);
        }
        let frames = parse_frames(bytes)?;
        // Crash window: the bytes were received but never written — the
        // primary re-ships them after the follower restarts and
        // re-negotiates its (unchanged) position.
        crashpoint::crash_point("replicate::apply");
        self.writer.append_raw(bytes)?;
        let mut applied = 0u64;
        for payload in frames {
            let record = decode_record(payload, self.session.symbols())?;
            crate::recover::apply(&mut self.session, record)?;
            applied += 1;
        }
        self.records_applied += applied;
        Ok(applied)
    }

    /// Installs a shipped checkpoint image, replacing the replica's
    /// whole world: publish the image exactly as the primary would, then
    /// rebuild through recovery (which also sweeps the stale epoch's
    /// WAL). Windows resume at the top of the new epoch's log.
    pub fn install_checkpoint(&mut self, epoch: u64, image: &[u8]) -> Result<()> {
        let state = decode_checkpoint(image)?;
        if state.epoch != epoch {
            return Err(Error::Invalid(format!(
                "checkpoint image claims epoch {} but was shipped as {epoch}",
                state.epoch
            )));
        }
        if epoch <= self.epoch {
            return Err(Error::Invalid(format!(
                "checkpoint epoch {epoch} does not advance the replica (at {})",
                self.epoch
            )));
        }
        write_checkpoint(&self.dir, epoch, image)?;
        sync_dir(&self.dir)?;
        let recovered = recover(&self.dir, self.policy)?;
        if recovered.epoch != epoch {
            return Err(Error::Invalid(format!(
                "recovery selected epoch {} after installing {epoch}",
                recovered.epoch
            )));
        }
        self.epoch = recovered.epoch;
        self.writer = recovered.writer;
        self.session = recovered.session;
        self.report = recovered.report;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::wal_path;
    use crate::session::DurableSession;
    use crate::testutil::TempDir;
    use crate::wal::read_wal;

    const PROGRAM: &str = "edge(a, b). edge(b, c).\n\
        tc(X, Y) :- edge(X, Y).\n\
        tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

    /// Drives `replica` to the primary's current position via the tap,
    /// exactly like a shipper thread would.
    fn catch_up(tap: &WalTap, replica: &mut Replica) {
        loop {
            match tap.plan_ship(replica.position(), 1 << 20).unwrap() {
                Ship::Window { bytes, .. } if bytes.is_empty() => return,
                Ship::Window {
                    epoch,
                    offset,
                    bytes,
                } => {
                    replica.apply_window(epoch, offset, &bytes).unwrap();
                }
                Ship::Checkpoint { epoch, image } => {
                    replica.install_checkpoint(epoch, &image).unwrap();
                }
                Ship::Diverged { primary } => panic!("diverged vs {primary:?}"),
            }
        }
    }

    #[test]
    fn windows_mirror_the_primary_byte_for_byte() {
        let p_dir = TempDir::new("rep-primary");
        let f_dir = TempDir::new("rep-follower");
        let mut primary = DurableSession::open(p_dir.path(), FsyncPolicy::Always).unwrap();
        let tap = primary.wal_tap().unwrap();
        let mut replica = Replica::open(f_dir.path(), FsyncPolicy::Always).unwrap();

        primary.load(PROGRAM).unwrap();
        primary.load("edge(c, d).").unwrap();
        catch_up(&tap, &mut replica);

        assert_eq!(replica.position(), tap.position());
        assert!(replica.session_mut().ask("?- tc(a, d).").unwrap());

        // The logs are byte-identical up to the follower watermark.
        let p_scan = read_wal(&wal_path(p_dir.path(), 0)).unwrap();
        let f_scan = read_wal(&wal_path(f_dir.path(), 0)).unwrap();
        assert_eq!(p_scan.records.len(), f_scan.records.len());
        for (a, b) in p_scan.records.iter().zip(&f_scan.records) {
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.end, b.end);
        }
    }

    #[test]
    fn rotation_ships_a_checkpoint_and_windows_resume() {
        let p_dir = TempDir::new("rep-rotate-p");
        let f_dir = TempDir::new("rep-rotate-f");
        let mut primary = DurableSession::open(p_dir.path(), FsyncPolicy::Always).unwrap();
        let tap = primary.wal_tap().unwrap();
        let mut replica = Replica::open(f_dir.path(), FsyncPolicy::Always).unwrap();

        primary.load(PROGRAM).unwrap();
        assert_eq!(primary.checkpoint().unwrap(), 1);
        primary.load("edge(c, e).").unwrap();

        // The replica is still at epoch 0: the plan must be an image.
        assert!(matches!(
            tap.plan_ship(replica.position(), 1 << 20).unwrap(),
            Ship::Checkpoint { epoch: 1, .. }
        ));
        catch_up(&tap, &mut replica);
        assert_eq!(replica.position(), tap.position());
        assert_eq!(replica.position().epoch, 1);
        assert!(replica.session_mut().ask("?- tc(b, e).").unwrap());

        // Post-catch-up mutations flow as plain windows again.
        primary.load("edge(e, f).").unwrap();
        catch_up(&tap, &mut replica);
        assert!(replica.session_mut().ask("?- tc(a, f).").unwrap());
    }

    #[test]
    fn replica_survives_reopen_and_resumes_mid_epoch() {
        let p_dir = TempDir::new("rep-reopen-p");
        let f_dir = TempDir::new("rep-reopen-f");
        let mut primary = DurableSession::open(p_dir.path(), FsyncPolicy::Always).unwrap();
        let tap = primary.wal_tap().unwrap();

        primary.load(PROGRAM).unwrap();
        {
            let mut replica = Replica::open(f_dir.path(), FsyncPolicy::Always).unwrap();
            catch_up(&tap, &mut replica);
        } // dropped: simulates a follower restart

        primary.load("edge(c, d).").unwrap();
        let mut replica = Replica::open(f_dir.path(), FsyncPolicy::Always).unwrap();
        assert!(replica.recovery_report().records_replayed > 0);
        catch_up(&tap, &mut replica);
        assert_eq!(replica.position(), tap.position());
        assert!(replica.session_mut().ask("?- tc(a, d).").unwrap());
    }

    #[test]
    fn promotion_is_a_plain_durable_open() {
        let p_dir = TempDir::new("rep-promote-p");
        let f_dir = TempDir::new("rep-promote-f");
        let mut primary = DurableSession::open(p_dir.path(), FsyncPolicy::Always).unwrap();
        let tap = primary.wal_tap().unwrap();
        let mut replica = Replica::open(f_dir.path(), FsyncPolicy::Always).unwrap();
        primary.load(PROGRAM).unwrap();
        catch_up(&tap, &mut replica);
        drop(replica);

        let mut promoted = DurableSession::open(f_dir.path(), FsyncPolicy::Always).unwrap();
        assert!(promoted.ask("?- tc(a, c).").unwrap());
        // The promoted world accepts writes and keeps its own log.
        promoted.load("edge(c, z).").unwrap();
        assert!(promoted.ask("?- tc(a, z).").unwrap());
    }

    #[test]
    fn diverged_followers_are_refused_then_healed_by_checkpoint() {
        let p_dir = TempDir::new("rep-diverge-p");
        let f_dir = TempDir::new("rep-diverge-f");
        let mut primary = DurableSession::open(p_dir.path(), FsyncPolicy::Always).unwrap();
        let tap = primary.wal_tap().unwrap();
        primary.load(PROGRAM).unwrap();

        // A follower that wrote its own history claims a position past
        // anything the primary committed.
        let mut rogue = DurableSession::open(f_dir.path(), FsyncPolicy::Always).unwrap();
        rogue.load(PROGRAM).unwrap();
        rogue.load("edge(x1, x2).").unwrap();
        drop(rogue);
        let mut replica = Replica::open(f_dir.path(), FsyncPolicy::Always).unwrap();
        assert!(replica.position().offset > tap.position().offset);
        assert!(matches!(
            tap.plan_ship(replica.position(), 1 << 20).unwrap(),
            Ship::Diverged { .. }
        ));

        // The operator remedy: checkpoint the primary, forcing the
        // follower through a full image install.
        primary.checkpoint().unwrap();
        catch_up(&tap, &mut replica);
        assert_eq!(replica.position(), tap.position());
        assert!(replica.session_mut().ask("?- tc(a, c).").unwrap());
        assert!(!replica.session_mut().ask("?- edge(x1, x2).").unwrap());
    }

    #[test]
    fn windows_with_garbage_are_rejected_without_side_effects() {
        let f_dir = TempDir::new("rep-garbage");
        let mut replica = Replica::open(f_dir.path(), FsyncPolicy::Always).unwrap();
        let at = replica.position();

        // Torn header, torn payload, bad checksum, absurd length.
        for bytes in [
            &b"\x05\x00\x00"[..],
            &[5, 0, 0, 0, 1, 2, 3, 4, 9, 9][..],
            &{
                let mut v = Vec::new();
                v.extend_from_slice(&2u32.to_le_bytes());
                v.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
                v.extend_from_slice(b"ok");
                v
            }[..],
            &{
                let mut v = Vec::new();
                v.extend_from_slice(&u32::MAX.to_le_bytes());
                v.extend_from_slice(&[0; 4]);
                v
            }[..],
        ] {
            assert!(replica.apply_window(at.epoch, at.offset, bytes).is_err());
            assert_eq!(replica.position(), at, "nothing may land");
        }

        // Position mismatches are refused before any validation.
        assert!(replica.apply_window(at.epoch + 1, at.offset, &[]).is_err());
        assert!(replica.apply_window(at.epoch, at.offset + 8, &[]).is_err());
    }

    #[test]
    fn positions_cover_across_epochs() {
        let at = Position {
            epoch: 2,
            offset: 100,
        };
        assert!(at.covers(at));
        assert!(Position {
            epoch: 2,
            offset: 101
        }
        .covers(at));
        assert!(Position {
            epoch: 3,
            offset: WAL_HEADER_LEN
        }
        .covers(at));
        assert!(!Position {
            epoch: 2,
            offset: 99
        }
        .covers(at));
        assert!(!Position {
            epoch: 1,
            offset: 999
        }
        .covers(at));
    }

    #[test]
    fn ack_tracker_quorum_wait_and_degrade() {
        let tracker = Arc::new(AckTracker::new(2));
        let at = Position {
            epoch: 0,
            offset: 64,
        };

        // Nothing recorded: a bounded wait degrades with the count seen.
        assert_eq!(
            tracker.wait_quorum("t", at, 1, Duration::from_millis(20)),
            0
        );

        // One target acks past the mark; quorum of 1 resolves, 2 degrades.
        tracker.record(
            "t",
            0,
            Position {
                epoch: 0,
                offset: 80,
            },
        );
        assert_eq!(tracker.covering("t", at), 1);
        assert_eq!(
            tracker.wait_quorum("t", at, 1, Duration::from_millis(20)),
            1
        );
        assert_eq!(
            tracker.wait_quorum("t", at, 2, Duration::from_millis(20)),
            1
        );

        // A racing ack from another thread wakes a blocked waiter.
        let waiter = {
            let tracker = Arc::clone(&tracker);
            std::thread::spawn(move || tracker.wait_quorum("t", at, 2, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(10));
        tracker.record(
            "t",
            1,
            Position {
                epoch: 1,
                offset: 16,
            },
        );
        assert_eq!(waiter.join().unwrap(), 2);

        // Stale acks never regress; a dropped target is forgotten.
        tracker.record(
            "t",
            0,
            Position {
                epoch: 0,
                offset: 16,
            },
        );
        assert_eq!(tracker.covering("t", at), 2);
        tracker.forget_target(0);
        assert_eq!(tracker.covering("t", at), 1);
        // Out-of-range target indexes are ignored, not panics.
        tracker.record("t", 9, at);
        tracker.forget_target(9);
    }
}
