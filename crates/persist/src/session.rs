//! [`DurableSession`]: a [`Session`] whose mutations survive `kill -9`.
//!
//! The session's write-ahead observer hook does the heavy lifting: every
//! mutation is offered to the observer *after* validation but *before*
//! it touches memory, so the WAL orders strictly ahead of RAM. If the
//! log append (or its fsync under [`FsyncPolicy::Always`]) fails, the
//! mutation is aborted and the caller sees the error — memory and disk
//! cannot disagree in the dangerous direction (memory ahead of disk).
//!
//! A checkpoint compacts the log: serialize the whole world, publish it
//! atomically, rotate to a fresh WAL for the next epoch, delete the old
//! one. Crashes anywhere in that sequence are recovered by
//! [`crate::recover::recover`], which this type runs on open.

use crate::checkpoint::{prune_checkpoints, sync_dir, wal_path, write_checkpoint};
use crate::codec::{
    encode_assume_record, encode_checkpoint, encode_pop_record, encode_program_record,
    encode_retract_record, encode_symbols_record,
};
use crate::group::{CommitTicket, GroupCommitter, SharedWal};
use crate::recover::{recover, RecoveryReport};
use crate::wal::{FsyncPolicy, WalWriter};
use hdl_base::{Error, Result, SymbolTable};
use hdl_core::session::{Mutation, SessionObserver};
use hdl_core::{Session, Snapshot};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// The observer installed into the wrapped session. In direct mode it
/// commits (append + policy fsync) inline under the WAL lock; in group
/// mode it hands the record group to the shared [`GroupCommitter`] and
/// blocks until the batch fsync covering it has returned. In *pipelined*
/// group mode it does not block at all: it enqueues the records and
/// *stages* the records where the caller can flush them into one
/// committer submission via
/// [`DurableSession::take_pending_commits`] — the caller owns the
/// obligation to wait the resulting ticket before acking anything.
struct WalObserver {
    shared: Arc<Mutex<SharedWal>>,
    group: Option<Arc<GroupCommitter>>,
    /// `Some` selects pipelined mode; the buffer accumulates the WAL
    /// records of every mutation not yet handed to the committer, in
    /// application order. A caller applying a whole window of mutations
    /// under one lock hold then pays ONE submission (one queue hop, one
    /// ticket) for the window instead of one per mutation.
    staged: Option<Arc<Mutex<Vec<Vec<u8>>>>>,
}

impl SessionObserver for WalObserver {
    fn on_mutation(&mut self, symbols: &SymbolTable, mutation: &Mutation<'_>) -> Result<()> {
        let mut guard = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(2);
        if symbols.len() > guard.synced {
            let names: Vec<&str> = symbols
                .iter()
                .skip(guard.synced)
                .map(|(_, name)| name)
                .collect();
            payloads.push(encode_symbols_record(&names));
        }
        payloads.push(match mutation {
            Mutation::Program { rules, facts } => encode_program_record(rules, facts),
            Mutation::Retract(fact) => encode_retract_record(fact),
            Mutation::Assume(facts) => encode_assume_record(facts),
            Mutation::PopAssumption => encode_pop_record(),
        });
        match &self.group {
            None => {
                let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
                guard.writer.commit(&refs)?;
                // Only advance after a successful commit: if the append
                // failed, the next mutation re-sends the same symbol
                // suffix (replay tolerates re-interning — ids are
                // positional and idempotent).
                guard.synced = symbols.len();
                Ok(())
            }
            Some(committer) => match &self.staged {
                None => {
                    // The committer takes the WAL lock itself; holding it
                    // across the blocking submit would deadlock. Mutations
                    // on one session are serialized (`&mut Session`), so
                    // the watermark cannot race between release and
                    // re-lock.
                    drop(guard);
                    committer.commit(&self.shared, payloads)?;
                    let mut guard = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.synced = symbols.len();
                    Ok(())
                }
                Some(buffer) => {
                    // Pipelined: advance the watermark at *staging* time —
                    // the suffix is already in this payload, and staging
                    // preserves order, so the next mutation must not
                    // re-send it. If the commit later fails, the caller
                    // sees the ticket error and must stop using the
                    // session (memory is ahead of a failed log).
                    guard.synced = symbols.len();
                    drop(guard);
                    buffer
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(payloads);
                    Ok(())
                }
            },
        }
    }
}

/// State present only when a persist dir is configured.
struct Durable {
    dir: PathBuf,
    policy: FsyncPolicy,
    epoch: u64,
    shared: Arc<Mutex<SharedWal>>,
    report: RecoveryReport,
    /// The committer, when commits route through group mode.
    group: Option<Arc<GroupCommitter>>,
    /// The pipelined-mode staging buffer shared with the observer.
    staged: Option<Arc<Mutex<Vec<Vec<u8>>>>>,
}

/// A session with optional durability; derefs to [`Session`].
pub struct DurableSession {
    session: Session,
    durable: Option<Durable>,
}

/// How many published checkpoints to keep around (the newest, plus one
/// fallback in case the newest is later found corrupt).
const KEEP_CHECKPOINTS: usize = 2;

impl DurableSession {
    /// Opens (recovering if needed) a durable session rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self> {
        Self::open_inner(dir.into(), policy, None, false)
    }

    /// Like [`open`](Self::open), but routes every WAL commit through a
    /// shared [`GroupCommitter`] so concurrent sessions' mutations are
    /// batched into one fsync pass per drain. The durability contract is
    /// unchanged: the mutating call returns only after this session's
    /// records are on disk under the configured policy.
    pub fn open_grouped(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
        committer: Arc<GroupCommitter>,
    ) -> Result<Self> {
        Self::open_inner(dir.into(), policy, Some(committer), false)
    }

    /// Like [`open_grouped`](Self::open_grouped), but mutating calls
    /// return as soon as their records are *enqueued* with the committer
    /// — durability arrives later, on the [`CommitTicket`] collected via
    /// [`take_pending_commits`](Self::take_pending_commits). The caller
    /// MUST wait that ticket before acking the mutation to anyone, and
    /// must stop mutating the session if it resolves to an error (the
    /// in-memory state is then ahead of a failed log). This is the mode
    /// the multi-tenant server uses: it lets concurrent connections
    /// stack commits into deep per-WAL batches instead of serializing
    /// each one behind its predecessor's fsync.
    pub fn open_grouped_pipelined(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
        committer: Arc<GroupCommitter>,
    ) -> Result<Self> {
        Self::open_inner(dir.into(), policy, Some(committer), true)
    }

    fn open_inner(
        dir: PathBuf,
        policy: FsyncPolicy,
        group: Option<Arc<GroupCommitter>>,
        pipelined: bool,
    ) -> Result<Self> {
        let recovered = recover(&dir, policy)?;
        let mut session = recovered.session;
        let shared = Arc::new(Mutex::new(SharedWal {
            writer: recovered.writer,
            synced: session.symbols().len(),
            epoch: recovered.epoch,
        }));
        let staged = if pipelined && group.is_some() {
            Some(Arc::new(Mutex::new(Vec::new())))
        } else {
            None
        };
        session.set_observer(Some(Box::new(WalObserver {
            shared: Arc::clone(&shared),
            group: group.clone(),
            staged: staged.clone(),
        })));
        Ok(DurableSession {
            session,
            durable: Some(Durable {
                dir,
                policy,
                epoch: recovered.epoch,
                shared,
                report: recovered.report,
                group,
                staged,
            }),
        })
    }

    /// A plain in-memory session with no durability (the default mode of
    /// the CLI when `--persist-dir` is not given).
    pub fn ephemeral() -> Self {
        DurableSession {
            session: Session::new(),
            durable: None,
        }
    }

    /// Whether mutations are being logged.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The persist directory, when durable.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// The active checkpoint epoch (0 before the first checkpoint, and
    /// always 0 when ephemeral).
    pub fn epoch(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.epoch)
    }

    /// What recovery found when this session was opened.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| &d.report)
    }

    /// A replication tap on this session's WAL (see
    /// [`crate::replicate::WalTap`]): lets a shipper thread read
    /// committed log windows and checkpoint images without holding the
    /// session lock. `None` when ephemeral.
    pub fn wal_tap(&self) -> Option<crate::replicate::WalTap> {
        self.durable
            .as_ref()
            .map(|d| crate::replicate::WalTap::new(Arc::clone(&d.shared), d.dir.clone()))
    }

    /// Flushes every mutation staged since the last flush into ONE
    /// committer submission and returns its durability ticket(s), when
    /// the session was opened with
    /// [`open_grouped_pipelined`](Self::open_grouped_pipelined). Returns
    /// an empty vec in every other mode (the mutating call itself
    /// already blocked until durable) and when nothing is staged. The
    /// single submission is what makes deep windows cheap: one queue
    /// hop and one ticket amortize over however many mutations the
    /// caller applied under its lock hold.
    pub fn take_pending_commits(&mut self) -> Vec<CommitTicket> {
        let Some(durable) = &self.durable else {
            return Vec::new();
        };
        let (Some(committer), Some(buffer)) = (&durable.group, &durable.staged) else {
            return Vec::new();
        };
        let payloads = std::mem::take(&mut *buffer.lock().unwrap_or_else(PoisonError::into_inner));
        if payloads.is_empty() {
            return Vec::new();
        }
        vec![committer.submit(&durable.shared, payloads)]
    }

    /// Blocks until every record this session has enqueued with the
    /// group committer is durable. A no-op outside group mode. Used
    /// before checkpoint rotation (records landing after the rotation
    /// would replay on top of a checkpoint that already contains them)
    /// and useful to callers as an explicit durability barrier.
    pub fn flush_commits(&mut self) -> Result<()> {
        for ticket in self.take_pending_commits() {
            ticket.wait()?;
        }
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        let Some(committer) = &durable.group else {
            return Ok(());
        };
        // FIFO per WAL: once the empty barrier group is durable, so is
        // everything submitted before it — including tickets a
        // concurrent caller collected but has not finished waiting.
        committer.commit(&durable.shared, Vec::new())
    }

    /// Serializes the whole session state to a new checkpoint epoch,
    /// rotates the WAL, and deletes the old log. Returns the new epoch.
    pub fn checkpoint(&mut self) -> Result<u64> {
        if self.durable.is_none() {
            return Err(Error::Invalid("session has no persist dir".into()));
        }
        // Drain in-flight group commits first: rotation deletes the WAL
        // they target, and any record appended after the image below is
        // serialized would double-apply on recovery.
        self.flush_commits()?;
        let durable = self.durable.as_mut().expect("checked above");
        let epoch = durable.epoch + 1;
        let image = encode_checkpoint(
            epoch,
            Snapshot::epoch_watermark(),
            self.session.symbols(),
            self.session.rulebase(),
            self.session.database(),
            self.session.assumptions(),
        );
        write_checkpoint(&durable.dir, epoch, &image)?;
        // The checkpoint is live from here: even if rotation below dies,
        // recovery selects it and discards the old epoch's WAL.
        let fresh = WalWriter::create(&wal_path(&durable.dir, epoch), epoch, durable.policy)?;
        sync_dir(&durable.dir)?;
        let old_path = {
            let mut guard = durable
                .shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let old = guard.writer.path().to_path_buf();
            guard.writer = fresh;
            guard.synced = self.session.symbols().len();
            guard.epoch = epoch;
            old
        };
        let _ = std::fs::remove_file(old_path);
        prune_checkpoints(&durable.dir, KEEP_CHECKPOINTS);
        durable.epoch = epoch;
        Ok(epoch)
    }
}

impl Deref for DurableSession {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.session
    }
}

impl DerefMut for DurableSession {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use hdl_base::GroundAtom;

    const PROGRAM: &str = "edge(a, b). edge(b, c). edge(c, d).\n\
        tc(X, Y) :- edge(X, Y).\n\
        tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
        back(X) :- tc(X, a)[add: edge(d, a)].\n";

    fn parse_fact(session: &mut Session, text: &str) -> GroundAtom {
        let rb = hdl_core::parse_program(text, session.symbols_mut()).unwrap();
        let (_, mut facts) = hdl_core::split_facts(rb);
        facts.pop().unwrap()
    }

    #[test]
    fn mutations_survive_reopen_without_checkpoint() {
        let dir = TempDir::new("durable-wal-only");
        {
            let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
            s.load(PROGRAM).unwrap();
            let f = parse_fact(&mut s, "edge(d, e).");
            s.assert_fact(f).unwrap();
        }
        let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
        assert!(s.ask("?- tc(a, e).").unwrap());
        let report = s.recovery_report().unwrap();
        assert_eq!(report.checkpoint_epoch, 0);
        assert!(report.records_replayed >= 2);
        assert_eq!(report.records_truncated, 0);
    }

    #[test]
    fn checkpoint_rotates_wal_and_survives_reopen() {
        let dir = TempDir::new("durable-ckpt");
        {
            let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
            s.load(PROGRAM).unwrap();
            assert_eq!(s.checkpoint().unwrap(), 1);
            // Post-checkpoint mutations land in the next epoch's WAL.
            let f = parse_fact(&mut s, "edge(d, e).");
            s.assert_fact(f).unwrap();
            let g = parse_fact(&mut s, "edge(a, b).");
            assert!(s.retract_fact(&g).unwrap());
        }
        let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
        let report = s.recovery_report().unwrap().clone();
        assert_eq!(report.checkpoint_epoch, 1);
        assert_eq!(report.records_replayed, 3); // symbols + assert + retract
        assert!(s.ask("?- tc(b, e).").unwrap());
        assert!(!s.ask("?- tc(a, b).").unwrap());
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.checkpoint().unwrap(), 2);
    }

    #[test]
    fn assumptions_and_pops_are_durable() {
        let dir = TempDir::new("durable-assume");
        {
            let mut s = DurableSession::open(dir.path(), FsyncPolicy::EveryN(4)).unwrap();
            s.load(PROGRAM).unwrap();
            let f = parse_fact(&mut s, "edge(d, a).");
            s.assume(vec![f]).unwrap();
            let g = parse_fact(&mut s, "edge(z, z).");
            s.assume(vec![g]).unwrap();
            s.pop_assumption().unwrap();
            assert_eq!(s.checkpoint().unwrap(), 1);
        }
        let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
        assert_eq!(s.assumptions().len(), 1);
        assert!(s.ask("?- tc(d, c).").unwrap());
        s.pop_assumption().unwrap();
        assert!(!s.ask("?- tc(d, c).").unwrap());
    }

    /// An injected append fault must abort the mutation without
    /// committing it to memory *or* leaving a durable trace.
    #[cfg(feature = "failpoints")]
    #[test]
    fn wal_append_fault_aborts_the_mutation() {
        use hdl_base::failpoint::{self, FaultSpec};
        let dir = TempDir::new("durable-fault");
        let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
        s.load(PROGRAM).unwrap();
        failpoint::configure("persist::wal_append", FaultSpec::erroring(1).fires(1), 7);
        let f = parse_fact(&mut s, "edge(d, e).");
        let denied = s.assert_fact(f.clone());
        failpoint::clear();
        assert!(denied.is_err());
        assert!(!s.ask("?- tc(a, e).").unwrap());
        // Retrying after the fault clears works, and the retry (not the
        // aborted attempt) is what a reopen restores.
        s.assert_fact(f).unwrap();
        assert!(s.ask("?- tc(a, e).").unwrap());
        drop(s);
        let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
        assert!(s.ask("?- tc(a, e).").unwrap());
    }

    /// Incremental retraction maintains the in-memory model without
    /// changing what hits the WAL: a `Retract` record replays to the
    /// exact same durable state whether or not the writer had a
    /// materialized model, byte for byte.
    #[test]
    fn incremental_retractions_replay_byte_identically() {
        let dir = TempDir::new("durable-incremental");
        let live_image;
        {
            let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
            s.load(PROGRAM).unwrap();
            // Materialize, then mutate through the incremental path.
            s.model().unwrap();
            let f = parse_fact(&mut s, "edge(a, c).");
            s.assert_fact(f).unwrap();
            let g = parse_fact(&mut s, "edge(b, c).");
            assert!(s.retract_fact(&g).unwrap());
            let stats = s.maintenance_stats().unwrap();
            assert_eq!(stats.full_builds, 1, "only the initial build");
            // `back`'s hypothetical premise puts `tc` in a hyp-goal
            // cone, so both mutations take the conservative reduced
            // recompute rather than fact-level DRed — still incremental
            // (no full rebuild, no domain rebuild).
            assert_eq!(stats.conservative_updates, 2);
            assert_eq!(stats.domain_rebuilds, 0);
            assert!(s.ask("?- tc(a, d).").unwrap(), "rerouted via edge(a, c)");
            live_image = encode_checkpoint(
                1,
                0,
                s.symbols(),
                s.rulebase(),
                s.database(),
                s.assumptions(),
            );
        }
        // Recovery replays the Retract record cold (no model), yet the
        // durable state it reconstructs is identical.
        let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
        assert!(!s.is_materialized(), "models are not persisted");
        let recovered_image = encode_checkpoint(
            1,
            0,
            s.symbols(),
            s.rulebase(),
            s.database(),
            s.assumptions(),
        );
        assert_eq!(live_image, recovered_image, "byte-identical state");
        // And a fresh materialization over the recovered state agrees
        // with the incrementally maintained one.
        assert!(s.ask("?- tc(a, d).").unwrap());
        assert!(!s.ask("?- edge(b, c).").unwrap());
        let model_facts = s.model().unwrap().len();
        assert!(model_facts > 0);
    }

    /// Group-committed sessions replay to the exact same state as
    /// direct-committed ones: many sessions hammer one committer
    /// concurrently, and each reopened world matches its writer.
    #[test]
    fn grouped_sessions_recover_identically() {
        let committer = GroupCommitter::new();
        let dirs: Vec<TempDir> = (0..4).map(|i| TempDir::new(&format!("grp-{i}"))).collect();
        std::thread::scope(|scope| {
            for (i, dir) in dirs.iter().enumerate() {
                let committer = Arc::clone(&committer);
                scope.spawn(move || {
                    let mut s =
                        DurableSession::open_grouped(dir.path(), FsyncPolicy::Always, committer)
                            .unwrap();
                    s.load(PROGRAM).unwrap();
                    for j in 0..10 {
                        let f = parse_fact(&mut s, &format!("edge(t{i}_{j}, a)."));
                        s.assert_fact(f).unwrap();
                    }
                    let g = parse_fact(&mut s, &format!("edge(t{i}_0, a)."));
                    assert!(s.retract_fact(&g).unwrap());
                });
            }
        });
        assert_eq!(committer.stats().commits, 4 * 12);
        committer.shutdown();
        for (i, dir) in dirs.iter().enumerate() {
            let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
            assert!(!s.ask(&format!("?- edge(t{i}_0, a).")).unwrap());
            assert!(s.ask(&format!("?- tc(t{i}_9, d).")).unwrap());
            assert_eq!(s.recovery_report().unwrap().records_truncated, 0);
        }
    }

    /// Pipelined mode: mutations return before durability, staged
    /// records flush into one submission per `take_pending_commits`
    /// call, checkpoints drain in-flight commits, and recovery sees the
    /// exact same world as a blocking session would.
    #[test]
    fn pipelined_sessions_ack_late_and_recover_identically() {
        let committer = GroupCommitter::new();
        let dir = TempDir::new("pipelined");
        {
            let mut s = DurableSession::open_grouped_pipelined(
                dir.path(),
                FsyncPolicy::Always,
                Arc::clone(&committer),
            )
            .unwrap();
            s.load(PROGRAM).unwrap();
            let mut tickets = s.take_pending_commits();
            assert_eq!(tickets.len(), 1, "pipelined mode yields tickets");
            // Several mutations without collecting: the records stage up
            // and flush as ONE submission — a window costs one ticket,
            // not eight.
            for j in 0..8 {
                let f = parse_fact(&mut s, &format!("edge(p{j}, a)."));
                s.assert_fact(f).unwrap();
            }
            let batch = s.take_pending_commits();
            assert_eq!(batch.len(), 1, "a whole window flushes as one submission");
            assert!(s.take_pending_commits().is_empty(), "nothing staged twice");
            tickets.extend(batch);
            // Checkpoint must drain the pipeline before rotating.
            assert_eq!(s.checkpoint().unwrap(), 1);
            let f = parse_fact(&mut s, "edge(post, a).");
            s.assert_fact(f).unwrap();
            s.flush_commits().unwrap();
            for t in tickets {
                t.wait().unwrap();
            }
        }
        let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
        let report = s.recovery_report().unwrap().clone();
        assert_eq!(report.checkpoint_epoch, 1);
        assert_eq!(report.records_truncated, 0);
        assert!(s.ask("?- tc(p7, d).").unwrap());
        assert!(s.ask("?- tc(post, d).").unwrap());
        committer.shutdown();
    }

    #[test]
    fn ephemeral_sessions_refuse_checkpoints() {
        let mut s = DurableSession::ephemeral();
        s.load("p(a).").unwrap();
        assert!(!s.is_durable());
        assert!(s.checkpoint().is_err());
        assert!(s.recovery_report().is_none());
    }

    #[test]
    fn reopen_is_idempotent_when_nothing_changed() {
        let dir = TempDir::new("durable-idem");
        {
            let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
            s.load(PROGRAM).unwrap();
        }
        for _ in 0..3 {
            let mut s = DurableSession::open(dir.path(), FsyncPolicy::Always).unwrap();
            assert!(s.ask("?- tc(a, d).").unwrap());
        }
    }
}
