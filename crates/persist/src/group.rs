//! Group commit: one fsync per *batch* of concurrent mutations.
//!
//! Per-mutation fsync caps durable write throughput at the fsync rate
//! of the device (BENCH_persist.json: ~6.3k/s `always` vs ~512k/s
//! `never` on the reference host). A multi-tenant server has many
//! sessions appending concurrently, which is exactly the shape group
//! commit exploits: a dedicated committer thread drains every pending
//! mutation, appends all of their record groups, and then issues **one
//! fsync per WAL file touched in the batch** — so a batch of hundreds
//! of mutations pays a handful of fsyncs instead of hundreds.
//!
//! The ack-after-commit protocol is preserved exactly: a submitter
//! blocks in `GroupCommitter::commit` until the fsync covering its
//! records has returned, and only then does the session apply the
//! mutation to memory and ack the client. Crash recovery is therefore
//! byte-for-byte the same contract as the direct path — every acked
//! mutation is on disk, and a crash mid-batch can only lose records
//! that were never acked (the kill-matrix in `tests/crash_recovery.rs`
//! exercises both paths at the same crash sites, which live in
//! [`WalWriter::append_group`] / [`WalWriter::sync_commits`] and are
//! shared by construction).
//!
//! Deep batches need *pipelining*: if every writer holds its session
//! lock while blocked on the fsync, a WAL can never have more than one
//! commit in flight and batching degenerates to one commit per sync.
//! `GroupCommitter::submit` is the non-blocking half — enqueue the
//! records, get a [`CommitTicket`], release the session lock so the
//! next connection can stack its commit behind yours, and `wait` the
//! ticket before acking the client. The durability contract is
//! unchanged (nothing is acked before its fsync); only the *lock* no
//! longer spans the wait.
//!
//! Ordering: submissions against the same WAL are appended in
//! submission order (the queue is FIFO and the committer never reorders
//! within a batch), so each tenant's log remains a prefix-consistent
//! mutation sequence. Submissions against different WALs are
//! independent worlds and carry no ordering contract.

use crate::wal::WalWriter;
use hdl_base::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A pending group commit: the receipt for one submitted record group.
///
/// Produced by the pipelined commit path (`GroupCommitter::submit`):
/// the submitter enqueues its records without blocking, keeps doing
/// useful work (applying the mutation to memory, releasing its session
/// lock so other writers can stack into the same batch), and calls
/// [`wait`](CommitTicket::wait) before acking anything to a client.
/// Dropping a ticket without waiting forfeits the durability guarantee
/// for that ack — the records are still committed, but the submitter
/// never learns when (or whether) they landed.
#[derive(Debug)]
pub struct CommitTicket {
    rx: mpsc::Receiver<Result<()>>,
}

impl CommitTicket {
    /// Blocks until the fsync pass covering the submitted records has
    /// returned, yielding the commit result. A dead committer yields an
    /// error rather than hanging.
    pub fn wait(self) -> Result<()> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(Error::Invalid("group committer died".into())))
    }
}

/// A tenant's WAL writer plus its synced-symbol watermark, shared
/// between the session-owned observer, the `DurableSession` (checkpoint
/// rotation), and — in group mode — the committer thread.
#[derive(Debug)]
pub(crate) struct SharedWal {
    /// The appender for the tenant's active WAL file.
    pub writer: WalWriter,
    /// How many symbols (by interning position) the log already covers.
    pub synced: usize,
    /// The checkpoint epoch this WAL belongs to. Updated under the same
    /// lock hold that swaps the writer on rotation, so replication can
    /// snapshot a consistent `(epoch, committed)` position.
    pub epoch: u64,
}

/// One mutation's record group waiting for durability.
struct Submission {
    wal: Arc<Mutex<SharedWal>>,
    payloads: Vec<Vec<u8>>,
    done: mpsc::Sender<Result<()>>,
}

struct QueueState {
    pending: Vec<Submission>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<QueueState>,
    nonempty: Condvar,
    batches: AtomicU64,
    commits: AtomicU64,
    fsync_groups: AtomicU64,
    max_batch: AtomicU64,
}

/// Counters describing how much batching the committer achieved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Batches the committer thread drained.
    pub batches: u64,
    /// Mutations committed through the group path.
    pub commits: u64,
    /// Per-file sync passes issued (≤ one per WAL per batch). The
    /// savings over the direct path are `commits - fsync_groups`.
    pub fsync_groups: u64,
    /// Largest single batch (mutations made durable under one drain).
    pub max_batch: u64,
}

impl GroupCommitStats {
    /// One-line JSON object of the counters (for the server's `stats`
    /// op and BENCH_serve.json). Keys are stable.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"batches\":{},\"commits\":{},\"fsync_groups\":{},\"max_batch\":{}}}",
            self.batches, self.commits, self.fsync_groups, self.max_batch
        )
    }
}

/// The shared committer thread: tenants submit mutation record groups,
/// the committer batches everything pending into one append+sync pass.
///
/// Dropping the last handle (or calling [`shutdown`]) drains the queue
/// before the thread exits, so no submitter is left hanging.
///
/// [`shutdown`]: GroupCommitter::shutdown
pub struct GroupCommitter {
    inner: Arc<Inner>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl GroupCommitter {
    /// Starts the committer thread.
    pub fn new() -> Arc<Self> {
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState {
                pending: Vec::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
            batches: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            fsync_groups: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("hdl-group-commit".into())
            .spawn(move || committer_loop(&worker))
            .expect("spawn group committer");
        Arc::new(GroupCommitter {
            inner,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Submits one mutation's record group against `wal` and blocks
    /// until it is durable (or failed). The caller must not hold the
    /// `wal` lock — the committer takes it to append.
    pub(crate) fn commit(&self, wal: &Arc<Mutex<SharedWal>>, payloads: Vec<Vec<u8>>) -> Result<()> {
        self.submit(wal, payloads).wait()
    }

    /// Enqueues one mutation's record group without waiting. The
    /// returned ticket resolves once the records are durable under the
    /// WAL's fsync policy. Submitting an *empty* payload group is a
    /// drain barrier: its ticket resolves only after every record group
    /// submitted against `wal` before it has been appended and synced
    /// (the queue is FIFO per WAL), and it writes nothing itself.
    pub(crate) fn submit(
        &self,
        wal: &Arc<Mutex<SharedWal>>,
        payloads: Vec<Vec<u8>>,
    ) -> CommitTicket {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock_recover(&self.inner.queue);
            if q.shutdown {
                let _ = tx.send(Err(Error::Invalid("group committer is shut down".into())));
                return CommitTicket { rx };
            }
            q.pending.push(Submission {
                wal: Arc::clone(wal),
                payloads,
                done: tx,
            });
        }
        self.inner.nonempty.notify_one();
        CommitTicket { rx }
    }

    /// A point-in-time view of the batching counters.
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            batches: self.inner.batches.load(Relaxed),
            commits: self.inner.commits.load(Relaxed),
            fsync_groups: self.inner.fsync_groups.load(Relaxed),
            max_batch: self.inner.max_batch.load(Relaxed),
        }
    }

    /// Drains the queue and stops the committer thread. Idempotent;
    /// later submissions fail with a structured error.
    pub fn shutdown(&self) {
        {
            let mut q = lock_recover(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.nonempty.notify_all();
        if let Some(handle) = lock_recover(&self.handle).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn committer_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut q = lock_recover(&inner.queue);
            while q.pending.is_empty() && !q.shutdown {
                q = inner
                    .nonempty
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if q.pending.is_empty() {
                return; // shutdown with nothing left to drain
            }
            std::mem::take(&mut q.pending)
        };
        commit_batch(inner, batch);
    }
}

/// Makes one drained batch durable: group the submissions by WAL
/// (preserving per-WAL submission order), append every group, then sync
/// each touched file once. When the batch spans several WALs the sync
/// passes run on scoped threads — the files are independent, and
/// serializing their fsyncs would make a multi-tenant batch pay
/// `tenants × fsync` of latency instead of roughly one. Results are
/// delivered per submission; an append failure poisons the rest of that
/// WAL's batch (their bytes would land after a known-bad write) but
/// never another tenant's.
fn commit_batch(inner: &Inner, batch: Vec<Submission>) {
    // Count the batch before any ack can be delivered, so the counters
    // never appear to lag the commits they describe.
    inner.batches.fetch_add(1, Relaxed);
    // Empty payload groups are drain barriers, not commits.
    let size = batch.iter().filter(|s| !s.payloads.is_empty()).count() as u64;
    inner.commits.fetch_add(size, Relaxed);
    inner.max_batch.fetch_max(size, Relaxed);

    // Group by WAL identity, keeping first-appearance order.
    let mut groups: Vec<(Arc<Mutex<SharedWal>>, Vec<Submission>)> = Vec::new();
    for sub in batch {
        match groups.iter_mut().find(|(w, _)| Arc::ptr_eq(w, &sub.wal)) {
            Some((_, subs)) => subs.push(sub),
            None => groups.push((Arc::clone(&sub.wal), vec![sub])),
        }
    }

    if groups.len() == 1 {
        let (wal, subs) = groups.pop().expect("one group");
        commit_wal_group(inner, &wal, subs);
    } else {
        std::thread::scope(|scope| {
            for (wal, subs) in groups {
                scope.spawn(move || commit_wal_group(inner, &wal, subs));
            }
        });
    }
}

/// Appends and syncs one WAL's slice of a batch (see [`commit_batch`]).
fn commit_wal_group(inner: &Inner, wal: &Arc<Mutex<SharedWal>>, subs: Vec<Submission>) {
    let mut guard = lock_recover(wal);
    let mut appended: Vec<&Submission> = Vec::with_capacity(subs.len());
    let mut real_commits = 0u32;
    let mut failure: Option<Error> = None;
    for sub in &subs {
        if let Some(e) = &failure {
            let _ = sub.done.send(Err(e.clone()));
            continue;
        }
        if sub.payloads.is_empty() {
            // Barrier: resolves with the sync below, writes nothing.
            appended.push(sub);
            continue;
        }
        let refs: Vec<&[u8]> = sub.payloads.iter().map(|p| p.as_slice()).collect();
        match guard.writer.append_group(&refs) {
            Ok(()) => {
                appended.push(sub);
                real_commits += 1;
            }
            Err(e) => {
                let _ = sub.done.send(Err(e.clone()));
                failure = Some(e);
            }
        }
    }
    let synced = if real_commits == 0 {
        Ok(())
    } else {
        inner.fsync_groups.fetch_add(1, Relaxed);
        guard.writer.sync_commits(real_commits)
    };
    drop(guard);
    for sub in appended {
        let _ = sub.done.send(synced.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::wal::{read_wal, FsyncPolicy};

    fn shared_wal(dir: &TempDir, name: &str) -> Arc<Mutex<SharedWal>> {
        let path = dir.path().join(name);
        let writer = WalWriter::create(&path, 0, FsyncPolicy::Always).unwrap();
        Arc::new(Mutex::new(SharedWal {
            writer,
            synced: 0,
            epoch: 0,
        }))
    }

    #[test]
    fn concurrent_commits_land_in_order_per_wal() {
        let dir = TempDir::new("group-order");
        let committer = GroupCommitter::new();
        let wal_a = shared_wal(&dir, "wal-0.log");
        let wal_b = shared_wal(&dir, "wal-b-0.log");

        std::thread::scope(|scope| {
            for i in 0..8u8 {
                let committer = &committer;
                let wal = if i % 2 == 0 { &wal_a } else { &wal_b };
                scope.spawn(move || {
                    for j in 0..16u8 {
                        committer
                            .commit(wal, vec![vec![i, j], vec![i, j, 0xFF]])
                            .unwrap();
                    }
                });
            }
        });

        let stats = committer.stats();
        assert_eq!(stats.commits, 8 * 16);
        assert!(stats.batches >= 1);
        assert!(stats.fsync_groups >= stats.batches);
        committer.shutdown();

        for wal in [&wal_a, &wal_b] {
            let path = lock_recover(wal).writer.path().to_path_buf();
            let scan = read_wal(&path).unwrap();
            assert_eq!(scan.valid_len, scan.file_len, "no torn tail");
            assert_eq!(scan.records.len(), 4 * 16 * 2);
            // Per submitter, the (i, j) stream must appear in order.
            let mut last: std::collections::HashMap<u8, u8> = Default::default();
            for frame in scan.records.iter().filter(|f| f.payload.len() == 2) {
                let (i, j) = (frame.payload[0], frame.payload[1]);
                if let Some(prev) = last.insert(i, j) {
                    assert!(j > prev, "submitter {i} reordered: {prev} then {j}");
                }
            }
        }
    }

    #[test]
    fn batching_spends_fewer_syncs_than_commits() {
        let dir = TempDir::new("group-batching");
        let committer = GroupCommitter::new();
        let wal = shared_wal(&dir, "wal-0.log");
        std::thread::scope(|scope| {
            for i in 0..4u8 {
                let (committer, wal) = (&committer, &wal);
                scope.spawn(move || {
                    for j in 0..32u8 {
                        committer.commit(wal, vec![vec![i, j]]).unwrap();
                    }
                });
            }
        });
        let stats = committer.stats();
        assert_eq!(stats.commits, 128);
        // One fsync pass per batch here (single WAL); concurrency must
        // have coalesced at least some commits into shared batches.
        assert_eq!(stats.fsync_groups, stats.batches);
        assert!(
            stats.batches < stats.commits,
            "no coalescing happened: {stats:?}"
        );
        assert!(stats.max_batch >= 2);
    }

    #[test]
    fn pipelined_submissions_resolve_and_barrier_drains() {
        let dir = TempDir::new("group-pipelined");
        let committer = GroupCommitter::new();
        let wal = shared_wal(&dir, "wal-0.log");
        // Fire-and-collect: tickets outstanding while more submissions
        // stack up behind them, exactly the pipelined server shape.
        let tickets: Vec<CommitTicket> = (0..32u8)
            .map(|i| committer.submit(&wal, vec![vec![i]]))
            .collect();
        // A barrier submitted after them resolves only once they are on
        // disk — and writes no record of its own.
        committer.commit(&wal, Vec::new()).unwrap();
        let scan = {
            let path = lock_recover(&wal).writer.path().to_path_buf();
            read_wal(&path).unwrap()
        };
        assert_eq!(scan.records.len(), 32, "barrier wrote nothing");
        assert_eq!(scan.valid_len, scan.file_len);
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = committer.stats();
        assert_eq!(stats.commits, 32, "barriers are not commits");
        assert!(
            stats.fsync_groups < 32,
            "pipelined submissions never coalesced: {stats:?}"
        );
    }

    #[test]
    fn shutdown_fails_new_submissions_cleanly() {
        let dir = TempDir::new("group-shutdown");
        let committer = GroupCommitter::new();
        let wal = shared_wal(&dir, "wal-0.log");
        committer.commit(&wal, vec![vec![1]]).unwrap();
        committer.shutdown();
        assert!(committer.commit(&wal, vec![vec![2]]).is_err());
        let path = lock_recover(&wal).writer.path().to_path_buf();
        drop(wal);
        assert_eq!(read_wal(&path).unwrap().records.len(), 1);
    }
}
