//! Tenants: named, isolated worlds multiplexed by one server process.
//!
//! Each tenant owns a [`DurableSession`] (its own persist directory and
//! snapshot lineage under `<root>/tenants/<name>`) and a
//! [`QueryService`] worker pool serving snapshots of that session.
//! Mutations from all tenants funnel through one shared
//! [`GroupCommitter`] so concurrent commits across tenants share fsync
//! passes without ever sharing state: nothing a tenant asserts, assumes,
//! or retracts is visible to any other tenant.
//!
//! Sessions open in *pipelined* group mode: a mutation applies under the
//! tenant's session lock, but the durability wait happens after the lock
//! is released, so concurrent connections (to this tenant or any other)
//! stack their commits into the same batch instead of serializing one
//! fsync behind another. On top of that, [`Tenant::apply_batch`] applies
//! a whole pipeline window of mutations from one connection under a
//! single lock hold — one snapshot, one publish, and one durability wait
//! amortized over the window, mirroring on the CPU side what the group
//! committer does for fsync. The ack protocol is unchanged either way —
//! the mutating call returns (and the new snapshot is published to the
//! query pool) only after every commit ticket resolves, so clients never
//! see an ack, and queries never see data, that could be lost to a
//! crash.
//!
//! Each op of a window is a [`BatchOp`] (the [`hdl_core::OpText`] of a
//! request) and takes the session's one mutation path: parse it with
//! `Session::parse_op`, check the tenant's quotas, then
//! `Session::apply`, whose [`BatchReply`] (an [`hdl_core::Applied`]) the
//! server renders. A refused op's reply kind comes from its
//! `hdl_base::Error` in one place (`From<Error> for TenantError`).
//!
//! Quotas are enforced at admission: a mutation that would exceed the
//! tenant's base-fact or assumption-depth cap is refused *before* it
//! touches the session or the WAL, and queries past the tenant's
//! in-flight cap are shed as `overloaded` without being enqueued.

use crate::replication::ReplicationHandle;
use hdl_base::Json;
use hdl_core::Op;
use hdl_persist::{DurableSession, FsyncPolicy, GroupCommitter, RecoveryReport};
use hdl_service::{Outcome, QueryRequest, QueryService, ServiceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Per-tenant resource limits. `None` means unlimited.
#[derive(Clone, Debug)]
pub struct TenantQuotas {
    /// Cap on base facts a tenant may store (checked at load/assert
    /// admission; the mutation is refused before touching the WAL).
    pub max_base_facts: Option<u64>,
    /// Cap on stacked assumption frames (and on per-query overlay
    /// depth, via the tenant's service config).
    pub max_overlay_depth: Option<u64>,
    /// The tenant's share of queued queries; past it submissions shed
    /// as [`Outcome::Overloaded`].
    pub queue_cap: Option<usize>,
    /// Concurrent requests one tenant may have in flight across all its
    /// connections; past it queries are refused at admission.
    pub max_in_flight: usize,
    /// Default per-query fact budget (a request may lower, never raise
    /// it).
    pub query_max_facts: Option<u64>,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas {
            max_base_facts: None,
            max_overlay_depth: None,
            queue_cap: None,
            max_in_flight: 64,
            query_max_facts: None,
        }
    }
}

/// A structured tenant-layer failure: the reply `kind` plus a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantError {
    /// Machine-readable reply kind (`quota`, `query`, `protocol`,
    /// `unstratified`, `internal`, `bad-tenant-name`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl TenantError {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        TenantError {
            kind,
            message: message.into(),
        }
    }

    fn quota(message: impl Into<String>) -> Self {
        Self::new("quota", message)
    }
}

/// A refused op's reply kind: `protocol` for an op that does not fit
/// (a retract of several facts, a pop with no frame), `unstratified` for
/// a load that would leave the rulebase with recursion through negation,
/// `query` for every other parse, validation or log failure.
impl From<hdl_base::Error> for TenantError {
    fn from(e: hdl_base::Error) -> Self {
        let kind = match e {
            hdl_base::Error::Protocol(_) => "protocol",
            hdl_base::Error::NotStratified { .. } => "unstratified",
            _ => "query",
        };
        TenantError::new(kind, e.to_string())
    }
}

/// One mutation in a pipeline window (see [`Tenant::apply_batch`]):
/// borrowed text, built straight from parsed requests.
pub use hdl_core::OpText as BatchOp;

/// The per-op result of a window.
pub use hdl_core::Applied as BatchReply;

/// The result of one [`Tenant::apply_batch`] window: per-op replies
/// plus the window-level degraded-ack marker.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per op, mirroring the input order.
    pub replies: Vec<Result<BatchReply, TenantError>>,
    /// Set when the window applied and is locally durable but the
    /// `sync` replication quorum wait timed out: `(replicated,
    /// required)` follower counts. The mutations are *not* rolled back
    /// — they are durable here and will reach the followers eventually
    /// — but the client must be told its quorum was not met.
    pub degraded: Option<(usize, usize)>,
}

/// How the registry builds tenants.
#[derive(Clone)]
pub struct RegistryConfig {
    /// Root directory; each tenant persists under
    /// `<root>/tenants/<name>`. `None` = all tenants ephemeral.
    pub root: Option<PathBuf>,
    /// Fsync policy for every tenant WAL.
    pub policy: FsyncPolicy,
    /// Shared group committer; when set, tenant WAL commits are batched
    /// across tenants into shared fsync passes.
    pub committer: Option<Arc<GroupCommitter>>,
    /// Query workers per tenant.
    pub workers: usize,
    /// Quotas applied to every tenant.
    pub quotas: TenantQuotas,
    /// Shared link to the replication shipper (primaries with
    /// `--replicate-to`): tenants kick it on every commit and `sync`
    /// tenants block their ack on its quorum scoreboard.
    pub replication: Option<Arc<ReplicationHandle>>,
    /// Server-wide default replication quorum a mutation ack waits for
    /// (0 = async). Tenants may override it via the protocol `open` op.
    pub sync_replicas: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            root: None,
            policy: FsyncPolicy::Always,
            committer: None,
            workers: 1,
            quotas: TenantQuotas::default(),
            replication: None,
            sync_replicas: 0,
        }
    }
}

/// One tenant: a durable session plus its query pool and counters.
pub struct Tenant {
    name: String,
    session: Mutex<DurableSession>,
    service: QueryService,
    quotas: TenantQuotas,
    in_flight: AtomicUsize,
    mutations: AtomicU64,
    quota_trips: AtomicU64,
    /// Mutation sequence, assigned under the session lock — the order
    /// snapshots were taken in, used to keep publishes monotonic when
    /// durability waits resolve out of order across connections.
    publish_seq: AtomicU64,
    /// Sequence of the newest snapshot actually published.
    published: Mutex<u64>,
    /// Set when a group commit resolved to an error: the in-memory
    /// session is then ahead of a failed log and further mutations are
    /// refused until the process is restarted (recovery re-reads disk).
    poisoned: AtomicBool,
    /// Link to the replication shipper (primaries only).
    replication: Option<Arc<ReplicationHandle>>,
    /// Follower acks a mutation waits for before the client is acked
    /// (0 = async). Set from the registry default, overridable per
    /// tenant via the protocol `open` op.
    sync_replicas: AtomicUsize,
}

fn lock_session(m: &Mutex<DurableSession>) -> MutexGuard<'_, DurableSession> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Valid tenant names are short path-safe identifiers: they become
/// directory names under the persist root, so nothing resembling a path
/// (separators, dots, empty) is accepted.
pub fn validate_tenant_name(name: &str) -> Result<(), TenantError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(TenantError::new(
            "bad-tenant-name",
            format!("tenant name `{name}` is not [A-Za-z0-9_-]{{1,64}}"),
        ))
    }
}

impl Tenant {
    fn open(name: &str, config: &RegistryConfig) -> Result<Tenant, TenantError> {
        let session = match &config.root {
            None => DurableSession::ephemeral(),
            Some(root) => {
                let dir = root.join("tenants").join(name);
                let opened = match &config.committer {
                    Some(c) => {
                        DurableSession::open_grouped_pipelined(&dir, config.policy, Arc::clone(c))
                    }
                    None => DurableSession::open(&dir, config.policy),
                };
                opened.map_err(|e| {
                    TenantError::new("internal", format!("cannot open tenant `{name}`: {e}"))
                })?
            }
        };
        let service = QueryService::with_config(
            session.snapshot(),
            ServiceConfig {
                workers: config.workers,
                queue_cap: config.quotas.queue_cap,
                max_facts: config.quotas.query_max_facts,
                max_overlay_depth: config.quotas.max_overlay_depth,
                ..ServiceConfig::default()
            },
        );
        Ok(Tenant {
            name: name.to_owned(),
            session: Mutex::new(session),
            service,
            quotas: config.quotas.clone(),
            in_flight: AtomicUsize::new(0),
            mutations: AtomicU64::new(0),
            quota_trips: AtomicU64::new(0),
            publish_seq: AtomicU64::new(0),
            published: Mutex::new(0),
            poisoned: AtomicBool::new(false),
            replication: config.replication.clone(),
            sync_replicas: AtomicUsize::new(config.sync_replicas),
        })
    }

    /// The replication quorum this tenant's mutation acks wait for
    /// (0 = asynchronous).
    pub fn sync_replicas(&self) -> usize {
        self.sync_replicas.load(Relaxed)
    }

    /// Sets the per-tenant replication quorum. Callers validate `n`
    /// against the configured target count before calling.
    pub fn set_sync_replicas(&self, n: usize) {
        self.sync_replicas.store(n, Relaxed);
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether mutations are write-ahead logged.
    pub fn is_durable(&self) -> bool {
        lock_session(&self.session).is_durable()
    }

    /// The active checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        lock_session(&self.session).epoch()
    }

    /// The quotas in force.
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
    }

    /// The tenant's query pool (e.g. for stats).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Runs one query, admission-checked against the tenant's in-flight
    /// cap. The cap is taken optimistically (fetch-add then check) so
    /// concurrent submitters cannot race past it together.
    pub fn query(&self, request: QueryRequest) -> Outcome {
        if self.in_flight.fetch_add(1, Relaxed) >= self.quotas.max_in_flight {
            self.in_flight.fetch_sub(1, Relaxed);
            self.quota_trips.fetch_add(1, Relaxed);
            return Outcome::Overloaded;
        }
        let outcome = self.service.submit(request).wait();
        self.in_flight.fetch_sub(1, Relaxed);
        outcome
    }

    /// Loads program text (rules and facts), enforcing the base-fact
    /// quota before anything reaches the session or the WAL.
    pub fn load(&self, program: &str) -> Result<(), TenantError> {
        self.apply(BatchOp::Load(program)).map(drop)
    }

    /// Applies one op as a window of its own (see
    /// [`Tenant::apply_batch`]).
    pub fn apply(&self, op: BatchOp<'_>) -> Result<BatchReply, TenantError> {
        self.apply_batch(&[op])
            .replies
            .pop()
            .expect("one reply per op")
    }

    /// Applies a pipeline window of mutations under ONE session lock
    /// hold, with ONE snapshot, ONE publish, and ONE durability wait for
    /// the whole window. Each op gets its own result — a bad program in
    /// the middle fails alone while its neighbours apply — but the ack
    /// contract is per-window: nothing here returns until every applied
    /// op is durable under the tenant's fsync policy.
    ///
    /// This is what makes deep group-commit batches affordable on the
    /// server: the per-window costs of a pipelined connection (the
    /// snapshot, which copies the database and rulebase and shares the
    /// symbol table, and the publish) are paid once per window, the same
    /// way the committer amortizes the fsync.
    pub fn apply_batch(&self, ops: &[BatchOp<'_>]) -> BatchOutcome {
        if ops.is_empty() {
            return BatchOutcome {
                replies: Vec::new(),
                degraded: None,
            };
        }
        if let Err(e) = self.admit() {
            return BatchOutcome {
                replies: ops.iter().map(|_| Err(e.clone())).collect(),
                degraded: None,
            };
        }
        let mut session = lock_session(&self.session);
        let mut replies: Vec<Result<BatchReply, TenantError>> = Vec::with_capacity(ops.len());
        let mut applied = 0u64;
        for op in ops {
            let reply = self.apply_locked(&mut session, *op);
            if reply.is_ok() {
                applied += 1;
            }
            replies.push(reply);
        }
        let mut degraded = None;
        if applied > 0 {
            match self.committed(session, applied) {
                Ok(d) => degraded = d,
                // Durability failed: no op in this window may be acked
                // as applied, whatever the in-memory session says.
                Err(e) => {
                    for r in replies.iter_mut() {
                        if r.is_ok() {
                            *r = Err(e.clone());
                        }
                    }
                }
            }
        }
        BatchOutcome { replies, degraded }
    }

    /// One op against the locked session: parse, quota admission,
    /// apply. No snapshot, no publish, no durability wait — the batch
    /// driver owns those.
    fn apply_locked(
        &self,
        session: &mut DurableSession,
        text: BatchOp<'_>,
    ) -> Result<BatchReply, TenantError> {
        if let (BatchOp::Assume(_), Some(cap)) = (text, self.quotas.max_overlay_depth) {
            let depth = session.assumptions().len() as u64;
            if depth >= cap {
                return Err(self.quota_trip(format!(
                    "assumption-depth quota: {depth} frames stacked, cap {cap}"
                )));
            }
        }
        let op = session.parse_op(text)?;
        if let (Op::Program { facts, .. }, Some(cap)) = (&op, self.quotas.max_base_facts) {
            let current = session.database().len() as u64;
            if current + facts.len() as u64 > cap {
                return Err(self.quota_trip(format!(
                    "base-fact quota: {current} stored + {} incoming > cap {cap}",
                    facts.len()
                )));
            }
        }
        Ok(session.apply(op)?)
    }

    /// Counts a quota refusal and builds its error.
    fn quota_trip(&self, message: String) -> TenantError {
        self.quota_trips.fetch_add(1, Relaxed);
        TenantError::quota(message)
    }

    /// Compacts the tenant's WAL into a checkpoint; returns the epoch.
    /// Drains the tenant's in-flight group commits first (the rotation
    /// deletes the log they target).
    pub fn checkpoint(&self) -> Result<u64, TenantError> {
        self.admit()?;
        let mut session = lock_session(&self.session);
        session
            .checkpoint()
            .map_err(|e| TenantError::new("protocol", e.to_string()))
    }

    /// A handle for reading this tenant's committed WAL bytes, used by
    /// the replication shipper. `None` for in-memory tenants.
    pub fn wal_tap(&self) -> Option<hdl_persist::WalTap> {
        lock_session(&self.session).wal_tap()
    }

    /// Refuses work on a tenant whose log failed (see `poisoned`).
    fn admit(&self) -> Result<(), TenantError> {
        if self.poisoned.load(Relaxed) {
            return Err(TenantError::new(
                "internal",
                "tenant persistence failed; restart the server to recover from disk",
            ));
        }
        Ok(())
    }

    /// Completes a window of mutations that already applied under the
    /// session lock: snapshot and sequence once for the window, release
    /// the lock, wait every durability ticket, then count and publish.
    /// The waits happen *outside* the lock — the whole point of
    /// pipelined mode — so the publish must be kept monotonic by
    /// sequence (a slow waiter must not regress the pool to a pre-ack
    /// snapshot; skipping is safe because the newer published snapshot
    /// already contains these mutations).
    ///
    /// On a replicating primary the shipper is kicked the moment the
    /// lock drops, and a `sync` tenant, once its window is durable,
    /// blocks on a follower-ack quorum covering it — bounded by the
    /// replication-wait deadline, degrading to
    /// `Ok(Some((replicated, required)))` rather than hanging the
    /// window.
    fn committed(
        &self,
        mut session: MutexGuard<'_, DurableSession>,
        applied: u64,
    ) -> Result<Option<(usize, usize)>, TenantError> {
        let tickets = session.take_pending_commits();
        let snapshot = session.snapshot();
        let seq = self.publish_seq.fetch_add(1, Relaxed) + 1;
        let need = self.sync_replicas.load(Relaxed);
        // The quorum must cover this window's records. With a pipelined
        // session the committer appends them only after the hand-off
        // above, so the log position is read once the tickets are done.
        let tap = match (&self.replication, need) {
            (Some(_), n) if n > 0 => session.wal_tap(),
            _ => None,
        };
        drop(session);
        if let Some(rep) = &self.replication {
            rep.kick();
        }
        for ticket in tickets {
            if let Err(e) = ticket.wait() {
                self.poisoned.store(true, Relaxed);
                return Err(TenantError::new(
                    "internal",
                    format!("durability failure: {e}; tenant refuses further mutations"),
                ));
            }
        }
        {
            let mut published = self
                .published
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if seq > *published {
                *published = seq;
                self.service.publish(snapshot);
            }
        }
        self.mutations.fetch_add(applied, Relaxed);
        let sync_at = tap.map(|tap| tap.position());
        let degraded = match (&self.replication, sync_at) {
            (Some(rep), Some(at)) => {
                let need = need.min(rep.targets());
                let got = rep.wait_quorum(&self.name, at, need);
                (got < need).then_some((got, need))
            }
            _ => None,
        };
        Ok(degraded)
    }

    /// Tenant-level counters and state as a JSON object.
    pub fn stats_json(&self) -> Json {
        let session = lock_session(&self.session);
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("durable", Json::Bool(session.is_durable())),
            ("epoch", Json::num(session.epoch() as f64)),
            ("base_facts", Json::num(session.database().len() as f64)),
            (
                "assumption_frames",
                Json::num(session.assumptions().len() as f64),
            ),
            ("in_flight", Json::num(self.in_flight.load(Relaxed) as f64)),
            ("mutations", Json::num(self.mutations.load(Relaxed) as f64)),
            (
                "quota_trips",
                Json::num(self.quota_trips.load(Relaxed) as f64),
            ),
            (
                "sync_replicas",
                Json::num(self.sync_replicas.load(Relaxed) as f64),
            ),
            (
                "recovery",
                session
                    .recovery_report()
                    .map_or(Json::Null, RecoveryReport::to_json),
            ),
        ])
    }

    /// Total mutations applied (acked) on this tenant.
    pub fn mutation_count(&self) -> u64 {
        self.mutations.load(Relaxed)
    }

    /// Total admissions refused for quota reasons.
    pub fn quota_trip_count(&self) -> u64 {
        self.quota_trips.load(Relaxed)
    }
}

/// The set of live tenants, created on first `open`.
pub struct Registry {
    config: RegistryConfig,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Registry {
        Registry {
            config,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns the named tenant, creating (and, when durable, recovering)
    /// it on first use. Creation holds the registry lock so two
    /// connections opening the same name cannot both recover the same
    /// directory.
    pub fn open(&self, name: &str) -> Result<Arc<Tenant>, TenantError> {
        validate_tenant_name(name)?;
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tenants.get(name) {
            return Ok(Arc::clone(t));
        }
        let tenant = Arc::new(Tenant::open(name, &self.config)?);
        tenants.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// All live tenants (drain, checkpoint-on-shutdown, stats).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect()
    }

    /// Number of live tenants.
    pub fn len(&self) -> usize {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no tenant has been opened yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checkpoints every durable tenant (graceful-shutdown path);
    /// returns per-tenant outcomes for logging.
    pub fn checkpoint_all(&self) -> Vec<(String, Result<u64, TenantError>)> {
        self.tenants()
            .into_iter()
            .filter(|t| t.is_durable())
            .map(|t| (t.name().to_owned(), t.checkpoint()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ephemeral_registry(quotas: TenantQuotas) -> Registry {
        Registry::new(RegistryConfig {
            quotas,
            ..RegistryConfig::default()
        })
    }

    #[test]
    fn names_are_validated() {
        for good in ["a", "tenant-1", "A_b-C", &"x".repeat(64)] {
            assert!(validate_tenant_name(good).is_ok(), "{good}");
        }
        for bad in ["", "a/b", "..", "a b", "café", &"x".repeat(65)] {
            assert!(validate_tenant_name(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn open_is_idempotent_per_name() {
        let registry = ephemeral_registry(TenantQuotas::default());
        let a1 = registry.open("a").unwrap();
        let a2 = registry.open("a").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let b = registry.open("b").unwrap();
        assert!(!Arc::ptr_eq(&a1, &b));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn tenants_are_isolated_worlds() {
        let registry = ephemeral_registry(TenantQuotas::default());
        let a = registry.open("a").unwrap();
        let b = registry.open("b").unwrap();
        a.load("p(x).").unwrap();
        b.load("p(y).").unwrap();
        a.apply(BatchOp::Assume("q(z)")).unwrap();
        assert_eq!(a.query(QueryRequest::ask("p(x)")), Outcome::True);
        assert_eq!(b.query(QueryRequest::ask("p(x)")), Outcome::False);
        assert_eq!(a.query(QueryRequest::ask("q(z)")), Outcome::True);
        assert_eq!(b.query(QueryRequest::ask("q(z)")), Outcome::False);
    }

    #[test]
    fn base_fact_quota_refuses_before_applying() {
        let registry = ephemeral_registry(TenantQuotas {
            max_base_facts: Some(2),
            ..TenantQuotas::default()
        });
        let t = registry.open("t").unwrap();
        t.load("p(a). p(b).").unwrap();
        let err = t.load("p(c).").unwrap_err();
        assert_eq!(err.kind, "quota");
        assert_eq!(t.quota_trip_count(), 1);
        // The refused fact is not there; the admitted ones are.
        assert_eq!(t.query(QueryRequest::ask("p(c)")), Outcome::False);
        assert_eq!(t.query(QueryRequest::ask("p(b)")), Outcome::True);
        // Rules don't count against the fact quota.
        t.load("q(X) :- p(X).").unwrap();
    }

    #[test]
    fn assumption_depth_quota_trips() {
        let registry = ephemeral_registry(TenantQuotas {
            max_overlay_depth: Some(2),
            ..TenantQuotas::default()
        });
        let t = registry.open("t").unwrap();
        let assume = |text| t.apply(BatchOp::Assume(text));
        assert_eq!(assume("h(a)"), Ok(BatchReply::Assumed { frames: 1 }));
        assert_eq!(assume("h(b)"), Ok(BatchReply::Assumed { frames: 2 }));
        assert_eq!(assume("h(c)").unwrap_err().kind, "quota");
        // Popping frees a slot.
        assert_eq!(
            t.apply(BatchOp::Pop),
            Ok(BatchReply::Popped {
                popped: 1,
                frames: 1
            })
        );
        assert_eq!(assume("h(c)"), Ok(BatchReply::Assumed { frames: 2 }));
    }

    #[test]
    fn in_flight_cap_sheds_structurally() {
        let registry = ephemeral_registry(TenantQuotas {
            max_in_flight: 0,
            ..TenantQuotas::default()
        });
        let t = registry.open("t").unwrap();
        assert_eq!(t.query(QueryRequest::ask("p(a)")), Outcome::Overloaded);
        assert_eq!(t.quota_trip_count(), 1);
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let pid = std::process::id();
            let n = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos();
            let dir = std::env::temp_dir().join(format!("hdl-tenant-{tag}-{pid}-{n}"));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Concurrent connections to one durable tenant: mutations pipeline
    /// through the group committer (deep batches, not one fsync each),
    /// acked facts are immediately query-visible, and a reopen recovers
    /// every acked mutation.
    #[test]
    fn concurrent_mutators_pipeline_and_recover() {
        let dir = TempDir::new("pipeline");
        let committer = GroupCommitter::new();
        let config = RegistryConfig {
            root: Some(dir.0.clone()),
            policy: FsyncPolicy::Always,
            committer: Some(Arc::clone(&committer)),
            ..RegistryConfig::default()
        };
        let registry = Registry::new(config.clone());
        let t = registry.open("t").unwrap();
        // Each writer's first commit waits in one batch until all eight
        // are queued, so the overlap the assertion below needs is forced
        // rather than left to scheduling.
        committer.hold_next_batch(8);
        std::thread::scope(|scope| {
            for c in 0..8 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for j in 0..10 {
                        t.load(&format!("p(c{c}_{j}).")).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.mutation_count(), 80);
        // Every acked mutation is query-visible (publish is monotonic).
        assert_eq!(t.query(QueryRequest::ask("p(c7_9)")), Outcome::True);
        assert_eq!(t.query(QueryRequest::ask("p(c0_0)")), Outcome::True);
        let stats = committer.stats();
        assert!(stats.commits >= 80);
        assert!(
            stats.fsync_groups < stats.commits,
            "no batching despite concurrent mutators: {stats:?}"
        );
        drop(t);
        drop(registry);
        // Reopen from disk: all 80 acked facts must be there.
        let registry = Registry::new(config);
        let t = registry.open("t").unwrap();
        assert_eq!(t.query(QueryRequest::ask("p(c3_5)")), Outcome::True);
        committer.shutdown();
    }

    /// A sync ack waits for a quorum covering the window's own records.
    /// In a pipelined session the committer appends them after the
    /// session lock drops; here it holds the batch until a second
    /// tenant's commit arrives, and the one follower stays at the
    /// position before the window, so the ack must degrade. A position
    /// read at the hand-off predates the window and would pass.
    #[test]
    fn sync_ack_waits_for_the_windows_own_records() {
        let dir = TempDir::new("sync-own-records");
        let committer = GroupCommitter::new();
        let replication = ReplicationHandle::new(1);
        let registry = Registry::new(RegistryConfig {
            root: Some(dir.0.clone()),
            policy: FsyncPolicy::Always,
            committer: Some(Arc::clone(&committer)),
            replication: Some(Arc::clone(&replication)),
            sync_replicas: 1,
            ..RegistryConfig::default()
        });
        let t = registry.open("t").unwrap();
        let other = registry.open("u").unwrap();
        other.set_sync_replicas(0);
        let before = t.wal_tap().expect("durable tenant").position();
        replication.tracker().record("t", 0, before);
        committer.hold_next_batch(2);
        std::thread::scope(|scope| {
            let sync = scope.spawn(|| t.apply_batch(&[BatchOp::Load("p(a).")]));
            // The outcome holds however the two commits interleave; the
            // pause only makes `t` hand its window over first, which is
            // when a position read at the hand-off goes wrong.
            std::thread::sleep(std::time::Duration::from_millis(50));
            other.load("q(b).").unwrap();
            let outcome = sync.join().expect("sync writer");
            assert_eq!(outcome.replies, [Ok(BatchReply::Loaded)]);
            assert_eq!(outcome.degraded, Some((0, 1)));
        });
        committer.shutdown();
    }

    /// A window applies as one unit — one publish, every op its own
    /// result — and a bad op mid-window fails alone while its
    /// neighbours land.
    #[test]
    fn batch_window_isolates_per_op_failures() {
        let registry = ephemeral_registry(TenantQuotas::default());
        let t = registry.open("t").unwrap();
        let outcome = t.apply_batch(&[
            BatchOp::Load("p(a)."),
            BatchOp::Load("p(::syntax error"),
            BatchOp::Pop, // no frame stacked: protocol error
            BatchOp::Assume("h(x)"),
            BatchOp::Load("p(b)."),
        ]);
        assert_eq!(outcome.degraded, None, "no sync policy, no degrade");
        let replies = outcome.replies;
        assert_eq!(replies[0], Ok(BatchReply::Loaded));
        assert_eq!(replies[1].as_ref().unwrap_err().kind, "query");
        assert_eq!(replies[2].as_ref().unwrap_err().kind, "protocol");
        assert_eq!(replies[3], Ok(BatchReply::Assumed { frames: 1 }));
        assert_eq!(replies[4], Ok(BatchReply::Loaded));
        // Only the applied ops count, and all of them are visible.
        assert_eq!(t.mutation_count(), 3);
        assert_eq!(t.query(QueryRequest::ask("p(a)")), Outcome::True);
        assert_eq!(t.query(QueryRequest::ask("p(b)")), Outcome::True);
        assert_eq!(t.query(QueryRequest::ask("h(x)")), Outcome::True);
    }

    #[test]
    fn refused_ops_carry_their_wire_kinds() {
        let registry = ephemeral_registry(TenantQuotas::default());
        let t = registry.open("t").unwrap();
        t.load("p(a). e(a). n(X) :- e(X), ~m(X).").unwrap();
        // Unstratified: no engine could evaluate it, so it is refused
        // before the log.
        let err = t.load("m(X) :- e(X), n(X).").unwrap_err();
        assert_eq!(err.kind, "unstratified");
        assert!(err.message.starts_with("program is not stratified"));
        assert_eq!(t.query(QueryRequest::ask("n(a)")), Outcome::True);
        let retract = |text| t.apply(BatchOp::Retract(text));
        assert_eq!(retract("p(a)"), Ok(BatchReply::Retracted { removed: true }));
        assert_eq!(
            retract("p(a)"),
            Ok(BatchReply::Retracted { removed: false })
        );
        assert_eq!(t.apply(BatchOp::Pop).unwrap_err().kind, "protocol");
        assert_eq!(retract("p(a), p(b)").unwrap_err().kind, "protocol");
        assert_eq!(t.checkpoint().unwrap_err().kind, "protocol");
    }
}
