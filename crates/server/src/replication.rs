//! Primary/follower replication at the server layer: the shipper pass on
//! the primary, replica tenants and promotion on the follower, and the
//! fencing epoch that makes failover safe against split brain.
//!
//! The persist layer ([`hdl_persist::replicate`]) defines *what* moves —
//! committed WAL windows addressed by `(epoch, offset)`, checkpoint
//! images across rotations — and this module moves it over the same
//! newline-JSON protocol clients speak:
//!
//! - a **primary** started with `--replicate-to ADDR` (repeatable) runs
//!   **one** [`Shipper`] thread fanning out to every target: per pass it
//!   walks the registry once, reuses one shared [`WalTap`] per tenant,
//!   and advances each target from its own cursor. Targets connect with
//!   capped exponential backoff (jittered, so a fleet of primaries never
//!   redials a recovering follower in lockstep), negotiate each tenant's
//!   resume position with `rep_position`, then stream `rep_window` /
//!   `rep_checkpoint` ops (WAL bytes as base64) and heartbeats when
//!   idle. Follower acks feed the shared [`hdl_persist::AckTracker`], so
//!   tenants under a `sync` policy can block their commit ack on a
//!   replication quorum ([`ReplicationHandle`]);
//! - a **follower** started with `--follow ADDR` holds a
//!   [`FollowerState`]: one [`ReplicaTenant`] per replicated tenant,
//!   each a [`Replica`] plus a read-only [`QueryService`] republished
//!   after every applied window. Client mutations are refused with a
//!   structured `read_only` error; `query`/`answers`/`stats` serve from
//!   the replicated snapshots.
//!
//! Failover is operator-driven but *fenced* automatically: every server
//! with a persist root carries a monotonically increasing **fencing
//! epoch** ([`FenceState`], the `FENCE` file beside the tenant
//! directories). `promote` bumps it past everything the follower has
//! observed; shippers stamp every replication op with theirs; and a
//! server that observes a higher epoch — a `fenced` refusal or a higher
//! `fence` field in any reply, or an explicit `rep_fence` op — latches
//! itself read-only (persistently, so a restart stays fenced) and
//! refuses mutations with a `fenced` error. A restarted old primary
//! therefore fences itself off the moment it talks to anyone who
//! outlived it; no operator intervention required.
//!
//! Promotion itself sets the promoted flag, then takes every replica's
//! mutex once as a barrier — in-flight window applies finish, later ones
//! see the flag and are refused — so the replica directories are closed
//! before the normal [`crate::tenant::Registry`] reopens them as
//! writable tenants (recovery replays exactly the acked prefix).

use crate::protocol::Reply;
use crate::tenant::{validate_tenant_name, Registry, TenantError, TenantQuotas};
use hdl_base::Json;
use hdl_persist::{AckTracker, FsyncPolicy, Position, Replica, Ship, WalTap};
use hdl_service::{QueryService, ServiceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Most WAL bytes one `rep_window` op will carry (before base64).
pub const MAX_WINDOW_BYTES: u64 = 1 << 20;

/// How long a `sync`-policy commit waits for its replication quorum
/// before degrading to a structured `degraded_ack` reply.
pub const SYNC_WAIT_DEADLINE: Duration = Duration::from_secs(2);

/// First reconnect delay after a shipper loses its follower.
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);

/// Reconnect delays double up to this cap, then stay there.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Idle shippers send a heartbeat (and re-poll the taps) this often.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// Name of the fencing-epoch file under the persist root.
const FENCE_FILE: &str = "FENCE";

// ---------------------------------------------------------------------
// Base64 (standard alphabet, padded) — WAL bytes inside JSON strings.
// Hand-rolled because the build environment vendors no encoding crate.
// ---------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard padded base64.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard padded base64; whitespace is not tolerated — the
/// protocol produces none, so any is a malformed message.
pub fn b64_decode(text: &str) -> Result<Vec<u8>, String> {
    fn value(c: u8) -> Result<u32, String> {
        match c {
            b'A'..=b'Z' => Ok((c - b'A') as u32),
            b'a'..=b'z' => Ok((c - b'a' + 26) as u32),
            b'0'..=b'9' => Ok((c - b'0' + 52) as u32),
            b'+' => Ok(62),
            b'/' => Ok(63),
            other => Err(format!("invalid base64 byte 0x{other:02x}")),
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err("base64 length is not a multiple of 4".to_owned());
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, quad) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pads = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pads > 2 || (pads > 0 && !last) {
            return Err("misplaced base64 padding".to_owned());
        }
        let mut n = 0u32;
        for &c in &quad[..4 - pads] {
            n = (n << 6) | value(c)?;
        }
        n <<= 6 * pads as u32;
        let b = n.to_be_bytes();
        out.push(b[1]);
        if pads < 2 {
            out.push(b[2]);
        }
        if pads < 1 {
            out.push(b[3]);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Fencing epoch
// ---------------------------------------------------------------------

/// The server's fencing epoch and read-only latch, persisted in the
/// `FENCE` file beside the tenant directories (one line:
/// `<epoch> <0|1>`, atomically replaced).
///
/// The epoch totally orders primaries across failovers: `promote` bumps
/// it past everything the promoting follower observed, and every
/// replication op and reply carries the sender's epoch. A *writable*
/// server that observes a higher epoch than its own has been superseded
/// — [`FenceState::fence_to`] adopts the epoch, latches the fenced flag,
/// and persists both, so the stale primary refuses mutations (error
/// kind `fenced`) from that moment on **and from every later boot**.
/// Followers track the primary's epoch with [`FenceState::adopt`]
/// (no latch — they are read-only anyway) so their eventual promotion
/// bumps above it.
pub struct FenceState {
    root: Option<PathBuf>,
    epoch: AtomicU64,
    fenced: AtomicBool,
    persist_lock: Mutex<()>,
}

impl FenceState {
    /// Loads the fence state persisted under `root` (epoch 0, unfenced,
    /// when there is no root or no `FENCE` file yet).
    pub fn load(root: Option<&Path>) -> FenceState {
        let mut epoch = 0u64;
        let mut fenced = false;
        if let Some(root) = root {
            if let Ok(text) = std::fs::read_to_string(root.join(FENCE_FILE)) {
                let mut parts = text.split_whitespace();
                if let Some(e) = parts.next().and_then(|s| s.parse::<u64>().ok()) {
                    epoch = e;
                    fenced = parts.next() == Some("1");
                }
            }
        }
        FenceState {
            root: root.map(Path::to_path_buf),
            epoch: AtomicU64::new(epoch),
            fenced: AtomicBool::new(fenced),
            persist_lock: Mutex::new(()),
        }
    }

    /// The current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Whether this server has latched itself read-only.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(SeqCst)
    }

    /// A writable server observed fence epoch `remote`. If it is newer
    /// than ours we have been superseded: adopt it, latch the fenced
    /// flag, persist both. Returns `true` when this call newly latched
    /// the server (callers log exactly once).
    pub fn fence_to(&self, remote: u64) -> bool {
        let _guard = self
            .persist_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if remote <= self.epoch.load(SeqCst) {
            return false;
        }
        self.epoch.store(remote, SeqCst);
        let newly = !self.fenced.swap(true, SeqCst);
        self.persist();
        newly
    }

    /// A follower observed its primary's fence epoch: track it (persist
    /// when it advances) without latching.
    pub fn adopt(&self, remote: u64) {
        let _guard = self
            .persist_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if remote <= self.epoch.load(SeqCst) {
            return;
        }
        self.epoch.store(remote, SeqCst);
        self.persist();
    }

    /// Promotion: bump the epoch past everything observed, clear the
    /// latch, persist, and return the new epoch. The promoted server is
    /// now the newest primary; everyone else who hears this epoch fences.
    pub fn bump_for_promote(&self) -> u64 {
        let _guard = self
            .persist_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let next = self.epoch.load(SeqCst) + 1;
        self.epoch.store(next, SeqCst);
        self.fenced.store(false, SeqCst);
        self.persist();
        next
    }

    /// Atomically replaces the `FENCE` file (tmp → fsync → rename →
    /// dir sync). Called under `persist_lock`. A persistence failure is
    /// logged, not fatal: the in-memory latch still protects this
    /// process; only the restart guarantee degrades.
    fn persist(&self) {
        let Some(root) = &self.root else { return };
        let line = format!(
            "{} {}\n",
            self.epoch.load(SeqCst),
            if self.fenced.load(SeqCst) { 1 } else { 0 }
        );
        let written = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(root)?;
            let tmp = root.join("FENCE.tmp");
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(line.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, root.join(FENCE_FILE))?;
            Ok(())
        })();
        match written {
            Ok(()) => {
                let _ = hdl_persist::checkpoint::sync_dir(root);
            }
            Err(e) => eprintln!(
                "{}",
                Json::obj(vec![
                    ("warn", Json::str("fence_persist_failed")),
                    (
                        "path",
                        Json::str(root.join(FENCE_FILE).display().to_string())
                    ),
                    ("error", Json::str(e.to_string())),
                ])
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Quorum plumbing between committing tenants and the shipper
// ---------------------------------------------------------------------

/// Shared between committing tenants and the shipper thread: the
/// follower-ack scoreboard plus a kick signal that wakes the shipper the
/// moment a commit lands, so a `sync` tenant's quorum wait costs one
/// ship round trip instead of a poll interval.
pub struct ReplicationHandle {
    tracker: AckTracker,
    kick_flag: Mutex<bool>,
    kick_cond: Condvar,
}

impl ReplicationHandle {
    /// A handle scoring `targets` replication targets.
    pub fn new(targets: usize) -> Arc<ReplicationHandle> {
        Arc::new(ReplicationHandle {
            tracker: AckTracker::new(targets),
            kick_flag: Mutex::new(false),
            kick_cond: Condvar::new(),
        })
    }

    /// How many replication targets are configured.
    pub fn targets(&self) -> usize {
        self.tracker.targets()
    }

    /// The follower-ack scoreboard.
    pub fn tracker(&self) -> &AckTracker {
        &self.tracker
    }

    /// Wakes the shipper: fresh committed bytes are ready to ship.
    pub fn kick(&self) {
        let mut flag = self
            .kick_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *flag = true;
        self.kick_cond.notify_all();
    }

    /// Blocks until the replication quorum `need` covers `at` for
    /// `tenant`, bounded by [`SYNC_WAIT_DEADLINE`]; returns how many
    /// targets covered it at return time. Kicks the shipper first.
    pub fn wait_quorum(&self, tenant: &str, at: Position, need: usize) -> usize {
        self.kick();
        self.tracker
            .wait_quorum(tenant, at, need, SYNC_WAIT_DEADLINE)
    }

    /// The shipper's idle wait: sleeps up to `timeout`, returning early
    /// (and clearing the flag) when a commit kicks.
    fn wait_kick(&self, timeout: Duration) {
        let started = Instant::now();
        let mut flag = self
            .kick_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*flag {
            let elapsed = started.elapsed();
            if elapsed >= timeout {
                break;
            }
            let (next, _) = self
                .kick_cond
                .wait_timeout(flag, timeout - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            flag = next;
        }
        *flag = false;
    }
}

// ---------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------

/// One replicated tenant on a follower: the on-disk replica plus a query
/// pool serving its latest applied snapshot.
pub struct ReplicaTenant {
    name: String,
    replica: Mutex<Replica>,
    service: QueryService,
    windows_applied: AtomicU64,
    bytes_applied: AtomicU64,
}

fn lock_replica(m: &Mutex<Replica>) -> MutexGuard<'_, Replica> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ReplicaTenant {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The read-only query pool serving replicated snapshots.
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// The replica's current `(epoch, offset)` position.
    pub fn position(&self) -> Position {
        lock_replica(&self.replica).position()
    }

    /// Counters and state for `stats`.
    pub fn stats_json(&self) -> Json {
        let (pos, records) = {
            let replica = lock_replica(&self.replica);
            (replica.position(), replica.records_applied())
        };
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("epoch", Json::num(pos.epoch as f64)),
            ("offset", Json::num(pos.offset as f64)),
            ("records_applied", Json::num(records as f64)),
            (
                "windows_applied",
                Json::num(self.windows_applied.load(Relaxed) as f64),
            ),
            (
                "bytes_applied",
                Json::num(self.bytes_applied.load(Relaxed) as f64),
            ),
        ])
    }
}

/// Everything a follower server tracks beyond its (idle, pre-promotion)
/// registry: the replicas, the primary's liveness, and the promotion
/// latch.
pub struct FollowerState {
    /// Address of the primary this follower trails (for stats only; the
    /// primary dials us, not the reverse).
    primary: String,
    root: PathBuf,
    policy: FsyncPolicy,
    quotas: TenantQuotas,
    workers: usize,
    replicas: Mutex<BTreeMap<String, Arc<ReplicaTenant>>>,
    /// When the primary last spoke (any `rep_*` op).
    last_contact: Mutex<Option<Instant>>,
    /// Set by `promote`; never cleared. Checked under each replica's
    /// mutex by the apply path, so after the promotion barrier no window
    /// can land.
    promoted: AtomicBool,
}

impl FollowerState {
    /// A follower trailing `primary`, persisting under `root`.
    pub fn new(
        primary: String,
        root: PathBuf,
        policy: FsyncPolicy,
        quotas: TenantQuotas,
        workers: usize,
    ) -> FollowerState {
        FollowerState {
            primary,
            root,
            policy,
            quotas,
            workers,
            replicas: Mutex::new(BTreeMap::new()),
            last_contact: Mutex::new(None),
            promoted: AtomicBool::new(false),
        }
    }

    /// Whether this server still serves as a follower (false once
    /// promoted).
    pub fn is_follower(&self) -> bool {
        !self.promoted.load(SeqCst)
    }

    /// The primary address this follower trails (for error messages and
    /// stats).
    pub fn primary(&self) -> &str {
        &self.primary
    }

    /// Marks the primary as alive right now.
    pub fn touch(&self) {
        *self
            .last_contact
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
    }

    /// Milliseconds since the primary last spoke; `None` if it never has.
    pub fn staleness_ms(&self) -> Option<u64> {
        self.last_contact
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map(|t| t.elapsed().as_millis() as u64)
    }

    /// The replica for `name`, opening (and recovering) it on first use.
    /// Refused after promotion — the registry owns the directories then.
    pub fn open_replica(&self, name: &str) -> Result<Arc<ReplicaTenant>, TenantError> {
        validate_tenant_name(name)?;
        let mut replicas = self.replicas.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.is_follower() {
            return Err(TenantError::promoted());
        }
        if let Some(r) = replicas.get(name) {
            return Ok(Arc::clone(r));
        }
        let dir = self.root.join("tenants").join(name);
        let replica = Replica::open(&dir, self.policy).map_err(|e| TenantError {
            kind: "internal",
            message: format!("cannot open replica `{name}`: {e}"),
        })?;
        let service = QueryService::with_config(
            replica.session().snapshot(),
            ServiceConfig {
                workers: self.workers,
                queue_cap: self.quotas.queue_cap,
                max_facts: self.quotas.query_max_facts,
                max_overlay_depth: self.quotas.max_overlay_depth,
                ..ServiceConfig::default()
            },
        );
        let tenant = Arc::new(ReplicaTenant {
            name: name.to_owned(),
            replica: Mutex::new(replica),
            service,
            windows_applied: AtomicU64::new(0),
            bytes_applied: AtomicU64::new(0),
        });
        replicas.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Lands one shipped window on `name`'s replica and republishes its
    /// snapshot. Returns the replica's new position for the ack.
    ///
    /// A position mismatch is reported as a `rep-position` reply carrying
    /// the actual position, so the primary reseeds instead of guessing.
    /// Any other apply failure drops the replica binding — reopening runs
    /// recovery, which reconciles a log that got ahead of memory.
    pub fn apply_window(&self, name: &str, epoch: u64, offset: u64, bytes: &[u8]) -> Reply {
        let tenant = match self.open_replica(name) {
            Ok(t) => t,
            Err(e) => return Reply::err(e.kind, e.message),
        };
        let mut replica = lock_replica(&tenant.replica);
        if !self.is_follower() {
            return Reply::err("protocol", "follower has been promoted");
        }
        let at = replica.position();
        if epoch != at.epoch || offset != at.offset {
            return position_mismatch(at);
        }
        match replica.apply_window(epoch, offset, bytes) {
            Ok(_records) => {
                let pos = replica.position();
                tenant.service.publish(replica.session().snapshot());
                drop(replica);
                tenant.windows_applied.fetch_add(1, Relaxed);
                tenant.bytes_applied.fetch_add(bytes.len() as u64, Relaxed);
                ack_reply("rep_window", pos)
            }
            Err(e) => {
                drop(replica);
                self.evict(name);
                Reply::err("internal", format!("window apply failed: {e}"))
            }
        }
    }

    /// Installs a shipped checkpoint image on `name`'s replica; returns
    /// the new position (top of the image's epoch) for the ack.
    pub fn install_checkpoint(&self, name: &str, epoch: u64, image: &[u8]) -> Reply {
        let tenant = match self.open_replica(name) {
            Ok(t) => t,
            Err(e) => return Reply::err(e.kind, e.message),
        };
        let mut replica = lock_replica(&tenant.replica);
        if !self.is_follower() {
            return Reply::err("protocol", "follower has been promoted");
        }
        match replica.install_checkpoint(epoch, image) {
            Ok(()) => {
                let pos = replica.position();
                tenant.service.publish(replica.session().snapshot());
                drop(replica);
                ack_reply("rep_checkpoint", pos)
            }
            Err(e) => {
                drop(replica);
                self.evict(name);
                Reply::err("internal", format!("checkpoint install failed: {e}"))
            }
        }
    }

    /// Answers a primary's `rep_position` negotiation for `name`.
    pub fn rep_position(&self, name: &str) -> Reply {
        match self.open_replica(name) {
            Ok(t) => ack_reply("rep_position", t.position()),
            Err(e) => Reply::err(e.kind, e.message),
        }
    }

    /// Drops a replica binding so the next `rep_*` op reopens (and
    /// re-recovers) it from disk.
    fn evict(&self, name: &str) {
        self.replicas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name);
    }

    /// Promotes this follower: latch the flag, then take every replica's
    /// mutex once (the barrier — in-flight applies finish, later ones see
    /// the flag), then drop the replicas so the registry can reopen the
    /// directories as writable tenants. Returns the promoted tenant
    /// names. Idempotent: a second promote returns the (now empty) list.
    pub fn promote(&self) -> Vec<String> {
        self.promoted.store(true, SeqCst);
        let drained: Vec<(String, Arc<ReplicaTenant>)> = {
            let mut replicas = self.replicas.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *replicas).into_iter().collect()
        };
        let mut names = Vec::new();
        for (name, tenant) in drained {
            // The barrier: once this lock is held, no apply is mid-write
            // against the directory, and every later apply attempt sees
            // the promoted flag before touching disk.
            drop(lock_replica(&tenant.replica));
            names.push(name);
        }
        names
    }

    /// The follower's `stats` section.
    pub fn stats_json(&self) -> Json {
        let replicas = self.replicas.lock().unwrap_or_else(PoisonError::into_inner);
        let tenants: Vec<Json> = replicas.values().map(|r| r.stats_json()).collect();
        Json::obj(vec![
            (
                "role",
                Json::str(if self.is_follower() {
                    "follower"
                } else {
                    "promoted"
                }),
            ),
            ("primary", Json::str(&self.primary)),
            (
                "last_contact_ms",
                match self.staleness_ms() {
                    Some(ms) => Json::num(ms as f64),
                    None => Json::Null,
                },
            ),
            ("tenants", Json::Arr(tenants)),
        ])
    }
}

impl TenantError {
    fn promoted() -> TenantError {
        TenantError {
            kind: "protocol",
            message: "follower has been promoted; reconnect and open normally".to_owned(),
        }
    }
}

/// A `rep-position` error reply carrying the replica's actual position.
fn position_mismatch(at: Position) -> Reply {
    Reply::err(
        "rep-position",
        "window does not start at the replica position",
    )
    .with("epoch", Json::num(at.epoch as f64))
    .with("offset", Json::num(at.offset as f64))
}

/// An ack carrying the replica's post-apply position.
fn ack_reply(op: &str, pos: Position) -> Reply {
    Reply::ok(op)
        .with("epoch", Json::num(pos.epoch as f64))
        .with("offset", Json::num(pos.offset as f64))
}

// ---------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------

/// Shared counters for one shipper target, read by `stats`.
pub struct ShipperStats {
    /// The follower address as configured.
    pub addr: String,
    /// Whether the shipper currently holds a live connection.
    pub connected: AtomicBool,
    /// Windows acked by the follower.
    pub windows_shipped: AtomicU64,
    /// WAL bytes acked by the follower (pre-base64).
    pub bytes_shipped: AtomicU64,
    /// Checkpoint images acked by the follower.
    pub checkpoints_shipped: AtomicU64,
    /// Dial attempts after the first connection attempt (reconnects).
    pub redials: AtomicU64,
    /// Divergence episodes observed (a tenant whose follower log is not
    /// a prefix of ours; healed only by a primary-side checkpoint).
    pub diverged: AtomicU64,
    /// Milliseconds since the last ack (any op), for lag monitoring.
    last_ack: Mutex<Option<Instant>>,
    /// The most recent dial or shipping error on this target.
    last_error: Mutex<Option<String>>,
}

impl ShipperStats {
    fn new(addr: String) -> ShipperStats {
        ShipperStats {
            addr,
            connected: AtomicBool::new(false),
            windows_shipped: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            checkpoints_shipped: AtomicU64::new(0),
            redials: AtomicU64::new(0),
            diverged: AtomicU64::new(0),
            last_ack: Mutex::new(None),
            last_error: Mutex::new(None),
        }
    }

    fn acked(&self) {
        *self.last_ack.lock().unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
    }

    fn error(&self, message: String) {
        *self
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(message);
    }

    /// This target's `stats` object.
    pub fn to_json(&self) -> Json {
        let last_ack = self
            .last_ack
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map(|t| t.elapsed().as_millis() as u64);
        let last_error = self
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Json::obj(vec![
            ("addr", Json::str(&self.addr)),
            ("connected", Json::Bool(self.connected.load(Relaxed))),
            (
                "windows_shipped",
                Json::num(self.windows_shipped.load(Relaxed) as f64),
            ),
            (
                "bytes_shipped",
                Json::num(self.bytes_shipped.load(Relaxed) as f64),
            ),
            (
                "checkpoints_shipped",
                Json::num(self.checkpoints_shipped.load(Relaxed) as f64),
            ),
            ("redials", Json::num(self.redials.load(Relaxed) as f64)),
            ("diverged", Json::num(self.diverged.load(Relaxed) as f64)),
            (
                "last_ack_ms",
                match last_ack {
                    Some(ms) => Json::num(ms as f64),
                    None => Json::Null,
                },
            ),
            (
                "last_error",
                match last_error {
                    Some(e) => Json::str(e),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// A live connection to one follower.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The shipper's per-target state: the (maybe dead) connection, this
/// target's per-tenant resume cursors, and its private backoff clock.
struct Target {
    index: usize,
    stats: Arc<ShipperStats>,
    conn: Option<Conn>,
    positions: BTreeMap<String, Position>,
    backoff: Duration,
    next_dial: Instant,
    dialed: bool,
    last_send: Instant,
    /// Tenants currently in a divergence episode (counted and warned
    /// once per episode, not once per 25 ms poll).
    diverged_now: BTreeSet<String>,
}

/// Outcome of one shipment exchange with a follower.
enum Acked {
    /// The follower fsynced and acked up to this position.
    To(Position),
    /// The follower answered `rep-position`; the cursor was reseeded.
    Reseed,
}

/// Minimal xorshift64* PRNG for backoff jitter — the build vendors no
/// rand crate, and backoff spread needs no quality beyond "not the same
/// on every primary".
struct Jitter(u64);

impl Jitter {
    fn seeded() -> Jitter {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        Jitter((nanos ^ ((std::process::id() as u64) << 32)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Spreads a backoff delay over `[d/2, d)` so shippers across a
    /// fleet don't redial a recovering follower in lockstep.
    fn spread(&mut self, d: Duration) -> Duration {
        let half = d / 2;
        half + half.mul_f64((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The primary-side replication loop: **one** thread fanning out to all
/// follower targets. Each pass dials whatever is due, walks the registry
/// once sharing one [`WalTap`] per tenant, and advances every connected
/// target from its own cursor; follower acks feed the shared
/// [`AckTracker`] for quorum-acknowledged commits.
pub struct Shipper {
    registry: Arc<Registry>,
    handle: Arc<ReplicationHandle>,
    fence: Arc<FenceState>,
    shutdown: Arc<AtomicBool>,
}

impl Shipper {
    /// Spawns the shipper thread for `addrs`; returns the per-target
    /// stats handles (same order as `addrs`) and the join handle.
    pub fn spawn(
        registry: Arc<Registry>,
        addrs: &[String],
        handle: Arc<ReplicationHandle>,
        fence: Arc<FenceState>,
        shutdown: Arc<AtomicBool>,
    ) -> (Vec<Arc<ShipperStats>>, std::thread::JoinHandle<()>) {
        let stats: Vec<Arc<ShipperStats>> = addrs
            .iter()
            .map(|addr| Arc::new(ShipperStats::new(addr.clone())))
            .collect();
        let targets: Vec<Target> = stats
            .iter()
            .enumerate()
            .map(|(index, stats)| Target {
                index,
                stats: Arc::clone(stats),
                conn: None,
                positions: BTreeMap::new(),
                backoff: BACKOFF_FLOOR,
                next_dial: Instant::now(),
                dialed: false,
                last_send: Instant::now(),
                diverged_now: BTreeSet::new(),
            })
            .collect();
        let shipper = Shipper {
            registry,
            handle,
            fence,
            shutdown,
        };
        let join = std::thread::Builder::new()
            .name("hdl-shipper".to_owned())
            .spawn(move || shipper.run(targets))
            .expect("spawn shipper thread");
        (stats, join)
    }

    fn done(&self) -> bool {
        self.shutdown.load(SeqCst)
    }

    /// The shipper pass, forever: dial due targets, fan the registry out
    /// to every live connection, heartbeat idle links, then wait for a
    /// commit kick (or 25 ms, whichever comes first).
    fn run(&self, mut targets: Vec<Target>) {
        let mut jitter = Jitter::seeded();
        while !self.done() {
            for t in &mut targets {
                if t.conn.is_none() && Instant::now() >= t.next_dial {
                    self.dial(t, &mut jitter);
                }
            }
            let mut progressed = false;
            for tenant in self.registry.tenants() {
                if self.done() {
                    return;
                }
                let Some(tap) = tenant.wal_tap() else {
                    continue;
                };
                let name = tenant.name().to_owned();
                for t in &mut targets {
                    if t.conn.is_none() {
                        continue;
                    }
                    match self.ship_one(t, &name, &tap) {
                        Ok(p) => progressed |= p,
                        Err(e) => self.drop_conn(t, &mut jitter, e.to_string()),
                    }
                }
            }
            if !progressed {
                for t in &mut targets {
                    if t.conn.is_some() && t.last_send.elapsed() >= HEARTBEAT_EVERY {
                        if let Err(e) = self.heartbeat(t) {
                            self.drop_conn(t, &mut jitter, e.to_string());
                        }
                    }
                }
                self.handle.wait_kick(Duration::from_millis(25));
            }
        }
    }

    /// One connection attempt; on failure, schedules the jittered redial.
    fn dial(&self, t: &mut Target, jitter: &mut Jitter) {
        if t.dialed {
            t.stats.redials.fetch_add(1, Relaxed);
        }
        t.dialed = true;
        let conn = TcpStream::connect(&t.stats.addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            Ok(Conn {
                reader,
                writer: stream,
            })
        });
        match conn {
            Ok(conn) => {
                t.conn = Some(conn);
                t.positions.clear();
                t.backoff = BACKOFF_FLOOR;
                t.last_send = Instant::now();
                t.stats.connected.store(true, Relaxed);
            }
            Err(e) => {
                t.stats.error(format!("dial failed: {e}"));
                t.next_dial = Instant::now() + jitter.spread(t.backoff);
                t.backoff = (t.backoff * 2).min(BACKOFF_CAP);
            }
        }
    }

    /// Tears a dead connection down: forget its quorum contribution (a
    /// dead follower must never count toward a sync ack), clear cursors,
    /// and schedule the jittered redial.
    fn drop_conn(&self, t: &mut Target, jitter: &mut Jitter, error: String) {
        t.conn = None;
        t.positions.clear();
        t.stats.connected.store(false, Relaxed);
        t.stats.error(error);
        self.handle.tracker().forget_target(t.index);
        t.next_dial = Instant::now() + jitter.spread(t.backoff);
        t.backoff = (t.backoff * 2).min(BACKOFF_CAP);
    }

    /// Advances one target for one tenant: negotiate the cursor if this
    /// connection hasn't yet, plan against the shared tap, ship the
    /// window or image. Returns whether anything moved (so the pass
    /// spins again instead of sleeping).
    fn ship_one(&self, t: &mut Target, name: &str, tap: &WalTap) -> std::io::Result<bool> {
        let pos = match t.positions.get(name) {
            Some(p) => *p,
            None => {
                let p = self.negotiate(t, name)?;
                t.positions.insert(name.to_owned(), p);
                self.handle.tracker().record(name, t.index, p);
                p
            }
        };
        let plan = match tap.plan_ship(pos, MAX_WINDOW_BYTES) {
            Ok(plan) => plan,
            Err(_) => {
                // A rotation raced the read; renegotiate next round
                // against the new epoch.
                t.positions.remove(name);
                return Ok(false);
            }
        };
        match plan {
            Ship::Window { bytes, .. } if bytes.is_empty() => {
                t.diverged_now.remove(name);
                Ok(false)
            }
            Ship::Window {
                epoch,
                offset,
                bytes,
            } => {
                t.diverged_now.remove(name);
                hdl_base::failpoint_fire!("replicate::ship");
                hdl_persist::crashpoint::crash_point("replicate::ship");
                let line = Json::obj(vec![
                    ("op", Json::str("rep_window")),
                    ("tenant", Json::str(name)),
                    ("epoch", Json::num(epoch as f64)),
                    ("offset", Json::num(offset as f64)),
                    ("fence", Json::num(self.fence.epoch() as f64)),
                    ("data", Json::str(b64_encode(&bytes))),
                ])
                .to_string();
                match self.exchange(t, name, &line)? {
                    Acked::To(_) => {
                        t.stats.windows_shipped.fetch_add(1, Relaxed);
                        t.stats.bytes_shipped.fetch_add(bytes.len() as u64, Relaxed);
                    }
                    Acked::Reseed => {}
                }
                Ok(true)
            }
            Ship::Checkpoint { epoch, image } => {
                t.diverged_now.remove(name);
                let line = Json::obj(vec![
                    ("op", Json::str("rep_checkpoint")),
                    ("tenant", Json::str(name)),
                    ("epoch", Json::num(epoch as f64)),
                    ("fence", Json::num(self.fence.epoch() as f64)),
                    ("data", Json::str(b64_encode(&image))),
                ])
                .to_string();
                if let Acked::To(_) = self.exchange(t, name, &line)? {
                    t.stats.checkpoints_shipped.fetch_add(1, Relaxed);
                }
                Ok(true)
            }
            Ship::Diverged { primary } => {
                // The follower's log is not a prefix of ours; nothing
                // safe can be shipped. A primary-side checkpoint
                // converts this into an image transfer — leave the
                // cursor cached so the plan flips to Checkpoint once
                // that happens. Count and warn once per episode so the
                // lineage mismatch is visible to operators.
                if t.diverged_now.insert(name.to_owned()) {
                    t.stats.diverged.fetch_add(1, Relaxed);
                    let warning = format!(
                        "replica {} has diverged on tenant `{name}` (claims {}:{}, primary at {}:{}); checkpoint the primary to force an image transfer",
                        t.stats.addr, pos.epoch, pos.offset, primary.epoch, primary.offset
                    );
                    t.stats.error(warning);
                    eprintln!(
                        "{}",
                        Json::obj(vec![
                            ("warn", Json::str("replication_diverged")),
                            ("target", Json::str(&t.stats.addr)),
                            ("tenant", Json::str(name)),
                            ("replica_epoch", Json::num(pos.epoch as f64)),
                            ("replica_offset", Json::num(pos.offset as f64)),
                            ("primary_epoch", Json::num(primary.epoch as f64)),
                            ("primary_offset", Json::num(primary.offset as f64)),
                        ])
                    );
                }
                Ok(false)
            }
        }
    }

    /// Asks the follower where shipping should resume for `tenant`.
    fn negotiate(&self, t: &mut Target, tenant: &str) -> std::io::Result<Position> {
        let line = Json::obj(vec![
            ("op", Json::str("rep_position")),
            ("tenant", Json::str(tenant)),
            ("fence", Json::num(self.fence.epoch() as f64)),
        ])
        .to_string();
        match self.exchange(t, tenant, &line)? {
            Acked::To(p) => Ok(p),
            Acked::Reseed => Err(protocol_err("rep_position answered with a reseed")),
        }
    }

    /// Sends one line and lands the reply, observing fencing on every
    /// exchange: a reply whose `fence` field is newer than our epoch, or
    /// an outright `fenced` refusal, latches this server read-only.
    /// `rep-position` reseeds update the cursor and return
    /// [`Acked::Reseed`]; anything else is connection-fatal.
    fn exchange(&self, t: &mut Target, tenant: &str, line: &str) -> std::io::Result<Acked> {
        let conn = t.conn.as_mut().expect("exchange on a live connection");
        let reply = round_trip(&mut conn.reader, &mut conn.writer, line)?;
        t.last_send = Instant::now();
        if let Some(remote) = reply.get("fence").and_then(Json::as_u64) {
            self.observe_fence(remote);
        }
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            t.stats.acked();
            match reply_position(&reply) {
                Some(p) => {
                    t.positions.insert(tenant.to_owned(), p);
                    self.handle.tracker().record(tenant, t.index, p);
                    Ok(Acked::To(p))
                }
                None => Err(protocol_err(format!("ack carried no position: {reply}"))),
            }
        } else {
            match reply.get("kind").and_then(Json::as_str) {
                Some("rep-position") => match reply_position(&reply) {
                    Some(p) => {
                        t.positions.insert(tenant.to_owned(), p);
                        self.handle.tracker().record(tenant, t.index, p);
                        Ok(Acked::Reseed)
                    }
                    None => Err(protocol_err(format!("reseed carried no position: {reply}"))),
                },
                Some("fenced") => {
                    // The peer outlived a promotion we never saw: it
                    // names an epoch newer than ours. Latch and drop the
                    // link — this primary is done accepting writes.
                    let remote = reply
                        .get("epoch")
                        .and_then(Json::as_u64)
                        .unwrap_or(self.fence.epoch() + 1);
                    self.observe_fence(remote);
                    Err(protocol_err(format!("target fenced this primary: {reply}")))
                }
                // `internal` (apply failure) and everything else: drop
                // the connection; reconnect renegotiates against the
                // recovered replica.
                _ => Err(protocol_err(format!("follower refused shipment: {reply}"))),
            }
        }
    }

    /// Latches the fence if `remote` is newer than our epoch, logging
    /// the transition once.
    fn observe_fence(&self, remote: u64) {
        if remote > self.fence.epoch() && self.fence.fence_to(remote) {
            eprintln!(
                "{}",
                Json::obj(vec![
                    ("warn", Json::str("fenced")),
                    ("observed_epoch", Json::num(remote as f64)),
                    (
                        "detail",
                        Json::str(
                            "a newer primary exists; this server is now read-only \
                             and refuses mutations with kind `fenced`"
                        ),
                    ),
                ])
            );
        }
    }

    /// One idle-link liveness probe; also carries our fence epoch so an
    /// idle follower still adopts it.
    fn heartbeat(&self, t: &mut Target) -> std::io::Result<()> {
        let conn = t.conn.as_mut().expect("heartbeat on a live connection");
        let line = Json::obj(vec![
            ("op", Json::str("rep_heartbeat")),
            ("fence", Json::num(self.fence.epoch() as f64)),
        ])
        .to_string();
        let reply = round_trip(&mut conn.reader, &mut conn.writer, &line)?;
        t.last_send = Instant::now();
        if let Some(remote) = reply.get("fence").and_then(Json::as_u64) {
            self.observe_fence(remote);
        }
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            t.stats.acked();
            Ok(())
        } else if reply.get("kind").and_then(Json::as_str) == Some("fenced") {
            let remote = reply
                .get("epoch")
                .and_then(Json::as_u64)
                .unwrap_or(self.fence.epoch() + 1);
            self.observe_fence(remote);
            Err(protocol_err(format!("heartbeat fenced: {reply}")))
        } else {
            Err(protocol_err(format!("heartbeat refused: {reply}")))
        }
    }
}

fn round_trip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> std::io::Result<Json> {
    writeln!(writer, "{line}")?;
    writer.flush()?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "follower closed the connection",
        ));
    }
    Json::parse(reply.trim()).map_err(protocol_err)
}

fn reply_position(reply: &Json) -> Option<Position> {
    Some(Position {
        epoch: reply.get("epoch").and_then(Json::as_u64)?,
        offset: reply.get("offset").and_then(Json::as_u64)?,
    })
}

fn protocol_err(message: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_round_trips() {
        let cases: &[&[u8]] = &[
            b"",
            b"f",
            b"fo",
            b"foo",
            b"foob",
            b"fooba",
            b"foobar",
            &[0, 1, 2, 253, 254, 255],
        ];
        for &case in cases {
            let encoded = b64_encode(case);
            assert_eq!(b64_decode(&encoded).unwrap(), case, "{encoded}");
        }
        // Spot-check against the RFC 4648 vectors.
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(b64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(b64_encode(b"fooba"), "Zm9vYmE=");
    }

    #[test]
    fn base64_rejects_malformed_input() {
        assert!(b64_decode("abc").is_err(), "bad length");
        assert!(b64_decode("ab=c").is_err(), "padding inside a quad");
        assert!(b64_decode("a===").is_err(), "over-padded");
        assert!(b64_decode("ab cd").is_err(), "whitespace");
        assert!(b64_decode("abc\u{e9}").is_err(), "non-ascii");
        assert_eq!(b64_decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn every_byte_pattern_round_trips() {
        let mut bytes = Vec::new();
        for i in 0..=255u8 {
            bytes.push(i);
            let encoded = b64_encode(&bytes);
            assert_eq!(b64_decode(&encoded).unwrap(), bytes);
        }
    }

    struct TempRoot(PathBuf);

    impl TempRoot {
        fn new(tag: &str) -> TempRoot {
            let dir = std::env::temp_dir().join(format!(
                "hdl-fence-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempRoot(dir)
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fence_latches_and_survives_reload() {
        let root = TempRoot::new("latch");
        let fence = FenceState::load(Some(&root.0));
        assert_eq!(fence.epoch(), 0);
        assert!(!fence.is_fenced());

        // Our own epoch (or older) never fences us.
        assert!(!fence.fence_to(0));
        assert!(!fence.is_fenced());

        // A newer epoch latches exactly once.
        assert!(fence.fence_to(3));
        assert!(fence.is_fenced());
        assert_eq!(fence.epoch(), 3);
        assert!(!fence.fence_to(3), "already latched");
        assert!(!fence.fence_to(2), "older epoch is a no-op");

        // The latch is persistent: a restarted process boots fenced.
        let reborn = FenceState::load(Some(&root.0));
        assert!(reborn.is_fenced());
        assert_eq!(reborn.epoch(), 3);

        // Promotion clears the latch and moves past everything observed.
        assert_eq!(reborn.bump_for_promote(), 4);
        assert!(!reborn.is_fenced());
        let after = FenceState::load(Some(&root.0));
        assert_eq!(after.epoch(), 4);
        assert!(!after.is_fenced());
    }

    #[test]
    fn fence_adopt_tracks_without_latching() {
        let root = TempRoot::new("adopt");
        let fence = FenceState::load(Some(&root.0));
        fence.adopt(7);
        assert_eq!(fence.epoch(), 7);
        assert!(!fence.is_fenced(), "followers adopt, they don't latch");
        fence.adopt(5);
        assert_eq!(fence.epoch(), 7, "adopt never regresses");
        let reborn = FenceState::load(Some(&root.0));
        assert_eq!(reborn.epoch(), 7);
        assert_eq!(reborn.bump_for_promote(), 8);
    }

    #[test]
    fn rootless_fence_is_memory_only() {
        let fence = FenceState::load(None);
        assert!(fence.fence_to(2));
        assert!(fence.is_fenced());
        assert_eq!(fence.epoch(), 2);
    }

    #[test]
    fn jitter_spreads_backoff_within_bounds() {
        let mut jitter = Jitter::seeded();
        let base = Duration::from_millis(800);
        let mut distinct = BTreeSet::new();
        for _ in 0..64 {
            let d = jitter.spread(base);
            assert!(d >= base / 2, "{d:?} below half the backoff");
            assert!(d <= base, "{d:?} above the backoff");
            distinct.insert(d.as_nanos());
        }
        assert!(distinct.len() > 8, "jitter must actually vary");
    }

    #[test]
    fn replication_handle_kick_wakes_waiters() {
        let handle = ReplicationHandle::new(2);
        assert_eq!(handle.targets(), 2);
        // A kick before the wait returns immediately.
        handle.kick();
        let started = Instant::now();
        handle.wait_kick(Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
        // And the flag is consumed: the next wait times out.
        let started = Instant::now();
        handle.wait_kick(Duration::from_millis(30));
        assert!(started.elapsed() >= Duration::from_millis(25));
    }
}
