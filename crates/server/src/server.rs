//! The TCP server: accept loop, per-connection handlers, admission
//! control, and graceful drain.
//!
//! One thread accepts connections (nonblocking, polling the shutdown
//! flag); each accepted connection gets its own handler thread speaking
//! the newline-delimited JSON protocol of [`crate::protocol`]. A
//! connection binds to at most one tenant at a time via `open`; queries
//! run on that tenant's worker pool, mutations commit through its
//! durable session (batched across tenants by the shared group
//! committer when enabled).
//!
//! Admission control happens at two levels: connections past
//! `max_connections` are refused with a structured `overloaded` line
//! before a handler is spawned, and per-tenant in-flight/queue caps shed
//! queries inside [`crate::tenant`]. Graceful drain (`shutdown` op or
//! SIGTERM) stops the accept loop, half-closes every client socket so
//! in-flight replies still deliver, joins the handlers, checkpoints
//! every durable tenant, and shuts the group committer down.

use crate::protocol::{outcome_reply, Reply, Request, PROTOCOL_VERSION};
use crate::replication::{
    b64_decode, FenceState, FollowerState, ReplicaTenant, ReplicationHandle, Shipper, ShipperStats,
};
use crate::tenant::{Registry, RegistryConfig, Tenant, TenantQuotas};
use hdl_base::Json;
use hdl_core::session::EngineKind;
use hdl_core::Applied;
use hdl_persist::{FsyncPolicy, GroupCommitter};
use hdl_service::QueryRequest;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything the server needs to start.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7671`. Port 0 binds an ephemeral
    /// port; [`Server::addr`] reports the actual one.
    pub listen: String,
    /// Persist root; tenants live under `<root>/tenants/<name>`.
    /// `None` = everything ephemeral.
    pub persist_root: Option<PathBuf>,
    /// Fsync policy for tenant WALs.
    pub fsync: FsyncPolicy,
    /// Batch concurrent WAL commits across tenants into shared fsync
    /// passes (ack-after-commit is preserved either way).
    pub group_commit: bool,
    /// Connections past this are refused with an `overloaded` line.
    pub max_connections: usize,
    /// Query workers per tenant.
    pub workers_per_tenant: usize,
    /// Quotas applied to every tenant.
    pub quotas: TenantQuotas,
    /// Engine used when a request names none.
    pub default_engine: EngineKind,
    /// Deadline applied when a request names none.
    pub default_deadline: Option<Duration>,
    /// Follower addresses to ship WAL windows to (primary role); one
    /// shipper thread fans out to all of them.
    pub replicate_to: Vec<String>,
    /// Default replication quorum a mutation ack waits for (0 = async).
    /// Must not exceed `replicate_to.len()`; tenants may override it
    /// via the protocol `open` op's `"sync"` field.
    pub sync_replicas: usize,
    /// Primary address this server trails (follower role): serve
    /// read-only replicas, refuse mutations, accept `rep_*` ops.
    /// Requires `persist_root`; mutually exclusive with `replicate_to`.
    pub follow: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            persist_root: None,
            fsync: FsyncPolicy::Always,
            group_commit: true,
            max_connections: 64,
            workers_per_tenant: 1,
            quotas: TenantQuotas::default(),
            default_engine: EngineKind::default(),
            default_deadline: None,
            replicate_to: Vec::new(),
            sync_replicas: 0,
            follow: None,
        }
    }
}

struct Inner {
    config: ServerConfig,
    registry: Arc<Registry>,
    committer: Option<Arc<GroupCommitter>>,
    addr: SocketAddr,
    /// Shared with the shipper threads, which poll it to exit on drain.
    shutdown: Arc<AtomicBool>,
    live: AtomicU64,
    accepted: AtomicU64,
    refused: AtomicU64,
    /// Live client sockets (for half-close on drain), keyed by
    /// connection id.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Follower role state; `Some` exactly when `config.follow` is set
    /// (promotion flips its flag, not this option).
    follower: Option<Arc<FollowerState>>,
    /// The fencing epoch and read-only latch (epoch 0, unfenced, for
    /// ephemeral servers — still latchable in memory).
    fence: Arc<FenceState>,
    /// Quorum scoreboard + shipper kick; `Some` exactly when
    /// `replicate_to` is non-empty.
    replication: Option<Arc<ReplicationHandle>>,
    /// One stats handle per `replicate_to` target.
    shipper_stats: Vec<Arc<ShipperStats>>,
    shippers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server; dropping it without [`drain`](Server::drain) leaves
/// threads running, so hosts should always drain.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.listen` and starts accepting. Returns once the
    /// listener is live (the actual address — ephemeral ports resolved —
    /// is [`addr`](Server::addr)).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        if config.follow.is_some() {
            if config.persist_root.is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--follow requires a persist root (the replica directories live there)",
                ));
            }
            if !config.replicate_to.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--follow and --replicate-to are mutually exclusive (no chained replication)",
                ));
            }
        }
        if config.sync_replicas > config.replicate_to.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "--sync-replicas {} exceeds the {} configured replication targets",
                    config.sync_replicas,
                    config.replicate_to.len()
                ),
            ));
        }
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let committer =
            (config.group_commit && config.persist_root.is_some()).then(GroupCommitter::new);
        let fence = Arc::new(FenceState::load(config.persist_root.as_deref()));
        let replication = (!config.replicate_to.is_empty())
            .then(|| ReplicationHandle::new(config.replicate_to.len()));
        let registry = Arc::new(Registry::new(RegistryConfig {
            root: config.persist_root.clone(),
            policy: config.fsync,
            committer: committer.clone(),
            workers: config.workers_per_tenant,
            quotas: config.quotas.clone(),
            replication: replication.clone(),
            sync_replicas: config.sync_replicas,
        }));
        let shutdown = Arc::new(AtomicBool::new(false));
        let follower = config.follow.clone().map(|primary| {
            Arc::new(FollowerState::new(
                primary,
                config.persist_root.clone().expect("validated above"),
                config.fsync,
                config.quotas.clone(),
                config.workers_per_tenant,
            ))
        });
        let (shipper_stats, shippers) = match &replication {
            None => (Vec::new(), Vec::new()),
            Some(handle) => {
                let (stats, join) = Shipper::spawn(
                    Arc::clone(&registry),
                    &config.replicate_to,
                    Arc::clone(handle),
                    Arc::clone(&fence),
                    Arc::clone(&shutdown),
                );
                (stats, vec![join])
            }
        };
        let inner = Arc::new(Inner {
            config,
            registry,
            committer,
            addr,
            shutdown,
            live: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            follower,
            fence,
            replication,
            shipper_stats,
            shippers: Mutex::new(shippers),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("hdl-accept".to_owned())
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawn accept thread")
        };
        Ok(Server {
            inner,
            accept: Some(accept),
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Asks the server to drain (idempotent); `drain` completes it.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, SeqCst);
    }

    /// Whether a drain has been requested (by
    /// [`request_shutdown`](Self::request_shutdown) or a client
    /// `shutdown` op).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(SeqCst)
    }

    /// Blocks until a drain is requested — by a client `shutdown` op,
    /// [`request_shutdown`](Self::request_shutdown) from another thread,
    /// or `term` going true (e.g. the SIGTERM flag) — then drains.
    pub fn run(self, term: Option<&AtomicBool>) {
        while !self.shutdown_requested() && !term.is_some_and(|t| t.load(SeqCst)) {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.drain();
    }

    /// Graceful shutdown: stop accepting, half-close clients (in-flight
    /// replies still deliver), join handlers, checkpoint every durable
    /// tenant, stop the group committer.
    pub fn drain(mut self) {
        self.request_shutdown();
        if let Some(h) = self.accept.take() {
            // The accept thread blocks in `accept`; one connection of our
            // own wakes it to see the flag. Should that connect fail, the
            // thread is left behind rather than joined forever.
            if wake_accept(self.inner.addr).is_ok() {
                let _ = h.join();
            }
        }
        {
            let conns = self
                .inner
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for stream in conns.values() {
                // Half-close: the handler's next read sees EOF and exits
                // after finishing (and replying to) its current request.
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let handlers: Vec<_> = self
            .inner
            .handlers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handlers {
            let _ = h.join();
        }
        let shippers: Vec<_> = self
            .inner
            .shippers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in shippers {
            let _ = h.join();
        }
        for (name, result) in self.inner.registry.checkpoint_all() {
            match result {
                Ok(epoch) => eprintln!("tenant {name}: checkpointed epoch {epoch} on shutdown"),
                Err(e) => eprintln!(
                    "warning: tenant {name}: shutdown checkpoint failed: {}",
                    e.message
                ),
            }
        }
        if let Some(c) = &self.inner.committer {
            c.shutdown();
        }
    }
}

/// Connects to the listener at `addr` (through loopback when it is
/// bound to every interface), so a blocked `accept` returns.
fn wake_accept(addr: SocketAddr) -> io::Result<()> {
    let mut target = addr;
    if addr.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&target, Duration::from_secs(1)).map(drop)
}

/// Accepts connections until a drain is requested. `accept` blocks; the
/// drain wakes it with [`wake_accept`], whose connection is dropped here
/// unserved.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.shutdown.load(SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if inner.live.load(SeqCst) >= inner.config.max_connections as u64 {
                    inner.refused.fetch_add(1, SeqCst);
                    refuse(stream);
                    continue;
                }
                let id = inner.accepted.fetch_add(1, SeqCst);
                inner.live.fetch_add(1, SeqCst);
                if let Ok(clone) = stream.try_clone() {
                    inner
                        .conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(id, clone);
                }
                let handler = {
                    let inner = Arc::clone(inner);
                    std::thread::Builder::new()
                        .name(format!("hdl-conn-{id}"))
                        .spawn(move || {
                            let _ = serve_connection(&inner, stream);
                            inner
                                .conns
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .remove(&id);
                            inner.live.fetch_sub(1, SeqCst);
                        })
                        .expect("spawn connection handler")
                };
                inner
                    .handlers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handler);
            }
            // Out of descriptors, say: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Tells an over-capacity client why it is being dropped.
fn refuse(mut stream: TcpStream) {
    let line = Reply::err("overloaded", "server at max connections").render(None);
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// Builds the service request for a query/answers op: explicit options
/// win, server defaults fill the gaps, and the tenant's per-query fact
/// quota (`quota_max_facts`) is a ceiling a request may lower but never
/// raise.
fn build_request(
    kind_is_rows: bool,
    text: &str,
    opts: &crate::protocol::QueryOpts,
    config: &ServerConfig,
    quota_max_facts: Option<u64>,
) -> QueryRequest {
    let mut req = if kind_is_rows {
        QueryRequest::answers(text)
    } else {
        QueryRequest::ask(text)
    };
    req = req.with_engine(opts.engine.unwrap_or(config.default_engine));
    if let Some(d) = opts.deadline.or(config.default_deadline) {
        req = req.with_deadline(d);
    }
    match (opts.max_facts, quota_max_facts) {
        (Some(r), Some(q)) => req = req.with_max_facts(r.min(q)),
        (Some(r), None) => req = req.with_max_facts(r),
        // No per-request value: the tenant quota already sits in the
        // service config default.
        (None, _) => {}
    }
    req
}

/// How many pipelined requests one handler pass will take off the wire
/// at once. Bounds both the mutation window handed to
/// [`Tenant::apply_batch`] and the reply burst written back.
const PIPELINE_WINDOW: usize = 256;

/// Hard ceiling on one request line. Replication checkpoint transfers
/// are the biggest legitimate lines (base64 of a whole tenant image);
/// everything else is orders of magnitude smaller. Beyond this, the
/// line is not a request — it is a memory exhaustion attempt — and the
/// connection gets a structured `protocol` error and the boot.
pub(crate) const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Read-buffer capacity a connection may keep between windows. A longer
/// line grows the buffer past it; once that line is consumed the buffer
/// shrinks to the bytes still pending, so one big request does not pin
/// its size in memory for the life of the connection.
const KEEP_BUFFER_BYTES: usize = 1024 * 1024;

/// A line reader that can *drain* without blocking: [`next_line`]
/// (Self::next_line) blocks for the next request like `BufReader::lines`
/// would, but [`buffered_line`](Self::buffered_line) only yields lines
/// the client has already sent (topping the buffer up with one
/// nonblocking read). That distinction is what turns a pipelining client
/// into deep mutation windows: the handler blocks for the first request
/// of a pass, then sweeps in every request already queued behind it.
///
/// Lines are handed out as byte ranges of the read buffer and parsed in
/// place, so a request line is never copied before it is parsed.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    /// Bytes already scanned for a newline (absolute index into `buf`).
    /// Keeps a newline-free stream linear: without it, every 16 KiB
    /// fill would rescan the whole pending line from the top.
    scanned: usize,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
        }
    }

    /// Drops the lines already handed out, and the buffer capacity above
    /// [`KEEP_BUFFER_BYTES`]. Ranges from earlier calls are invalid
    /// afterwards, so the handler calls this between windows only.
    fn discard_consumed(&mut self) {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
        if self.buf.capacity() > KEEP_BUFFER_BYTES {
            self.buf.shrink_to_fit();
        }
    }

    /// The text of a line handed out since the last
    /// [`discard_consumed`](Self::discard_consumed): a slice of the read
    /// buffer, copied only if it is not valid UTF-8.
    fn line(&self, range: Range<usize>) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.buf[range])
    }

    /// The next complete line, blocking for it; `None` on EOF.
    fn next_line(&mut self) -> io::Result<Option<Range<usize>>> {
        loop {
            if let Some(line) = self.take_buffered_line() {
                return Ok(Some(line));
            }
            if !self.fill(true)? {
                return Ok(None);
            }
        }
    }

    /// A complete line the client has already sent, or `None` — never
    /// blocks. One nonblocking read tops the buffer up first so a burst
    /// that landed in the socket since the last pass is included.
    fn buffered_line(&mut self) -> Option<Range<usize>> {
        if let Some(line) = self.take_buffered_line() {
            return Some(line);
        }
        let _ = self.fill(false);
        self.take_buffered_line()
    }

    fn take_buffered_line(&mut self) -> Option<Range<usize>> {
        let from = self.scanned.max(self.start);
        let Some(off) = self.buf[from..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            return None;
        };
        let nl = from + off;
        let line = self.start..nl;
        self.start = nl + 1;
        self.scanned = self.start;
        Some(line)
    }

    /// Reads more bytes into the buffer. Returns false on EOF, or — in
    /// nonblocking mode — when nothing is ready. The nonblocking toggle
    /// also affects the write clone of this socket (same underlying
    /// description), so it is always restored before returning and
    /// nothing writes concurrently with a fill.
    fn fill(&mut self, blocking: bool) -> io::Result<bool> {
        // `fill` only runs when the pending bytes hold no complete line
        // (both callers drain complete lines first), so the pending
        // region is one partial line and this bound is exact.
        if self.buf.len() - self.start > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        let mut chunk = [0u8; 16 * 1024];
        if !blocking {
            self.stream.set_nonblocking(true)?;
        }
        let result = self.stream.read(&mut chunk);
        if !blocking {
            let _ = self.stream.set_nonblocking(false);
        }
        match result {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                if blocking {
                    self.fill(true)
                } else {
                    Ok(false)
                }
            }
            Err(e) => Err(e),
        }
    }
}

/// Renders one batch result in the same shape the single-op path uses.
/// A window whose replication quorum wait timed out turns every applied
/// op's ack into a structured `degraded_ack`: the mutation is durable
/// locally and will reach the followers eventually, but the client's
/// quorum contract was not met within the deadline.
fn mutation_reply(
    tenant: &Tenant,
    result: Result<Applied, crate::tenant::TenantError>,
    degraded: Option<(usize, usize)>,
) -> Reply {
    if let (Ok(_), Some((replicated, required))) = (&result, degraded) {
        return Reply::err(
            "degraded_ack",
            "mutation applied and locally durable, but the replication \
             quorum wait hit its deadline",
        )
        .with("replicated", Json::num(replicated as f64))
        .with("required", Json::num(required as f64));
    }
    match result {
        Ok(Applied::Loaded) => Reply::ok("load").with("epoch", Json::num(tenant.epoch() as f64)),
        Ok(Applied::Assumed { frames }) => {
            Reply::ok("assume").with("frames", Json::num(frames as f64))
        }
        Ok(Applied::Popped { popped, frames }) => Reply::ok("pop")
            .with("popped", Json::num(popped as f64))
            .with("frames", Json::num(frames as f64)),
        Ok(Applied::Retracted { removed }) => {
            Reply::ok("retract").with("removed", Json::Bool(removed))
        }
        Err(e) => Reply::err(e.kind, e.message),
    }
}

/// Handles one non-mutation request (or a mutation with no tenant
/// bound). Returns the reply and whether the connection should close.
fn handle_one(
    inner: &Arc<Inner>,
    tenant: &mut Option<Arc<Tenant>>,
    replica: &mut Option<Arc<ReplicaTenant>>,
    request: &Request,
) -> (Reply, bool) {
    // A promotion mid-connection leaves stale replica bindings: rebind
    // through the registry, which owns the directories now.
    if replica.is_some() && inner.follower.as_ref().is_some_and(|f| !f.is_follower()) {
        let name = replica.take().expect("checked above").name().to_owned();
        if let Ok(t) = inner.registry.open(&name) {
            *tenant = Some(t);
        }
    }
    // The follower role, while it lasts, refuses every mutation with a
    // structured `read_only` error pointing at the primary.
    let follower = inner.follower.as_ref().filter(|f| f.is_follower());
    let is_mutation = request.op_text().is_some() || matches!(request, Request::Checkpoint);
    if let Some(f) = follower {
        if is_mutation {
            return (
                Reply::err(
                    "read_only",
                    format!(
                        "this server is a read-only follower of {}; send mutations there",
                        f.primary()
                    ),
                ),
                false,
            );
        }
    }
    // A fenced server has been superseded by a newer primary: every
    // mutation is refused until an operator promotes it (which clears
    // the latch by bumping the epoch past everything observed).
    if is_mutation && inner.fence.is_fenced() {
        return (fenced_reply(&inner.fence), false);
    }
    let mut close = false;
    let reply = match request {
        Request::Hello => Reply::ok("hello")
            .with("server", Json::str("hdl"))
            .with("protocol", Json::num(PROTOCOL_VERSION as f64))
            .with("group_commit", Json::Bool(inner.committer.is_some()))
            .with(
                "role",
                Json::str(if follower.is_some() {
                    "follower"
                } else {
                    "primary"
                }),
            )
            .with("fence_epoch", Json::num(inner.fence.epoch() as f64))
            .with("fenced", Json::Bool(inner.fence.is_fenced())),
        Request::Open { tenant: name, sync } => match follower {
            Some(f) => match f.open_replica(name) {
                Ok(r) => {
                    let pos = r.position();
                    let reply = Reply::ok("open")
                        .with("tenant", Json::str(r.name()))
                        .with("read_only", Json::Bool(true))
                        .with("epoch", Json::num(pos.epoch as f64));
                    *replica = Some(r);
                    *tenant = None;
                    reply
                }
                Err(e) => Reply::err(e.kind, e.message),
            },
            None => {
                let targets = inner.replication.as_ref().map_or(0, |r| r.targets());
                match sync {
                    Some(n) if *n as usize > targets => Reply::err(
                        "protocol",
                        format!(
                            "sync quorum {n} exceeds the {targets} configured \
                             replication targets"
                        ),
                    ),
                    _ => match inner.registry.open(name) {
                        Ok(t) => {
                            if let Some(n) = sync {
                                t.set_sync_replicas(*n as usize);
                            }
                            let reply = Reply::ok("open")
                                .with("tenant", Json::str(t.name()))
                                .with("durable", Json::Bool(t.is_durable()))
                                .with("epoch", Json::num(t.epoch() as f64))
                                .with("sync", Json::num(t.sync_replicas() as f64));
                            *tenant = Some(t);
                            *replica = None;
                            reply
                        }
                        Err(e) => Reply::err(e.kind, e.message),
                    },
                }
            }
        },
        Request::Query { q, opts } => match (&tenant, &replica) {
            (Some(t), _) => {
                let req = build_request(false, q, opts, &inner.config, t.quotas().query_max_facts);
                outcome_reply("query", &t.query(req))
            }
            (None, Some(r)) => {
                let req = build_request(
                    false,
                    q,
                    opts,
                    &inner.config,
                    inner.config.quotas.query_max_facts,
                );
                outcome_reply("query", &r.service().submit(req).wait())
            }
            (None, None) => no_tenant(),
        },
        Request::Answers { pattern, opts } => match (&tenant, &replica) {
            (Some(t), _) => {
                let req = build_request(
                    true,
                    pattern,
                    opts,
                    &inner.config,
                    t.quotas().query_max_facts,
                );
                outcome_reply("answers", &t.query(req))
            }
            (None, Some(r)) => {
                let req = build_request(
                    true,
                    pattern,
                    opts,
                    &inner.config,
                    inner.config.quotas.query_max_facts,
                );
                outcome_reply("answers", &r.service().submit(req).wait())
            }
            (None, None) => no_tenant(),
        },
        Request::Load { .. } | Request::Assume { .. } | Request::Pop | Request::Retract { .. } => {
            match &tenant {
                // With a tenant bound these ops go through the batch
                // path in `serve_connection`, never here.
                None => no_tenant(),
                Some(t) => {
                    let op = request.op_text().expect("mutation arm");
                    let mut outcome = t.apply_batch(&[op]);
                    let result = outcome.replies.pop().expect("one reply per op");
                    mutation_reply(t, result, outcome.degraded)
                }
            }
        }
        Request::Checkpoint => with_tenant(tenant, |t| {
            t.checkpoint()
                .map(|epoch| Reply::ok("checkpoint").with("epoch", Json::num(epoch as f64)))
        }),
        Request::Stats => stats_reply(inner, tenant.as_deref(), replica.as_deref()),
        Request::Close => {
            close = true;
            Reply::ok("close")
        }
        Request::Shutdown => {
            close = true;
            inner.shutdown.store(true, SeqCst);
            Reply::ok("shutdown").with("draining", Json::Bool(true))
        }
        Request::RepPosition {
            tenant: name,
            fence,
        } => match rep_fence_gate(inner, follower, fence) {
            Err(refusal) => refusal,
            Ok(None) => not_follower(),
            Ok(Some(f)) => {
                f.touch();
                stamp_fence(inner, f.rep_position(name))
            }
        },
        Request::RepWindow {
            tenant: name,
            epoch,
            offset,
            data,
            fence,
        } => match rep_fence_gate(inner, follower, fence) {
            Err(refusal) => refusal,
            Ok(None) => not_follower(),
            Ok(Some(f)) => {
                f.touch();
                match b64_decode(data) {
                    Err(e) => Reply::err("parse", format!("bad base64 in rep_window: {e}")),
                    Ok(bytes) => {
                        let reply = f.apply_window(name, *epoch, *offset, &bytes);
                        // Crash window: the bytes are applied and
                        // fsynced, but the ack never leaves — the
                        // primary re-negotiates and sees them acked
                        // implicitly in the resumed position.
                        hdl_base::failpoint_fire!("replicate::ack");
                        hdl_persist::crashpoint::crash_point("replicate::ack");
                        stamp_fence(inner, reply)
                    }
                }
            }
        },
        Request::RepCheckpoint {
            tenant: name,
            epoch,
            data,
            fence,
        } => match rep_fence_gate(inner, follower, fence) {
            Err(refusal) => refusal,
            Ok(None) => not_follower(),
            Ok(Some(f)) => {
                f.touch();
                match b64_decode(data) {
                    Err(e) => Reply::err("parse", format!("bad base64 in rep_checkpoint: {e}")),
                    Ok(image) => stamp_fence(inner, f.install_checkpoint(name, *epoch, &image)),
                }
            }
        },
        Request::RepHeartbeat { fence } => match rep_fence_gate(inner, follower, fence) {
            Err(refusal) => refusal,
            Ok(None) => not_follower(),
            Ok(Some(f)) => {
                f.touch();
                stamp_fence(inner, Reply::ok("rep_heartbeat"))
            }
        },
        Request::RepFence { epoch } => {
            // An explicit fencing announcement. A writable primary that
            // learns of a newer epoch latches itself read-only; a
            // follower merely adopts it (its eventual promotion must
            // bump above it).
            if follower.is_some() {
                inner.fence.adopt(*epoch);
            } else if inner.fence.fence_to(*epoch) {
                warn_fenced(*epoch);
            }
            Reply::ok("rep_fence")
                .with("epoch", Json::num(inner.fence.epoch() as f64))
                .with("fenced", Json::Bool(inner.fence.is_fenced()))
        }
        Request::Promote => match &inner.follower {
            None => Reply::err("protocol", "this server is not a follower"),
            Some(f) => {
                let was_follower = f.is_follower();
                let names = f.promote();
                // Bump the fencing epoch past everything this follower
                // observed from its primary, exactly once per actual
                // promotion (a second promote is a no-op).
                let fence_epoch = if was_follower {
                    inner.fence.bump_for_promote()
                } else {
                    inner.fence.epoch()
                };
                Reply::ok("promote")
                    .with("role", Json::str("primary"))
                    .with("fence_epoch", Json::num(fence_epoch as f64))
                    .with("tenants", Json::Arr(names.iter().map(Json::str).collect()))
            }
        },
    };
    (reply, close)
}

/// The fencing gate every `rep_*` op passes through. A stamped request
/// from a sender whose fence epoch is *older* than ours is refused with
/// a `fenced` reply naming our epoch — that is how a promoted follower
/// (or anyone who outlived the promotion) fences a restarted old
/// primary's shipper. Unstamped requests (pre-fencing peers, manual
/// probes) skip the check. On a live follower the stamp is adopted so
/// its eventual promotion bumps above the primary's epoch.
#[allow(clippy::type_complexity)]
fn rep_fence_gate<'a>(
    inner: &Arc<Inner>,
    follower: Option<&'a Arc<FollowerState>>,
    stamp: &Option<u64>,
) -> Result<Option<&'a Arc<FollowerState>>, Reply> {
    if let Some(stamp) = stamp {
        if *stamp < inner.fence.epoch() {
            return Err(fenced_reply(&inner.fence));
        }
        if follower.is_some() {
            inner.fence.adopt(*stamp);
        }
    }
    Ok(follower)
}

/// Stamps our fencing epoch onto a replication reply so the peer
/// observes promotions it missed.
fn stamp_fence(inner: &Arc<Inner>, reply: Reply) -> Reply {
    reply.with("fence", Json::num(inner.fence.epoch() as f64))
}

/// The structured `fenced` refusal, naming the epoch that superseded
/// this server.
fn fenced_reply(fence: &FenceState) -> Reply {
    Reply::err(
        "fenced",
        format!(
            "a newer primary exists (fence epoch {}); this server is \
             read-only until promoted",
            fence.epoch()
        ),
    )
    .with("epoch", Json::num(fence.epoch() as f64))
}

/// One structured warning when this process latches itself fenced via
/// an explicit `rep_fence` op.
fn warn_fenced(epoch: u64) {
    eprintln!(
        "{}",
        Json::obj(vec![
            ("warn", Json::str("fenced")),
            ("observed_epoch", Json::num(epoch as f64)),
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

fn serve_connection(inner: &Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    let mut reader = LineReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut tenant: Option<Arc<Tenant>> = None;
    let mut replica: Option<Arc<ReplicaTenant>> = None;
    // Block for one request, then sweep in whatever the client has
    // already pipelined behind it (bounded by the window).
    'conn: loop {
        reader.discard_consumed();
        let first = match reader.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            // An oversized line is a protocol violation, not an IO fault:
            // tell the client what happened before hanging up.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let reply = Reply::err("protocol", e.to_string()).render(None);
                let _ = out.write_all(reply.as_bytes());
                let _ = out.write_all(b"\n");
                let _ = out.flush();
                break;
            }
            Err(_) => break,
        };
        let mut lines = vec![first];
        while lines.len() < PIPELINE_WINDOW {
            match reader.buffered_line() {
                Some(line) => lines.push(line),
                None => break,
            }
        }
        let parsed: Vec<Result<(Request, Option<u64>), String>> = lines
            .iter()
            .map(|range| reader.line(range.clone()))
            .filter(|l| !l.trim().is_empty())
            .map(|l| Request::parse(&l).map_err(|m| m.to_string()))
            .collect();
        let mut replies = String::new();
        let mut close = false;
        let mut i = 0;
        while i < parsed.len() && !close {
            match &parsed[i] {
                Err(msg) => {
                    replies.push_str(&Reply::err("parse", msg.clone()).render(None));
                    replies.push('\n');
                    i += 1;
                }
                Ok((request, id)) => {
                    // A run of consecutive mutations on a bound tenant
                    // becomes ONE batch: one lock hold, one snapshot,
                    // one durability wait for the whole run. A fenced
                    // server skips batching so each mutation falls
                    // through to `handle_one`'s structured refusal.
                    let batching = if request.op_text().is_some() && !inner.fence.is_fenced() {
                        tenant.clone()
                    } else {
                        None
                    };
                    if let Some(t) = batching {
                        let mut ops = Vec::new();
                        let mut ids = Vec::new();
                        while let Some(Ok((r, rid))) = parsed.get(i) {
                            match r.op_text() {
                                Some(op) => {
                                    ops.push(op);
                                    ids.push(*rid);
                                    i += 1;
                                }
                                None => break,
                            }
                        }
                        let outcome = t.apply_batch(&ops);
                        let degraded = outcome.degraded;
                        for (result, rid) in outcome.replies.into_iter().zip(ids) {
                            replies.push_str(&mutation_reply(&t, result, degraded).render(rid));
                            replies.push('\n');
                        }
                    } else {
                        let (reply, c) = handle_one(inner, &mut tenant, &mut replica, request);
                        close = c;
                        replies.push_str(&reply.render(*id));
                        replies.push('\n');
                        i += 1;
                    }
                }
            }
        }
        out.write_all(replies.as_bytes())?;
        out.flush()?;
        if close {
            break 'conn;
        }
    }
    Ok(())
}

fn no_tenant() -> Reply {
    Reply::err(
        "no-tenant",
        "no tenant bound — send {\"op\":\"open\",\"tenant\":NAME} first",
    )
}

fn not_follower() -> Reply {
    Reply::err("protocol", "this server is not a follower")
}

fn with_tenant(
    tenant: &Option<Arc<Tenant>>,
    f: impl FnOnce(&Tenant) -> Result<Reply, crate::tenant::TenantError>,
) -> Reply {
    match tenant {
        None => no_tenant(),
        Some(t) => match f(t) {
            Ok(reply) => reply,
            Err(e) => Reply::err(e.kind, e.message),
        },
    }
}

fn stats_reply(
    inner: &Arc<Inner>,
    tenant: Option<&Tenant>,
    replica: Option<&ReplicaTenant>,
) -> Reply {
    let server = Json::obj(vec![
        ("addr", Json::str(inner.addr.to_string())),
        (
            "connections_live",
            Json::num(inner.live.load(SeqCst) as f64),
        ),
        (
            "connections_total",
            Json::num(inner.accepted.load(SeqCst) as f64),
        ),
        (
            "connections_refused",
            Json::num(inner.refused.load(SeqCst) as f64),
        ),
        ("tenants", Json::num(inner.registry.len() as f64)),
        ("draining", Json::Bool(inner.shutdown.load(SeqCst))),
        ("fence_epoch", Json::num(inner.fence.epoch() as f64)),
        ("fenced", Json::Bool(inner.fence.is_fenced())),
        (
            "group_commit",
            match &inner.committer {
                Some(c) => c.stats().to_json(),
                None => Json::Null,
            },
        ),
    ]);
    let mut reply = Reply::ok("stats").with("server", server);
    if let Some(f) = &inner.follower {
        reply = reply.with("replication", f.stats_json());
    } else if !inner.shipper_stats.is_empty() {
        let targets: Vec<Json> = inner.shipper_stats.iter().map(|s| s.to_json()).collect();
        reply = reply.with(
            "replication",
            Json::obj(vec![
                ("role", Json::str("primary")),
                (
                    "sync_replicas",
                    Json::num(inner.config.sync_replicas as f64),
                ),
                ("targets", Json::Arr(targets)),
            ]),
        );
    }
    if let Some(t) = tenant {
        reply = reply
            .with("tenant", t.stats_json())
            .with("service", t.service().stats().to_json());
    } else if let Some(r) = replica {
        reply = reply
            .with("tenant", r.stats_json())
            .with("service", r.service().stats().to_json());
    }
    reply
}

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    // An atomic store is async-signal-safe.
    TERM.store(true, SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that set (and return) a flag, for
/// hosts to pass to [`Server::run`]. Uses `signal(2)` directly against
/// the libc std already links — the build environment has no signal
/// crate, and a flag store is all a drain needs.
#[cfg(unix)]
pub fn install_termination_flag() -> &'static AtomicBool {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
    }
    &TERM
}

/// Non-unix fallback: the flag exists but nothing sets it (client
/// `shutdown` ops still drain the server).
#[cfg(not(unix))]
pub fn install_termination_flag() -> &'static AtomicBool {
    &TERM
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        fn send(&mut self, line: &str) -> Json {
            writeln!(self.writer, "{line}").unwrap();
            self.writer.flush().unwrap();
            self.recv()
        }

        fn recv(&mut self) -> Json {
            let mut reply = String::new();
            self.reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim()).unwrap()
        }
    }

    fn ok(v: &Json) -> bool {
        v.get("ok").and_then(Json::as_bool) == Some(true)
    }

    #[test]
    fn end_to_end_session_over_tcp() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
        let mut c = Client::connect(addr);

        let hello = c.send("{\"op\":\"hello\"}");
        assert!(ok(&hello));
        // Queries before open are structured errors, not disconnects.
        let early = c.send("{\"op\":\"query\",\"q\":\"p(a)\"}");
        assert_eq!(early.get("kind").and_then(Json::as_str), Some("no-tenant"));

        assert!(ok(&c.send("{\"op\":\"open\",\"tenant\":\"t1\"}")));
        assert!(ok(&c.send(
            "{\"op\":\"load\",\"program\":\"edge(a, b). tc(X, Y) :- edge(X, Y).\"}"
        )));
        let yes = c.send("{\"op\":\"query\",\"q\":\"tc(a, b)\",\"id\":5}");
        assert_eq!(yes.get("result").and_then(Json::as_str), Some("true"));
        assert_eq!(yes.get("id").and_then(Json::as_u64), Some(5));
        let rows = c.send("{\"op\":\"answers\",\"pattern\":\"tc(X, Y)\"}");
        assert_eq!(rows.get("count").and_then(Json::as_u64), Some(1));

        let stats = c.send("{\"op\":\"stats\"}");
        assert!(ok(&stats));
        let addr_in_stats = stats
            .get("server")
            .and_then(|s| s.get("addr"))
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        assert_eq!(addr_in_stats, addr.to_string());

        assert!(ok(&c.send("{\"op\":\"close\"}")));
        server.drain();
    }

    #[test]
    fn connection_admission_refuses_past_cap() {
        let server = Server::start(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut first = Client::connect(server.addr());
        assert!(ok(&first.send("{\"op\":\"hello\"}")));
        // The second connection is refused with a structured line.
        let mut second = Client::connect(server.addr());
        let refusal = second.recv();
        assert_eq!(
            refusal.get("kind").and_then(Json::as_str),
            Some("overloaded")
        );
        drop(second);
        server.drain();
    }

    #[test]
    fn shutdown_op_drains_cleanly() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.addr();
        let mut c = Client::connect(addr);
        assert!(ok(&c.send("{\"op\":\"open\",\"tenant\":\"t\"}")));
        let bye = c.send("{\"op\":\"shutdown\"}");
        assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
        // run() observes the flag the op set and drains.
        server.run(None);
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may briefly accept into the backlog after close;
                // either refusal or an immediately-dead socket is fine.
                true
            }
        );
    }

    /// A client that writes many requests before reading gets one reply
    /// per request, in order, with ids echoed — and mutation runs are
    /// windowed through the batch path without changing the wire shape.
    #[test]
    fn pipelined_requests_reply_in_order() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        assert!(ok(&c.send("{\"op\":\"open\",\"tenant\":\"t\"}")));
        let mut burst = String::new();
        for i in 0..40 {
            burst.push_str(&format!(
                "{{\"op\":\"load\",\"program\":\"p(x{i}).\",\"id\":{i}}}\n"
            ));
        }
        // A query rides in the middle of the next burst: it must see
        // every mutation acked before it and keep its place in line.
        burst.push_str("{\"op\":\"query\",\"q\":\"p(x39)\",\"id\":100}\n");
        burst.push_str("{\"op\":\"load\",\"program\":\"p(tail).\",\"id\":101}\n");
        c.writer.write_all(burst.as_bytes()).unwrap();
        c.writer.flush().unwrap();
        for i in 0..40 {
            let reply = c.recv();
            assert!(ok(&reply), "load {i} failed: {reply:?}");
            assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i));
        }
        let q = c.recv();
        assert_eq!(q.get("id").and_then(Json::as_u64), Some(100));
        assert_eq!(q.get("result").and_then(Json::as_str), Some("true"));
        let tail = c.recv();
        assert_eq!(tail.get("id").and_then(Json::as_u64), Some(101));
        assert!(ok(&tail));
        server.drain();
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let pid = std::process::id();
            let n = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos();
            let dir = std::env::temp_dir().join(format!("hdl-server-{tag}-{pid}-{n}"));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Polls `check` for up to ~5s; panics with `what` on timeout.
    fn wait_for(what: &str, mut check: impl FnMut() -> bool) {
        for _ in 0..500 {
            if check() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    /// End-to-end primary → follower: mutations on the primary become
    /// queryable on the follower, the follower refuses mutations with a
    /// structured `read_only` error and reports staleness, and promote
    /// turns it into a writable primary.
    #[test]
    fn follower_replicates_serves_read_only_and_promotes() {
        let p_root = TempDir::new("rep-p");
        let f_root = TempDir::new("rep-f");
        let follower = Server::start(ServerConfig {
            persist_root: Some(f_root.0.clone()),
            follow: Some("primary.invalid:0".to_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        let primary = Server::start(ServerConfig {
            persist_root: Some(p_root.0.clone()),
            replicate_to: vec![follower.addr().to_string()],
            ..ServerConfig::default()
        })
        .unwrap();

        let mut p = Client::connect(primary.addr());
        assert!(ok(&p.send("{\"op\":\"open\",\"tenant\":\"t\"}")));
        assert!(ok(&p.send(
            "{\"op\":\"load\",\"program\":\"edge(a, b). edge(b, c). \
             tc(X, Y) :- edge(X, Y). tc(X, Z) :- edge(X, Y), tc(Y, Z).\"}"
        )));

        let mut f = Client::connect(follower.addr());
        let hello = f.send("{\"op\":\"hello\"}");
        assert_eq!(hello.get("role").and_then(Json::as_str), Some("follower"));
        let open = f.send("{\"op\":\"open\",\"tenant\":\"t\"}");
        assert_eq!(open.get("read_only").and_then(Json::as_bool), Some(true));
        wait_for("replicated answer on the follower", || {
            f.send("{\"op\":\"query\",\"q\":\"tc(a, c)\"}")
                .get("result")
                .and_then(Json::as_str)
                == Some("true")
        });

        // Mutations on the follower are refused with `read_only`.
        let denied = f.send("{\"op\":\"load\",\"program\":\"edge(c, d).\"}");
        assert_eq!(denied.get("kind").and_then(Json::as_str), Some("read_only"));
        let denied = f.send("{\"op\":\"checkpoint\"}");
        assert_eq!(denied.get("kind").and_then(Json::as_str), Some("read_only"));

        // Stats on both sides show the replication link.
        let stats = f.send("{\"op\":\"stats\"}");
        let rep = stats.get("replication").expect("follower replication");
        assert_eq!(rep.get("role").and_then(Json::as_str), Some("follower"));
        assert!(rep.get("last_contact_ms").and_then(Json::as_u64).is_some());
        let stats = p.send("{\"op\":\"stats\"}");
        let rep = stats.get("replication").expect("primary replication");
        assert_eq!(rep.get("role").and_then(Json::as_str), Some("primary"));

        // A checkpoint rotation on the primary ships an image and the
        // follower keeps tracking new windows after it.
        assert!(ok(&p.send("{\"op\":\"checkpoint\"}")));
        assert!(ok(&p.send("{\"op\":\"load\",\"program\":\"edge(c, d).\"}")));
        wait_for("post-rotation window on the follower", || {
            f.send("{\"op\":\"query\",\"q\":\"tc(a, d)\"}")
                .get("result")
                .and_then(Json::as_str)
                == Some("true")
        });

        // Promote: the follower becomes writable; the same connection's
        // stale replica binding is rebound transparently.
        let promoted = f.send("{\"op\":\"promote\"}");
        assert!(ok(&promoted), "{promoted:?}");
        assert_eq!(promoted.get("role").and_then(Json::as_str), Some("primary"));
        assert!(ok(&f.send("{\"op\":\"open\",\"tenant\":\"t\"}")));
        assert!(ok(&f.send("{\"op\":\"load\",\"program\":\"edge(d, e).\"}")));
        let q = f.send("{\"op\":\"query\",\"q\":\"tc(a, e)\"}");
        assert_eq!(q.get("result").and_then(Json::as_str), Some("true"));
        // A second promote is a no-op, not an error.
        assert!(ok(&f.send("{\"op\":\"promote\"}")));

        primary.drain();
        follower.drain();
    }

    /// Rep ops against a server that is not a follower are structured
    /// protocol errors, never panics.
    #[test]
    fn rep_ops_refused_on_non_followers() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        for line in [
            "{\"op\":\"rep_position\",\"tenant\":\"t\"}",
            "{\"op\":\"rep_window\",\"tenant\":\"t\",\"epoch\":0,\"offset\":16,\"data\":\"\"}",
            "{\"op\":\"rep_checkpoint\",\"tenant\":\"t\",\"epoch\":1,\"data\":\"\"}",
            "{\"op\":\"rep_heartbeat\"}",
            "{\"op\":\"promote\"}",
        ] {
            let reply = c.send(line);
            assert_eq!(
                reply.get("kind").and_then(Json::as_str),
                Some("protocol"),
                "{line}"
            );
        }
        server.drain();
    }

    #[test]
    fn follower_config_validation() {
        assert!(Server::start(ServerConfig {
            follow: Some("127.0.0.1:1".to_owned()),
            ..ServerConfig::default()
        })
        .is_err());
        let root = TempDir::new("rep-conflict");
        assert!(Server::start(ServerConfig {
            persist_root: Some(root.0.clone()),
            follow: Some("127.0.0.1:1".to_owned()),
            replicate_to: vec!["127.0.0.1:2".to_owned()],
            ..ServerConfig::default()
        })
        .is_err());
    }

    #[test]
    fn bad_tenant_names_are_refused() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        let bad = c.send("{\"op\":\"open\",\"tenant\":\"../escape\"}");
        assert_eq!(
            bad.get("kind").and_then(Json::as_str),
            Some("bad-tenant-name")
        );
        server.drain();
    }
}
