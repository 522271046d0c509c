//! `hdl` — an interactive shell and batch/serve front-end for
//! hypothetical Datalog.
//!
//! ```console
//! $ cargo run --bin hdl [file.hdl ...]
//! hdl> take(tony, his101).
//! hdl> grad(S) :- take(S, his101), take(S, eng201).
//! hdl> ?- grad(tony)[add: take(tony, eng201)].
//! true
//! hdl> :explain ?- grad(tony)[add: take(tony, eng201)].
//! grad(tony)    [rule 0]
//!   ...
//! ```
//!
//! Lines ending in `.` are programs (rules/facts) or queries (`?- …`).
//! Commands: `:load FILE`, `:rules`, `:facts`, `:answers PATTERN`,
//! `:explain QUERY`, `:strata`, `:stats`, `:help`, `:quit`.
//!
//! Two further modes drive the `hdl-service` concurrent executor:
//!
//! ```console
//! $ hdl batch queries.hdl --workers 4 --engine top-down --deadline-ms 500
//! $ printf '?- grad(tony).\n' | hdl serve --stdin --workers 4 program.hdl
//! ```
//!
//! `batch` runs every `?- …` line of its input concurrently (program
//! lines load in order and publish fresh snapshots), emits one result
//! line per query in input order, prints a `ServiceStats` summary to
//! stderr, and exits non-zero if any query errored. `serve --stdin`
//! loads the given program files, then answers query lines from stdin
//! one at a time; `:stats` prints the live service counters (`:stats
//! --json` as one machine-readable line). Both accept `:answers
//! PATTERN` lines for all-tuples queries; a budget trip mid-scan prints
//! the partial answer set (`… partial: reason`) rather than discarding
//! tuples already proven. `serve` with neither `--stdin` nor `--listen`
//! is a usage error.
//!
//! The network server and its client (`crates/server`,
//! `docs/protocol.md`):
//!
//! ```console
//! $ hdl serve --listen 127.0.0.1:0 --persist-root ./data
//! listening on 127.0.0.1:40213
//! $ hdl connect 127.0.0.1:40213 --tenant alice
//! ```
//!
//! `serve --listen` multiplexes named tenants — each a full durable
//! session under `<persist-root>/tenants/<name>` — over TCP
//! (newline-delimited JSON), sharing fsyncs across concurrent
//! mutations via group commit; the resolved address prints on stdout
//! so scripts can bind port 0. Admission: `--max-connections`,
//! `--tenant-max-facts`, `--tenant-max-depth`, `--tenant-queue-cap`,
//! `--tenant-in-flight`. SIGTERM or a client `shutdown` op drains
//! gracefully, checkpointing every durable tenant. `connect` turns
//! REPL-dialect lines into protocol requests (raw `{…}` lines pass
//! through) and prints each JSON reply.
//!
//! Fault-tolerance flags (batch/serve): `--max-facts N` caps the facts
//! a query may intern (trips print `memory-exceeded`), `--retries N`
//! bounds panic-retry attempts per query, `--queue-cap N` sheds
//! submissions past N waiting jobs as `overloaded`.
//!
//! Durability (all modes): `--persist-dir DIR` write-ahead-logs every
//! mutation (loads, `:assume`, `:retract`) under `DIR` and recovers the
//! session from it on startup — a `kill -9` loses nothing acked.
//! `--fsync always|never|N` trades sync cost for power-loss durability
//! (default `always`). `:checkpoint` compacts the log into an atomic
//! snapshot. When persisting, every applied mutation is acked with an
//! `ok` line on stdout (and `:checkpoint` with `checkpoint <epoch>`), so
//! scripted clients can tell exactly which mutations are durable.

use hdl_core::session::EngineKind;
use hdl_server::{Json, Server, ServerConfig, TenantQuotas};
use hdl_service::{Outcome, QueryRequest, QueryService, ServiceConfig};
use hypothetical_datalog::prelude::*;
use std::io::{self, BufRead, BufReader, Read as _, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = match args.first().map(String::as_str) {
        Some("batch") => batch_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        Some("connect") => connect_main(&args[1..]),
        _ => repl_main(&args),
    };
    std::process::exit(status);
}

/// Options shared by all modes.
struct Opts {
    files: Vec<String>,
    workers: usize,
    /// Whether `--workers` was given explicitly (the network server
    /// uses a smaller per-tenant default otherwise).
    workers_set: bool,
    engine: EngineKind,
    deadline: Option<Duration>,
    max_facts: Option<u64>,
    retries: Option<u32>,
    queue_cap: Option<usize>,
    persist_dir: Option<String>,
    fsync: FsyncPolicy,
    /// `serve --listen ADDR`: run the network server.
    listen: Option<String>,
    /// `serve --stdin`: the in-process queue-drain mode, explicitly.
    stdin_mode: bool,
    /// Network server: tenants persist under `<root>/tenants/<name>`.
    persist_root: Option<String>,
    /// Network server: batch concurrent WAL commits across tenants.
    group_commit: bool,
    /// Network server: refuse connections past this count.
    max_connections: usize,
    /// Per-tenant quota: cap on stored base facts.
    tenant_max_facts: Option<u64>,
    /// Per-tenant quota: cap on stacked assumption frames.
    tenant_max_depth: Option<u64>,
    /// Per-tenant quota: queued-query share.
    tenant_queue_cap: Option<usize>,
    /// Per-tenant quota: concurrent in-flight requests.
    tenant_in_flight: Option<usize>,
    /// `connect`: tenant to open on startup.
    tenant: Option<String>,
    /// Network server: follower addresses to ship WAL windows to
    /// (primary role; repeatable).
    replicate_to: Vec<String>,
    /// Network server: default replication quorum a mutation ack waits
    /// for (0 = async; must not exceed the `--replicate-to` count).
    sync_replicas: usize,
    /// Network server: primary address to trail as a read-only follower.
    follow: Option<String>,
    /// `connect`: transparently reconnect (capped exponential backoff)
    /// and replay the in-flight request when the server drops the link.
    reconnect: bool,
}

impl Opts {
    /// The service pool configuration these options describe.
    fn service_config(&self) -> ServiceConfig {
        let mut config = ServiceConfig {
            workers: self.workers,
            queue_cap: self.queue_cap,
            max_facts: self.max_facts,
            ..ServiceConfig::default()
        };
        if let Some(r) = self.retries {
            config.retries = r;
        }
        config
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        files: Vec::new(),
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        workers_set: false,
        engine: EngineKind::default(),
        deadline: None,
        max_facts: None,
        retries: None,
        queue_cap: None,
        persist_dir: None,
        fsync: FsyncPolicy::Always,
        listen: None,
        stdin_mode: false,
        persist_root: None,
        group_commit: true,
        max_connections: 64,
        tenant_max_facts: None,
        tenant_max_depth: None,
        tenant_queue_cap: None,
        tenant_in_flight: None,
        tenant: None,
        replicate_to: Vec::new(),
        sync_replicas: 0,
        follow: None,
        reconnect: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workers" | "-w" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                opts.workers_set = true;
            }
            "--engine" | "-e" => {
                opts.engine = value("--engine")?
                    .parse()
                    .map_err(|e| format!("--engine: {e}"))?;
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                opts.deadline = Some(Duration::from_millis(ms));
            }
            "--max-facts" => {
                opts.max_facts = Some(
                    value("--max-facts")?
                        .parse()
                        .map_err(|e| format!("--max-facts: {e}"))?,
                );
            }
            "--retries" => {
                opts.retries = Some(
                    value("--retries")?
                        .parse()
                        .map_err(|e| format!("--retries: {e}"))?,
                );
            }
            "--queue-cap" => {
                opts.queue_cap = Some(
                    value("--queue-cap")?
                        .parse()
                        .map_err(|e| format!("--queue-cap: {e}"))?,
                );
            }
            "--persist-dir" => {
                opts.persist_dir = Some(value("--persist-dir")?);
            }
            "--fsync" => {
                opts.fsync = value("--fsync")?
                    .parse()
                    .map_err(|e| format!("--fsync: {e}"))?;
            }
            "--listen" | "-l" => {
                opts.listen = Some(value("--listen")?);
            }
            "--stdin" => {
                opts.stdin_mode = true;
            }
            "--persist-root" => {
                opts.persist_root = Some(value("--persist-root")?);
            }
            "--group-commit" => {
                opts.group_commit = true;
            }
            "--no-group-commit" => {
                opts.group_commit = false;
            }
            "--max-connections" => {
                opts.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            "--tenant-max-facts" => {
                opts.tenant_max_facts = Some(
                    value("--tenant-max-facts")?
                        .parse()
                        .map_err(|e| format!("--tenant-max-facts: {e}"))?,
                );
            }
            "--tenant-max-depth" => {
                opts.tenant_max_depth = Some(
                    value("--tenant-max-depth")?
                        .parse()
                        .map_err(|e| format!("--tenant-max-depth: {e}"))?,
                );
            }
            "--tenant-queue-cap" => {
                opts.tenant_queue_cap = Some(
                    value("--tenant-queue-cap")?
                        .parse()
                        .map_err(|e| format!("--tenant-queue-cap: {e}"))?,
                );
            }
            "--tenant-in-flight" => {
                opts.tenant_in_flight = Some(
                    value("--tenant-in-flight")?
                        .parse()
                        .map_err(|e| format!("--tenant-in-flight: {e}"))?,
                );
            }
            "--tenant" | "-t" => {
                opts.tenant = Some(value("--tenant")?);
            }
            "--replicate-to" => {
                opts.replicate_to.push(value("--replicate-to")?);
            }
            "--sync-replicas" => {
                opts.sync_replicas = value("--sync-replicas")?
                    .parse()
                    .map_err(|e| format!("--sync-replicas: {e}"))?;
            }
            "--follow" => {
                opts.follow = Some(value("--follow")?);
            }
            "--reconnect" => {
                opts.reconnect = true;
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag}"));
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    Ok(opts)
}

fn usage_error(mode: &str, msg: &str) -> i32 {
    eprintln!("hdl {mode}: {msg}");
    match mode {
        "serve" => eprintln!(
            "usage: hdl serve --listen ADDR [--persist-root DIR] [--fsync always|never|N] \
             [--no-group-commit] [--max-connections N] [--workers N] \
             [--tenant-max-facts N] [--tenant-max-depth N] [--tenant-queue-cap N] \
             [--tenant-in-flight N] [--max-facts N] [--deadline-ms MS] \
             [--replicate-to ADDR ...] [--sync-replicas N] [--follow ADDR]\n\
             \x20      hdl serve --stdin [FILE ...] [--workers N] [--engine top-down|bottom-up|magic] \
             [--deadline-ms MS] [--max-facts N] [--retries N] [--queue-cap N] \
             [--persist-dir DIR] [--fsync always|never|N]"
        ),
        "connect" => eprintln!("usage: hdl connect HOST:PORT [--tenant NAME] [--reconnect]"),
        _ => eprintln!(
            "usage: hdl {mode} [FILE ...] [--workers N] [--engine top-down|bottom-up|magic] \
             [--deadline-ms MS] [--max-facts N] [--retries N] [--queue-cap N] \
             [--persist-dir DIR] [--fsync always|never|N]"
        ),
    }
    2
}

/// Opens the session this invocation works on: durable when
/// `--persist-dir` was given (recovering any existing state there),
/// plain in-memory otherwise. Recovery is narrated on stderr.
fn open_session(opts: &Opts) -> Result<DurableSession, String> {
    let Some(dir) = &opts.persist_dir else {
        return Ok(DurableSession::ephemeral());
    };
    let session = DurableSession::open(dir, opts.fsync)
        .map_err(|e| format!("cannot open persist dir {dir}: {e}"))?;
    if let Some(r) = session.recovery_report().filter(|r| r.is_noteworthy()) {
        eprintln!(
            "recovered from {dir}: checkpoint epoch {}, {} records replayed, \
             {} records truncated ({} bytes), {} corrupt checkpoints skipped",
            r.checkpoint_epoch,
            r.records_replayed,
            r.records_truncated,
            r.bytes_truncated,
            r.checkpoints_skipped
        );
    }
    Ok(session)
}

/// Prints the mutation ack line scripted durable clients key on.
fn ack(session: &DurableSession) {
    if session.is_durable() {
        println!("ok");
        let _ = io::stdout().flush();
    }
}

/// Builds the request for one query line: `?- goal.` asks, and
/// `:answers PATTERN` enumerates all matching tuples.
fn request_for(line: &str, opts: &Opts) -> QueryRequest {
    let mut req = match line.strip_prefix(":answers") {
        Some(pattern) => QueryRequest::answers(pattern.trim()),
        None => QueryRequest::ask(line),
    }
    .with_engine(opts.engine);
    if let Some(d) = opts.deadline {
        req = req.with_deadline(d);
    }
    req
}

/// Whether this line is a query for the service (`?- …` ask or
/// `:answers PATTERN`).
fn is_query(line: &str) -> bool {
    line.starts_with("?-") || line.starts_with(":answers ")
}

/// Reads the concatenation of `files` (stdin when empty) as lines.
fn input_lines(files: &[String]) -> Result<Vec<String>, String> {
    if files.is_empty() {
        let mut text = String::new();
        io::stdin()
            .lock()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        return Ok(text.lines().map(str::to_owned).collect());
    }
    let mut lines = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        lines.extend(src.lines().map(str::to_owned));
    }
    Ok(lines)
}

fn is_skippable(line: &str) -> bool {
    line.is_empty() || line.starts_with('%') || line.starts_with("//")
}

/// `hdl batch [FILE ...]` — program lines load in order; every query
/// line is submitted to the worker pool against the snapshot current at
/// its position. Results print in input order; exit is non-zero if any
/// query (or program line) errored.
fn batch_main(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => return usage_error("batch", &msg),
    };
    let lines = match input_lines(&opts.files) {
        Ok(l) => l,
        Err(msg) => return usage_error("batch", &msg),
    };

    let mut session = match open_session(&opts) {
        Ok(s) => s,
        Err(msg) => return usage_error("batch", &msg),
    };
    let service = QueryService::with_config(session.snapshot(), opts.service_config());
    let mut status = 0;
    let mut dirty = false;
    let mut tickets = Vec::new();
    for line in &lines {
        let line = line.trim();
        if is_skippable(line) {
            continue;
        }
        if is_query(line) {
            if dirty {
                service.publish(session.snapshot());
                dirty = false;
            }
            tickets.push(service.submit(request_for(line, &opts)));
        } else {
            match session.load(line) {
                Ok(()) => dirty = true,
                Err(e) => {
                    eprintln!("error: {e}");
                    status = 1;
                }
            }
        }
    }
    for ticket in tickets {
        let outcome = ticket.wait();
        if matches!(outcome, Outcome::Error(_)) {
            status = 1;
        }
        println!("{}", outcome.render_line());
    }
    eprintln!("--- batch summary ({} workers) ---", service.workers());
    eprintln!("{}", service.stats());
    service.shutdown();
    checkpoint_on_exit(&mut session);
    status
}

/// Compacts the log into a checkpoint when a durable invocation exits
/// cleanly (crashed processes recover from the WAL instead).
fn checkpoint_on_exit(session: &mut DurableSession) {
    if !session.is_durable() {
        return;
    }
    match session.checkpoint() {
        Ok(epoch) => eprintln!("checkpointed epoch {epoch} on shutdown"),
        Err(e) => eprintln!("warning: shutdown checkpoint failed: {e}"),
    }
}

/// `hdl serve` — two modes:
///
/// * `--listen ADDR`: the multi-tenant network server ([`serve_listen`]).
/// * `--stdin`: loads the program files, then answers query lines from
///   stdin through the worker pool, one result line each.
///
/// Exactly one mode must be named.
fn serve_main(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => return usage_error("serve", &msg),
    };
    if opts.listen.is_some() {
        if opts.stdin_mode {
            return usage_error("serve", "--listen and --stdin are mutually exclusive");
        }
        return serve_listen(&opts);
    }
    if !opts.stdin_mode {
        return usage_error(
            "serve",
            "name a mode: --stdin (stdin queue drain) or --listen ADDR (network server)",
        );
    }
    serve_stdin(&opts)
}

/// The network server: binds `--listen ADDR` (port 0 allowed — the
/// actual address prints to stdout), multiplexes tenant sessions under
/// `--persist-root`, and drains gracefully on SIGTERM/SIGINT or a
/// client `shutdown` op, checkpointing every durable tenant.
fn serve_listen(opts: &Opts) -> i32 {
    if !opts.files.is_empty() {
        return usage_error(
            "serve",
            "--listen takes no program files (tenants load programs over the protocol)",
        );
    }
    let config = ServerConfig {
        listen: opts.listen.clone().expect("checked by caller"),
        persist_root: opts.persist_root.as_ref().map(PathBuf::from),
        fsync: opts.fsync,
        group_commit: opts.group_commit,
        max_connections: opts.max_connections,
        // Every tenant gets its own pool, so the per-tenant default is
        // deliberately small; --workers overrides it explicitly.
        workers_per_tenant: if opts.workers_set { opts.workers } else { 2 },
        quotas: TenantQuotas {
            max_base_facts: opts.tenant_max_facts,
            max_overlay_depth: opts.tenant_max_depth,
            queue_cap: opts.tenant_queue_cap.or(opts.queue_cap),
            max_in_flight: opts.tenant_in_flight.unwrap_or(64),
            query_max_facts: opts.max_facts,
        },
        default_engine: opts.engine,
        default_deadline: opts.deadline,
        replicate_to: opts.replicate_to.clone(),
        sync_replicas: opts.sync_replicas,
        follow: opts.follow.clone(),
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hdl serve: cannot listen: {e}");
            return 1;
        }
    };
    // The resolved address goes to *stdout* so scripts binding port 0
    // can read the real port; narration stays on stderr.
    println!("listening on {}", server.addr());
    let _ = io::stdout().flush();
    eprintln!(
        "hdl server on {} — tenants under {}, group commit {}, fsync {:?}; \
         SIGTERM or a `shutdown` op drains",
        server.addr(),
        opts.persist_root.as_deref().unwrap_or("(ephemeral)"),
        if opts.group_commit { "on" } else { "off" },
        opts.fsync,
    );
    let term = hdl_server::install_termination_flag();
    server.run(Some(term));
    eprintln!("server drained");
    0
}

/// The client's connection to the server, with optional transparent
/// reconnection: when `--reconnect` is set and the link drops mid-step,
/// the client redials with capped exponential backoff (50 ms doubling to
/// 2 s, bounded attempts), re-opens the last-opened tenant, and replays
/// the unacked request. At most one request is ever in flight, so the
/// replay set is exactly that line; mutations in this protocol are
/// idempotent re-applied (a `load` whose ack was lost lands the same
/// facts), so an ack lost to the crash is safe to re-earn.
struct ClientLink {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reconnect-and-replay on link loss (`--reconnect`).
    reconnect: bool,
    /// Tenant to re-open after a reconnect (tracks `:open`/`open` ops).
    tenant: Option<String>,
}

impl ClientLink {
    const BACKOFF_FLOOR_MS: u64 = 50;
    const BACKOFF_CAP_MS: u64 = 2000;
    const MAX_DIALS: u32 = 10;

    fn dial(addr: &str) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
        let stream = TcpStream::connect(addr)?;
        Ok((BufReader::new(stream.try_clone()?), stream))
    }

    fn connect(addr: &str, reconnect: bool) -> io::Result<ClientLink> {
        let (reader, writer) = Self::dial(addr)?;
        Ok(ClientLink {
            addr: addr.to_owned(),
            reader,
            writer,
            reconnect,
            tenant: None,
        })
    }

    /// One send/receive attempt on the current socket; `None` when the
    /// link is gone.
    fn try_step(&mut self, line: &str) -> Option<String> {
        if writeln!(self.writer, "{line}").is_err() || self.writer.flush().is_err() {
            return None;
        }
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(reply.trim_end().to_owned()),
        }
    }

    /// Redials with capped exponential backoff and restores the session
    /// (re-opens the bound tenant). `false` when every attempt failed.
    fn redial(&mut self) -> bool {
        let mut backoff = Self::BACKOFF_FLOOR_MS;
        for attempt in 1..=Self::MAX_DIALS {
            std::thread::sleep(Duration::from_millis(backoff));
            backoff = (backoff * 2).min(Self::BACKOFF_CAP_MS);
            match Self::dial(&self.addr) {
                Err(_) => continue,
                Ok((reader, writer)) => {
                    self.reader = reader;
                    self.writer = writer;
                    if let Some(tenant) = self.tenant.clone() {
                        let open = Json::obj(vec![
                            ("op", Json::str("open")),
                            ("tenant", Json::str(&tenant)),
                        ]);
                        // The re-open rides inside the redial: its reply
                        // is session plumbing, not the user's answer.
                        match self.try_step(&open.to_string()) {
                            Some(reply) if reply_ok(&reply) => {}
                            _ => continue,
                        }
                    }
                    eprintln!(
                        "hdl connect: reconnected to {} (attempt {attempt})",
                        self.addr
                    );
                    return true;
                }
            }
        }
        false
    }

    /// Sends one request line and returns the reply line, reconnecting
    /// and replaying the line if the link drops and `--reconnect` is on.
    /// `None` = connection gone for good.
    fn step(&mut self, line: &str) -> Option<String> {
        loop {
            if let Some(reply) = self.try_step(line) {
                return Some(reply);
            }
            if !self.reconnect || !self.redial() {
                return None;
            }
            // Loop: replay the unacked line on the fresh connection.
        }
    }

    /// Remembers the tenant an `open` request binds, so a reconnect can
    /// restore it.
    fn note_open(&mut self, request: &str) {
        if let Ok(v) = Json::parse(request) {
            if v.get("op").and_then(Json::as_str) == Some("open") {
                if let Some(name) = v.get("tenant").and_then(Json::as_str) {
                    self.tenant = Some(name.to_owned());
                }
            }
        }
    }
}

/// Whether a reply line is `"ok":true`.
fn reply_ok(reply: &str) -> bool {
    Json::parse(reply)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        == Some(true)
}

/// `hdl connect ADDR [--tenant NAME] [--reconnect]` — a line client for
/// the network server: REPL-style input is translated to protocol
/// requests, raw JSON lines (starting with `{`) pass through verbatim,
/// and every reply prints as its JSON line.
fn connect_main(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => return usage_error("connect", &msg),
    };
    let Some(addr) = opts.files.first() else {
        return usage_error("connect", "expected a server address (host:port)");
    };
    let mut link = match ClientLink::connect(addr, opts.reconnect) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("hdl connect: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let mut status = 0;
    // Sends one request line, prints the reply, returns whether the
    // reply was `ok` (`None` = connection gone).
    let step = |link: &mut ClientLink, line: String| -> Option<bool> {
        link.note_open(&line);
        let reply = link.step(&line)?;
        println!("{reply}");
        let _ = io::stdout().flush();
        Some(reply_ok(&reply))
    };
    if let Some(tenant) = &opts.tenant {
        let open = Json::obj(vec![
            ("op", Json::str("open")),
            ("tenant", Json::str(tenant)),
        ]);
        match step(&mut link, open.to_string()) {
            None => {
                eprintln!("hdl connect: server closed the connection");
                return 1;
            }
            Some(ok) => {
                if !ok {
                    return 1;
                }
            }
        }
    }
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if is_skippable(line) {
            continue;
        }
        if line == ":quit" || line == ":q" || line == ":exit" {
            let _ = step(&mut link, "{\"op\":\"close\"}".to_owned());
            break;
        }
        let request = match client_request(line) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("error: {msg}");
                status = 1;
                continue;
            }
        };
        match step(&mut link, request) {
            None => {
                eprintln!("hdl connect: server closed the connection");
                status = 1;
                break;
            }
            Some(ok) => {
                if !ok {
                    status = 1;
                }
            }
        }
    }
    status
}

/// Translates one client input line to a protocol request line.
fn client_request(line: &str) -> Result<String, String> {
    // Raw JSON passes through untouched (power users, scripts).
    if line.starts_with('{') {
        return Ok(line.to_owned());
    }
    let obj = |pairs: Vec<(&str, Json)>| Json::obj(pairs).to_string();
    if let Some(rest) = line.strip_prefix(":open") {
        let name = rest.trim();
        if name.is_empty() {
            return Err(":open takes a tenant name".into());
        }
        return Ok(obj(vec![
            ("op", Json::str("open")),
            ("tenant", Json::str(name)),
        ]));
    }
    if let Some(rest) = line.strip_prefix(":answers") {
        return Ok(obj(vec![
            ("op", Json::str("answers")),
            ("pattern", Json::str(rest.trim())),
        ]));
    }
    if let Some(rest) = line.strip_prefix(":assume") {
        return Ok(obj(vec![
            ("op", Json::str("assume")),
            ("facts", Json::str(rest.trim())),
        ]));
    }
    if let Some(rest) = line.strip_prefix(":retract") {
        return Ok(obj(vec![
            ("op", Json::str("retract")),
            ("fact", Json::str(rest.trim())),
        ]));
    }
    match line {
        ":pop" => return Ok(obj(vec![("op", Json::str("pop"))])),
        ":checkpoint" => return Ok(obj(vec![("op", Json::str("checkpoint"))])),
        ":stats" => return Ok(obj(vec![("op", Json::str("stats"))])),
        ":promote" => return Ok(obj(vec![("op", Json::str("promote"))])),
        ":shutdown" => return Ok(obj(vec![("op", Json::str("shutdown"))])),
        _ => {}
    }
    if line.starts_with(':') {
        return Err(format!(
            "unknown command {line} (:open NAME, :answers PATTERN, :assume FACTS, \
             :retract FACT, :pop, :checkpoint, :stats, :promote, :shutdown, :quit; \
             `{{…}}` raw JSON)"
        ));
    }
    if line.starts_with("?-") {
        return Ok(obj(vec![
            ("op", Json::str("query")),
            ("q", Json::str(line)),
        ]));
    }
    Ok(obj(vec![
        ("op", Json::str("load")),
        ("program", Json::str(line)),
    ]))
}

/// The stdin queue-drain mode: loads the program files, then answers
/// query lines from stdin through the worker pool, one result line each.
fn serve_stdin(opts: &Opts) -> i32 {
    let mut session = match open_session(opts) {
        Ok(s) => s,
        Err(msg) => return usage_error("serve", &msg),
    };
    for path in &opts.files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => return usage_error("serve", &format!("cannot read {path}: {e}")),
        };
        if let Err(e) = session.load(&src) {
            eprintln!("error loading {path}: {e}");
            return 1;
        }
        eprintln!("loaded {path}");
    }
    let service = QueryService::with_config(session.snapshot(), opts.service_config());
    eprintln!(
        "serving on {} workers — queries on stdin, :answers PATTERN, :assume FACTS, \
         :retract FACT, :materialize, :checkpoint, :stats, :quit",
        service.workers()
    );
    let mut status = 0;
    let stdin = io::stdin();
    let mut out = io::stdout();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        };
        let line = line.trim();
        if is_skippable(line) {
            continue;
        }
        match line {
            ":quit" | ":q" | ":exit" => break,
            ":stats --json" => {
                let json = Json::obj(vec![
                    ("service", service.stats().to_json()),
                    ("maintenance", maintenance_json(&session)),
                    ("recovery", recovery_json(&session)),
                ]);
                println!("{json}");
                let _ = out.flush();
            }
            ":stats" => {
                println!("{}", service.stats());
                if let Some(r) = session.recovery_report().filter(|r| r.is_noteworthy()) {
                    println!(
                        "recovery            checkpoint epoch {}, {} records replayed, {} truncated",
                        r.checkpoint_epoch, r.records_replayed, r.records_truncated
                    );
                }
                if let Some(m) = session.maintenance_stats() {
                    print!("{}", render_maintenance(&m));
                }
            }
            ":materialize" => match session.model() {
                Ok(model) => {
                    println!("materialized {} facts", model.len());
                    let _ = out.flush();
                    service.publish(session.snapshot());
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    status = 1;
                }
            },
            ":checkpoint" => match session.checkpoint() {
                Ok(epoch) => {
                    println!("checkpoint {epoch}");
                    let _ = out.flush();
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    status = 1;
                }
            },
            // Budget trips (cancelled / deadline / memory / partial
            // rows) are reported on stdout but are not process errors.
            _ if is_query(line) => {
                let outcome = service.submit(request_for(line, opts)).wait();
                if matches!(outcome, Outcome::Error(_)) {
                    status = 1;
                }
                println!("{}", outcome.render_line());
                let _ = out.flush();
            }
            _ if line.starts_with(":assume") || line.starts_with(":retract") || line == ":pop" => {
                match serve_mutation(&mut session, line) {
                    Ok(()) => {
                        ack(&session);
                        service.publish(session.snapshot());
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        status = 1;
                    }
                }
            }
            _ if line.starts_with(':') => eprintln!(
                "unknown command {line} (:answers PATTERN, :assume FACTS, :retract FACT, \
                 :pop, :materialize, :checkpoint, :stats, :quit)"
            ),
            _ => match session.load(line) {
                Ok(()) => {
                    ack(&session);
                    service.publish(session.snapshot());
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    status = 1;
                }
            },
        }
    }
    service.shutdown();
    checkpoint_on_exit(&mut session);
    status
}

/// Applies one `:assume FACTS` / `:retract FACT` / `:pop` line.
fn serve_mutation(session: &mut DurableSession, line: &str) -> Result<(), String> {
    if let Some(rest) = line.strip_prefix(":assume") {
        let facts = hdl_core::parse_ground_facts(rest, session.symbols_mut())?;
        return session.assume(facts).map_err(|e| e.to_string());
    }
    if let Some(rest) = line.strip_prefix(":retract") {
        let mut facts = hdl_core::parse_ground_facts(rest, session.symbols_mut())?;
        if facts.len() != 1 {
            return Err("retract takes exactly one fact".to_owned());
        }
        let fact = facts.pop().expect("checked length");
        return match session.retract_fact(&fact) {
            Ok(true) => Ok(()),
            Ok(false) => Ok(()), // logged either way; replay agrees
            Err(e) => Err(e.to_string()),
        };
    }
    match session.pop_assumption() {
        Ok(Some(_)) => Ok(()),
        Ok(None) => Err("no assumption frame to pop".to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

fn repl_main(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => return usage_error("", &msg),
    };
    let mut session = match open_session(&opts) {
        Ok(s) => s,
        Err(msg) => return usage_error("", &msg),
    };
    session.set_engine(opts.engine);
    session.set_deadline(opts.deadline);
    // In the REPL, --workers drives intra-round parallel rule firing of
    // the bottom-up engine (batch/serve give it to the service pool).
    session.set_parallelism(opts.workers);
    let mut status = 0;
    for path in &opts.files {
        match std::fs::read_to_string(path) {
            Ok(src) => match session.load(&src) {
                Ok(()) => eprintln!("loaded {path}"),
                Err(e) => {
                    eprintln!("error loading {path}: {e}");
                    status = 1;
                }
            },
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                status = 1;
            }
        }
    }
    if status != 0 {
        return status;
    }

    let stdin = io::stdin();
    let interactive = atty_guess();
    if interactive {
        println!("hypothetical Datalog shell — :help for commands");
    }
    let mut out = io::stdout();
    loop {
        if interactive {
            print!("hdl> ");
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if is_skippable(line) {
            continue;
        }
        if let Some(rest) = line.strip_prefix(':') {
            if !run_command(&mut session, rest) {
                break;
            }
            continue;
        }
        if line.starts_with("?-") {
            match session.ask(line) {
                Ok(v) => println!("{v}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    status = 1;
                }
            }
            continue;
        }
        match session.load(line) {
            Ok(()) => ack(&session),
            Err(e) => {
                eprintln!("error: {e}");
                status = 1;
            }
        }
    }
    checkpoint_on_exit(&mut session);
    // Interactive sessions exit clean; piped input propagates whether
    // any line errored mid-stream.
    if interactive {
        0
    } else {
        status
    }
}

/// Returns `false` to quit.
fn run_command(session: &mut DurableSession, rest: &str) -> bool {
    let (cmd, arg) = match rest.split_once(' ') {
        Some((c, a)) => (c, a.trim()),
        None => (rest, ""),
    };
    match cmd {
        "quit" | "q" | "exit" => return false,
        "help" | "h" => {
            println!(
                "  fact(a, b).                    assert a fact\n\
                 \x20 head :- body.                  add a rule\n\
                 \x20 ?- query.                      evaluate (hypotheticals: goal[add: f])\n\
                 \x20 :load FILE                     load a program file\n\
                 \x20 :save FILE                     write rules+facts to a file\n\
                 \x20 :rules | :facts                show the loaded program\n\
                 \x20 :answers PATTERN               all tuples matching e.g. tc(X, Y)\n\
                 \x20 :explain ?- QUERY.             proof tree for a provable query\n\
                 \x20 :strata                        linear stratification report\n\
                 \x20 :lint                          diagnostics for the loaded rules\n\
                 \x20 :assume FACTS                  push a hypothesis frame (f1, f2, ...)\n\
                 \x20 :pop                           pop the top hypothesis frame\n\
                 \x20 :retract FACT                  remove a base fact (incremental once materialized)\n\
                 \x20 :materialize                   build the model; later asserts/retracts maintain it\n\
                 \x20 :checkpoint                    compact the write-ahead log (--persist-dir)\n\
                 \x20 :stats [--json]                counters from the last query\n\
                 \x20 :quit"
            );
        }
        "load" => match std::fs::read_to_string(arg) {
            Ok(src) => match session.load(&src) {
                Ok(()) => {
                    ack(session);
                    println!("loaded {arg}");
                }
                Err(e) => eprintln!("error: {e}"),
            },
            Err(e) => eprintln!("cannot read {arg}: {e}"),
        },
        "assume" => match hdl_core::parse_ground_facts(arg, session.symbols_mut()) {
            Ok(facts) => match session.assume(facts) {
                Ok(()) => {
                    ack(session);
                    println!("({} assumption frames)", session.assumptions().len());
                }
                Err(e) => eprintln!("error: {e}"),
            },
            Err(e) => eprintln!("error: {e}"),
        },
        "pop" => match session.pop_assumption() {
            Ok(Some(frame)) => {
                ack(session);
                println!(
                    "popped {} facts ({} frames left)",
                    frame.len(),
                    session.assumptions().len()
                );
            }
            Ok(None) => println!("no assumption frame to pop"),
            Err(e) => eprintln!("error: {e}"),
        },
        "retract" => match hdl_core::parse_ground_facts(arg, session.symbols_mut()) {
            Ok(facts) if facts.len() == 1 => {
                let fact = &facts[0];
                match session.retract_fact(fact) {
                    Ok(removed) => {
                        ack(session);
                        println!("{}", if removed { "retracted" } else { "no such fact" });
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            Ok(_) => eprintln!("error: retract takes exactly one fact"),
            Err(e) => eprintln!("error: {e}"),
        },
        "checkpoint" => match session.checkpoint() {
            Ok(epoch) => println!("checkpoint {epoch}"),
            Err(e) => eprintln!("error: {e}"),
        },
        "rules" => print!("{}", session.show_rules()),
        "save" => match std::fs::write(arg, session.dump()) {
            Ok(()) => println!("saved {arg}"),
            Err(e) => eprintln!("cannot write {arg}: {e}"),
        },
        "facts" => print!(
            "{}",
            hdl_core::pretty::database(session.database(), session.symbols())
        ),
        "answers" => match session.answers(arg) {
            Ok(rows) => {
                for row in &rows {
                    println!("{}", row.join(", "));
                }
                println!("({} answers)", rows.len());
            }
            Err(e) => eprintln!("error: {e}"),
        },
        "explain" => match session.explain(arg) {
            Ok(Some(tree)) => print!("{tree}"),
            Ok(None) => println!("not provable (or a negated query)"),
            Err(e) => eprintln!("error: {e}"),
        },
        "lint" => {
            let lints = hdl_core::analysis::lint::lint(session.rulebase(), session.symbols());
            if lints.is_empty() {
                println!("no lints");
            }
            for l in &lints {
                println!(
                    "  {}",
                    hdl_core::analysis::lint::render_lint(l, session.symbols())
                );
            }
        }
        "strata" => match linear_stratification(session.rulebase()) {
            Ok(ls) => {
                println!("linearly stratified: {} strata", ls.num_strata());
                let mut parts: Vec<(String, usize, bool)> = ls
                    .part_of
                    .iter()
                    .map(|(&p, &part)| (session.symbols().name(p).to_owned(), part, ls.in_sigma(p)))
                    .collect();
                parts.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
                for (name, part, sigma) in parts {
                    let seg = if sigma { "Σ" } else { "Δ" };
                    println!(
                        "  {name:<24} partition {part:<3} ({seg}{})",
                        part.div_ceil(2)
                    );
                }
            }
            Err(e) => println!("not linearly stratified: {e}"),
        },
        "stats" => {
            if arg == "--json" {
                println!("{}", repl_stats_json(session));
            } else {
                match session.last_stats() {
                    Some(s) => print!("{}", render_stats(s)),
                    None => println!("no query evaluated yet"),
                }
                if let Some(m) = session.maintenance_stats() {
                    print!("{}", render_maintenance(&m));
                }
            }
        }
        "materialize" => match session.model() {
            Ok(model) => println!("materialized {} facts", model.len()),
            Err(e) => eprintln!("error: {e}"),
        },
        other => eprintln!("unknown command :{other} (try :help)"),
    }
    true
}

/// Renders the materialized-model maintenance counters: how mutations
/// were absorbed (delta continuation, delete-and-rederive, conservative
/// cone recompute, or forced full rebuilds).
fn render_maintenance(m: &hdl_core::MaintenanceStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  model: full_builds     {:>12}   domain_rebuilds {}",
        m.full_builds, m.domain_rebuilds
    );
    let _ = writeln!(
        out,
        "  model: incremental     {:>12}   (+{} asserts, -{} retracts, {} conservative)",
        m.incremental_assertions + m.incremental_retractions + m.conservative_updates,
        m.incremental_assertions,
        m.incremental_retractions,
        m.conservative_updates
    );
    let _ = writeln!(
        out,
        "  model: overdeleted     {:>12}   rederived {}",
        m.overdeleted_facts, m.rederived_facts
    );
    out
}

/// Renders the per-query counters, including the semi-naive fixpoint
/// instrumentation (DESIGN.md §3.11): per-round deltas, argument-index
/// probe/hit rates, and how many rounds fired rules on worker threads.
fn render_stats(s: &hdl_core::engine::EngineStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  goal_expansions        {:>12}   (premise-match attempts)",
        s.goal_expansions
    );
    let _ = writeln!(out, "  databases_created      {:>12}", s.databases_created);
    let _ = writeln!(out, "  memo_hits              {:>12}", s.memo_hits);
    let _ = writeln!(
        out,
        "  calls                  {:>12}   max_depth {}",
        s.calls, s.max_depth
    );
    let _ = writeln!(
        out,
        "  rounds                 {:>12}   parallel_rounds {} (skipped {})",
        s.rounds, s.parallel_rounds, s.parallel_skipped
    );
    if s.magic_rules > 0 || s.demand_facts > 0 {
        let _ = writeln!(
            out,
            "  magic_rules            {:>12}   demand_facts {}",
            s.magic_rules, s.demand_facts
        );
        let _ = writeln!(
            out,
            "  adorned_strata         {:>12}   unbound_fallbacks {}",
            s.adorned_strata, s.unbound_fallbacks
        );
    }
    let _ = writeln!(
        out,
        "  index_probes           {:>12}   index_hits {}",
        s.index_probes, s.index_hits
    );
    if !s.delta_facts_per_round.is_empty() {
        let shown: Vec<String> = s
            .delta_facts_per_round
            .iter()
            .take(16)
            .map(u64::to_string)
            .collect();
        let _ = writeln!(
            out,
            "  delta_facts_per_round  [{}{}]",
            shown.join(", "),
            if s.delta_facts_per_round.len() > 16 {
                ", ..."
            } else {
                ""
            }
        );
    }
    let _ = writeln!(
        out,
        "  overlay                nodes {}, delta_facts {}, materialized_facts {}",
        s.overlay.nodes, s.overlay.delta_facts, s.overlay.materialized_facts
    );
    out
}

/// One JSON object with every counter the REPL session has: last-query
/// engine stats, model maintenance, recovery, and durability state.
/// Scripted clients parse this instead of the aligned human tables.
fn repl_stats_json(session: &DurableSession) -> Json {
    Json::obj(vec![
        (
            "engine",
            session
                .last_stats()
                .map_or(Json::Null, EngineStats::to_json),
        ),
        ("maintenance", maintenance_json(session)),
        ("recovery", recovery_json(session)),
        ("durable", Json::Bool(session.is_durable())),
        ("epoch", Json::num(session.epoch() as f64)),
    ])
}

/// The model-maintenance counters, or `null` before a model exists.
fn maintenance_json(session: &DurableSession) -> Json {
    session
        .maintenance_stats()
        .map_or(Json::Null, |m| m.to_json())
}

/// The startup recovery report, or `null` for an ephemeral session.
fn recovery_json(session: &DurableSession) -> Json {
    session
        .recovery_report()
        .map_or(Json::Null, RecoveryReport::to_json)
}

/// Crude interactivity check without adding a dependency: honour an
/// explicit override, otherwise assume piped input is non-interactive
/// only when stdin read fails to be a terminal — which std cannot tell
/// us portably, so default to printing prompts unless HDL_NO_PROMPT=1.
fn atty_guess() -> bool {
    std::env::var_os("HDL_NO_PROMPT").is_none()
}
