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
//! Lines ending in `.` are programs (rules/facts) or queries (`?- …`);
//! lines starting with `:` are commands. One command table defines the
//! commands of every mode: `:help` lists the REPL's, and an unknown
//! command names the ones its mode accepts.
//!
//! Two further modes drive the `hdl-service` concurrent executor:
//!
//! ```console
//! $ hdl batch queries.hdl --workers 4 --engine top-down --deadline-ms 500
//! $ printf '?- grad(tony).\n' | hdl serve --stdin --workers 4 program.hdl
//! ```
//!
//! `batch` runs every query line of its input (`?- …` or `:answers
//! PATTERN`) concurrently (program lines load in order and publish fresh
//! snapshots), emits one result line per query in input order, prints a
//! `ServiceStats` summary to stderr, and exits non-zero if any query or
//! other line errored. `serve --stdin` loads the given program files,
//! then runs stdin line by line like the REPL, except that queries go
//! through the worker pool, every mutation publishes a fresh snapshot,
//! and `:stats` prints the live service counters. A budget trip
//! mid-scan prints the partial answer set (`… partial: reason`) rather
//! than discarding tuples already proven. `serve` with neither `--stdin`
//! nor `--listen` is a usage error.
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
//! each input line into its protocol request (raw `{…}` lines pass
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

use hdl_core::analysis::stratify::linear_stratification_with;
use hdl_core::session::EngineKind;
use hdl_core::{Applied, OpText};
use hdl_server::{Json, Server, ServerConfig, TenantQuotas};
use hdl_service::{Outcome, QueryRequest, QueryService, ServiceConfig};
use hypothetical_datalog::prelude::*;
use std::io::{self, BufRead, BufReader, IsTerminal as _, Read as _, Write};
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

/// The modes that read `:` commands (`batch` takes only `:answers`,
/// and treats every other line as program text).
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Repl,
    Serve,
    Connect,
}

use Mode::{Connect, Repl, Serve};

/// One input line, parsed once for every mode.
#[derive(Clone, Copy, PartialEq)]
enum Command<'a> {
    /// `?- goal.` (the whole line).
    Query(&'a str),
    /// A mutation: a program line (rules and facts; `connect` passes a
    /// line starting with `{` through as a raw protocol request),
    /// `:assume`, `:retract` or `:pop`.
    Op(OpText<'a>),
    Answers(&'a str),
    Materialize,
    Checkpoint,
    Stats {
        json: bool,
    },
    Load(&'a str),
    Save(&'a str),
    Rules,
    Facts,
    Explain(&'a str),
    Strata,
    Lint,
    Open(&'a str),
    Promote,
    Shutdown,
    Help,
    Quit,
    /// A `:` line that names no command.
    Unknown,
}

/// One row of the command table.
struct Spec {
    name: &'static str,
    aliases: &'static [&'static str],
    /// The argument as `:help` shows it; empty when there is none.
    arg: &'static str,
    help: &'static str,
    /// The modes that accept the command.
    modes: &'static [Mode],
    /// Builds the command from its trimmed argument.
    build: for<'a> fn(&'a str) -> Command<'a>,
}

/// Every `:` command of every mode, in `:help` order. The REPL's
/// `:help`, the `serve --stdin` banner and the unknown-command messages
/// are generated from it.
#[rustfmt::skip]
const COMMANDS: &[Spec] = &[
    Spec { name: "load", aliases: &[], arg: "FILE", modes: &[Repl],
           build: |arg| Command::Load(arg), help: "load a program file" },
    Spec { name: "save", aliases: &[], arg: "FILE", modes: &[Repl],
           build: |arg| Command::Save(arg), help: "write rules+facts to a file" },
    Spec { name: "rules", aliases: &[], arg: "", modes: &[Repl],
           build: |_| Command::Rules, help: "show the loaded rules" },
    Spec { name: "facts", aliases: &[], arg: "", modes: &[Repl],
           build: |_| Command::Facts, help: "show the loaded facts" },
    Spec { name: "open", aliases: &[], arg: "NAME", modes: &[Connect],
           build: |arg| Command::Open(arg), help: "bind the connection to a tenant" },
    Spec { name: "answers", aliases: &[], arg: "PATTERN", modes: ALL,
           build: |arg| Command::Answers(arg), help: "all tuples matching e.g. tc(X, Y)" },
    Spec { name: "explain", aliases: &[], arg: "?- QUERY.", modes: &[Repl],
           build: |arg| Command::Explain(arg), help: "proof tree for a provable query" },
    Spec { name: "strata", aliases: &[], arg: "", modes: &[Repl],
           build: |_| Command::Strata, help: "linear stratification report" },
    Spec { name: "lint", aliases: &[], arg: "", modes: &[Repl],
           build: |_| Command::Lint, help: "diagnostics for the loaded rules" },
    Spec { name: "assume", aliases: &[], arg: "FACTS", modes: ALL,
           build: |arg| Command::Op(OpText::Assume(arg)),
           help: "push a hypothesis frame (f1, f2, ...)" },
    Spec { name: "retract", aliases: &[], arg: "FACT", modes: ALL,
           build: |arg| Command::Op(OpText::Retract(arg)),
           help: "remove a base fact (incremental once materialized)" },
    Spec { name: "pop", aliases: &[], arg: "", modes: ALL,
           build: |_| Command::Op(OpText::Pop), help: "pop the top hypothesis frame" },
    Spec { name: "materialize", aliases: &[], arg: "", modes: &[Repl, Serve],
           build: |_| Command::Materialize,
           help: "build the model; later asserts/retracts maintain it" },
    Spec { name: "checkpoint", aliases: &[], arg: "", modes: ALL,
           build: |_| Command::Checkpoint, help: "compact the write-ahead log (--persist-dir)" },
    Spec { name: "stats", aliases: &[], arg: "[--json]", modes: ALL,
           build: |arg| Command::Stats { json: arg == "--json" },
           help: "counters; --json prints one JSON line" },
    Spec { name: "promote", aliases: &[], arg: "", modes: &[Connect],
           build: |_| Command::Promote, help: "turn a follower server into a primary" },
    Spec { name: "shutdown", aliases: &[], arg: "", modes: &[Connect],
           build: |_| Command::Shutdown, help: "drain the server and stop it" },
    Spec { name: "help", aliases: &["h"], arg: "", modes: &[Repl],
           build: |_| Command::Help, help: "this list" },
    Spec { name: "quit", aliases: &["q", "exit"], arg: "", modes: ALL,
           build: |_| Command::Quit, help: "leave" },
];

/// Every mode that reads `:` commands.
const ALL: &[Mode] = &[Repl, Serve, Connect];

impl<'a> Command<'a> {
    /// Maps one trimmed input line to its command.
    fn parse(line: &'a str) -> Command<'a> {
        if line.starts_with("?-") {
            return Command::Query(line);
        }
        let Some(rest) = line.strip_prefix(':') else {
            return Command::Op(OpText::Load(line));
        };
        let (name, arg) = rest
            .split_once(char::is_whitespace)
            .map_or((rest, ""), |(name, arg)| (name, arg.trim()));
        COMMANDS
            .iter()
            .find(|spec| spec.name == name || spec.aliases.contains(&name))
            .map_or(Command::Unknown, |spec| (spec.build)(arg))
    }
}

impl Spec {
    /// `:name ARG`, as the command lists show it.
    fn usage(&self) -> String {
        match self.arg {
            "" => format!(":{}", self.name),
            arg => format!(":{} {arg}", self.name),
        }
    }
}

/// The commands `mode` accepts, as one comma-separated list.
fn accepted(mode: Mode) -> String {
    let usages: Vec<String> = COMMANDS
        .iter()
        .filter(|spec| spec.modes.contains(&mode))
        .map(Spec::usage)
        .collect();
    usages.join(", ")
}

/// The error for a line `mode` has no command for.
fn unknown(mode: Mode, line: &str) -> String {
    format!("unknown command {line} ({})", accepted(mode))
}

/// The REPL's `:help` text.
fn help() -> String {
    let mut out = String::from(
        "  fact(a, b).                    assert a fact\n\
         \x20 head :- body.                  add a rule\n\
         \x20 ?- query.                      evaluate (hypotheticals: goal[add: f])\n",
    );
    for spec in COMMANDS.iter().filter(|spec| spec.modes.contains(&Repl)) {
        let mut usage = spec.usage();
        for alias in spec.aliases {
            usage += &format!(" | :{alias}");
        }
        out += &format!("  {usage:<31}{}\n", spec.help);
    }
    out
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
        match arg.as_str() {
            "--workers" | "-w" => {
                opts.workers = flag_value(&mut it, "--workers")?;
                opts.workers_set = true;
            }
            "--engine" | "-e" => opts.engine = flag_value(&mut it, "--engine")?,
            "--deadline-ms" => {
                let ms = flag_value(&mut it, "--deadline-ms")?;
                opts.deadline = Some(Duration::from_millis(ms));
            }
            "--max-facts" => opts.max_facts = Some(flag_value(&mut it, arg)?),
            "--retries" => opts.retries = Some(flag_value(&mut it, arg)?),
            "--queue-cap" => opts.queue_cap = Some(flag_value(&mut it, arg)?),
            "--persist-dir" => opts.persist_dir = Some(flag_value(&mut it, arg)?),
            "--fsync" => opts.fsync = flag_value(&mut it, arg)?,
            "--listen" | "-l" => opts.listen = Some(flag_value(&mut it, "--listen")?),
            "--stdin" => opts.stdin_mode = true,
            "--persist-root" => opts.persist_root = Some(flag_value(&mut it, arg)?),
            "--no-group-commit" => opts.group_commit = false,
            "--max-connections" => opts.max_connections = flag_value(&mut it, arg)?,
            "--tenant-max-facts" => opts.tenant_max_facts = Some(flag_value(&mut it, arg)?),
            "--tenant-max-depth" => opts.tenant_max_depth = Some(flag_value(&mut it, arg)?),
            "--tenant-queue-cap" => opts.tenant_queue_cap = Some(flag_value(&mut it, arg)?),
            "--tenant-in-flight" => opts.tenant_in_flight = Some(flag_value(&mut it, arg)?),
            "--tenant" | "-t" => opts.tenant = Some(flag_value(&mut it, "--tenant")?),
            "--replicate-to" => opts.replicate_to.push(flag_value(&mut it, arg)?),
            "--sync-replicas" => opts.sync_replicas = flag_value(&mut it, arg)?,
            "--follow" => opts.follow = Some(flag_value(&mut it, arg)?),
            "--reconnect" => opts.reconnect = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag}"));
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    Ok(opts)
}

/// Parses the argument after `flag`.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
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

/// The service request for a query line: `?- …` asks and `:answers
/// PATTERN` enumerates all matching tuples. `None` for any other line.
fn query_request(cmd: Command, opts: &Opts) -> Option<QueryRequest> {
    let req = match cmd {
        Command::Query(query) => QueryRequest::ask(query),
        Command::Answers(pattern) => QueryRequest::answers(pattern),
        _ => return None,
    }
    .with_engine(opts.engine);
    Some(match opts.deadline {
        Some(d) => req.with_deadline(d),
        None => req,
    })
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
/// query (or other line) errored.
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
        // Every line but a query is program text, so the program parser
        // rejects any other command.
        let Some(request) = query_request(Command::parse(line), &opts) else {
            match session.load(line) {
                Ok(()) => dirty = true,
                Err(e) => {
                    eprintln!("error: {e}");
                    status = 1;
                }
            }
            continue;
        };
        if dirty {
            service.publish(session.snapshot());
            dirty = false;
        }
        tickets.push(service.submit(request));
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
/// * `--stdin`: loads the program files, then runs stdin like the REPL
///   ([`serve_stdin`]), answering queries through the worker pool.
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
/// the network server: each input line is sent as its protocol request
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
        Some(reply_ok(&reply))
    };
    if let Some(tenant) = &opts.tenant {
        let open = Json::obj(vec![
            ("op", Json::str("open")),
            ("tenant", Json::str(tenant)),
        ]);
        match step(&mut link, open.to_string()) {
            Some(true) => {}
            Some(false) => return 1,
            None => {
                eprintln!("hdl connect: server closed the connection");
                return 1;
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
        let cmd = Command::parse(line);
        let request = match protocol_request(cmd, line) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("error: {msg}");
                status = 1;
                continue;
            }
        };
        if cmd == Command::Quit {
            let _ = step(&mut link, request);
            break;
        }
        match step(&mut link, request) {
            Some(true) => {}
            Some(false) => status = 1,
            None => {
                eprintln!("hdl connect: server closed the connection");
                status = 1;
                break;
            }
        }
    }
    status
}

/// The protocol request line for one `connect` input line. A program
/// line starting with `{` is a raw request and passes through unchanged.
fn protocol_request(cmd: Command, line: &str) -> Result<String, String> {
    let (op, field) = match cmd {
        Command::Op(OpText::Load(raw)) if raw.starts_with('{') => return Ok(raw.to_owned()),
        Command::Op(OpText::Load(program)) => ("load", Some(("program", program))),
        Command::Query(query) => ("query", Some(("q", query))),
        Command::Answers(pattern) => ("answers", Some(("pattern", pattern))),
        Command::Op(OpText::Assume(facts)) => ("assume", Some(("facts", facts))),
        Command::Op(OpText::Retract(fact)) => ("retract", Some(("fact", fact))),
        Command::Open("") => return Err(format!("{line} needs a tenant name")),
        Command::Open(tenant) => ("open", Some(("tenant", tenant))),
        Command::Op(OpText::Pop) => ("pop", None),
        Command::Checkpoint => ("checkpoint", None),
        Command::Stats { .. } => ("stats", None),
        Command::Promote => ("promote", None),
        Command::Shutdown => ("shutdown", None),
        Command::Quit => ("close", None),
        _ => return Err(unknown(Connect, line)),
    };
    let mut pairs = vec![("op", Json::str(op))];
    pairs.extend(field.map(|(key, value)| (key, Json::str(value))));
    Ok(Json::obj(pairs).to_string())
}

/// The stdin queue-drain mode: loads the program files, then runs stdin
/// through a [`Shell`] whose queries go to the worker pool.
fn serve_stdin(opts: &Opts) -> i32 {
    let mut shell = match Shell::start(opts, "serve") {
        Ok(shell) => shell,
        Err(status) => return status,
    };
    let service = QueryService::with_config(shell.session.snapshot(), opts.service_config());
    eprintln!(
        "serving on {} workers — queries on stdin, {}",
        service.workers(),
        accepted(Serve)
    );
    shell.service = Some(service);
    shell.run(false);
    shell.service = None; // stops the workers before the checkpoint
    checkpoint_on_exit(&mut shell.session);
    shell.status
}

fn repl_main(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => return usage_error("", &msg),
    };
    let mut shell = match Shell::start(&opts, "") {
        Ok(shell) => shell,
        Err(status) => return status,
    };
    shell.session.set_engine(opts.engine);
    shell.session.set_deadline(opts.deadline);
    let interactive = io::stdin().is_terminal();
    if interactive {
        println!("hypothetical Datalog shell — :help for commands");
    }
    shell.run(interactive);
    checkpoint_on_exit(&mut shell.session);
    // Interactive sessions exit clean; piped input propagates whether
    // any line or command failed mid-stream.
    if interactive {
        0
    } else {
        shell.status
    }
}

/// The REPL and `serve --stdin`: one session driven line by line. Both
/// modes run program lines, program files given on the command line,
/// `:assume`, `:retract`, `:pop`, `:materialize`, `:checkpoint` and
/// `:stats` through the same code; they differ in how they answer
/// queries and in what follows a mutation.
struct Shell<'o> {
    session: DurableSession,
    /// `serve --stdin`'s worker pool: it answers queries, gets a fresh
    /// snapshot after each mutation, and `:stats` shows its counters.
    /// `None` in the REPL, which answers in-session and narrates each
    /// mutation instead.
    service: Option<QueryService>,
    opts: &'o Opts,
    /// 1 once any line or command failed.
    status: i32,
}

impl<'o> Shell<'o> {
    /// Opens the session and loads the program files named on the
    /// command line; `Err` carries the exit status when either failed.
    fn start(opts: &'o Opts, mode: &str) -> Result<Self, i32> {
        let session = open_session(opts).map_err(|msg| usage_error(mode, &msg))?;
        let mut shell = Shell {
            session,
            service: None,
            opts,
            status: 0,
        };
        for path in &opts.files {
            match std::fs::read_to_string(path) {
                Ok(src) => match shell.session.load(&src) {
                    Ok(()) => eprintln!("loaded {path}"),
                    Err(e) => shell.fail(format!("error loading {path}: {e}")),
                },
                Err(e) => shell.fail(format!("cannot read {path}: {e}")),
            }
        }
        match shell.status {
            0 => Ok(shell),
            status => Err(status),
        }
    }

    /// Prints `msg` to stderr and marks the run failed.
    fn fail(&mut self, msg: String) {
        eprintln!("{msg}");
        self.status = 1;
    }

    /// Runs stdin line by line until EOF or `:quit`, prompting when
    /// `prompt` is set.
    fn run(&mut self, prompt: bool) {
        let prompt = || {
            if prompt {
                print!("hdl> ");
                let _ = io::stdout().flush();
            }
        };
        prompt();
        for line in io::stdin().lock().lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    eprintln!("read error: {e}");
                    break;
                }
            };
            let line = line.trim();
            if !is_skippable(line) {
                match Command::parse(line) {
                    Command::Quit => break,
                    cmd => self.execute(cmd, line),
                }
            }
            prompt();
        }
    }

    /// Runs one command: the shared ones here, the rest in the mode's
    /// own executor.
    fn execute(&mut self, cmd: Command, line: &str) {
        match cmd {
            Command::Op(text) => {
                self.mutate(text);
            }
            Command::Materialize => match self.session.model() {
                Ok(model) => {
                    println!("materialized {} facts", model.len());
                    self.publish();
                }
                Err(e) => self.fail(format!("error: {e}")),
            },
            Command::Checkpoint => match self.session.checkpoint() {
                Ok(epoch) => println!("checkpoint {epoch}"),
                Err(e) => self.fail(format!("error: {e}")),
            },
            Command::Stats { json } => self.stats(json),
            _ if self.service.is_some() => self.serve_only(cmd, line),
            _ => self.repl_only(cmd, line),
        }
    }

    /// Applies one mutation; returns whether it applied. On success it
    /// prints the `ok` ack (when durable), then the REPL narrates what
    /// was applied and `serve --stdin` publishes a fresh snapshot.
    fn mutate(&mut self, text: OpText) -> bool {
        let applied = match self.session.apply_text(text) {
            Ok(applied) => applied,
            Err(e) => {
                self.fail(format!("error: {e}"));
                return false;
            }
        };
        if self.session.is_durable() {
            println!("ok");
        }
        if self.service.is_some() {
            self.publish();
            return true;
        }
        match applied {
            Applied::Loaded => {}
            Applied::Assumed { frames } => println!("({frames} assumption frames)"),
            Applied::Retracted { removed: true } => println!("retracted"),
            Applied::Retracted { removed: false } => println!("no such fact"),
            Applied::Popped { popped, frames } => {
                println!("popped {popped} facts ({frames} frames left)")
            }
        }
        true
    }

    /// Hands the session's current state to the worker pool, if any.
    fn publish(&self) {
        if let Some(service) = &self.service {
            service.publish(self.session.snapshot());
        }
    }

    /// `:stats [--json]`: the REPL's last-query engine counters or the
    /// pool's service counters, then recovery and model maintenance.
    fn stats(&self, json: bool) {
        let session = &self.session;
        let maintenance = session.maintenance_stats();
        let recovery = session.recovery_report();
        if json {
            let mut fields = vec![
                (
                    "maintenance",
                    maintenance.map_or(Json::Null, |m| m.to_json()),
                ),
                (
                    "recovery",
                    recovery.map_or(Json::Null, RecoveryReport::to_json),
                ),
            ];
            match &self.service {
                Some(service) => fields.push(("service", service.stats().to_json())),
                None => fields.extend([
                    (
                        "engine",
                        session
                            .last_stats()
                            .map_or(Json::Null, EngineStats::to_json),
                    ),
                    ("durable", Json::Bool(session.is_durable())),
                    ("epoch", Json::num(session.epoch() as f64)),
                ]),
            }
            println!("{}", Json::obj(fields));
            return;
        }
        match (&self.service, session.last_stats()) {
            (Some(service), _) => println!("{}", service.stats()),
            (None, Some(s)) => print!("{}", render_stats(s)),
            (None, None) => println!("no query evaluated yet"),
        }
        if let Some(r) = recovery.filter(|r| r.is_noteworthy()) {
            println!(
                "recovery            checkpoint epoch {}, {} records replayed, {} truncated",
                r.checkpoint_epoch, r.records_replayed, r.records_truncated
            );
        }
        if let Some(m) = maintenance {
            print!("{}", render_maintenance(&m));
        }
    }

    /// `serve --stdin`'s own lines: queries, answered by the pool.
    /// Budget trips (cancelled / deadline / memory / partial rows) are
    /// reported on stdout but are not failures.
    fn serve_only(&mut self, cmd: Command, line: &str) {
        let (Some(service), Some(request)) = (&self.service, query_request(cmd, self.opts)) else {
            return self.fail(unknown(Serve, line));
        };
        let outcome = service.submit(request).wait();
        println!("{}", outcome.render_line());
        if matches!(outcome, Outcome::Error(_)) {
            self.status = 1;
        }
    }

    /// The REPL's own lines, all answered in-session.
    fn repl_only(&mut self, cmd: Command, line: &str) {
        let session = &mut self.session;
        match cmd {
            Command::Query(query) => match session.ask(query) {
                Ok(v) => println!("{v}"),
                Err(e) => self.fail(format!("error: {e}")),
            },
            Command::Answers(pattern) => match session.answers(pattern) {
                Ok(rows) => {
                    for row in &rows {
                        println!("{}", row.join(", "));
                    }
                    println!("({} answers)", rows.len());
                }
                Err(e) => self.fail(format!("error: {e}")),
            },
            Command::Explain(query) => match session.explain(query) {
                Ok(Some(tree)) => print!("{tree}"),
                Ok(None) => println!("not provable (or a negated query)"),
                Err(e) => self.fail(format!("error: {e}")),
            },
            Command::Load(path) => match std::fs::read_to_string(path) {
                Ok(src) => {
                    if self.mutate(OpText::Load(&src)) {
                        println!("loaded {path}");
                    }
                }
                Err(e) => self.fail(format!("cannot read {path}: {e}")),
            },
            Command::Save(path) => match std::fs::write(path, session.dump()) {
                Ok(()) => println!("saved {path}"),
                Err(e) => self.fail(format!("cannot write {path}: {e}")),
            },
            Command::Rules => print!("{}", session.show_rules()),
            Command::Facts => print!(
                "{}",
                hdl_core::pretty::database(session.database(), session.symbols())
            ),
            Command::Lint => {
                let lints = hdl_core::analysis::lint::lint(
                    session.rulebase(),
                    session.database(),
                    session.symbols(),
                );
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
            Command::Strata => {
                match linear_stratification_with(session.rulebase(), Some(session.symbols())) {
                    Ok(ls) => {
                        println!("linearly stratified: {} strata", ls.num_strata());
                        let mut parts: Vec<(String, usize, bool)> = ls
                            .part_of
                            .iter()
                            .map(|(&p, &part)| {
                                (session.symbols().name(p).to_owned(), part, ls.in_sigma(p))
                            })
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
                    Err(e) => println!("{e}"),
                }
            }
            Command::Help => print!("{}", help()),
            _ => self.fail(unknown(Repl, line)),
        }
    }
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
    let _ = writeln!(out, "  rounds                 {:>12}", s.rounds);
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
