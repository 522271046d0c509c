//! The traced run: replays a workload's op stream in-process and wraps
//! spans, recorded here, around the public entry points of each layer —
//! the program itself carries no tracing. Every layer is replayed
//! separately on its own fresh objects over the same op stream, so one
//! layer's caches never serve another's replay:
//!
//! * the server pass parses each request line (`Request::parse`), hands
//!   it to `Tenant::query` / `Tenant::apply_batch` and renders the reply
//!   (`Reply::render`), once with spans and once without (the overhead);
//! * the parser pass times `parse_query` / `parse_program`;
//! * the engine pass times `Session::ask` and reads `Session::last_stats`;
//! * the persist pass drives a `DurableSession` the way a tenant does:
//!   apply, `snapshot`, `take_pending_commits` + `CommitTicket::wait`,
//!   `QueryService::publish`;
//! * `replicated` also drives a primary and a follower over the wire to
//!   price the quorum wait and read the shipping counters.
//!
//! Passes repeat until `--seconds` is used up; times are means over all
//! passes, counts come from the first pass, which is a pure function of
//! the seed.

use crate::gen::{self, Live, Mutation, QueryOp};
use crate::runs::{self, Ctx};
use crate::wire::{self, is_ok, Conn};
use crate::{Metric, Outcome};
use hdl_core::engine::stats::EngineStats;
use hdl_core::session::EngineKind;
use hdl_core::{parse_program, parse_query, split_facts, Session};
use hdl_persist::{DurableSession, FsyncPolicy, GroupCommitter};
use hdl_server::{
    outcome_reply, BatchOp, BatchReply, Json, Registry, RegistryConfig, Reply, Request, Tenant,
};
use hdl_service::{Outcome as Answer, QueryRequest, QueryService, ServiceConfig};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops per `whatif` pass (a multiple of the repeat period).
const WHATIF_BLOCK: usize = 300;
/// Windows per tenant per `ingest` pass.
const INGEST_BLOCK: usize = 16;
/// Ops per `replicated` pass, and op pairs of its wire pass.
const REPLICATED_BLOCK: usize = 200;

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Summed span time and count per span name.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, (Duration, u64)>);

impl Spans {
    fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.0.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        self.add(name, t0.elapsed());
        r
    }

    fn total_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0.as_secs_f64() * 1e6)
    }

    fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |e| e.1)
    }

    fn mean_us(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_us(name) / n as f64,
        }
    }

    fn merge(&mut self, other: Spans) {
        for (name, (d, n)) in other.0 {
            let e = self.0.entry(name).or_default();
            e.0 += d;
            e.1 += n;
        }
    }
}

/// Deterministic counters, taken from the first pass only.
#[derive(Default)]
struct Counts {
    queries: u64,
    engine: EngineStats,
    overlay_nodes: u64,
    delta_facts: u64,
    flattens: u64,
    cache_hits: u64,
    cache_misses: u64,
    commits: u64,
    fsync_groups: u64,
    max_batch: u64,
    windows: u64,
    window_ops: u64,
}

impl Counts {
    fn absorb_engine(&mut self, s: &EngineStats) {
        self.queries += 1;
        self.engine.merge_run(s);
        self.overlay_nodes += s.overlay.nodes;
        self.delta_facts += s.overlay.delta_facts;
        self.flattens += s.overlay.flattens;
    }

    fn add(&mut self, c: &Counts) {
        self.queries += c.queries;
        self.engine.merge_run(&c.engine);
        self.overlay_nodes += c.overlay_nodes;
        self.delta_facts += c.delta_facts;
        self.flattens += c.flattens;
        self.cache_hits += c.cache_hits;
        self.cache_misses += c.cache_misses;
        self.commits += c.commits;
        self.fsync_groups += c.fsync_groups;
        self.max_batch = self.max_batch.max(c.max_batch);
        self.windows += c.windows;
        self.window_ops += c.window_ops;
    }
}

/// Replication figures from the wire pass of `replicated`.
#[derive(Default)]
struct Replication {
    quorum_wait_us: f64,
    windows_per_mutation: f64,
    bytes_shipped_per_fact: f64,
    degraded_acks: u64,
}

/// Everything the traced run accumulates.
#[derive(Default)]
struct Trace {
    spans: Spans,
    counts: Counts,
    /// Summed Δworker_busy over traced `Tenant::query` calls, µs.
    worker_busy_us: f64,
    /// Summed (`Tenant::query` span − Δworker_busy), µs.
    queue_wait_us: f64,
    queries: u64,
    /// Wall time of the server pass without and with spans.
    plain_s: f64,
    traced_s: f64,
    replication: Replication,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Trace {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(what());
            }
        }
    }

    /// Adds `c` to the counts if it comes from the first pass.
    fn first_counts(&mut self, first: bool, c: Counts) {
        if first {
            self.counts.add(&c);
        }
    }
}

/// A fresh registry the way `hdl serve --persist-root` builds one.
fn registry(dir: &Path, workers: usize) -> (Registry, Arc<GroupCommitter>) {
    let committer = GroupCommitter::new();
    let registry = Registry::new(RegistryConfig {
        root: Some(dir.to_owned()),
        policy: FsyncPolicy::Always,
        committer: Some(Arc::clone(&committer)),
        workers,
        ..RegistryConfig::default()
    });
    (registry, committer)
}

fn open_tenant(registry: &Registry, name: &str, program: &str) -> io::Result<Arc<Tenant>> {
    let tenant = registry.open(name).map_err(|e| io_err(e.message))?;
    tenant.load(program).map_err(|e| io_err(e.message))?;
    Ok(tenant)
}

fn worker_busy_us(tenant: &Tenant) -> f64 {
    let stats = tenant.service().stats();
    stats
        .worker_busy
        .iter()
        .map(Duration::as_secs_f64)
        .sum::<f64>()
        * 1e6
}

fn goal(text: &str) -> String {
    format!("?- {text}.")
}

/// The server pass of a query workload: request line → `Request::parse`
/// → `Tenant::query` → `outcome_reply(..).render`, as the server's
/// connection handler does it.
#[allow(clippy::too_many_arguments)]
fn query_server_pass(
    tr: &mut Trace,
    dir: &Path,
    workers: usize,
    program: &str,
    ops: &[QueryOp],
    engine: Option<&str>,
    traced: bool,
    first: bool,
) -> io::Result<()> {
    let (registry, committer) = registry(dir, workers);
    let tenant = open_tenant(&registry, "t", program)?;
    let before = tenant.service().stats();
    let mut spans = Spans::default();
    let t_pass = Instant::now();
    for op in ops {
        let line = wire::query_request(&op.text, engine);
        let answer = if traced {
            let busy0 = worker_busy_us(&tenant);
            let (request, id) = spans
                .time("parse", || Request::parse(&line))
                .map_err(io_err)?;
            let t_query = Instant::now();
            let answer = tenant.query(query_request(request)?);
            let query = t_query.elapsed();
            spans.add("tenant.query", query);
            spans.time("render", || outcome_reply("query", &answer).render(id));
            let busy = worker_busy_us(&tenant) - busy0;
            tr.worker_busy_us += busy;
            tr.queue_wait_us += query.as_secs_f64() * 1e6 - busy;
            tr.queries += 1;
            answer
        } else {
            let (request, id) = Request::parse(&line).map_err(io_err)?;
            let answer = tenant.query(query_request(request)?);
            std::hint::black_box(outcome_reply("query", &answer).render(id));
            answer
        };
        let got = matches!(answer, Answer::True);
        tr.check(
            got == op.expected && matches!(answer, Answer::True | Answer::False),
            || format!("{}: expected {}, got {answer:?}", op.text, op.expected),
        );
    }
    let wall = t_pass.elapsed();
    if traced {
        spans.add("pass", wall);
        tr.traced_s += wall.as_secs_f64();
        tr.spans.merge(spans);
        let after = tenant.service().stats();
        tr.first_counts(
            first,
            Counts {
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
                ..Counts::default()
            },
        );
    } else {
        tr.plain_s += wall.as_secs_f64();
    }
    drop(tenant);
    drop(registry);
    committer.shutdown();
    Ok(())
}

fn query_request(request: Request) -> io::Result<QueryRequest> {
    match request {
        Request::Query { q, opts } => {
            Ok(QueryRequest::ask(q).with_engine(opts.engine.unwrap_or_default()))
        }
        other => Err(io_err(format!("not a query: {other:?}"))),
    }
}

/// The parser and engine passes of a query workload. Only ops that miss
/// the answer cache reach the engine on the server, so repeats are
/// skipped here.
fn query_core_passes(
    tr: &mut Trace,
    program: &str,
    ops: &[QueryOp],
    engine: EngineKind,
    first: bool,
) -> io::Result<()> {
    let mut spans = Spans::default();
    spans
        .time("parse_program", || {
            parse_program(program, &mut Default::default())
        })
        .map_err(io_err)?;
    let mut session = Session::new().with_engine(engine);
    session.load(program).map_err(io_err)?;
    let mut symbols = session.symbols().clone();
    let mut counts = Counts::default();
    for op in ops.iter().filter(|op| !op.repeat) {
        let g = goal(&op.text);
        spans
            .time("parse_query", || parse_query(&g, &mut symbols))
            .map_err(io_err)?;
        let verdict = spans.time("ask", || session.ask(&g)).map_err(io_err)?;
        tr.check(verdict == op.expected, || {
            format!("engine pass {}: expected {}", op.text, op.expected)
        });
        counts.absorb_engine(session.last_stats().expect("stats after ask"));
    }
    tr.spans.merge(spans);
    tr.first_counts(first, counts);
    Ok(())
}

fn whatif(ctx: &Ctx, tr: &mut Trace) -> io::Result<()> {
    let graph = gen::whatif_graph(ctx.seed);
    let program = gen::whatif_program(&graph);
    let ops: Vec<QueryOp> = gen::WhatIfOps::new(&graph, ctx.seed)
        .take(WHATIF_BLOCK)
        .collect();
    passes(ctx, |pass, dir| {
        let first = pass == 0;
        for traced in [false, true] {
            let d = dir.join(format!("server-{traced}"));
            query_server_pass(tr, &d, 2, &program, &ops, Some("magic"), traced, first)?;
        }
        query_core_passes(tr, &program, &ops, EngineKind::Magic, first)
    })
}

fn search(ctx: &Ctx, tr: &mut Trace) -> io::Result<()> {
    passes(ctx, |pass, dir| {
        // Each pass asks the next round of fresh instances; the first
        // pass's round is the same on every run with this seed.
        let round = gen::search_rounds(ctx.seed, pass + 1)
            .pop()
            .expect("one round");
        let first = pass == 0;
        for traced in [false, true] {
            let d = dir.join(format!("server-{traced}"));
            query_server_pass(
                tr,
                &d,
                1,
                &round.program,
                &round.queries,
                None,
                traced,
                first,
            )?;
        }
        query_core_passes(
            tr,
            &round.program,
            &round.queries,
            EngineKind::TopDown,
            first,
        )
    })
}

/// One tenant's mutation stream for a pass: its initial facts and its
/// windows, computed ahead as if every op is acked (the replay checks
/// that each one is).
struct MutationBlock {
    initial: Vec<String>,
    windows: Vec<Vec<Mutation>>,
}

fn ingest_block(seed: u64, tenant: usize) -> MutationBlock {
    let (mut stream, initial) = gen::IngestStream::new(seed, tenant);
    let mut live = Live::default();
    for f in &initial {
        live.insert(f.clone());
    }
    let windows = (0..INGEST_BLOCK)
        .map(|_| {
            let w = stream.window(&live);
            for op in &w {
                match op {
                    Mutation::Load(facts) => facts.iter().for_each(|f| live.insert(f.clone())),
                    Mutation::Retract(f) => {
                        live.remove(f);
                    }
                }
            }
            w
        })
        .collect();
    MutationBlock { initial, windows }
}

fn replicated_block(seed: u64) -> MutationBlock {
    let (stream, initial) = gen::ReplicatedStream::new(seed);
    MutationBlock {
        initial,
        windows: stream.take(REPLICATED_BLOCK).map(|op| vec![op]).collect(),
    }
}

/// The reply the server renders for one applied mutation.
fn mutation_reply(tenant: &Tenant, reply: &BatchReply) -> Reply {
    match reply {
        BatchReply::Retracted { removed } => {
            Reply::ok("retract").with("removed", Json::Bool(*removed))
        }
        _ => Reply::ok("load").with("epoch", Json::num(tenant.epoch() as f64)),
    }
}

fn batch_op(request: &Request) -> io::Result<BatchOp<'_>> {
    match request {
        Request::Load { program } => Ok(BatchOp::Load(program)),
        Request::Retract { fact } => Ok(BatchOp::Retract(fact)),
        other => Err(io_err(format!("not a mutation: {other:?}"))),
    }
}

/// One client of the mutation server pass: every window goes through
/// `Request::parse` → `Tenant::apply_batch` → render, as the server's
/// pipelined handler does it.
fn mutation_client(
    tenant: &Tenant,
    block: &MutationBlock,
    traced: bool,
) -> io::Result<(Spans, Vec<String>)> {
    let mut spans = Spans::default();
    let mut wrong = Vec::new();
    let t_pass = Instant::now();
    for window in &block.windows {
        let lines: Vec<String> = window.iter().map(runs::mutation_request).collect();
        let outcome = if traced {
            let parsed: Vec<(Request, Option<u64>)> = lines
                .iter()
                .map(|l| spans.time("parse", || Request::parse(l)))
                .collect::<Result<_, _>>()
                .map_err(io_err)?;
            let ops: Vec<BatchOp> = parsed
                .iter()
                .map(|(r, _)| batch_op(r))
                .collect::<io::Result<_>>()?;
            let outcome = spans.time("apply_batch", || tenant.apply_batch(&ops));
            for (reply, (_, id)) in outcome.replies.iter().zip(&parsed) {
                if let Ok(r) = reply {
                    spans.time("render", || mutation_reply(tenant, r).render(*id));
                }
            }
            outcome
        } else {
            let parsed: Vec<(Request, Option<u64>)> = lines
                .iter()
                .map(|l| Request::parse(l))
                .collect::<Result<_, _>>()
                .map_err(io_err)?;
            let ops: Vec<BatchOp> = parsed
                .iter()
                .map(|(r, _)| batch_op(r))
                .collect::<io::Result<_>>()?;
            let outcome = tenant.apply_batch(&ops);
            for (reply, (_, id)) in outcome.replies.iter().zip(&parsed) {
                if let Ok(r) = reply {
                    std::hint::black_box(mutation_reply(tenant, r).render(*id));
                }
            }
            outcome
        };
        for (op, reply) in window.iter().zip(&outcome.replies) {
            let right = match (op, reply) {
                (Mutation::Load(_), Ok(BatchReply::Loaded)) => true,
                (Mutation::Retract(_), Ok(BatchReply::Retracted { removed })) => *removed,
                _ => false,
            };
            if !right || outcome.degraded.is_some() {
                wrong.push(format!("{op:?}: {reply:?}"));
            }
        }
    }
    if traced {
        spans.add("pass", t_pass.elapsed());
    }
    Ok((spans, wrong))
}

fn mutation_server_pass(
    tr: &mut Trace,
    dir: &Path,
    blocks: &[MutationBlock],
    traced: bool,
    first: bool,
) -> io::Result<()> {
    let (registry, committer) = registry(dir, 2);
    let tenants = blocks
        .iter()
        .enumerate()
        .map(|(t, b)| open_tenant(&registry, &format!("t{t}"), &Mutation::program(&b.initial)))
        .collect::<io::Result<Vec<_>>>()?;
    let before = committer.stats();
    let t_pass = Instant::now();
    let results: Vec<io::Result<(Spans, Vec<String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .zip(blocks)
            .map(|(tenant, block)| scope.spawn(move || mutation_client(tenant, block, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client thread"))
            .collect()
    });
    let wall = t_pass.elapsed().as_secs_f64();
    let after = committer.stats();
    for r in results {
        let (spans, wrong) = r?;
        tr.failed += wrong.len() as u64;
        tr.errors.extend(wrong.into_iter().take(5));
        if traced {
            tr.spans.merge(spans);
        }
    }
    let ops: usize = blocks.iter().flat_map(|b| &b.windows).map(Vec::len).sum();
    tr.attempted += ops as u64;
    if traced {
        tr.traced_s += wall;
        tr.first_counts(
            first,
            Counts {
                commits: after.commits - before.commits,
                fsync_groups: after.fsync_groups - before.fsync_groups,
                max_batch: after.max_batch,
                windows: blocks.iter().map(|b| b.windows.len() as u64).sum(),
                window_ops: ops as u64,
                ..Counts::default()
            },
        );
    } else {
        tr.plain_s += wall;
    }
    drop(tenants);
    drop(registry);
    committer.shutdown();
    Ok(())
}

/// The persist pass: one `DurableSession` per tenant stream, driven the
/// way `Tenant::apply_batch` drives it, on one thread per stream.
fn persist_pass(tr: &mut Trace, dir: &Path, blocks: &[MutationBlock]) -> io::Result<()> {
    let committer = GroupCommitter::new();
    let results: Vec<io::Result<Spans>> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(t, block)| {
                let committer = Arc::clone(&committer);
                let dir = dir.join(format!("t{t}"));
                scope.spawn(move || -> io::Result<Spans> {
                    let mut spans = Spans::default();
                    let mut s = DurableSession::open_grouped_pipelined(
                        &dir,
                        FsyncPolicy::Always,
                        committer,
                    )
                    .map_err(io_err)?;
                    s.load(&Mutation::program(&block.initial)).map_err(io_err)?;
                    for ticket in s.take_pending_commits() {
                        ticket.wait().map_err(io_err)?;
                    }
                    let service = QueryService::with_config(
                        s.snapshot(),
                        ServiceConfig {
                            workers: 1,
                            ..ServiceConfig::default()
                        },
                    );
                    for window in &block.windows {
                        for op in window {
                            match op {
                                Mutation::Load(facts) => {
                                    let text = Mutation::program(facts);
                                    spans
                                        .time("session_apply", || s.load(&text))
                                        .map_err(io_err)?;
                                }
                                Mutation::Retract(f) => {
                                    let rb = parse_program(&format!("{f}."), s.symbols_mut())
                                        .map_err(io_err)?;
                                    let fact = split_facts(rb).1.pop().expect("one fact");
                                    spans
                                        .time("session_apply", || s.retract_fact(&fact))
                                        .map_err(io_err)?;
                                }
                            }
                        }
                        let tickets = s.take_pending_commits();
                        let snapshot = spans.time("snapshot", || s.snapshot());
                        spans
                            .time("commit_wait", || {
                                tickets.into_iter().try_for_each(|t| t.wait())
                            })
                            .map_err(io_err)?;
                        spans.time("publish", || service.publish(snapshot));
                    }
                    Ok(spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("persist replay thread"))
            .collect()
    });
    committer.shutdown();
    for r in results {
        tr.spans.merge(r?);
    }
    Ok(())
}

fn mutation_core_passes(tr: &mut Trace, blocks: &[MutationBlock]) -> io::Result<()> {
    let mut spans = Spans::default();
    for block in blocks {
        let mut symbols = Default::default();
        for op in block.windows.iter().flatten() {
            if let Mutation::Load(facts) = op {
                let text = Mutation::program(facts);
                spans
                    .time("parse_program", || parse_program(&text, &mut symbols))
                    .map_err(io_err)?;
            }
        }
    }
    tr.spans.merge(spans);
    Ok(())
}

fn mutations(ctx: &Ctx, tr: &mut Trace, blocks: &[MutationBlock]) -> io::Result<()> {
    passes(ctx, |pass, dir| {
        let first = pass == 0;
        for traced in [false, true] {
            mutation_server_pass(
                tr,
                &dir.join(format!("server-{traced}")),
                blocks,
                traced,
                first,
            )?;
        }
        persist_pass(tr, &dir.join("persist"), blocks)?;
        mutation_core_passes(tr, blocks)
    })
}

/// The wire pass of `replicated`. First the op stream runs alone on a
/// `"sync":1` tenant, one op per ack, with the follower's per-tenant
/// counters read around it: windows and bytes shipped. Then it runs on a
/// second `"sync":1` tenant and a `"sync":0` tenant, alternating op by
/// op; the median per-op latency difference is the quorum wait. (Run
/// beside an async tenant, a sync tenant's commits are sometimes
/// shipped in shared windows, so the counters come from the lone run.)
fn replication_pass(ctx: &Ctx, tr: &mut Trace, block: &MutationBlock) -> io::Result<()> {
    let servers = runs::replicated_pair(ctx, "trace")?;
    let initial = Mutation::program(&block.initial);
    let mut tenants = Vec::new();
    for (name, sync) in [("lone", 1), ("sync", 1), ("async", 0)] {
        let mut conn = Conn::connect(&servers[0].addr)?;
        for req in [
            wire::open_request(name, Some(sync)),
            wire::load_request(&initial),
        ] {
            let reply = conn.call(&req)?;
            tr.check(is_ok(&reply), || format!("{name} set-up: {reply}"));
        }
        let mut live = Live::default();
        for f in &block.initial {
            live.insert(f.clone());
        }
        tenants.push((conn, live));
    }
    // Sends one op on one tenant and checks the reply; returns its
    // latency in µs.
    let send = |tr: &mut Trace, (conn, live): &mut (Conn, Live), op: &Mutation| {
        let t0 = Instant::now();
        let reply = conn.call(&runs::mutation_request(op))?;
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        if reply.get("kind").and_then(Json::as_str) == Some("degraded_ack") {
            tr.replication.degraded_acks += 1;
        }
        let verdict = runs::check_mutation(op, &reply, live);
        tr.check(verdict.is_ok(), || verdict.unwrap_err());
        io::Result::Ok(lat)
    };
    let ops: Vec<&Mutation> = block.windows.iter().flatten().collect();
    // The initial load is sync-acked, so the follower already holds it.
    let (windows0, bytes0) = follower_counts(&servers[1], "lone")?;
    for op in &ops {
        send(tr, &mut tenants[0], op)?;
    }
    let (windows1, bytes1) = follower_counts(&servers[1], "lone")?;
    let mut diffs = Vec::with_capacity(ops.len());
    for op in &ops {
        let with_quorum = send(tr, &mut tenants[1], op)?;
        diffs.push(with_quorum - send(tr, &mut tenants[2], op)?);
    }
    let facts: usize = ops.iter().map(|op| op.facts()).sum();
    tr.replication.quorum_wait_us = crate::stats::median(&diffs);
    tr.replication.windows_per_mutation = (windows1 - windows0) / ops.len() as f64;
    tr.replication.bytes_shipped_per_fact = (bytes1 - bytes0) / facts as f64;
    let mut check = runs::WireResult::default();
    for (name, (_, live)) in ["lone", "sync"].iter().zip(&tenants) {
        runs::check_follower(&mut check, &servers[1], name, live)?;
    }
    tr.attempted += check.attempted;
    tr.failed += check.failed;
    tr.errors.extend(check.errors);
    for s in servers {
        s.shutdown();
    }
    Ok(())
}

/// The follower's `windows_applied` and `bytes_applied` for `tenant`,
/// from the replication section of its `stats` op.
fn follower_counts(follower: &wire::Server, tenant: &str) -> io::Result<(f64, f64)> {
    let stats = Conn::connect(&follower.addr)?.call(r#"{"op":"stats"}"#)?;
    let entry = match stats.get("replication").and_then(|r| r.get("tenants")) {
        Some(Json::Arr(ts)) => ts
            .iter()
            .find(|t| t.get("name").and_then(Json::as_str) == Some(tenant)),
        _ => None,
    };
    let field = |k: &str| {
        entry
            .and_then(|t| t.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    Ok((field("windows_applied"), field("bytes_applied")))
}

/// Runs `pass` until the run's seconds are used up (at least once),
/// each time in a fresh directory.
fn passes(ctx: &Ctx, mut pass: impl FnMut(usize, &Path) -> io::Result<()>) -> io::Result<()> {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let dir: PathBuf = ctx.dir.join(format!("pass-{i}"));
        std::fs::create_dir_all(&dir)?;
        pass(i, &dir)?;
        std::fs::remove_dir_all(&dir)?;
        i += 1;
        if start.elapsed().as_secs_f64() >= ctx.seconds || ctx.max_ops.is_some() {
            return Ok(());
        }
    }
}

pub fn run(workload: &str, ctx: &Ctx) -> Outcome {
    let mut tr = Trace::default();
    match workload {
        "whatif" => whatif(ctx, &mut tr)?,
        "search" => search(ctx, &mut tr)?,
        "ingest" => {
            let blocks: Vec<MutationBlock> = (0..2).map(|t| ingest_block(ctx.seed, t)).collect();
            mutations(ctx, &mut tr, &blocks)?;
        }
        _ => {
            let blocks = [replicated_block(ctx.seed)];
            replication_pass(ctx, &mut tr, &blocks[0])?;
            mutations(ctx, &mut tr, &blocks)?;
        }
    }
    Ok((metrics(&tr), tr.attempted, tr.failed, tr.errors))
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn metrics(tr: &Trace) -> Vec<Metric> {
    let c = &tr.counts;
    let s = &tr.spans;
    let per_query = |x: u64| ratio(x, c.queries);
    let covered = s.total_us("parse")
        + s.total_us("tenant.query")
        + s.total_us("apply_batch")
        + s.total_us("render");
    // Each server pass (per client thread) spent `pass` µs in all,
    // request building, conversions and reply checks included.
    let pass = s.total_us("pass");
    let r = &tr.replication;
    vec![
        Metric::new("server.protocol.parse_us", s.mean_us("parse"), "us"),
        Metric::new("server.protocol.render_us", s.mean_us("render"), "us"),
        Metric::new("server.tenant.query_us", s.mean_us("tenant.query"), "us"),
        Metric::new(
            "server.tenant.apply_batch_us",
            s.mean_us("apply_batch"),
            "us",
        ),
        Metric::new(
            "server.tenant.ops_per_window",
            ratio(c.window_ops, c.windows),
            "count",
        ),
        Metric::new(
            "service.queue_wait_us",
            if tr.queries == 0 {
                0.0
            } else {
                tr.queue_wait_us / tr.queries as f64
            },
            "us",
        ),
        Metric::new(
            "service.worker_busy_us",
            if tr.queries == 0 {
                0.0
            } else {
                tr.worker_busy_us / tr.queries as f64
            },
            "us",
        ),
        Metric::new(
            "service.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        Metric::new("service.publish_us", s.mean_us("publish"), "us"),
        Metric::new("core.parser.query_us", s.mean_us("parse_query"), "us"),
        Metric::new("core.parser.program_us", s.mean_us("parse_program"), "us"),
        Metric::new("core.snapshot.build_us", s.mean_us("snapshot"), "us"),
        Metric::new("core.engine.ask_us", s.mean_us("ask"), "us"),
        Metric::new(
            "core.engine.goal_expansions_per_query",
            per_query(c.engine.goal_expansions),
            "count",
        ),
        Metric::new(
            "core.engine.memo_hit_ratio",
            ratio(c.engine.memo_hits, c.engine.calls),
            "ratio",
        ),
        Metric::new(
            "core.engine.rounds_per_query",
            per_query(c.engine.rounds),
            "count",
        ),
        Metric::new(
            "core.engine.demand_facts_per_query",
            per_query(c.engine.demand_facts),
            "count",
        ),
        Metric::new(
            "core.engine.index_hit_ratio",
            ratio(c.engine.index_hits, c.engine.index_probes),
            "ratio",
        ),
        Metric::new(
            "base.factstore.overlay_nodes_per_query",
            per_query(c.overlay_nodes),
            "count",
        ),
        Metric::new(
            "base.factstore.delta_facts_per_node",
            ratio(c.delta_facts, c.overlay_nodes),
            "count",
        ),
        Metric::new(
            "base.factstore.flattens_per_query",
            per_query(c.flattens),
            "count",
        ),
        Metric::new("persist.session_apply_us", s.mean_us("session_apply"), "us"),
        Metric::new("persist.commit_wait_us", s.mean_us("commit_wait"), "us"),
        Metric::new(
            "persist.ops_per_fsync",
            ratio(c.commits, c.fsync_groups),
            "count",
        ),
        Metric::new("persist.max_batch", c.max_batch as f64, "count"),
        Metric::new("server.replication.quorum_wait_us", r.quorum_wait_us, "us"),
        Metric::new(
            "server.replication.windows_per_mutation",
            r.windows_per_mutation,
            "count",
        ),
        Metric::new(
            "server.replication.bytes_shipped_per_fact",
            r.bytes_shipped_per_fact,
            "B",
        ),
        Metric::new(
            "server.replication.degraded_acks",
            r.degraded_acks as f64,
            "count",
        ),
        Metric::new(
            "trace.unattributed_share",
            if pass > 0.0 {
                (pass - covered) / pass
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "trace.overhead",
            if tr.plain_s > 0.0 {
                tr.traced_s / tr.plain_s - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
    ]
}
