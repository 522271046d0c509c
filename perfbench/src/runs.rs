//! The untraced runs: each workload drives real `hdl serve` processes
//! over loopback TCP from this one process, closed loop, and checks
//! every reply against the oracles in [`crate::gen`].

use crate::gen::{self, Live, Mutation, QueryOp};
use crate::wire::{self, is_ok, Conn, Server};
use crate::{speed, stats};
use hdl_server::Json;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` reports their lower quartile and the last
/// one serves the timed phase. A `replicated` set-up now and then takes
/// half as long again (up to a third of them in one run), which moved
/// the median by up to 20% between runs; the lower quartile holds.
pub const SETUPS: usize = 7;
/// The timed phase is cut into slices this long (`search`, whose ops
/// take tens of milliseconds, uses [`SEARCH_SLICE_SECONDS`]); each
/// slice's length and server CPU time are scaled by its median probe
/// (see [`speed`]).
const SLICE_SECONDS: f64 = 0.5;
const SEARCH_SLICE_SECONDS: f64 = 2.0;
/// `ingest` clients: one connection per tenant.
const INGEST_TENANTS: usize = 2;

/// What a run is asked to do.
pub struct Ctx {
    pub hdl: PathBuf,
    /// Scratch directory of this run; persist roots live under it.
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Stop the timed phase after this many ops (for determinism
    /// checks); `None` runs for `seconds`.
    pub max_ops: Option<u64>,
}

/// One slice of the timed phase.
#[derive(Clone, Copy)]
pub struct Slice {
    pub start: Instant,
    pub secs: f64,
    pub ops: u64,
    /// Server CPU (utime + stime, all server processes).
    pub cpu_s: f64,
    /// Median [`speed::probe`] time over the slice.
    pub probe_s: f64,
}

/// Everything one untraced run measured.
#[derive(Default)]
pub struct WireResult {
    pub setup_s: Vec<f64>,
    /// Per-op (per-window for `ingest`) completion time and latency in
    /// µs, timed phase only.
    pub lat_us: Vec<(Instant, f64)>,
    pub slices: Vec<Slice>,
    /// Every probe of the timed phase: when it ended and its time.
    pub probes: Vec<(Instant, f64)>,
    pub peak_rss_mb: f64,
    pub wal_bytes: u64,
    pub acked_facts: u64,
    /// Ops attempted over the whole run, warm-up and checks included.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl WireResult {
    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Runs `setup` [`SETUPS`] times, timing each; all but the last set-up
/// are shut down again.
fn repeated_setup<T>(
    res: &mut WireResult,
    mut setup: impl FnMut(usize) -> io::Result<(Vec<Server>, T)>,
) -> io::Result<(Vec<Server>, T)> {
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (servers, state) = setup(i)?;
        res.setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            return Ok((servers, state));
        }
        drop(state);
        for s in servers {
            s.shutdown();
        }
    }
    unreachable!("SETUPS > 0")
}

fn open_and_load(addr: &str, tenant: &str, sync: Option<u64>, program: &str) -> io::Result<Conn> {
    let mut conn = Conn::connect(addr)?;
    for req in [
        wire::open_request(tenant, sync),
        wire::load_request(program),
    ] {
        let reply = conn.call(&req)?;
        if !is_ok(&reply) {
            return Err(io::Error::other(format!("set-up failed: {reply}")));
        }
    }
    Ok(conn)
}

/// When the warm-up ends and the timed phase stops.
#[derive(Clone, Copy)]
struct Phase {
    start: Instant,
    warm_until: f64,
    end: f64,
    max_ops: Option<u64>,
}

impl Phase {
    fn new(ctx: &Ctx) -> Phase {
        // A short untimed warm-up, skipped when counting ops exactly.
        let warm = match ctx.max_ops {
            Some(_) => 0.0,
            None => (ctx.seconds * 0.05).clamp(0.2, 1.0),
        };
        Phase {
            start: Instant::now(),
            warm_until: warm,
            end: warm + ctx.seconds,
            max_ops: ctx.max_ops,
        }
    }

    fn warming(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.warm_until
    }

    /// Whether the timed phase is over after `ops` timed ops.
    fn done(&self, ops: u64) -> bool {
        match self.max_ops {
            Some(n) => ops >= n,
            None => self.start.elapsed().as_secs_f64() >= self.end,
        }
    }
}

fn cpu(servers: &[Server]) -> f64 {
    servers.iter().map(Server::cpu_seconds).sum()
}

/// Cuts the timed phase into slices. One client thread drives it,
/// passing the count of timed ops completed so far.
struct Clock<'a> {
    servers: &'a [Server],
    length: f64,
    open: Option<(Instant, u64, f64)>,
    slices: Vec<Slice>,
    /// Probe times taken during the open slice.
    probes: Vec<f64>,
    last_probe: Instant,
    /// Every probe so far, with when it ended.
    series: Vec<(Instant, f64)>,
}

impl<'a> Clock<'a> {
    fn new(servers: &'a [Server], length: f64) -> Self {
        Clock {
            servers,
            length,
            open: None,
            slices: Vec::new(),
            probes: Vec::new(),
            last_probe: Instant::now(),
            series: Vec::new(),
        }
    }

    fn tick(&mut self, ops: u64) {
        match self.open {
            None => self.open = Some((Instant::now(), ops, cpu(self.servers))),
            Some(open) if open.0.elapsed().as_secs_f64() >= self.length => {
                let c = self.close(open, ops);
                self.open = Some((Instant::now(), ops, c));
            }
            Some(_) => {}
        }
    }

    /// Records the slice opened at `open`, ending now after `ops` timed
    /// ops; returns the servers' CPU seconds at its end.
    fn close(&mut self, (t0, ops0, cpu0): (Instant, u64, f64), ops: u64) -> f64 {
        let secs = t0.elapsed().as_secs_f64();
        let c = cpu(self.servers);
        if self.probes.is_empty() {
            let p = speed::probe_median(5);
            self.probes.push(p);
            self.series.push((Instant::now(), p));
        }
        let probe_s = stats::median(&self.probes);
        self.probes.clear();
        self.slices.push(Slice {
            start: t0,
            secs,
            ops: ops - ops0,
            cpu_s: c - cpu0,
            probe_s,
        });
        c
    }

    /// Times a [`speed::probe`] for the open slice if the last one is
    /// [`speed::PROBE_EVERY`] old; called after each timed op, while the
    /// servers are idle.
    fn probe(&mut self) {
        if self.last_probe.elapsed() >= speed::PROBE_EVERY {
            let p = speed::probe();
            self.last_probe = Instant::now();
            self.probes.push(p);
            self.series.push((self.last_probe, p));
        }
    }

    /// Closes the last slice (kept if it is at least half a slice long
    /// or the only one) and hands the slices and probes to `res`.
    fn finish(mut self, ops: u64, res: &mut WireResult) {
        if let Some(open) = self.open {
            if open.0.elapsed().as_secs_f64() >= self.length / 2.0 || self.slices.is_empty() {
                self.close(open, ops);
            }
        }
        res.slices = self.slices;
        res.probes = self.series;
    }
}

/// The closed-loop single-connection op loop shared by `whatif`,
/// `search` and `replicated`.
struct OpLoop<'a> {
    phase: Phase,
    clock: Clock<'a>,
    ops: u64,
}

impl<'a> OpLoop<'a> {
    fn new(ctx: &Ctx, servers: &'a [Server], slice: f64) -> Self {
        OpLoop {
            phase: Phase::new(ctx),
            clock: Clock::new(servers, slice),
            ops: 0,
        }
    }

    /// Sends `req` and checks the reply with `check`; `false` once the
    /// timed phase is over (the request is then not sent).
    fn step(
        &mut self,
        res: &mut WireResult,
        conn: &mut Conn,
        req: &str,
        check: impl FnOnce(&Json) -> Result<(), String>,
    ) -> io::Result<bool> {
        let warming = self.phase.warming();
        if !warming {
            self.clock.tick(self.ops);
            if self.phase.done(self.ops) {
                return Ok(false);
            }
        }
        let t0 = Instant::now();
        let reply = conn.call(req)?;
        let verdict = check(&reply);
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        res.attempted += 1;
        if let Err(e) = verdict {
            res.fail(e);
        }
        if !warming {
            res.lat_us.push((Instant::now(), lat));
            self.ops += 1;
            self.clock.probe();
        }
        Ok(true)
    }

    fn query(
        &mut self,
        res: &mut WireResult,
        conn: &mut Conn,
        op: &QueryOp,
        engine: Option<&str>,
    ) -> io::Result<bool> {
        let want = if op.expected { "true" } else { "false" };
        self.step(res, conn, &wire::query_request(&op.text, engine), |reply| {
            if is_ok(reply) && reply.get("result").and_then(Json::as_str) == Some(want) {
                Ok(())
            } else {
                Err(format!("{} expected {want}, got {reply}", op.text))
            }
        })
    }

    fn end(self, res: &mut WireResult) {
        self.clock.finish(self.ops, res);
    }
}

/// Sends a request that must succeed; counts it like any other op.
fn control(res: &mut WireResult, conn: &mut Conn, req: &str) -> io::Result<()> {
    let reply = conn.call(req)?;
    res.attempted += 1;
    if !is_ok(&reply) {
        res.fail(format!("{req} got {reply}"));
    }
    Ok(())
}

/// Reads the end-of-phase footprint (bytes under the primary's persist
/// root, peak RSS of every server) and shuts the servers down.
fn finish(res: &mut WireResult, servers: Vec<Server>) {
    res.wal_bytes = wire::dir_bytes(&servers[0].root);
    res.peak_rss_mb = servers.iter().map(Server::peak_rss_mb).sum();
    for s in servers {
        s.shutdown();
    }
}

pub fn whatif(ctx: &Ctx) -> io::Result<WireResult> {
    let mut res = WireResult::default();
    let graph = gen::whatif_graph(ctx.seed);
    let program = gen::whatif_program(&graph);
    let (servers, mut conn) = repeated_setup(&mut res, |i| {
        let s = Server::spawn(&ctx.hdl, &ctx.dir.join(format!("whatif-{i}")), &[])?;
        let c = open_and_load(&s.addr, "whatif", None, &program)?;
        Ok((vec![s], c))
    })?;
    res.acked_facts = graph.edges() as u64;
    let mut run = OpLoop::new(ctx, &servers, SLICE_SECONDS);
    for op in gen::WhatIfOps::new(&graph, ctx.seed) {
        if !run.query(&mut res, &mut conn, &op, Some("magic"))? {
            break;
        }
    }
    run.end(&mut res);
    finish(&mut res, servers);
    Ok(res)
}

/// Rounds of `search` instances loaded per run: enough that the timed
/// phase does not run out at any plausible speed.
fn search_round_count(ctx: &Ctx) -> usize {
    match ctx.max_ops {
        Some(n) => (n as usize).div_ceil(gen::SEARCH_ROUND),
        None => (ctx.seconds * gen::SEARCH_ROUNDS_PER_SECOND).ceil() as usize + 2,
    }
}

pub fn search(ctx: &Ctx) -> io::Result<WireResult> {
    let mut res = WireResult::default();
    let rounds = gen::search_rounds(ctx.seed, search_round_count(ctx));
    let (servers, ()) = repeated_setup(&mut res, |i| {
        let s = Server::spawn(
            &ctx.hdl,
            &ctx.dir.join(format!("search-{i}")),
            &["--workers".into(), "1".into()],
        )?;
        for (r, round) in rounds.iter().enumerate() {
            open_and_load(&s.addr, &format!("search{r}"), None, &round.program)?;
        }
        Ok((vec![s], ()))
    })?;
    res.acked_facts = rounds.iter().map(|r| r.facts as u64).sum();
    let mut conn = Conn::connect(&servers[0].addr)?;
    let mut run = OpLoop::new(ctx, &servers, SEARCH_SLICE_SECONDS);
    'rounds: for (r, round) in rounds.iter().enumerate() {
        if r > 0 {
            // Retire the previous round: a publish makes the tenant's
            // worker drop its engines (and their memo tables) at the
            // next query, so memory tracks one round, not the run.
            control(&mut res, &mut conn, &wire::load_request("retired."))?;
            control(&mut res, &mut conn, &wire::query_request("retired", None))?;
        }
        control(
            &mut res,
            &mut conn,
            &wire::open_request(&format!("search{r}"), None),
        )?;
        for op in &round.queries {
            if !run.query(&mut res, &mut conn, op, None)? {
                break 'rounds;
            }
        }
    }
    run.end(&mut res);
    finish(&mut res, servers);
    Ok(res)
}

pub fn mutation_request(op: &Mutation) -> String {
    match op {
        Mutation::Load(facts) => wire::load_request(&Mutation::program(facts)),
        Mutation::Retract(f) => wire::retract_request(f),
    }
}

/// Checks a mutation's reply; an ack updates the expected live set. A
/// retract must report the fact as removed (it was acked earlier).
pub fn check_mutation(op: &Mutation, reply: &Json, live: &mut Live) -> Result<(), String> {
    let right = is_ok(reply)
        && match op {
            Mutation::Load(facts) => {
                for f in facts {
                    live.insert(f.clone());
                }
                true
            }
            Mutation::Retract(f) => {
                reply.get("removed").and_then(Json::as_bool) == Some(true) && live.remove(f)
            }
        };
    if right {
        Ok(())
    } else {
        Err(format!("{op:?} got {reply}"))
    }
}

/// Checks the replies to one pipelined window sent earlier.
fn recv_window(
    conn: &mut Conn,
    window: &[Mutation],
    live: &mut Live,
    res: &mut WireResult,
) -> io::Result<()> {
    for op in window {
        let reply = conn.recv()?;
        res.attempted += 1;
        match check_mutation(op, &reply, live) {
            Ok(()) => res.acked_facts += op.facts() as u64,
            Err(e) => res.fail(e),
        }
    }
    Ok(())
}

fn check_facts(res: &mut WireResult, conn: &mut Conn, live: &Live, who: &str) -> io::Result<()> {
    res.attempted += 1;
    let got = wire::tenant_facts(conn)?;
    if got != live.sorted() {
        res.fail(format!(
            "{who}: holds {} facts, expected {} (acked minus retracted)",
            got.len(),
            live.len()
        ));
    }
    Ok(())
}

/// One `ingest` tenant as the client sees it.
struct IngestClient {
    stream: gen::IngestStream,
    conn: Conn,
    live: Live,
    window: Vec<Mutation>,
    sent: Instant,
}

pub fn ingest(ctx: &Ctx) -> io::Result<WireResult> {
    let mut res = WireResult::default();
    let streams: Vec<_> = (0..INGEST_TENANTS)
        .map(|t| gen::IngestStream::new(ctx.seed, t))
        .collect();
    let (servers, conns) = repeated_setup(&mut res, |i| {
        let s = Server::spawn(
            &ctx.hdl,
            &ctx.dir.join(format!("ingest-{i}")),
            &["--fsync".into(), "always".into()],
        )?;
        let conns = streams
            .iter()
            .enumerate()
            .map(|(t, (_, initial))| {
                open_and_load(
                    &s.addr,
                    &format!("ingest{t}"),
                    None,
                    &Mutation::program(initial),
                )
            })
            .collect::<io::Result<Vec<Conn>>>()?;
        Ok((vec![s], conns))
    })?;
    res.acked_facts = (gen::INGEST_INITIAL_FACTS * INGEST_TENANTS) as u64;
    let mut clients: Vec<IngestClient> = streams
        .into_iter()
        .zip(conns)
        .map(|((stream, initial), conn)| {
            let mut live = Live::default();
            for f in initial {
                live.insert(f);
            }
            IngestClient {
                stream,
                conn,
                live,
                window: Vec::new(),
                sent: Instant::now(),
            }
        })
        .collect();
    // One thread drives both connections in rounds: each tenant's next
    // window goes out pipelined on its own connection, both windows are
    // in flight together (so the group committer can join their
    // commits), and the round ends when both are acked. The probe runs
    // between rounds, while the server is idle.
    let phase = Phase::new(ctx);
    let mut clock = Clock::new(&servers, SLICE_SECONDS);
    let mut ops = 0;
    loop {
        let warming = phase.warming();
        if !warming {
            clock.tick(ops);
            if phase.done(ops) {
                break;
            }
        }
        for c in clients.iter_mut() {
            c.window = c.stream.window(&c.live);
            for op in &c.window {
                c.conn.queue(&mutation_request(op));
            }
            c.sent = Instant::now();
            c.conn.flush()?;
        }
        for c in clients.iter_mut() {
            recv_window(&mut c.conn, &c.window, &mut c.live, &mut res)?;
            if !warming {
                let now = Instant::now();
                res.lat_us.push((now, (now - c.sent).as_secs_f64() * 1e6));
                ops += c.window.len() as u64;
            }
        }
        if !warming {
            clock.probe();
        }
    }
    clock.finish(ops, &mut res);
    for (t, c) in clients.iter_mut().enumerate() {
        check_facts(&mut res, &mut c.conn, &c.live, &format!("ingest{t}"))?;
    }
    finish(&mut res, servers);
    Ok(res)
}

/// Starts a follower and then a primary replicating to it; returns
/// `[primary, follower]`.
pub fn replicated_pair(ctx: &Ctx, name: &str) -> io::Result<Vec<Server>> {
    let fsync = ["--fsync".to_owned(), "always".to_owned()];
    // The follower's primary address only labels its stats: the primary
    // dials the follower.
    let mut args = vec!["--follow".to_owned(), "127.0.0.1:1".to_owned()];
    args.extend(fsync.iter().cloned());
    let follower = Server::spawn(&ctx.hdl, &ctx.dir.join(format!("{name}-follower")), &args)?;
    let mut args = vec!["--replicate-to".to_owned(), follower.addr.clone()];
    args.extend(fsync.iter().cloned());
    let primary = Server::spawn(&ctx.hdl, &ctx.dir.join(format!("{name}-primary")), &args)?;
    Ok(vec![primary, follower])
}

/// The follower's copy of `tenant` must equal `live` (sync-acked facts
/// minus sync-acked retracts).
pub fn check_follower(
    res: &mut WireResult,
    follower: &Server,
    tenant: &str,
    live: &Live,
) -> io::Result<()> {
    let mut conn = Conn::connect(&follower.addr)?;
    let reply = conn.call(&wire::open_request(tenant, None))?;
    if !is_ok(&reply) {
        res.attempted += 1;
        res.fail(format!("follower open {tenant}: {reply}"));
        return Ok(());
    }
    // A sync ack means the follower holds the bytes durably; its query
    // snapshot may be republished a moment later.
    let want = live.sorted();
    for _ in 0..40 {
        if wire::tenant_facts(&mut conn)? == want {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    check_facts(res, &mut conn, live, &format!("follower {tenant}"))
}

pub fn replicated(ctx: &Ctx) -> io::Result<WireResult> {
    let mut res = WireResult::default();
    let (stream, initial) = gen::ReplicatedStream::new(ctx.seed);
    let (servers, mut conn) = repeated_setup(&mut res, |i| {
        let servers = replicated_pair(ctx, &format!("replicated-{i}"))?;
        let c = open_and_load(
            &servers[0].addr,
            "rep",
            Some(1),
            &Mutation::program(&initial),
        )?;
        Ok((servers, c))
    })?;
    let mut live = Live::default();
    for f in &initial {
        live.insert(f.clone());
    }
    res.acked_facts = initial.len() as u64;
    let mut run = OpLoop::new(ctx, &servers, SLICE_SECONDS);
    for op in stream {
        let mut acked = 0;
        let go = run.step(&mut res, &mut conn, &mutation_request(&op), |reply| {
            check_mutation(&op, reply, &mut live).map(|()| acked = op.facts() as u64)
        })?;
        res.acked_facts += acked;
        if !go {
            break;
        }
    }
    run.end(&mut res);
    check_follower(&mut res, &servers[1], "rep", &live)?;
    finish(&mut res, servers);
    Ok(res)
}
