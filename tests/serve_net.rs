//! End-to-end tests for the network server through the real `hdl`
//! binary: `hdl serve --listen` with port 0, multi-tenant sessions over
//! TCP, quota trips, admission control, the `hdl connect` client, and
//! graceful drain (client `shutdown` op and SIGTERM) with
//! checkpoint-on-shutdown recovery.

use hdl_server::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

mod common;

use common::{ServerProc, TempDir, HDL};

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) -> String {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        self.recv().expect("server replied")
    }

    fn recv(&mut self) -> Option<String> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(reply.trim_end().to_owned()),
        }
    }
}

fn assert_ok(reply: &str, context: &str) {
    assert!(
        reply.contains("\"ok\":true") || reply.contains("\"ok\": true"),
        "{context}: expected ok reply, got {reply}"
    );
}

/// One server, two tenants, quotas, and the `hdl connect` CLI —
/// drained by a client `shutdown` op at the end.
#[test]
fn multi_tenant_sessions_quotas_and_connect_cli() {
    let root = TempDir::new("mt");
    let server = ServerProc::start(&[
        "--persist-root",
        root.0.to_str().unwrap(),
        "--tenant-max-facts",
        "3",
    ]);

    // Tenant isolation: facts loaded into `alpha` are invisible to
    // `beta`, and vice versa.
    let mut a = Client::connect(&server.addr);
    let mut b = Client::connect(&server.addr);
    assert_ok(
        &a.send("{\"op\":\"open\",\"tenant\":\"alpha\"}"),
        "open alpha",
    );
    assert_ok(
        &b.send("{\"op\":\"open\",\"tenant\":\"beta\"}"),
        "open beta",
    );
    assert_ok(
        &a.send("{\"op\":\"load\",\"program\":\"p(a).\"}"),
        "load alpha",
    );
    assert_ok(
        &b.send("{\"op\":\"load\",\"program\":\"p(b).\"}"),
        "load beta",
    );
    assert!(a
        .send("{\"op\":\"query\",\"q\":\"p(a)\"}")
        .contains("\"result\":\"true\""));
    assert!(a
        .send("{\"op\":\"query\",\"q\":\"p(b)\"}")
        .contains("\"result\":\"false\""));
    assert!(b
        .send("{\"op\":\"query\",\"q\":\"p(b)\"}")
        .contains("\"result\":\"true\""));
    assert!(b
        .send("{\"op\":\"query\",\"q\":\"p(a)\"}")
        .contains("\"result\":\"false\""));

    // Quota trip: alpha holds 1 of its 3 allowed base facts; a 3-fact
    // load would exceed the cap and is refused before applying.
    let trip = a.send("{\"op\":\"load\",\"program\":\"q(x). q(y). q(z).\"}");
    assert!(trip.contains("\"kind\":\"quota\""), "quota trip: {trip}");
    assert!(a
        .send("{\"op\":\"query\",\"q\":\"q(x)\"}")
        .contains("\"result\":\"false\""));

    // Durable epochs: an explicit checkpoint bumps alpha to epoch 1.
    let cp = a.send("{\"op\":\"checkpoint\"}");
    assert_ok(&cp, "checkpoint");
    assert!(cp.contains("\"epoch\":1"), "checkpoint epoch: {cp}");

    // `hdl connect` is a working client: REPL lines translate to
    // protocol requests and replies echo as JSON lines.
    let mut cli = Command::new(HDL)
        .args(["connect", &server.addr, "--tenant", "alpha"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdl connect");
    cli.stdin
        .take()
        .expect("piped stdin")
        .write_all(b"?- p(a).\n:quit\n")
        .expect("write to hdl connect");
    let out = cli.wait_with_output().expect("hdl connect runs");
    assert!(out.status.success(), "hdl connect exit: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"result\":\"true\""),
        "hdl connect query output: {stdout}"
    );

    // Graceful drain via the protocol: `shutdown` acks, the server
    // checkpoints every durable tenant and exits 0.
    let bye = a.send("{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"draining\":true"), "shutdown ack: {bye}");
    let (ok, stderr) = server.wait();
    assert!(ok, "server exits 0 after shutdown op; stderr: {stderr}");
    assert!(
        stderr.contains("checkpointed epoch") && stderr.contains("server drained"),
        "drain narration: {stderr}"
    );
}

/// Malformed input never kills the server: truncated JSON, binary
/// garbage interleaved with real requests, a line nested deeper than
/// the parser's limit, and invalid UTF-8 all get structured `parse`
/// errors (one per non-empty line, in order) while well-formed
/// requests on the same connection keep working.
#[test]
fn garbage_lines_get_structured_errors_and_never_panic() {
    let server = ServerProc::start(&[]);

    // Interleave garbage with valid requests in one pipelined write and
    // check the reply stream line-by-line.
    let mut c = Client::connect(&server.addr);
    let burst = [
        "{\"op\":\"hello\"}\n",
        "{\"op\":\"hel\n", // truncated mid-string
        "not json at all\n",
        "{\"op\":\"query\",\"q\":\"p(a)\"}\n", // valid but no tenant
        "{\"op\": 42}\n",                      // op of the wrong type
        "[1,2,3]\n",                           // not an object
        &format!("{}\n", "[".repeat(200_000)), // nested far past any reply
        "{\"op\":\"hello\"}\n",
    ]
    .concat();
    let stream = c.reader.get_mut();
    stream.write_all(burst.as_bytes()).expect("send burst");
    let expect = [
        "\"ok\":true",
        "\"kind\":\"parse\"",
        "\"kind\":\"parse\"",
        "\"kind\":\"no-tenant\"",
        "\"kind\":\"parse\"",
        "\"kind\":\"parse\"",
        "\"kind\":\"parse\"",
        "\"ok\":true",
    ];
    for (i, want) in expect.iter().enumerate() {
        let reply = c.recv().unwrap_or_else(|| panic!("reply {i} missing"));
        assert!(
            reply.contains(want),
            "reply {i}: expected {want}, got {reply}"
        );
    }

    // Raw binary garbage (every byte value, invalid UTF-8 included)
    // followed by a newline: one structured parse error, no panic.
    let mut raw = TcpStream::connect(&server.addr).expect("connect raw");
    let mut junk: Vec<u8> = (1..=255u8).filter(|&b| b != b'\n').collect();
    junk.push(b'\n');
    raw.write_all(&junk).expect("send junk");
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read junk reply");
    assert!(
        reply.contains("\"kind\":\"parse\""),
        "binary junk reply: {reply}"
    );

    // Truncated request with no newline, then a hard disconnect: the
    // server must treat it as EOF and keep serving everyone else.
    let mut torn = TcpStream::connect(&server.addr).expect("connect torn");
    torn.write_all(b"{\"op\":\"open\",\"tenant")
        .expect("send torn");
    drop(torn);

    let mut after = Client::connect(&server.addr);
    assert_ok(&after.send("{\"op\":\"hello\"}"), "server survives abuse");
    after.send("{\"op\":\"shutdown\"}");
    let (ok, stderr) = server.wait();
    assert!(ok, "clean exit after garbage; stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "server panicked on garbage input: {stderr}"
    );
}

/// A memory field of process `pid` in KiB (`VmHWM:` is the peak resident
/// set, `VmRSS:` the current one), read from `/proc`; `None` where that
/// is unavailable (not Linux).
fn proc_status_kib(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    proc_status_kib(pid, "VmHWM:")
}

/// One 4 MiB request line holding a flat array draws a `parse` reply,
/// and the server stops parsing at the value limit instead of building
/// the array: its peak RSS rises by well under what a parsed element
/// per two input bytes would cost (about 18 bytes per input byte).
#[test]
fn flat_arrays_past_the_value_limit_are_parse_errors() {
    let server = ServerProc::start(&[]);
    let mut c = Client::connect(&server.addr);
    assert_ok(&c.send("{\"op\":\"hello\"}"), "hello before");
    let before = vm_hwm_kib(server.child.id());
    // `[0,0,…,0]`: 4 MiB and 2 Mi elements.
    let line = format!("[{}0]", "0,".repeat(2 * 1024 * 1024 - 1));
    let reply = c.send(&line);
    assert!(reply.contains("\"kind\":\"parse\""), "4 MiB array: {reply}");
    let hello = c.send("{\"op\":\"hello\"}");
    assert!(hello.contains("\"server\":\"hdl\""), "hello after: {hello}");
    if let (Some(before), Some(after)) = (before, vm_hwm_kib(server.child.id())) {
        assert!(
            after.saturating_sub(before) < 24 * 1024,
            "VmHWM rose from {before} kB to {after} kB"
        );
    }
}

/// One 16 MiB `load` line is parsed where it lies in the server's read
/// buffer: the server's peak resident set rises by less than 1.25× the
/// line (a copy of the line would double it). A second 16 MiB line
/// whose bulk is a comment inside the program string costs the line
/// plus one decoded copy of the string, which moves into the request
/// instead of being copied again: under 2.5× the line. Once the lines
/// are consumed the buffer gives its memory back, while the connection
/// stays open.
#[test]
fn a_long_line_is_parsed_in_place_and_its_buffer_released() {
    let server = ServerProc::start(&[]);
    let pid = server.child.id();
    let mut c = Client::connect(&server.addr);
    assert_ok(&c.send("{\"op\":\"open\",\"tenant\":\"long\"}"), "open");
    assert_ok(
        &c.send("{\"op\":\"load\",\"program\":\"small(x).\"}"),
        "small load",
    );
    let Some(idle) = proc_status_kib(pid, "VmRSS:") else {
        return;
    };
    let bulk = 16 * 1024 * 1024;
    // A legal request whose bulk is whitespace between its fields, so
    // the line's size is all the server has to hold; then one whose
    // bulk is program text. Bounds are (numerator, denominator) of the
    // line's size.
    let lines = [
        (
            format!(
                "{{\"op\":\"load\",{}\"program\":\"long(x).\"}}",
                " ".repeat(bulk)
            ),
            (5, 4),
        ),
        (
            format!(
                "{{\"op\":\"load\",\"program\":\"long(x). % {}\"}}",
                "c".repeat(bulk)
            ),
            (5, 2),
        ),
    ];
    for (line, (num, den)) in &lines {
        assert_ok(&c.send(line), "16 MiB load");
        let hwm = vm_hwm_kib(pid).expect("VmHWM");
        let rise = hwm.saturating_sub(idle) * 1024;
        assert!(
            rise < line.len() as u64 * num / den,
            "a {} B line raised VmHWM from {idle} kB (idle VmRSS) to {hwm} kB",
            line.len()
        );
    }
    let reply = c.send("{\"op\":\"query\",\"q\":\"long(x)\"}");
    assert!(reply.contains("\"result\":\"true\""), "query: {reply}");
    let rss = proc_status_kib(pid, "VmRSS:").expect("VmRSS");
    assert!(
        rss <= idle + 4 * 1024,
        "VmRSS {rss} kB after the long lines, {idle} kB idle before them"
    );
}

/// A pipeline deeper than the server's sweep window is still answered
/// completely and in order — the window bounds a batch, not a client.
#[test]
fn pipeline_deeper_than_window_is_fully_answered() {
    let root = TempDir::new("deep-pipe");
    let server = ServerProc::start(&["--persist-root", root.0.to_str().unwrap()]);
    let mut c = Client::connect(&server.addr);
    assert_ok(&c.send("{\"op\":\"open\",\"tenant\":\"deep\"}"), "open");

    // 3x the PIPELINE_WINDOW of 256, written in one syscall.
    let depth = 768;
    let mut burst = String::new();
    for i in 0..depth {
        burst.push_str(&format!(
            "{{\"op\":\"load\",\"program\":\"d(x{i}).\",\"id\":{i}}}\n"
        ));
    }
    let stream = c.reader.get_mut();
    stream
        .write_all(burst.as_bytes())
        .expect("send deep pipeline");
    for i in 0..depth {
        let reply = c.recv().unwrap_or_else(|| panic!("ack {i} missing"));
        assert!(
            reply.contains("\"ok\":true") && reply.contains(&format!("\"id\":{i}")),
            "ack {i} out of order or failed: {reply}"
        );
    }
    assert!(c
        .send(&format!("{{\"op\":\"query\",\"q\":\"d(x{})\"}}", depth - 1))
        .contains("\"result\":\"true\""));

    c.send("{\"op\":\"shutdown\"}");
    let (ok, _) = server.wait();
    assert!(ok);
}

/// A request line above the server's cap draws a structured `protocol`
/// error and a hang-up instead of unbounded buffering; a slow-trickle
/// client (one byte per write) is served normally.
#[test]
fn oversized_lines_are_refused_and_slow_trickle_is_served() {
    let server = ServerProc::start(&[]);

    // Stream far past the 64 MiB line cap without ever sending a
    // newline. The server must cut in with a protocol error; depending
    // on timing our writes may also fail once it hangs up — both are
    // fine, a panic or an OOM is not.
    let mut big = TcpStream::connect(&server.addr).expect("connect big");
    big.set_nodelay(true).expect("nodelay");
    let chunk = vec![b'a'; 1 << 20];
    for _ in 0..70 {
        if big.write_all(&chunk).is_err() {
            break; // server already hung up on us mid-stream
        }
    }
    let mut reader = BufReader::new(big);
    let mut reply = String::new();
    if reader.read_line(&mut reply).is_ok() && !reply.is_empty() {
        assert!(
            reply.contains("\"kind\":\"protocol\"") && reply.contains("exceeds"),
            "oversize reply: {reply}"
        );
    }
    let mut end = String::new();
    let _ = reader.read_line(&mut end);
    assert!(end.is_empty(), "connection must close after oversize line");

    // Slow trickle: a valid request dribbled one byte at a time still
    // gets its reply.
    let mut slow = Client::connect(&server.addr);
    let request = b"{\"op\":\"hello\"}\n";
    for &byte in request {
        slow.reader
            .get_mut()
            .write_all(&[byte])
            .expect("trickle byte");
        std::thread::sleep(Duration::from_millis(2));
    }
    let reply = slow.recv().expect("trickle reply");
    assert_ok(&reply, "slow trickle served");

    let mut c = Client::connect(&server.addr);
    c.send("{\"op\":\"shutdown\"}");
    let (ok, stderr) = server.wait();
    assert!(ok, "clean exit; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic under abuse: {stderr}");
}

/// Admission control: connections past `--max-connections` are refused
/// with a structured `overloaded` line and closed.
#[test]
fn admission_control_refuses_past_max_connections() {
    let server = ServerProc::start(&["--max-connections", "1"]);
    let mut held = Client::connect(&server.addr);
    assert_ok(
        &held.send("{\"op\":\"hello\"}"),
        "first connection admitted",
    );

    let mut refused = Client::connect(&server.addr);
    let refusal = refused.recv().expect("refusal line");
    assert!(
        refusal.contains("\"kind\":\"overloaded\""),
        "expected overloaded refusal, got {refusal}"
    );
    assert!(refused.recv().is_none(), "refused connection closes");

    held.send("{\"op\":\"shutdown\"}");
    let (ok, _) = server.wait();
    assert!(ok, "clean exit after shutdown");
}

/// An idle server accepts at once: the accept thread blocks in
/// `accept` instead of polling, so 50 sequential connect + one-request
/// round trips take well under the 10 ms a poll could add to each.
/// The server then drains and exits.
#[test]
fn sequential_connections_to_an_idle_server_are_accepted_at_once() {
    let server = ServerProc::start(&[]);
    // One untimed round trip first, so the timing starts from a server
    // that has served a connection.
    assert_ok(
        &Client::connect(&server.addr).send("{\"op\":\"hello\"}"),
        "warm-up",
    );
    let started = std::time::Instant::now();
    for i in 0..50 {
        assert_ok(
            &Client::connect(&server.addr).send("{\"op\":\"hello\"}"),
            &format!("round trip {i}"),
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 connect + hello round trips took {elapsed:?}"
    );
    Client::connect(&server.addr).send("{\"op\":\"shutdown\"}");
    let (ok, stderr) = server.wait();
    assert!(ok, "clean exit after shutdown; stderr: {stderr}");
    assert!(stderr.contains("server drained"), "drained: {stderr}");
}

/// SIGTERM drains: in-flight state is checkpointed and a restarted
/// server recovers every acked mutation at the bumped epoch.
#[test]
fn sigterm_drains_checkpoints_and_recovery_restores_tenants() {
    let root = TempDir::new("sigterm");
    let flags: &[&str] = &["--persist-root", root.0.to_str().unwrap()];
    let server = ServerProc::start(flags);
    let mut c = Client::connect(&server.addr);
    assert_ok(&c.send("{\"op\":\"open\",\"tenant\":\"world\"}"), "open");
    assert_ok(
        &c.send("{\"op\":\"load\",\"program\":\"edge(a, b). tc(X, Y) :- edge(X, Y).\"}"),
        "load",
    );
    assert_ok(
        &c.send("{\"op\":\"assume\",\"facts\":\"edge(b, c)\"}"),
        "assume",
    );

    server.sigterm();
    let (ok, stderr) = server.wait();
    assert!(ok, "clean exit on SIGTERM; stderr: {stderr}");
    assert!(
        stderr.contains("world: checkpointed epoch 1 on shutdown"),
        "shutdown checkpoint: {stderr}"
    );

    // A fresh server over the same root recovers the tenant — base
    // facts, rules, and the assumption frame — at the new epoch.
    let server = ServerProc::start(flags);
    let mut c = Client::connect(&server.addr);
    let open = c.send("{\"op\":\"open\",\"tenant\":\"world\"}");
    assert_ok(&open, "reopen");
    assert!(open.contains("\"epoch\":1"), "recovered epoch: {open}");
    assert!(c
        .send("{\"op\":\"query\",\"q\":\"tc(a, b)\"}")
        .contains("\"result\":\"true\""));
    assert!(c
        .send("{\"op\":\"query\",\"q\":\"edge(b, c)\"}")
        .contains("\"result\":\"true\""));
    let pop = c.send("{\"op\":\"pop\"}");
    assert_ok(&pop, "assumption frame survived recovery");
    c.send("{\"op\":\"shutdown\"}");
    let (ok, _) = server.wait();
    assert!(ok);
}

/// The sorted keys of `value`, which must be a JSON object.
fn keys_of<'a>(value: Option<&'a Json>, what: &str) -> Vec<&'a str> {
    match value {
        Some(Json::Obj(map)) => map.keys().map(String::as_str).collect(),
        other => panic!("{what}: expected an object, got {other:?}"),
    }
}

fn assert_keys(value: Option<&Json>, what: &str, want: &[&str]) {
    let mut want = want.to_vec();
    want.sort_unstable();
    assert_eq!(keys_of(value, what), want, "keys of {what}");
}

const ENGINE_KEYS: &[&str] = &[
    "goal_expansions",
    "databases_created",
    "memo_hits",
    "calls",
    "max_depth",
    "rounds",
    "magic_rules",
    "demand_facts",
    "adorned_strata",
    "unbound_fallbacks",
    "index_probes",
    "index_hits",
    "delta_facts_per_round",
    "overlay_nodes",
    "overlay_delta_facts",
    "overlay_materialized_facts",
];

const MAINTENANCE_KEYS: &[&str] = &[
    "full_builds",
    "incremental_retractions",
    "incremental_assertions",
    "conservative_updates",
    "domain_rebuilds",
    "overdeleted_facts",
    "rederived_facts",
];

const RECOVERY_KEYS: &[&str] = &[
    "checkpoint_epoch",
    "records_replayed",
    "records_truncated",
    "bytes_truncated",
    "checkpoints_skipped",
];

const SERVICE_KEYS: &[&str] = &[
    "queries_served",
    "cache_hits",
    "cache_misses",
    "cache_entries",
    "cancelled",
    "deadline_exceeded",
    "errors",
    "snapshots_published",
    "panics_recovered",
    "retries",
    "shed",
    "memory_trips",
    "workers_respawned",
    "worker_busy_ms",
];

/// Runs the `hdl` binary with `args` on `input` and returns its stdout.
fn run_hdl(args: &[&str], input: &str) -> String {
    let mut child = Command::new(HDL)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdl");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write to hdl");
    let out = child.wait_with_output().expect("hdl runs");
    assert!(out.status.success(), "hdl {args:?} exit: {:?}", out.status);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs `hdl` like [`run_hdl`] and parses the one stdout line that is a
/// JSON object.
fn cli_stats_json(args: &[&str], input: &str) -> Json {
    let stdout = run_hdl(args, input);
    let line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in hdl {args:?} output:\n{stdout}"));
    Json::parse(line).unwrap_or_else(|e| panic!("`{line}` is not JSON: {e}"))
}

/// The key sets of every object the `stats` op and the two CLI
/// `:stats --json` lines emit, for a durable world that was recovered
/// from a checkpoint. docs/protocol.md documents the same sets.
#[test]
fn stats_schemas_are_pinned() {
    // Wire: a durable, group-committed tenant, checkpointed by a drain
    // and reopened by a second server.
    let root = TempDir::new("schema");
    let flags: &[&str] = &["--persist-root", root.0.to_str().unwrap()];
    let server = ServerProc::start(flags);
    let mut c = Client::connect(&server.addr);
    assert_ok(&c.send("{\"op\":\"open\",\"tenant\":\"s\"}"), "open");
    assert_ok(
        &c.send("{\"op\":\"load\",\"program\":\"edge(a, b). tc(X, Y) :- edge(X, Y).\"}"),
        "load",
    );
    c.send("{\"op\":\"shutdown\"}");
    assert!(server.wait().0, "first server drains");

    let server = ServerProc::start(flags);
    let mut c = Client::connect(&server.addr);
    assert_ok(&c.send("{\"op\":\"open\",\"tenant\":\"s\"}"), "reopen");
    assert_ok(&c.send("{\"op\":\"query\",\"q\":\"tc(a, b)\"}"), "query");
    let stats = Json::parse(&c.send("{\"op\":\"stats\"}")).expect("stats reply is JSON");
    assert_keys(
        Some(&stats),
        "stats",
        &["ok", "op", "server", "tenant", "service"],
    );
    let server_obj = stats.get("server");
    assert_keys(
        server_obj,
        "server",
        &[
            "addr",
            "connections_live",
            "connections_total",
            "connections_refused",
            "tenants",
            "draining",
            "fence_epoch",
            "fenced",
            "group_commit",
        ],
    );
    assert_keys(
        server_obj.and_then(|s| s.get("group_commit")),
        "server.group_commit",
        &["batches", "commits", "fsync_groups", "max_batch"],
    );
    assert_keys(
        stats.get("tenant"),
        "tenant",
        &[
            "name",
            "durable",
            "epoch",
            "base_facts",
            "assumption_frames",
            "in_flight",
            "mutations",
            "quota_trips",
            "sync_replicas",
            "recovery",
        ],
    );
    let recovery = stats.get("tenant").and_then(|t| t.get("recovery"));
    assert_keys(recovery, "tenant.recovery", RECOVERY_KEYS);
    assert_keys(stats.get("service"), "service", SERVICE_KEYS);
    assert_eq!(
        recovery
            .and_then(|r| r.get("checkpoint_epoch"))
            .and_then(Json::as_u64),
        Some(1),
        "the drain checkpointed epoch 1: {stats}"
    );
    c.send("{\"op\":\"shutdown\"}");
    assert!(server.wait().0, "second server drains");

    // CLI: the REPL and `serve --stdin` over a recovered persist dir.
    let dir = TempDir::new("schema-cli");
    let dir = dir.0.to_str().unwrap();
    let load = "edge(a, b).\ntc(X, Y) :- edge(X, Y).\n:quit\n";
    let ask = "?- tc(a, b).\n:materialize\n:stats --json\n:quit\n";

    run_hdl(&["--persist-dir", dir], load);
    let repl = cli_stats_json(&["--persist-dir", dir], ask);
    assert_keys(
        Some(&repl),
        "REPL :stats --json",
        &["engine", "maintenance", "recovery", "durable", "epoch"],
    );
    assert_keys(repl.get("engine"), "REPL engine", ENGINE_KEYS);
    assert_keys(
        repl.get("maintenance"),
        "REPL maintenance",
        MAINTENANCE_KEYS,
    );
    assert_keys(repl.get("recovery"), "REPL recovery", RECOVERY_KEYS);

    let serve = ["serve", "--stdin", "--persist-dir", dir, "--workers", "1"];
    let stdin = cli_stats_json(&serve, ask);
    assert_keys(
        Some(&stdin),
        "serve --stdin :stats --json",
        &["service", "maintenance", "recovery"],
    );
    assert_keys(stdin.get("service"), "serve --stdin service", SERVICE_KEYS);
    assert_keys(
        stdin.get("maintenance"),
        "serve --stdin maintenance",
        MAINTENANCE_KEYS,
    );
    assert_keys(
        stdin.get("recovery"),
        "serve --stdin recovery",
        RECOVERY_KEYS,
    );
}

#[test]
fn serve_without_a_mode_is_a_usage_error() {
    // `hdl serve` must name its mode; the old bare spelling of
    // `--stdin` is gone, so it exits with a usage error naming both.
    let out = Command::new(HDL)
        .arg("serve")
        .stdin(Stdio::null())
        .output()
        .expect("run hdl serve");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(out.stdout.is_empty(), "no mode runs: {:?}", out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--stdin"), "names --stdin: {stderr}");
    assert!(stderr.contains("--listen"), "names --listen: {stderr}");
    assert!(stderr.contains("name a mode"), "says why: {stderr}");
}
