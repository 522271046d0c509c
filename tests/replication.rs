//! Crash/failover matrix for primary/follower replication.
//!
//! Each case runs a real `hdl serve --listen … --replicate-to` primary
//! and one or two real `hdl serve --listen … --follow` followers as
//! separate processes, arms one crash site with `HDL_CRASH_AT`
//! (`replicate::ship` aborts the primary before a window leaves;
//! `replicate::apply` aborts the follower with a received window
//! unwritten; `replicate::ack` aborts the follower after the fsync but
//! before the ack; `persist::wal_append`/`persist::wal_fsync` abort the
//! primary inside its local commit), drives pipelined mutations through
//! the primary, and then exercises one of the recovery paths:
//!
//! - **restart**: bring the crashed process back on the same directory
//!   (and, for followers, the same address) and assert the pair
//!   converges — the follower answers the pinned query set
//!   byte-identically to the primary;
//! - **promote**: leave the primary dead, assert the follower serves a
//!   *prefix of the submission order* read-only (acked ⊆ follower-state
//!   ⊆ submitted, no holes, no invented facts), then `promote` it and
//!   assert it accepts writes without losing that prefix.
//!
//! The three-process quorum matrix (`--sync-replicas 2`) tightens the
//! async contract: a sync-acked mutation must already be present on
//! EVERY quorum follower the instant the primary dies — no catch-up
//! grace. The fencing cases prove a restarted old primary latches
//! read-only once it contacts the promoted follower's higher epoch,
//! and stays fenced across its own restarts (persisted FENCE latch).
//!
//! Everything is black-box over the wire: the only observables are acks,
//! query answers, and process exits — exactly what an operator has.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod common;

use common::{spawn_listening, NetClient, TempDir, HDL};

/// A serve process plus its resolved listen address.
struct Proc {
    child: Child,
    addr: String,
}

impl Proc {
    /// Waits (bounded) for the process to exit; panics on timeout.
    fn wait_exit(&mut self, why: &str) -> bool {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.success();
            }
            assert!(Instant::now() < deadline, "timed out waiting for {why}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `hdl serve --listen` with the given role flags; reads the
/// resolved address off stdout.
fn spawn_serve(root: &Path, listen: &str, role: &[&str], crash_at: Option<&str>) -> Proc {
    let mut cmd = Command::new(HDL);
    cmd.args(["serve", "--listen", listen, "--fsync", "always"])
        .args(["--persist-root", root.to_str().unwrap()])
        .args(role)
        .stderr(Stdio::null());
    match crash_at {
        Some(spec) => cmd.env("HDL_CRASH_AT", spec),
        None => cmd.env_remove("HDL_CRASH_AT"),
    };
    let (child, addr) = spawn_listening(&mut cmd);
    Proc { child, addr }
}

fn spawn_primary(root: &Path, follower_addr: &str, crash_at: Option<&str>) -> Proc {
    spawn_serve(
        root,
        "127.0.0.1:0",
        &["--replicate-to", follower_addr],
        crash_at,
    )
}

fn spawn_follower(root: &Path, listen: &str, crash_at: Option<&str>) -> Proc {
    // The --follow value is the primary's address for operator-facing
    // messages; the data path is inbound (the primary dials us), so a
    // placeholder keeps the spawn order simple.
    spawn_serve(root, listen, &["--follow", "primary.invalid:0"], crash_at)
}

/// Spawns a primary shipping to every `targets` address with a
/// server-wide sync quorum of `sync` acks per mutation.
fn spawn_quorum_primary(
    root: &Path,
    targets: &[&str],
    sync: usize,
    crash_at: Option<&str>,
) -> Proc {
    let sync_s = sync.to_string();
    let mut role: Vec<&str> = Vec::new();
    for target in targets {
        role.push("--replicate-to");
        role.push(target);
    }
    role.push("--sync-replicas");
    role.push(&sync_s);
    spawn_serve(root, "127.0.0.1:0", &role, crash_at)
}

/// Polls `f(x<i>)` on `addr` until it answers true (bounded); returns
/// whether it converged.
fn wait_until_true(addr: &str, tenant: &str, i: usize, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        let mut c = NetClient::open(addr, tenant);
        if c.alive {
            let q = format!("{{\"op\":\"query\",\"q\":\"f(x{i})\"}}");
            if c.round_trip(&q)
                .is_some_and(|r| r.contains("\"result\":\"true\""))
            {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// The presence vector of `f(x0)..f(x<n>)` on one server — the raw reply
/// lines, for byte-identical comparison — plus the booleans.
fn presence(addr: &str, tenant: &str, n: usize) -> (Vec<String>, Vec<bool>) {
    let mut c = NetClient::open(addr, tenant);
    assert!(c.alive, "cannot open {tenant} on {addr}");
    let mut lines = Vec::with_capacity(n);
    let mut present = Vec::with_capacity(n);
    for i in 0..n {
        let q = format!("{{\"op\":\"query\",\"q\":\"f(x{i})\"}}");
        let reply = c
            .round_trip(&q)
            .unwrap_or_else(|| panic!("query f(x{i}) on {addr} got no reply"));
        present.push(reply.contains("\"result\":\"true\""));
        lines.push(reply.trim_end().to_owned());
    }
    (lines, present)
}

/// Asserts `present` is a hole-free prefix and returns its length.
fn prefix_len(present: &[bool], context: &str) -> usize {
    let len = present.iter().take_while(|&&p| p).count();
    assert!(
        present[len..].iter().all(|&p| !p),
        "{context}: follower state has a hole — not a prefix of submission order: {present:?}"
    );
    len
}

const ROUNDS: usize = 6;
const WINDOW: usize = 8;

/// Drives bursts through the primary. With a `victim`, keeps bursting
/// past the scripted rounds until that process exits (so an armed crash
/// counting its nth hit always gets enough windows), bounded by a cap.
fn drive(addr: &str, mut victim: Option<&mut Proc>) -> NetClient {
    let mut c = NetClient::open(addr, "t");
    assert!(c.alive, "cannot open tenant on the primary");
    let mut round = 0;
    loop {
        let done = match victim.as_deref_mut() {
            Some(v) => v.child.try_wait().expect("try_wait").is_some(),
            None => round >= ROUNDS,
        };
        if done || !c.alive || round >= 200 {
            break;
        }
        c.burst("", round * WINDOW, WINDOW);
        round += 1;
        // Give the async shipper a moment between bursts so crash hits
        // land across different windows, not all coalesced into one.
        std::thread::sleep(Duration::from_millis(30));
    }
    c
}

/// Kill the primary at `replicate::ship:<nth>` (it aborts before sending
/// a window), then either restart it or promote the follower.
fn run_ship_case(nth: u64, promote: bool) {
    let tag = format!("ship-{nth}-{}", if promote { "promote" } else { "restart" });
    let p_root = TempDir::new(&format!("{tag}-p"));
    let f_root = TempDir::new(&format!("{tag}-f"));
    let follower = spawn_follower(&f_root.0, "127.0.0.1:0", None);
    let mut primary = spawn_primary(
        &p_root.0,
        &follower.addr,
        Some(&format!("replicate::ship:{nth}")),
    );

    let p_addr = primary.addr.clone();
    let client = drive(&p_addr, Some(&mut primary));
    assert!(
        !primary.wait_exit("armed primary crash"),
        "{tag}: the armed ship crash never fired"
    );
    let submitted = client.submitted;
    let acked = client.acked;
    drop(client);
    assert!(submitted > 0, "{tag}: nothing was submitted");

    // The follower keeps serving reads through the outage; whatever it
    // has is a hole-free prefix of the submission order, and mutations
    // are refused with the structured read_only error.
    let (_, present) = presence(&follower.addr, "t", submitted);
    let before = prefix_len(&present, &tag);
    let mut c = NetClient::open(&follower.addr, "t");
    let denied = c
        .round_trip("{\"op\":\"load\",\"program\":\"f(rogue).\"}")
        .expect("read_only reply");
    assert!(
        denied.contains("\"kind\":\"read_only\""),
        "{tag}: follower accepted a mutation during the outage: {denied}"
    );
    let stats = c.round_trip("{\"op\":\"stats\"}").expect("stats reply");
    assert!(
        stats.contains("\"role\":\"follower\""),
        "{tag}: follower stats carry no role: {stats}"
    );
    drop(c);

    if promote {
        // Failover: promote the follower and write through it.
        let mut c = NetClient::open(&follower.addr, "t");
        let reply = c.round_trip("{\"op\":\"promote\"}").expect("promote reply");
        assert!(
            reply.contains("\"ok\":true"),
            "{tag}: promote failed: {reply}"
        );
        drop(c);
        let mut c = NetClient::open(&follower.addr, "t");
        let reply = c
            .round_trip("{\"op\":\"load\",\"program\":\"f(after_failover).\"}")
            .expect("post-promote load");
        assert!(
            reply.contains("\"ok\":true"),
            "{tag}: promoted follower refused a write: {reply}"
        );
        let q = c
            .round_trip("{\"op\":\"query\",\"q\":\"f(after_failover)\"}")
            .expect("post-promote query");
        assert!(q.contains("\"result\":\"true\""), "{tag}: {q}");
        // The pre-failover prefix survived promotion intact.
        let (_, present) = presence(&follower.addr, "t", submitted);
        let after = prefix_len(&present, &format!("{tag} post-promote"));
        assert!(
            after >= before,
            "{tag}: promotion lost replicated facts ({before} -> {after})"
        );
    } else {
        // Restart the primary on the same directory: acked mutations
        // recovered, shipping resumes, and the pair converges to
        // byte-identical answers.
        let mut primary = spawn_primary(&p_root.0, &follower.addr, None);
        let (p_lines, p_present) = presence(&primary.addr, "t", submitted);
        let recovered = prefix_len(&p_present, &format!("{tag} primary restart"));
        assert!(
            recovered >= acked,
            "{tag}: restart lost acked mutations ({acked} acked, {recovered} recovered)"
        );
        if recovered > 0 {
            assert!(
                wait_until_true(&follower.addr, "t", recovered - 1, 20),
                "{tag}: follower never caught up after primary restart"
            );
        }
        let (f_lines, _) = presence(&follower.addr, "t", submitted);
        assert_eq!(
            p_lines, f_lines,
            "{tag}: primary and follower answers diverge after catch-up"
        );
        shutdown(&mut primary);
    }
}

/// Kill the follower at a follower-side site (`replicate::apply:<nth>`
/// or `replicate::ack:<nth>`), restart it on the same address and
/// directory, and assert the pair converges byte-identically. When
/// `promote_after`, additionally kill the primary afterwards and promote
/// the recovered follower.
fn run_follower_crash_case(site: &str, nth: u64, promote_after: bool) {
    let tag = format!(
        "{site}-{nth}{}",
        if promote_after { "-promote" } else { "" }
    );
    let p_root = TempDir::new(&format!("{tag}-p"));
    let f_root = TempDir::new(&format!("{tag}-f"));
    let mut follower = spawn_follower(&f_root.0, "127.0.0.1:0", Some(&format!("{site}:{nth}")));
    let f_addr = follower.addr.clone();
    let mut primary = spawn_primary(&p_root.0, &f_addr, None);

    let client = drive(&primary.addr, Some(&mut follower));
    let submitted = client.submitted;
    let acked = client.acked;
    drop(client);
    assert_eq!(acked, submitted, "{tag}: the primary must ack everything");
    assert!(
        !follower.wait_exit("armed follower crash"),
        "{tag}: the armed follower crash never fired"
    );

    // Restart the follower on the same address; the primary's shipper
    // reconnects with backoff and renegotiates the resume position from
    // the follower's fsynced prefix.
    let follower = spawn_follower(&f_root.0, &f_addr, None);
    assert_eq!(follower.addr, f_addr, "{tag}: follower rebind moved ports");
    assert!(
        wait_until_true(&follower.addr, "t", submitted - 1, 30),
        "{tag}: follower never converged after restart"
    );
    let (p_lines, _) = presence(&primary.addr, "t", submitted);
    let (f_lines, f_present) = presence(&follower.addr, "t", submitted);
    assert_eq!(
        p_lines, f_lines,
        "{tag}: answers diverge after follower recovery"
    );
    assert_eq!(
        prefix_len(&f_present, &tag),
        submitted,
        "{tag}: full convergence expected once the primary is idle"
    );

    if promote_after {
        primary.kill();
        let mut c = NetClient::open(&follower.addr, "t");
        let reply = c.round_trip("{\"op\":\"promote\"}").expect("promote reply");
        assert!(
            reply.contains("\"ok\":true"),
            "{tag}: promote failed: {reply}"
        );
        drop(c);
        let mut c = NetClient::open(&follower.addr, "t");
        let reply = c
            .round_trip("{\"op\":\"load\",\"program\":\"f(after_failover).\"}")
            .expect("post-promote load");
        assert!(reply.contains("\"ok\":true"), "{tag}: {reply}");
        let (_, present) = presence(&follower.addr, "t", submitted);
        assert_eq!(
            prefix_len(&present, &format!("{tag} post-promote")),
            submitted,
            "{tag}: promotion lost converged facts"
        );
    } else {
        shutdown(&mut primary);
    }
}

/// Drains a server cleanly via the shutdown op.
fn shutdown(proc_: &mut Proc) {
    let mut c = NetClient::open(&proc_.addr, "t");
    let _ = c.round_trip("{\"op\":\"shutdown\"}");
    drop(c);
    assert!(proc_.wait_exit("graceful drain"), "drain exited non-zero");
}

#[test]
fn primary_crash_at_ship_follower_keeps_serving_then_promotes() {
    run_ship_case(1, true);
}

#[test]
fn primary_crash_at_ship_mid_stream_then_promotes() {
    run_ship_case(3, true);
}

#[test]
fn primary_crash_at_ship_then_restarts_and_converges() {
    run_ship_case(2, false);
}

#[test]
fn follower_crash_at_apply_restarts_and_converges() {
    run_follower_crash_case("replicate::apply", 1, false);
}

#[test]
fn follower_crash_at_apply_mid_stream_restarts_and_converges() {
    run_follower_crash_case("replicate::apply", 3, false);
}

#[test]
fn follower_crash_at_ack_restarts_and_converges() {
    run_follower_crash_case("replicate::ack", 2, false);
}

#[test]
fn follower_crash_at_ack_then_failover_promotes_cleanly() {
    run_follower_crash_case("replicate::ack", 1, true);
}

// ---------------------------------------------------------------------
// Three-process quorum matrix: primary → two sync followers
// (`--sync-replicas 2`), killed at a primary-side crash site. The async
// cases above allow the follower to lag the acks; a sync ack was only
// sent after BOTH followers acknowledged the covering position, so the
// moment the primary dies every client-acked mutation must already be
// present on every follower — no catch-up grace, no waiting.
// ---------------------------------------------------------------------

/// One cell of the quorum matrix, folded into the CI artifact.
struct QuorumCell {
    site: &'static str,
    nth: u64,
    submitted: usize,
    acked: usize,
    prefixes: [usize; 2],
}

/// Primary-side crash sites: the shipper about to send a window
/// (`replicate::ship` counts per target, so odd hits leave the two
/// followers asymmetric), and the local WAL append/fsync inside the
/// very commit the client is waiting on.
const QUORUM_MATRIX: &[(&str, u64)] = &[
    ("replicate::ship", 1),
    ("replicate::ship", 3),
    ("persist::wal_append", 5),
    ("persist::wal_fsync", 3),
];

fn run_quorum_case(site: &'static str, nth: u64) -> QuorumCell {
    let tag = format!("quorum-{site}-{nth}");
    let p_root = TempDir::new(&format!("{tag}-p"));
    let f1_root = TempDir::new(&format!("{tag}-f1"));
    let f2_root = TempDir::new(&format!("{tag}-f2"));
    let f1 = spawn_follower(&f1_root.0, "127.0.0.1:0", None);
    let f2 = spawn_follower(&f2_root.0, "127.0.0.1:0", None);
    let mut primary = spawn_quorum_primary(
        &p_root.0,
        &[&f1.addr, &f2.addr],
        2,
        Some(&format!("{site}:{nth}")),
    );

    let p_addr = primary.addr.clone();
    let client = drive(&p_addr, Some(&mut primary));
    assert!(
        !primary.wait_exit("armed quorum crash"),
        "{tag}: the armed crash never fired"
    );
    let (submitted, acked) = (client.submitted, client.acked);
    drop(client);
    assert!(submitted > 0, "{tag}: nothing was submitted");

    let mut prefixes = [0usize; 2];
    for (slot, (name, f)) in [("f1", &f1), ("f2", &f2)].into_iter().enumerate() {
        let (_, present) = presence(&f.addr, "t", submitted);
        let got = prefix_len(&present, &format!("{tag} {name}"));
        assert!(
            got >= acked,
            "{tag}: {name} is missing sync-acked mutations ({acked} acked, {got} present)"
        );
        prefixes[slot] = got;
    }
    QuorumCell {
        site,
        nth,
        submitted,
        acked,
        prefixes,
    }
}

/// The full quorum matrix, run sequentially so the cells fold into one
/// CI artifact (`target/replication-matrix.json`), mirroring the
/// crash-recovery report.
#[test]
fn quorum_matrix_sync_acked_on_every_follower() {
    let mut cells = Vec::new();
    for &(site, nth) in QUORUM_MATRIX {
        cells.push(run_quorum_case(site, nth));
    }
    // Coverage sanity: a matrix where every cell crashed before a
    // single sync ack would prove nothing about the ack contract.
    assert!(
        cells.iter().any(|c| c.acked > 0),
        "quorum matrix: no cell got a sync ack before its crash"
    );
    let mut json = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"site\": \"{}\", \"nth\": {}, \"submitted\": {}, \"acked\": {}, \
             \"follower_prefixes\": [{}, {}]}}{}\n",
            c.site,
            c.nth,
            c.submitted,
            c.acked,
            c.prefixes[0],
            c.prefixes[1],
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/replication-matrix.json");
    // `target/` is absent when the build goes elsewhere (CARGO_TARGET_DIR).
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, json).unwrap();
}

/// A sync tenant whose quorum can never be met (the lone target never
/// answers) gets the bounded-degradation contract: after the
/// replication-wait deadline the mutation is answered with
/// `kind:"degraded_ack"` carrying the replicated/required counts —
/// applied and locally durable, but under-replicated — instead of
/// hanging the client or rolling anything back.
#[test]
fn sync_ack_degrades_when_quorum_is_unreachable() {
    let root = TempDir::new("degraded");
    // Port 1 on loopback: connection refused instantly, redialed with
    // backoff — the quorum stays permanently out of reach.
    let primary = spawn_quorum_primary(&root.0, &["127.0.0.1:1"], 1, None);
    let mut c = NetClient::open(&primary.addr, "t");
    assert!(c.alive, "cannot open tenant on the sync primary");
    let start = Instant::now();
    let reply = c
        .round_trip("{\"op\":\"load\",\"program\":\"f(x0).\"}")
        .expect("degraded reply");
    assert!(
        reply.contains("\"kind\":\"degraded_ack\"")
            && reply.contains("\"replicated\":0")
            && reply.contains("\"required\":1"),
        "expected a structured degraded ack: {reply}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "degraded ack was not bounded: {:?}",
        start.elapsed()
    );
    // Degraded, not rolled back: the mutation applied locally.
    let q = c
        .round_trip("{\"op\":\"query\",\"q\":\"f(x0)\"}")
        .expect("query after degraded ack");
    assert!(
        q.contains("\"result\":\"true\""),
        "degraded mutation vanished: {q}"
    );
}

/// After a failover, the restarted old primary must fence itself with
/// no operator help: its shipper contacts the promoted follower,
/// observes the higher fencing epoch, latches read-only (mutations
/// refused with `kind:"fenced"`, reads still served), and the latch
/// survives its own restarts through the persisted FENCE file.
#[test]
fn fenced_old_primary_refuses_writes_after_promote() {
    let p_root = TempDir::new("fence-p");
    let f1_root = TempDir::new("fence-f1");
    let f2_root = TempDir::new("fence-f2");
    let f1 = spawn_follower(&f1_root.0, "127.0.0.1:0", None);
    let f2 = spawn_follower(&f2_root.0, "127.0.0.1:0", None);
    let mut primary = spawn_quorum_primary(&p_root.0, &[&f1.addr, &f2.addr], 2, None);

    // Per-tenant sync override over the wire: re-open with a lower
    // quorum (echoed back), then with one exceeding the target set
    // (refused), then restore the full quorum.
    let mut c = NetClient::open(&primary.addr, "t");
    let reply = c
        .round_trip("{\"op\":\"open\",\"tenant\":\"t\",\"sync\":1}")
        .expect("open with sync override");
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"sync\":1"),
        "sync override not accepted/echoed: {reply}"
    );
    let reply = c
        .round_trip("{\"op\":\"open\",\"tenant\":\"t\",\"sync\":3}")
        .expect("open with oversized quorum");
    assert!(
        !reply.contains("\"ok\":true"),
        "a quorum larger than the target set must be refused: {reply}"
    );
    let reply = c
        .round_trip("{\"op\":\"open\",\"tenant\":\"t\",\"sync\":2}")
        .expect("restore sync quorum");
    assert!(
        reply.contains("\"sync\":2"),
        "sync restore not echoed: {reply}"
    );
    drop(c);

    let client = drive(&primary.addr, None);
    let (submitted, acked) = (client.submitted, client.acked);
    drop(client);
    assert!(acked > 0, "fence: nothing was sync-acked while healthy");
    primary.kill();

    // Promote one follower; its fencing epoch moves past the dead
    // primary's and the reply reports it.
    let mut c = NetClient::open(&f1.addr, "t");
    let reply = c.round_trip("{\"op\":\"promote\"}").expect("promote reply");
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"fence_epoch\""),
        "promote must bump and report the fencing epoch: {reply}"
    );
    drop(c);

    // Restart the old primary on its old directory, still shipping to
    // both targets. It boots writable (the documented race window) but
    // must latch as soon as its shipper exchanges one frame with the
    // promoted node — poll mutations until they come back refused.
    let mut restarted = spawn_quorum_primary(&p_root.0, &[&f1.addr, &f2.addr], 2, None);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut fenced = false;
    let mut i = 0;
    while Instant::now() < deadline && !fenced {
        let mut c = NetClient::open(&restarted.addr, "t");
        let probe = format!("{{\"op\":\"load\",\"program\":\"rogue(r{i}).\"}}");
        if let Some(reply) = c.round_trip(&probe) {
            fenced = reply.contains("\"kind\":\"fenced\"");
        }
        i += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(fenced, "restarted old primary never latched fenced");

    // Fenced is not dead: reads still serve, stats show the latch, and
    // every further mutation op is refused.
    let mut c = NetClient::open(&restarted.addr, "t");
    let q = c
        .round_trip("{\"op\":\"query\",\"q\":\"f(x0)\"}")
        .expect("fenced read");
    assert!(
        q.contains("\"result\":\"true\""),
        "fenced primary lost reads: {q}"
    );
    let denied = c
        .round_trip("{\"op\":\"assume\",\"facts\":\"g(a)\"}")
        .expect("fenced assume");
    assert!(
        denied.contains("\"kind\":\"fenced\""),
        "assume escaped the fence: {denied}"
    );
    let stats = c.round_trip("{\"op\":\"stats\"}").expect("fenced stats");
    assert!(
        stats.contains("\"fenced\":true"),
        "stats hide the fence latch: {stats}"
    );
    drop(c);

    // The latch is persisted: a second restart boots fenced and refuses
    // the very first mutation with no peer contact needed.
    restarted.kill();
    let rebooted = spawn_quorum_primary(&p_root.0, &[&f1.addr, &f2.addr], 2, None);
    let mut c = NetClient::open(&rebooted.addr, "t");
    let denied = c
        .round_trip("{\"op\":\"load\",\"program\":\"rogue(boot).\"}")
        .expect("boot-fenced load");
    assert!(
        denied.contains("\"kind\":\"fenced\""),
        "fence latch did not survive a restart: {denied}"
    );
    drop(c);

    // Meanwhile the promoted follower owns writes and kept the prefix.
    let mut c = NetClient::open(&f1.addr, "t");
    let reply = c
        .round_trip("{\"op\":\"load\",\"program\":\"f(after_failover).\"}")
        .expect("promoted write");
    assert!(
        reply.contains("\"ok\":true"),
        "promoted follower refused a write: {reply}"
    );
    drop(c);
    let (_, present) = presence(&f1.addr, "t", submitted);
    assert!(
        prefix_len(&present, "fence promoted") >= acked,
        "failover lost sync-acked facts"
    );
}

/// `hdl connect --reconnect` across a failover: the link client holds a
/// session on the follower, promotes it over that same connection,
/// loses the promoted server to a `kill -9`, and must transparently
/// redial the restarted server, re-open its tenant, and replay the one
/// unacked line. The replay contract is at-least-once: a `load` whose
/// ack was lost lands the same facts when replayed (set semantics), so
/// no double-apply is observable — asserted on the final state.
#[test]
fn reconnect_client_replays_across_promote() {
    let p_root = TempDir::new("reconnect-p");
    let f_root = TempDir::new("reconnect-f");
    let mut follower = spawn_follower(&f_root.0, "127.0.0.1:0", None);
    let f_addr = follower.addr.clone();
    let mut primary = spawn_primary(&p_root.0, &f_addr, None);

    // Seed facts through the primary; wait for the follower to hold
    // them before the link client binds.
    let mut seed = NetClient::open(&primary.addr, "t");
    assert!(seed.alive, "cannot open tenant on the primary");
    seed.burst("", 0, 4);
    assert_eq!(seed.acked, 4, "seed burst not fully acked");
    drop(seed);
    assert!(
        wait_until_true(&f_addr, "t", 3, 20),
        "follower never converged on the seed"
    );

    let mut link = Command::new(HDL)
        .args(["connect", &f_addr, "--tenant", "t", "--reconnect"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdl connect");
    let mut input = link.stdin.take().expect("piped stdin");
    let mut output = BufReader::new(link.stdout.take().expect("piped stdout")).lines();
    // The --tenant flag sends an open before any input; its reply is
    // the first stdout line.
    let open_reply = output
        .next()
        .expect("open reply line")
        .expect("read open reply");
    assert!(
        open_reply.contains("\"ok\":true"),
        "hdl connect open failed: {open_reply}"
    );
    let mut reply_of = |line: &str| -> String {
        writeln!(input, "{line}").expect("write to hdl connect");
        input.flush().expect("flush hdl connect stdin");
        output.next().expect("reply line").expect("read reply")
    };

    // Reads work against the follower binding.
    let reply = reply_of("?- f(x3).");
    assert!(
        reply.contains("\"result\":\"true\""),
        "follower read failed: {reply}"
    );

    // Failover: kill the primary, promote over this same connection,
    // and write through it.
    primary.kill();
    let reply = reply_of(":promote");
    assert!(reply.contains("\"ok\":true"), "promote failed: {reply}");
    let reply = reply_of("f(x4).");
    assert!(
        reply.contains("\"ok\":true"),
        "promoted server refused a write over the held connection: {reply}"
    );

    // Kill the promoted server and bring it straight back on the same
    // address and directory (a plain primary now). The next request
    // finds a dead socket, redials, re-opens the tenant, and replays
    // the unacked line against the restarted server.
    follower.kill();
    let mut restarted = spawn_serve(&f_root.0, &f_addr, &[], None);
    assert_eq!(restarted.addr, f_addr, "restart moved ports");
    let reply = reply_of("f(x5).");
    assert!(
        reply.contains("\"ok\":true"),
        "replayed line after reconnect was not acked: {reply}"
    );

    // At-least-once is observably exactly-once for loads: the replayed
    // fact is present, the pre-failover state survived, and nothing
    // extra was invented.
    for (q, want) in [
        ("?- f(x5).", true),
        ("?- f(x4).", true),
        ("?- f(x3).", true),
        ("?- f(rogue).", false),
    ] {
        let reply = reply_of(q);
        let expect = if want {
            "\"result\":\"true\""
        } else {
            "\"result\":\"false\""
        };
        assert!(reply.contains(expect), "{q}: unexpected reply {reply}");
    }
    let _ = reply_of(":quit");
    drop(input);
    let status = link.wait().expect("hdl connect exit");
    assert!(status.success(), "hdl connect exited non-zero: {status}");
    shutdown(&mut restarted);
}

/// The no-crash control: a healthy pair converges, the follower reports
/// replication stats on both ends, and both drain cleanly.
#[test]
fn uncrashed_pair_converges_and_drains() {
    let p_root = TempDir::new("control-p");
    let f_root = TempDir::new("control-f");
    let follower = spawn_follower(&f_root.0, "127.0.0.1:0", None);
    let mut primary = spawn_primary(&p_root.0, &follower.addr, None);

    let client = drive(&primary.addr, None);
    let submitted = client.submitted;
    assert_eq!(client.acked, submitted);
    drop(client);

    assert!(
        wait_until_true(&follower.addr, "t", submitted - 1, 20),
        "control: follower never converged"
    );
    let (p_lines, _) = presence(&primary.addr, "t", submitted);
    let (f_lines, _) = presence(&follower.addr, "t", submitted);
    assert_eq!(p_lines, f_lines, "control: answers diverge");

    let mut c = NetClient::open(&primary.addr, "t");
    let stats = c.round_trip("{\"op\":\"stats\"}").expect("primary stats");
    assert!(
        stats.contains("\"role\":\"primary\"") && stats.contains("\"connected\":true"),
        "control: primary stats missing replication section: {stats}"
    );
    drop(c);
    shutdown(&mut primary);
}
