//! Kill-at-failpoint crash matrix for the durable query service.
//!
//! For every crash site in the persistence layer, this harness runs the
//! real `hdl serve` binary against a persist dir, feeds it a pinned
//! mutation script with `HDL_CRASH_AT=<site>:<n>` armed so the process
//! aborts mid-syscall-sequence (torn WAL record, unfsynced tail,
//! partial or unrenamed checkpoint), then restarts it and checks that
//! the recovered process answers a pinned query set **byte-identically**
//! to an uncrashed twin that applied exactly the acked mutation prefix.
//!
//! The durability contract being enforced:
//!
//! - every mutation acked (`ok` / `checkpoint <e>` on stdout) before the
//!   crash is present after recovery — no silent loss;
//! - nothing *past* the crashed mutation appears — no invention;
//! - the crashed mutation itself may legally surface only at the
//!   `wal_fsync` site (the record was complete in the page cache when
//!   the process died; a process crash is not a power cut);
//! - recovery never panics, and `:stats` reports what it restored.

use std::io::Write;
use std::path::Path;
use std::process::{Child, Command, Stdio};

mod common;

use common::{spawn_listening, NetClient, TempDir, HDL};

/// One ack line per entry: program lines and `:assume`/`:retract`/`:pop`
/// print `ok`; `:checkpoint` prints `checkpoint <epoch>`. Interleaves
/// every mutation kind with two checkpoints so both WAL-replay and
/// snapshot-restore paths carry real weight.
const SCRIPT: &[&str] = &[
    "edge(a, b).",
    "tc(X, Y) :- edge(X, Y).",
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).",
    "edge(b, c).",
    ":assume edge(c, d)",
    ":checkpoint",
    "edge(c, a).",
    ":retract edge(a, b)",
    ":assume edge(d, e)",
    ":pop",
    ":checkpoint",
    "edge(a, d).",
];

/// The pinned query set recovered processes are compared on. Boolean
/// asks only: the output is fully deterministic, one line each.
const QUERIES: &[&str] = &[
    "?- edge(a, b).",
    "?- edge(c, a).",
    "?- edge(c, d).",
    "?- edge(d, e).",
    "?- tc(a, b).",
    "?- tc(a, c).",
    "?- tc(a, d).",
    "?- tc(b, a).",
    "?- tc(c, d).",
    "?- tc(c, a).",
];

/// (site, hit indices to crash at). The indices are chosen to land the
/// abort inside different mutations — early, mid-script around the
/// first checkpoint, and in the shutdown checkpoint — but the harness
/// derives the durable prefix from the acks, so the exact mapping need
/// not be pinned here.
const MATRIX: &[(&str, &[u64])] = &[
    ("persist::wal_append", &[1, 2, 5, 9, 14]),
    ("persist::wal_fsync", &[1, 3, 6, 10]),
    ("persist::checkpoint_write", &[1, 2, 3]),
    ("persist::checkpoint_rename", &[1, 2, 3]),
];

struct Run {
    stdout: String,
    stderr: String,
    success: bool,
}

/// Runs `hdl serve` feeding `input` on stdin; `crash_at` arms the
/// abort, `persist` selects the directory (None = ephemeral twin).
fn serve(persist: Option<&Path>, crash_at: Option<&str>, input: &str) -> Run {
    let mut cmd = Command::new(HDL);
    cmd.arg("serve").args(["--stdin", "--workers", "2"]);
    if let Some(dir) = persist {
        cmd.args(["--persist-dir", dir.to_str().unwrap()]);
        cmd.args(["--fsync", "always"]);
    }
    match crash_at {
        Some(spec) => cmd.env("HDL_CRASH_AT", spec),
        None => cmd.env_remove("HDL_CRASH_AT"),
    };
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hdl serve");
    // The child may abort mid-script; a broken pipe here is expected.
    let _ = child.stdin.take().unwrap().write_all(input.as_bytes());
    let out = child.wait_with_output().expect("collect child output");
    Run {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        success: out.status.success(),
    }
}

fn assert_no_panic(run: &Run, context: &str) {
    for needle in ["panicked at", "RUST_BACKTRACE", "stack overflow"] {
        assert!(
            !run.stderr.contains(needle) && !run.stdout.contains(needle),
            "{context}: panic leaked\n--- stdout\n{}\n--- stderr\n{}",
            run.stdout,
            run.stderr
        );
    }
}

fn is_ack(line: &str) -> bool {
    line == "ok" || line.starts_with("checkpoint ")
}

/// Answer lines of an uncrashed twin that applies `prefix` (checkpoint
/// entries dropped — they are not state) and then runs the query set.
fn twin_answers(prefix: &[&str]) -> Vec<String> {
    let mut input = String::new();
    for entry in prefix {
        if *entry == ":checkpoint" {
            continue;
        }
        input.push_str(entry);
        input.push('\n');
    }
    for q in QUERIES {
        input.push_str(q);
        input.push('\n');
    }
    input.push_str(":quit\n");
    let run = serve(None, None, &input);
    assert_no_panic(&run, "twin");
    assert!(run.success, "twin failed:\n{}", run.stderr);
    let answers: Vec<String> = run.stdout.lines().map(str::to_owned).collect();
    assert_eq!(answers.len(), QUERIES.len(), "twin output:\n{}", run.stdout);
    answers
}

struct CaseReport {
    site: String,
    nth: u64,
    acked: usize,
    crashed: bool,
    matched: &'static str,
}

fn run_case(site: &str, nth: u64) -> CaseReport {
    let tag = format!("{site}-{nth}");
    let dir = TempDir::new(&tag);

    // Phase 1: run the script into the persist dir until the armed
    // abort fires (or, for shutdown-checkpoint hits, until after EOF).
    let mut input: String = SCRIPT.join("\n");
    input.push_str("\n:quit\n");
    let crashed = serve(Some(&dir.0), Some(&format!("{site}:{nth}")), &input);
    assert_no_panic(&crashed, &tag);
    assert!(
        !crashed.success,
        "{tag}: the armed crash never fired (script too short for this hit index?)"
    );
    let acked = crashed.stdout.lines().filter(|l| is_ack(l)).count();
    assert!(
        acked <= SCRIPT.len(),
        "{tag}: more acks than script entries"
    );

    // Phase 2: restart on the same dir and collect the pinned answers.
    let mut query_input = String::new();
    for q in QUERIES {
        query_input.push_str(q);
        query_input.push('\n');
    }
    query_input.push_str(":stats\n:quit\n");
    let recovered = serve(Some(&dir.0), None, &query_input);
    assert_no_panic(&recovered, &format!("{tag} recovery"));
    assert!(
        recovered.success,
        "{tag}: recovery exited non-zero\n{}",
        recovered.stderr
    );
    let lines: Vec<&str> = recovered.stdout.lines().collect();
    assert!(
        lines.len() > QUERIES.len(),
        "{tag}: missing answers or stats\n{}",
        recovered.stdout
    );
    let answers: Vec<String> = lines[..QUERIES.len()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let stats = lines[QUERIES.len()..].join("\n");
    assert!(
        stats.contains("recovery "),
        "{tag}: :stats shows no recovery report\n{stats}"
    );

    // Phase 3: the recovered answers must be byte-identical to a twin
    // that applied exactly the acked prefix. The in-flight mutation may
    // additionally have survived only at the wal_fsync site (complete
    // record in the page cache; never acked, but never corrupt either).
    let expected = twin_answers(&SCRIPT[..acked]);
    let matched = if answers == expected {
        "acked-prefix"
    } else {
        let in_flight = SCRIPT.get(acked).copied();
        let fsync_overshoot = site == "persist::wal_fsync"
            && in_flight.is_some_and(|entry| entry != ":checkpoint")
            && answers == twin_answers(&SCRIPT[..acked + 1]);
        assert!(
            fsync_overshoot,
            "{tag}: recovered answers diverge from the {acked}-mutation twin\n\
             recovered: {answers:?}\nexpected:  {expected:?}\n\
             crashed stdout:\n{}",
            crashed.stdout
        );
        "acked-prefix+1"
    };

    CaseReport {
        site: site.to_string(),
        nth,
        acked,
        crashed: !crashed.success,
        matched,
    }
}

#[test]
fn crash_matrix_recovers_byte_identically() {
    let mut reports = Vec::new();
    for (site, hits) in MATRIX {
        for &nth in *hits {
            reports.push(run_case(site, nth));
        }
    }

    // Sanity on matrix coverage: both a zero-ack early crash and a
    // late crash past the second checkpoint must have occurred.
    assert!(reports.iter().any(|r| r.acked == 0));
    assert!(reports.iter().any(|r| r.acked == SCRIPT.len()));
    assert!(reports.iter().all(|r| r.crashed));

    // Persist the matrix outcome for the CI artifact.
    let mut json = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"site\": \"{}\", \"nth\": {}, \"acked\": {}, \"crashed\": {}, \"matched\": \"{}\"}}{}\n",
            r.site,
            r.nth,
            r.acked,
            r.crashed,
            r.matched,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    let report_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("target/crash-recovery-report.json");
    // `target/` is absent when the build goes elsewhere (CARGO_TARGET_DIR).
    std::fs::create_dir_all(report_path.parent().unwrap()).unwrap();
    std::fs::write(&report_path, json).unwrap();
}

// ---------------------------------------------------------------------
// Group-commit crash tests: kill the *network* server mid-batch.
//
// The stdin matrix above exercises per-mutation durability. The tests
// below arm the same failpoints against `hdl serve --listen` with group
// commit on, so the abort fires inside the shared committer thread while
// a whole window of staged records — possibly spanning tenants — is
// being appended or fsynced. The contract per tenant:
//
//   acked ⊆ recovered ⊆ submitted, and recovered is a *prefix* of the
//   submission order — no holes, no invented facts.
//
// Unacked overshoot is legal at both sites (complete records can survive
// in the page cache; a process crash is not a power cut); losing an
// acked mutation or recovering out of order is not.
// ---------------------------------------------------------------------

/// Spawns `hdl serve --listen 127.0.0.1:0` on `root` and returns the
/// child plus the resolved address from its stdout.
fn spawn_listen(root: &Path, crash_at: Option<&str>) -> (Child, String) {
    let mut cmd = Command::new(HDL);
    cmd.args(["serve", "--listen", "127.0.0.1:0", "--fsync", "always"])
        .args(["--persist-root", root.to_str().unwrap()])
        .stderr(Stdio::null());
    match crash_at {
        Some(spec) => cmd.env("HDL_CRASH_AT", spec),
        None => cmd.env_remove("HDL_CRASH_AT"),
    };
    spawn_listening(&mut cmd)
}

fn run_group_commit_case(site: &str, nth: u64) {
    let tag = format!("net-{site}-{nth}");
    let dir = TempDir::new(&tag);
    let tenants = ["ta", "tb"];

    // Phase 1: two tenants pipeline load windows into a group-commit
    // server armed to abort mid-batch in the committer thread.
    let (mut child, addr) = spawn_listen(&dir.0, Some(&format!("{site}:{nth}")));
    let mut clients: Vec<NetClient> = tenants.iter().map(|t| NetClient::open(&addr, t)).collect();
    const WINDOW: usize = 8;
    for round in 0..40 {
        let mut any = false;
        for (c, t) in clients.iter_mut().zip(tenants) {
            if c.alive {
                any = true;
                c.burst(t, round * WINDOW, WINDOW);
            }
        }
        if !any {
            break;
        }
    }
    let counts: Vec<(usize, usize)> = clients.iter().map(|c| (c.submitted, c.acked)).collect();
    drop(clients);
    let status = child.wait().expect("wait for crashed server");
    assert!(
        !status.success(),
        "{tag}: the armed crash never fired under sustained load"
    );

    // Phase 2: restart clean and check each tenant's recovered facts.
    let (mut child, addr) = spawn_listen(&dir.0, None);
    for (t, &(submitted, acked)) in tenants.iter().zip(&counts) {
        let mut c = NetClient::open(&addr, t);
        assert!(c.alive, "{tag}: {t} failed to reopen after recovery");
        let mut present = Vec::with_capacity(submitted);
        for i in 0..submitted {
            let q = format!("{{\"op\":\"query\",\"q\":\"f({t}x{i})\"}}\n");
            assert!(c.send_raw(&q), "{tag}: {t} query {i} write failed");
            let reply = c
                .recv()
                .unwrap_or_else(|| panic!("{tag}: {t} query {i} got no reply"));
            present.push(reply.contains("\"result\":\"true\""));
        }
        let recovered = present.iter().take_while(|&&p| p).count();
        assert!(
            present[recovered..].iter().all(|&p| !p),
            "{tag}: {t} recovered with a hole — not a prefix of submission order: {present:?}"
        );
        assert!(
            recovered >= acked,
            "{tag}: {t} lost acked mutations — acked {acked}, recovered {recovered}"
        );
        assert!(
            recovered <= submitted,
            "{tag}: {t} invented facts — submitted {submitted}, recovered {recovered}"
        );
    }

    // Drain the recovery server cleanly.
    let mut c = NetClient::open(&addr, "ta");
    let _ = c.send_raw("{\"op\":\"shutdown\"}\n");
    let _ = c.recv();
    drop(c);
    let status = child.wait().expect("wait for recovery server");
    assert!(status.success(), "{tag}: recovery server failed to drain");
}

/// Kill the group-commit server mid-append: the committer thread aborts
/// while writing a staged window's records into tenant WALs.
#[test]
fn group_commit_crash_mid_append_preserves_acked_prefix() {
    for nth in [3, 11, 29] {
        run_group_commit_case("persist::wal_append", nth);
    }
}

/// Kill the group-commit server mid-fsync: whole windows were appended
/// but the shared durability pass dies before (or between) syncs.
#[test]
fn group_commit_crash_mid_fsync_preserves_acked_prefix() {
    for nth in [1, 4, 9] {
        run_group_commit_case("persist::wal_fsync", nth);
    }
}

/// A clean shutdown after the full script leaves a state that a plain
/// restart reproduces exactly — the no-crash control for the matrix.
#[test]
fn uncrashed_control_roundtrips() {
    let dir = TempDir::new("control");
    let mut input: String = SCRIPT.join("\n");
    input.push_str("\n:quit\n");
    let first = serve(Some(&dir.0), None, &input);
    assert_no_panic(&first, "control");
    assert!(first.success, "control run failed:\n{}", first.stderr);
    let acked = first.stdout.lines().filter(|l| is_ack(l)).count();
    assert_eq!(acked, SCRIPT.len(), "control: every entry must ack");

    let mut query_input = String::new();
    for q in QUERIES {
        query_input.push_str(q);
        query_input.push('\n');
    }
    query_input.push_str(":quit\n");
    let restarted = serve(Some(&dir.0), None, &query_input);
    assert_no_panic(&restarted, "control restart");
    let answers: Vec<String> = restarted.stdout.lines().map(str::to_owned).collect();
    assert_eq!(answers, twin_answers(SCRIPT));
}
