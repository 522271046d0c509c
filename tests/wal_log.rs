//! What the write-ahead log holds: its format, pinned by a checked-in
//! log, and no record of a load that was refused.
//!
//! `tests/fixtures/wal/wal-0.log` was written by an earlier `hdl` from
//! `script.hdl`, which holds every record kind: symbols, a program with
//! rules and facts, a retract, two assumes and a pop. The process was
//! killed after its last ack, before the checkpoint a clean exit takes,
//! so the log is all there is. `dump.txt` is what that binary printed
//! for [`DUMP`] after reopening a copy of the log. Both runs pipe
//! stdin, so the shell prints no banner and no prompts.

use hdl_base::Error;
use hdl_core::OpText;
use hdl_persist::{DurableSession, FsyncPolicy};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

mod common;

use common::{TempDir, HDL};

/// The lines run against the reopened log: its rules and base facts,
/// then queries on the surviving assumption frame, the popped one and
/// the retracted fact.
const DUMP: &str = ":rules\n:facts\n?- edge(e, f).\n?- edge(f, g).\n?- tc(a, d).\n?- edge(c, d).\n";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wal")
        .join(name)
}

#[test]
fn the_fixture_log_replays_to_its_dump() {
    let dir = TempDir::new("wal-fixture-replay");
    std::fs::copy(fixture("wal-0.log"), dir.0.join("wal-0.log")).expect("copy the log");
    let mut child = Command::new(HDL)
        .arg("--persist-dir")
        .arg(&dir.0)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdl");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(DUMP.as_bytes())
        .expect("write the dump lines");
    let out = child.wait_with_output().expect("hdl runs");
    assert!(out.status.success());
    let want = std::fs::read_to_string(fixture("dump.txt")).expect("read dump.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

#[test]
fn the_script_writes_the_fixture_log_byte_for_byte() {
    let script = std::fs::read_to_string(fixture("script.hdl")).expect("read script.hdl");
    let lines = script.lines().filter(|l| !l.trim().is_empty()).count();
    let dir = TempDir::new("wal-fixture-write");
    let mut child = Command::new(HDL)
        .arg("--persist-dir")
        .arg(&dir.0)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdl");
    // Stdin stays open: at EOF the shell would checkpoint and rotate
    // the log away.
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(script.as_bytes())
        .expect("write the script");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut acks = 0;
    for line in stdout.lines() {
        let line = line.expect("read stdout");
        if line == "ok" {
            acks += 1;
            if acks == lines {
                break;
            }
        }
    }
    child.kill().expect("kill hdl");
    child.wait().expect("reap hdl");
    assert_eq!(acks, lines, "every script line is acked");
    let written = std::fs::read(dir.0.join("wal-0.log")).expect("read the written log");
    let pinned = std::fs::read(fixture("wal-0.log")).expect("read the fixture log");
    assert!(written == pinned, "wal-0.log differs from the fixture");
}

/// A load that would leave the rulebase unstratified is refused
/// before the log sees it: the tenant stays queryable, and the log
/// holds only what was acked.
#[test]
fn unstratified_loads_are_refused_before_the_log() {
    let dir = TempDir::new("unstratified-refused");
    {
        let mut s = DurableSession::open(&dir.0, FsyncPolicy::Always).unwrap();
        s.load("e(a).").unwrap();
        s.load("p(X) :- e(X), ~q(X).").unwrap();
        let err = s.load("q(X) :- e(X), p(X).").unwrap_err();
        assert!(matches!(err, Error::NotStratified { .. }), "{err}");
        assert!(s.ask("?- e(a).").unwrap());
    }
    let mut s = DurableSession::open(&dir.0, FsyncPolicy::Always).unwrap();
    // The symbols and program records of the two acked loads only.
    assert_eq!(s.recovery_report().unwrap().records_replayed, 4);
    assert!(s.ask("?- e(a).").unwrap());
    assert_eq!(s.rulebase().len(), 1);
}

/// Replay applies logged ops without the stratification check, so a
/// lineage that already holds such a program still opens.
#[test]
fn a_logged_unstratified_program_still_reopens() {
    let dir = TempDir::new("unstratified-replayed");
    {
        let mut s = DurableSession::open(&dir.0, FsyncPolicy::Always).unwrap();
        s.load("e(a).").unwrap();
        let op = OpText::Load("p(X) :- e(X), ~q(X). q(X) :- e(X), p(X).")
            .parse(s.symbols_mut())
            .unwrap();
        s.apply(op).unwrap();
    }
    let mut s = DurableSession::open(&dir.0, FsyncPolicy::Always).unwrap();
    assert_eq!(s.rulebase().len(), 2);
    assert_eq!(s.database().len(), 1);
    // No engine evaluates it; engines hold no symbol table, so the
    // refusal names predicates by id.
    let err = s.ask("?- e(a).").unwrap_err();
    assert!(err.to_string().contains(" negates #"), "{err}");
}
