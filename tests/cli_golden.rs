//! Golden transcripts of the `hdl` line dialect in every mode.
//!
//! One script, covering every command any mode knows, is piped through
//! the REPL (stdin a pipe), `serve --stdin`, `batch` and `connect`
//! (against a port-0 `serve --listen`). Each mode's merged stdout and
//! stderr, plus its exit status, must equal `tests/golden/<mode>.txt`.
//! Timings, the server address and the group-commit batch counts are
//! masked as `*`; the scratch directory prints as `$DIR`. Every run also
//! writes its transcript to `<target tmpdir>/golden/<mode>.txt`, so a
//! deliberate change is reviewed as a diff against the committed file.

mod common;

use common::{ServerProc, TempDir, HDL};
use hdl_server::Json;
use std::io::{Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};

/// Every command of every mode, each success and failure path once;
/// `$DIR` is the scratch directory. The REPL and `serve --stdin` also
/// load `$DIR/start.hdl` from their command line.
const SCRIPT: &str = "\
% one line of every kind
edge(a, b).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
?- tc(a, b).
?- tc(a, c)[add: edge(b, c)].
:answers tc(a, Y)
:assume edge(b, c)
?- tc(a, c).
:pop
:pop
:retract edge(a, b)
:retract edge(a, b)
:retract edge(a, b), edge(b, c)
:assume bad((
:materialize
:checkpoint
:stats
:stats --json
e(a).
p(X) :- e(X), ~q(X).
q(X) :- e(X), p(X).
?- e(a).
:rules
:facts
:explain ?- tc(a, c)[add: edge(a, c)].
:strata
:lint
:load $DIR/extra.hdl
:load $DIR/missing.hdl
:save $DIR/saved.hdl
:open other
:promote
:help
:h
:bogus
broken((.
?- broken((.
:quit
?- tc(a, b).
";

/// A scratch directory holding the program files the script names.
fn scratch(tag: &str) -> TempDir {
    let dir = TempDir::new(&format!("golden-{tag}"));
    std::fs::write(dir.0.join("extra.hdl"), "edge(b, c).\n").expect("write extra.hdl");
    std::fs::write(dir.0.join("start.hdl"), "start(s).\n").expect("write start.hdl");
    dir
}

fn path(dir: &TempDir) -> &str {
    dir.0.to_str().expect("utf-8 temp path")
}

/// Runs `hdl args` on `input`; returns `$ hdl …` then the merged
/// stdout/stderr lines, masked, then `[exit N]`.
fn transcript(dir: &TempDir, args: &[&str], input: &str) -> String {
    let (mut reader, writer) = std::io::pipe().expect("pipe");
    let mut cmd = Command::new(HDL);
    cmd.args(args)
        .env_remove("HDL_CRASH_AT")
        .stdin(Stdio::piped())
        .stdout(writer.try_clone().expect("clone pipe"))
        .stderr(writer);
    let mut child = cmd.spawn().expect("spawn hdl");
    // The command holds the pipe's write ends; drop them so the read
    // below ends when the child exits.
    drop(cmd);
    let input = input.replace("$DIR", path(dir));
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes());
    let mut out = String::new();
    reader.read_to_string(&mut out).expect("read output");
    let status = child.wait().expect("hdl exits");
    let mut text = format!("$ hdl {}\n", args.join(" "));
    for line in out.lines() {
        text.push_str(&mask(&line.replace(path(dir), "$DIR")));
        text.push('\n');
    }
    text.push_str(&format!("[exit {}]\n", status.code().unwrap_or(-1)));
    text.replace(path(dir), "$DIR")
}

/// Masks what varies between runs: worker busy times, the server
/// address and the group-commit batch counts.
fn mask(line: &str) -> String {
    if line.starts_with("worker busy") {
        return "worker busy         *".to_owned();
    }
    if !line.starts_with('{') {
        return line.to_owned();
    }
    let Ok(mut json) = Json::parse(line) else {
        return line.to_owned();
    };
    mask_json(&mut json);
    json.to_string()
}

fn mask_json(json: &mut Json) {
    match json {
        Json::Obj(map) => {
            for (key, value) in map.iter_mut() {
                if matches!(key.as_str(), "addr" | "worker_busy_ms" | "group_commit") {
                    *value = Json::str("*");
                } else {
                    mask_json(value);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(mask_json),
        _ => {}
    }
}

/// Compares `actual` with `tests/golden/<mode>.txt` after saving it
/// under the target tmpdir.
fn check(mode: &str, actual: &str) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&out).expect("create golden output dir");
    std::fs::write(out.join(format!("{mode}.txt")), actual).expect("save transcript");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{mode}.txt"));
    let expected = std::fs::read_to_string(&golden).expect("read golden file");
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or(expected.lines().count().min(actual.lines().count()));
        panic!(
            "{mode}: transcript differs from {} from line {}\n--- actual\n{actual}",
            golden.display(),
            first + 1
        );
    }
}

#[test]
fn repl_transcript() {
    let dir = &scratch("repl");
    let persist = format!("{}/p", path(dir));
    let start = format!("{}/start.hdl", path(dir));
    let flags = ["--workers", "1", "--persist-dir", &persist, &start];
    let mut text = transcript(dir, &flags, SCRIPT);
    for quit in [":q", ":exit"] {
        text += &transcript(dir, &flags, &format!("{quit}\nedge(x, y).\n"));
    }
    // Failing commands, and nothing else that fails, on an ephemeral
    // session.
    let failing = ":pop\n:checkpoint\n:retract p(a), p(b)\n:load $DIR/missing.hdl\n";
    text += &transcript(dir, &["--workers", "1"], failing);
    // `:strata` on a stratified program that is not linearly stratified.
    let nonlinear = "a :- b, d1, d2.\nd1 :- a[add: c1].\nd2 :- a[add: c2].\n:strata\n";
    text += &transcript(dir, &["--workers", "1"], nonlinear);
    check("repl", &text);
}

#[test]
fn serve_stdin_transcript() {
    let dir = &scratch("serve");
    let persist = format!("{}/p", path(dir));
    let start = format!("{}/start.hdl", path(dir));
    let flags = [
        "serve",
        "--stdin",
        "--workers",
        "1",
        "--persist-dir",
        &persist,
        &start,
    ];
    let mut text = transcript(dir, &flags, SCRIPT);
    for quit in [":q", ":exit"] {
        text += &transcript(dir, &flags, &format!("{quit}\nedge(x, y).\n"));
    }
    check("serve", &text);
}

#[test]
fn batch_transcript() {
    let dir = &scratch("batch");
    let text = transcript(dir, &["batch", "--workers", "1"], SCRIPT);
    check("batch", &text);
}

#[test]
fn connect_transcript() {
    let dir = &scratch("connect");
    let root = format!("{}/root", path(dir));
    let server = ServerProc::start(&["--workers", "1", "--persist-root", &root]);
    let addr = server.addr.clone();
    let mut text = transcript(dir, &["connect", &addr, "--tenant", "golden"], SCRIPT);
    for quit in [":q", ":exit"] {
        text += &transcript(dir, &["connect", &addr], &format!("{quit}\nedge(x, y).\n"));
    }
    text += &transcript(dir, &["connect", &addr], "{\"op\":\"hello\"}\n:shutdown\n");
    let text = text.replace(&addr, "ADDR");
    check("connect", &text);
    assert!(server.wait().0, "server drains after :shutdown");
}

/// A piped REPL exits non-zero when any one command fails, and 0 when
/// none does.
#[test]
fn piped_repl_exit_status_follows_failing_commands() {
    let dir = &scratch("status");
    let run = |input: &str| {
        let text = transcript(dir, &["--workers", "1"], input);
        text.ends_with("[exit 1]\n")
    };
    for failing in [
        ":pop",
        ":checkpoint",
        ":assume bad((",
        ":retract p(a), p(b)",
        ":load $DIR/missing.hdl",
        ":save $DIR/no/such/dir.hdl",
        ":answers bad((",
        ":bogus",
    ] {
        assert!(run(&format!("p(a).\n{failing}\n")), "{failing} must fail");
    }
    let clean = "p(a).\n:assume p(b)\n:pop\n:retract p(a)\n:materialize\n:stats\n";
    assert!(!run(clean), "no command failed");
}
