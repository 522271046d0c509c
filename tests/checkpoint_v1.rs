//! Checkpoints in the version 1 layout still open.
//!
//! `tests/fixtures/checkpoint-v1/ckpt-1.bin` was written by an earlier
//! release, whose checkpoints stored the base and the assumption frames
//! as a chain in an overlay DAG. That release opened a fresh
//! `DurableSession`, applied each line of `script.hdl` with `apply_text`
//! (`:assume` and `:retract` lines as those ops, every other line as a
//! load) and took checkpoint 1. `restored.txt` is [`render`] of the
//! session that release restored from the image. The DAG stored fact
//! sets, so it shows frame 2 without `edge(a, b)`, which the base also
//! holds, and frame 3, which repeats frame 1, empty.

use hdl_persist::{DurableSession, FsyncPolicy};
use std::path::{Path, PathBuf};

mod common;

use common::TempDir;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/checkpoint-v1")
        .join(name)
}

/// The session's `dump()`, then one `% frame N:` line per assumption
/// frame listing its facts in order.
fn render(s: &DurableSession) -> String {
    let mut out = s.dump();
    for (i, frame) in s.assumptions().iter().enumerate() {
        let facts: Vec<String> = frame
            .iter()
            .map(|f| format!(" {}", hdl_core::pretty::ground_atom(f, s.symbols())))
            .collect();
        out.push_str(&format!("% frame {}:{}\n", i + 1, facts.join(",")));
    }
    out
}

#[test]
fn a_v1_checkpoint_opens_to_the_state_its_release_restored() {
    let dir = TempDir::new("checkpoint-v1");
    std::fs::copy(fixture("ckpt-1.bin"), dir.0.join("ckpt-1.bin")).expect("copy the image");
    let s = DurableSession::open(&dir.0, FsyncPolicy::Never).expect("open");
    let report = s.recovery_report().expect("durable");
    assert_eq!(report.checkpoint_epoch, 1);
    assert_eq!(report.checkpoints_skipped, 0);
    let want = std::fs::read_to_string(fixture("restored.txt")).expect("read restored.txt");
    assert_eq!(render(&s), want);
}
