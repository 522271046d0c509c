//! The host fingerprint printed with every result, so that numbers from
//! different hosts or builds are not compared blindly.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub struct Fingerprint {
    nproc: usize,
    /// The CPU the run and its servers are pinned to.
    pub pinned_cpu: Option<usize>,
    fsync_per_s: f64,
    fsync_policy: &'static str,
    profile: &'static str,
    commit: String,
    source_digest: String,
}

/// Probes the host: logical CPUs, fsyncs per second in `dir`, the
/// servers' fsync policy, the build profile, and the commit (or, in a
/// checkout without git metadata, a digest of the sources).
pub fn fingerprint(dir: &Path) -> Fingerprint {
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned_cpu: None,
        fsync_per_s: fsync_probe(dir),
        // Every workload's server runs with `--fsync always` (the
        // server default, passed explicitly by the write workloads).
        fsync_policy: "always",
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit: git_commit().unwrap_or_else(|| "unknown".into()),
        source_digest: format!("{:016x}", source_digest()),
    }
}

impl Fingerprint {
    pub fn line(&self) -> String {
        format!(
            "host {{\"nproc\":{},\"pinned_cpu\":{},\"fsync_per_s\":{:.1},\"fsync_policy\":\"{}\",\"profile\":\"{}\",\
             \"commit\":\"{}\",\"source_digest\":\"{}\"}}",
            self.nproc,
            self.pinned_cpu.map_or("null".into(), |c| c.to_string()),
            self.fsync_per_s,
            self.fsync_policy,
            self.profile,
            self.commit,
            self.source_digest
        )
    }
}

/// Small appends, each followed by `fdatasync`, for a quarter second.
fn fsync_probe(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut f) = OpenOptions::new().create(true).append(true).open(&path) else {
        return 0.0;
    };
    let start = Instant::now();
    let mut n = 0u32;
    while start.elapsed() < Duration::from_millis(250) || n < 5 {
        if f.write_all(&[0u8; 64]).is_err() || f.sync_data().is_err() {
            break;
        }
        n += 1;
    }
    let rate = n as f64 / start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    rate
}

fn git_commit() -> Option<String> {
    // `GIT_DIR` keeps git from searching the directories above the
    // checkout.
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let hash = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (out.status.success() && !hash.is_empty()).then_some(hash)
}

/// FNV-1a over the paths and bytes of the sources that build the
/// server and this benchmark, in sorted order.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_owned());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect(&e.path(), out);
        }
    }
}
