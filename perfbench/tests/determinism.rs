//! With a fixed seed and op count, the benchmark's count metrics repeat
//! exactly across runs; only timings and the group committer's batching
//! may differ.
//!
//! The runs spawn the release `hdl` binary (`$HDL_BIN`, else
//! `$CARGO_TARGET_DIR/release/hdl`, default `.bench_build`), so build it
//! first. From the repository root:
//!
//! ```sh
//! export CARGO_TARGET_DIR=.bench_build
//! cargo build --release --offline --bin hdl
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use hdl_server::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Per-layer metrics that are pure functions of the seed and op count.
/// The timing-dependent ones — every `_us` metric,
/// `persist.ops_per_fsync` and `persist.max_batch` (how many commits the
/// group committer finds waiting), `server.replication.windows_per_mutation`
/// (now and then the shipper carries two sync commits in one window) and
/// the `trace.*` shares — are left out.
const COUNTS: &[&str] = &[
    "service.cache_hit_ratio",
    "server.tenant.ops_per_window",
    "core.engine.goal_expansions_per_query",
    "core.engine.memo_hit_ratio",
    "core.engine.rounds_per_query",
    "core.engine.demand_facts_per_query",
    "core.engine.index_hit_ratio",
    "base.factstore.overlay_nodes_per_query",
    "base.factstore.delta_facts_per_node",
    "base.factstore.flattens_per_query",
    "server.replication.bytes_shipped_per_fact",
    "server.replication.degraded_acks",
];

/// Runs the benchmark from the repository root and returns its metrics.
fn metrics(workload: &str, trace: bool, ops: u64) -> BTreeMap<String, f64> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--ops", &ops.to_string()])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    match result.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(name, v)| match v.get("value") {
                Some(Json::Num(x)) => Some((name.clone(), *x)),
                _ => None,
            })
            .collect(),
        _ => panic!("no metrics in {stdout}"),
    }
}

fn assert_repeats(workload: &str, trace: bool, ops: u64, names: &[&str]) {
    let (a, b) = (metrics(workload, trace, ops), metrics(workload, trace, ops));
    for name in names {
        let (x, y) = (a.get(*name), b.get(*name));
        assert!(x.is_some(), "{workload}: {name} missing");
        assert_eq!(x, y, "{workload}: {name} differs between two runs");
    }
}

/// One test, so that its runs do not overlap: every run pins itself and
/// its servers to the same CPU.
#[test]
fn counts_repeat() {
    for workload in ["whatif", "search", "ingest", "replicated"] {
        assert_repeats(workload, true, 1, COUNTS);
    }
    for workload in ["ingest", "replicated"] {
        assert_repeats(workload, false, 400, &["wal_bytes_per_fact"]);
    }
}
