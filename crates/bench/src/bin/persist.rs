//! `persist` — the tracked persistence benchmark behind `BENCH_persist.json`.
//!
//! Three measurement families:
//!
//! - **WAL append throughput** by fsync policy (`always`, `every 64`,
//!   `never`): single-fact mutations through a [`DurableSession`], i.e.
//!   the full observer → encode → append → fsync path a live service
//!   pays per acked mutation.
//! - **Checkpoint scaling** vs overlay depth: serialize time, image
//!   size, and cold-restore time for a session whose assumption stack
//!   is `d` frames deep over a fixed base. Each restore must return the
//!   base in its iteration order and every frame exactly.
//! - **Cold-restore latency** on the Hamiltonian-with-reachability and
//!   QBF workloads, restored two ways: replaying the WAL from scratch
//!   and loading a checkpoint (WAL empty). Every restore is verified
//!   against the uncrashed session's rulebase/database sizes and the
//!   workload's query verdict.
//!
//! ```console
//! $ cargo run --release -p hdl-bench --bin persist            # full sizes
//! $ cargo run --release -p hdl-bench --bin persist -- --quick # CI sizes
//! $ cargo run --release -p hdl-bench --bin persist -- --check # quick + gates
//! ```
//!
//! `--check` exits non-zero if any restore diverges from its source
//! session or a checkpointed restore still replays WAL records.

use hdl_base::GroundAtom;
use hdl_bench::workloads::{hamiltonian_reach_program, random_digraph};
use hdl_core::session::Session;
use hdl_core::Op;
use hdl_encodings::qbf::build::{n as qn, p as qp};
use hdl_encodings::qbf::{encode_qbf, Qbf, Quant};
use hdl_persist::{DurableSession, FsyncPolicy};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("hdl-bench-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create bench scratch dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_file_size(dir: &PathBuf, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

/// Loads a generated `(Rulebase, Database, SymbolTable)` workload into a
/// session by first syncing the symbol table positionally (so ids line
/// up) and then applying the whole program as one mutation.
fn load_workload(
    session: &mut Session,
    rb: &hdl_core::ast::Rulebase,
    db: &hdl_base::Database,
    syms: &hdl_base::SymbolTable,
) {
    let names: Vec<String> = syms.iter().map(|(_, name)| name.to_string()).collect();
    session.sync_symbols(&names);
    let rules: Vec<_> = rb.iter().cloned().collect();
    let facts: Vec<GroundAtom> = db.iter_facts().collect();
    session
        .apply(Op::Program { rules, facts })
        .expect("workload applies");
}

/// The op that asserts one fact.
fn fact_op(fact: GroundAtom) -> Op {
    Op::Program {
        rules: Vec::new(),
        facts: vec![fact],
    }
}

// ---------------------------------------------------------------------
// 1. WAL append throughput by fsync policy.
// ---------------------------------------------------------------------

struct WalRun {
    policy: &'static str,
    mutations: usize,
    wall_ms: f64,
    per_sec: f64,
    wal_bytes: u64,
}

fn bench_wal(policy: FsyncPolicy, label: &'static str, mutations: usize) -> WalRun {
    let dir = TempDir::new(&format!("wal-{label}"));
    let mut session = DurableSession::open(&dir.0, policy).expect("open");
    // Pre-intern the predicate so per-mutation symbol traffic is just
    // the fresh constant — the steady-state shape of a fact stream.
    let pred = session.symbols_mut().intern("obs");
    let start = Instant::now();
    for i in 0..mutations {
        let c = session.symbols_mut().intern(&format!("c{i}"));
        session
            .apply(fact_op(GroundAtom::new(pred, vec![c])))
            .expect("assert");
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let wal_bytes = dir_file_size(&dir.0, "wal-");
    WalRun {
        policy: label,
        mutations,
        wall_ms,
        per_sec: mutations as f64 / (wall_ms / 1e3),
        wal_bytes,
    }
}

// ---------------------------------------------------------------------
// 2. Checkpoint size / time / restore time vs overlay depth.
// ---------------------------------------------------------------------

struct CkptRun {
    depth: usize,
    base_facts: usize,
    checkpoint_ms: f64,
    image_bytes: u64,
    restore_ms: f64,
    records_replayed: u64,
}

fn bench_checkpoint(depth: usize, base_facts: usize, frame_facts: usize) -> CkptRun {
    let dir = TempDir::new(&format!("ckpt-{depth}"));
    let mut session = DurableSession::open(&dir.0, FsyncPolicy::Never).expect("open");
    let edge = session.symbols_mut().intern("edge");
    let consts: Vec<_> = (0..base_facts + depth * frame_facts + 1)
        .map(|i| session.symbols_mut().intern(&format!("v{i}")))
        .collect();
    for i in 0..base_facts {
        session
            .apply(fact_op(GroundAtom::new(
                edge,
                vec![consts[i], consts[i + 1]],
            )))
            .expect("assert");
    }
    for d in 0..depth {
        let lo = base_facts + d * frame_facts;
        let frame: Vec<_> = (lo..lo + frame_facts)
            .map(|i| GroundAtom::new(edge, vec![consts[i], consts[i + 1]]))
            .collect();
        session.apply(Op::Assume(frame)).expect("assume");
    }

    let start = Instant::now();
    session.checkpoint().expect("checkpoint");
    let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
    let image_bytes = dir_file_size(&dir.0, "ckpt-");
    let base: Vec<GroundAtom> = session.database().iter_facts().collect();
    let frames = session.assumptions().to_vec();
    drop(session);

    let start = Instant::now();
    let restored = DurableSession::open(&dir.0, FsyncPolicy::Never).expect("restore");
    let restore_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = restored.recovery_report().expect("durable").clone();
    let restored_base: Vec<GroundAtom> = restored.database().iter_facts().collect();
    assert_eq!(restored_base, base, "base restored in order");
    assert_eq!(restored.assumptions(), frames, "frames restored exactly");
    assert_eq!(frames.len(), depth);
    CkptRun {
        depth,
        base_facts,
        checkpoint_ms,
        image_bytes,
        restore_ms,
        records_replayed: report.records_replayed,
    }
}

// ---------------------------------------------------------------------
// 3. Cold-restore latency on real workloads (WAL replay vs checkpoint).
// ---------------------------------------------------------------------

struct RestoreRun {
    workload: String,
    params: String,
    variant: &'static str,
    restore_ms: f64,
    records_replayed: u64,
    disk_bytes: u64,
    verified: bool,
}

fn bench_restore(
    workload: &str,
    params: &str,
    rb: &hdl_core::ast::Rulebase,
    db: &hdl_base::Database,
    syms: &hdl_base::SymbolTable,
    query: &str,
    from_checkpoint: bool,
) -> RestoreRun {
    let variant = if from_checkpoint { "checkpoint" } else { "wal" };
    let dir = TempDir::new(&format!("restore-{workload}-{variant}"));
    let mut session = DurableSession::open(&dir.0, FsyncPolicy::Never).expect("open");
    load_workload(&mut session, rb, db, syms);
    let expected = session.ask(query).expect("workload query evaluates");
    if from_checkpoint {
        session.checkpoint().expect("checkpoint");
    }
    drop(session);

    let disk_bytes = dir_file_size(&dir.0, "");
    let start = Instant::now();
    let mut restored = DurableSession::open(&dir.0, FsyncPolicy::Never).expect("restore");
    let restore_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = restored.recovery_report().expect("durable").clone();
    let verified = restored.rulebase().len() == rb.len()
        && restored.database().len() == db.len()
        && restored.ask(query).expect("restored query evaluates") == expected;
    RestoreRun {
        workload: workload.to_string(),
        params: params.to_string(),
        variant,
        restore_ms,
        records_replayed: report.records_replayed,
        disk_bytes,
        verified,
    }
}

/// A random 3-CNF SAT instance as a one-block QBF (the NP regime).
fn qbf_workload(
    vars: usize,
) -> (
    hdl_core::ast::Rulebase,
    hdl_base::Database,
    hdl_base::SymbolTable,
) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let clauses = (0..vars + 1)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let v = rng.gen_range(0..vars);
                    if rng.gen_bool(0.5) {
                        qp(v)
                    } else {
                        qn(v)
                    }
                })
                .collect()
        })
        .collect();
    let qbf = Qbf {
        prefix: vec![(Quant::Exists, (0..vars).collect())],
        clauses,
    };
    let enc = encode_qbf(&qbf).expect("encodable");
    (enc.rulebase, enc.database, enc.symbols)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = check || args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_persist.json".into());
    eprintln!(
        "persist benchmark — mode {}",
        if quick { "quick" } else { "full" }
    );

    // 1. WAL throughput.
    let mutations = if quick { 300 } else { 2000 };
    let wal_runs = [
        bench_wal(FsyncPolicy::Always, "always", mutations),
        bench_wal(FsyncPolicy::EveryN(64), "every_64", mutations),
        bench_wal(FsyncPolicy::Never, "never", mutations),
    ];
    for r in &wal_runs {
        eprintln!(
            "  wal {:>9}: {} mutations in {:.1} ms ({:.0}/s, {} bytes)",
            r.policy, r.mutations, r.wall_ms, r.per_sec, r.wal_bytes
        );
    }

    // 2. Checkpoint scaling with overlay depth.
    let (base_facts, frame_facts) = if quick { (200, 8) } else { (1000, 16) };
    let depths: &[usize] = if quick { &[0, 4, 16] } else { &[0, 4, 16, 64] };
    let ckpt_runs: Vec<CkptRun> = depths
        .iter()
        .map(|&d| bench_checkpoint(d, base_facts, frame_facts))
        .collect();
    for r in &ckpt_runs {
        eprintln!(
            "  ckpt depth {:>2}: write {:.2} ms, {} bytes, restore {:.2} ms",
            r.depth, r.checkpoint_ms, r.image_bytes, r.restore_ms
        );
    }

    // 3. Cold restores on real workloads, via WAL and via checkpoint.
    let ham_n = if quick { 7 } else { 10 };
    let g = random_digraph(ham_n, 0.35, 5);
    let (ham_rb, ham_db, ham_syms) = hamiltonian_reach_program(&g);
    let ham_params = format!("n={ham_n} density=0.35 seed=5 ({} edges)", g.edges.len());
    let qbf_vars = if quick { 3 } else { 4 };
    let (qbf_rb, qbf_db, qbf_syms) = qbf_workload(qbf_vars);
    let qbf_params = format!("3-CNF, {qbf_vars} vars, {} clauses", qbf_vars + 1);
    let mut restore_runs = Vec::new();
    for from_ckpt in [false, true] {
        restore_runs.push(bench_restore(
            "hamiltonian_reach",
            &ham_params,
            &ham_rb,
            &ham_db,
            &ham_syms,
            "?- yes.",
            from_ckpt,
        ));
        restore_runs.push(bench_restore(
            "qbf_sat",
            &qbf_params,
            &qbf_rb,
            &qbf_db,
            &qbf_syms,
            "?- sat.",
            from_ckpt,
        ));
    }
    for r in &restore_runs {
        eprintln!(
            "  restore {:>18} via {:>10}: {:.2} ms ({} records, {} bytes, verified {})",
            r.workload, r.variant, r.restore_ms, r.records_replayed, r.disk_bytes, r.verified
        );
    }

    // Emit the report.
    let mut report = String::from("{\n");
    let _ = writeln!(report, "  \"schema\": \"bench_persist/v1\",");
    let _ = writeln!(
        report,
        "  \"command\": \"cargo run --release -p hdl-bench --bin persist\","
    );
    let _ = writeln!(
        report,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(report, "  \"wal_throughput\": [");
    for (i, r) in wal_runs.iter().enumerate() {
        let _ = writeln!(
            report,
            "    {{\"policy\": \"{}\", \"mutations\": {}, \"wall_ms\": {:.3}, \"mutations_per_sec\": {:.0}, \"wal_bytes\": {}}}{}",
            r.policy, r.mutations, r.wall_ms, r.per_sec, r.wal_bytes,
            if i + 1 < wal_runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(report, "  ],");
    let _ = writeln!(report, "  \"checkpoint_scaling\": [");
    for (i, r) in ckpt_runs.iter().enumerate() {
        let _ = writeln!(
            report,
            "    {{\"overlay_depth\": {}, \"base_facts\": {}, \"checkpoint_ms\": {:.3}, \"image_bytes\": {}, \"restore_ms\": {:.3}, \"records_replayed\": {}}}{}",
            r.depth, r.base_facts, r.checkpoint_ms, r.image_bytes, r.restore_ms, r.records_replayed,
            if i + 1 < ckpt_runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(report, "  ],");
    let _ = writeln!(report, "  \"cold_restore\": [");
    for (i, r) in restore_runs.iter().enumerate() {
        let _ = writeln!(
            report,
            "    {{\"workload\": \"{}\", \"params\": \"{}\", \"variant\": \"{}\", \"restore_ms\": {:.3}, \"records_replayed\": {}, \"disk_bytes\": {}, \"verified\": {}}}{}",
            r.workload, r.params, r.variant, r.restore_ms, r.records_replayed, r.disk_bytes, r.verified,
            if i + 1 < restore_runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(report, "  ]");
    report.push_str("}\n");
    std::fs::write(&out_path, &report).expect("write BENCH json");
    eprintln!("wrote {out_path}");

    if check {
        let mut failures = Vec::new();
        for r in &restore_runs {
            if !r.verified {
                failures.push(format!(
                    "{} via {} diverged after restore",
                    r.workload, r.variant
                ));
            }
            if r.variant == "checkpoint" && r.records_replayed != 0 {
                failures.push(format!(
                    "{} checkpoint restore replayed {} WAL records (want 0)",
                    r.workload, r.records_replayed
                ));
            }
        }
        for r in &ckpt_runs {
            if r.records_replayed != 0 {
                failures.push(format!(
                    "depth-{} checkpoint restore replayed {} WAL records (want 0)",
                    r.depth, r.records_replayed
                ));
            }
        }
        if wal_runs.iter().any(|r| r.wal_bytes == 0) {
            failures.push("a WAL run wrote no bytes".into());
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("all persistence gates passed");
    }
}
