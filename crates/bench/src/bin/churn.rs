//! `churn` — the tracked retraction-maintenance benchmark behind
//! `BENCH_churn.json`.
//!
//! Replays one interleaved assert/retract/query script over a
//! transitive-closure workload through two arms:
//!
//! - **incremental**: a [`MaterializedModel`] maintained by DRed
//!   (overdelete + rederive) across the whole script — the path a
//!   session takes after `:materialize`.
//! - **rebuild**: the pre-maintenance behavior, a full
//!   [`BottomUpEngine::model`] fixpoint after every mutation.
//!
//! Both arms answer every query probe from their current model, and a
//! separate untimed pass checks the two models agree fact-for-fact
//! after every single mutation. The headline number is the speedup
//! (rebuild wall time / incremental wall time), gated at >= 5x under
//! `--check`.
//!
//! ```console
//! $ cargo run --release -p hdl-bench --bin churn            # full sizes
//! $ cargo run --release -p hdl-bench --bin churn -- --quick # CI sizes
//! $ cargo run --release -p hdl-bench --bin churn -- --check # quick + gates
//! ```

use hdl_base::{Database, GroundAtom, SymbolTable};
use hdl_bench::workloads::random_digraph;
use hdl_core::ast::Rulebase;
use hdl_core::engine::BottomUpEngine;
use hdl_core::{MaintenanceStats, MaterializedModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// One step of the churn script.
enum Op {
    Assert(GroundAtom),
    Retract(GroundAtom),
    /// Membership probe against the current model (`tc(a, b)`?).
    Query(GroundAtom),
}

struct Workload {
    rulebase: Rulebase,
    database: Database,
    script: Vec<Op>,
}

/// Transitive closure over `communities` disjoint random digraphs of
/// `n` nodes each — the shape churn maintenance is for: a large model
/// where any single mutation's derivation cone is confined to one
/// community, while a full rebuild always pays for all of them.
/// `node(v)` anchor facts ensure edge churn can never remove a
/// constant's last base occurrence (which would — correctly — force a
/// domain rebuild and measure the guard instead of the maintenance).
fn build_workload(communities: usize, n: usize, density: f64, ops: usize, seed: u64) -> Workload {
    let graphs: Vec<_> = (0..communities)
        .map(|c| random_digraph(n, density, seed + c as u64))
        .collect();
    let mut src = String::from(
        "tc(X, Y) :- edge(X, Y).
         tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
    );
    for (c, graph) in graphs.iter().enumerate() {
        for v in 0..n {
            let _ = writeln!(src, "node(c{c}v{v}).");
        }
        for &(a, b) in &graph.edges {
            let _ = writeln!(src, "edge(c{c}v{a}, c{c}v{b}).");
        }
    }
    let mut symbols = SymbolTable::new();
    let rulebase = hdl_core::parse_program(&src, &mut symbols).expect("workload parses");
    let (rulebase, facts) = hdl_core::split_facts(rulebase);
    let mut database = Database::new();
    for f in facts {
        database.insert(f);
    }

    // Script: a seeded walk over within-community node pairs. Present
    // edges get retracted, absent ones asserted, and every mutation is
    // followed by a handful of reachability probes.
    let edge = symbols.intern("edge");
    let tc = symbols.intern("tc");
    let nodes: Vec<Vec<_>> = (0..communities)
        .map(|c| {
            (0..n)
                .map(|v| symbols.intern(&format!("c{c}v{v}")))
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut present = Database::new();
    for (c, g) in graphs.iter().enumerate() {
        for &(a, b) in &g.edges {
            present.insert(GroundAtom::new(edge, vec![nodes[c][a], nodes[c][b]]));
        }
    }
    let mut script = Vec::with_capacity(ops * 4);
    for _ in 0..ops {
        let c = rng.gen_range(0..communities);
        let (a, b) = loop {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                break (a, b);
            }
        };
        let fact = GroundAtom::new(edge, vec![nodes[c][a], nodes[c][b]]);
        if present.contains(&fact) {
            present.remove(&fact);
            script.push(Op::Retract(fact));
        } else {
            present.insert(fact.clone());
            script.push(Op::Assert(fact));
        }
        for _ in 0..3 {
            let qc = rng.gen_range(0..communities);
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            script.push(Op::Query(GroundAtom::new(
                tc,
                vec![nodes[qc][x], nodes[qc][y]],
            )));
        }
    }
    Workload {
        rulebase,
        database,
        script,
    }
}

struct ArmResult {
    wall_ms: f64,
    queries_true: usize,
    final_model_facts: usize,
    stats: Option<MaintenanceStats>,
}

/// The maintained arm: build once, then DRed through the script.
fn run_incremental(w: &Workload) -> ArmResult {
    let mut db = w.database.clone();
    let start = Instant::now();
    let mut m = MaterializedModel::build(&w.rulebase, &db).expect("initial build");
    let mut queries_true = 0;
    for op in &w.script {
        match op {
            Op::Assert(f) => {
                db.insert(f.clone());
                m.assert_fact(&w.rulebase, &db, f).expect("assert");
            }
            Op::Retract(f) => {
                db.remove(f);
                m.retract_fact(&w.rulebase, &db, f).expect("retract");
            }
            Op::Query(f) => queries_true += usize::from(m.model().contains(f)),
        }
    }
    ArmResult {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        queries_true,
        final_model_facts: m.model().len(),
        stats: Some(m.stats()),
    }
}

/// The baseline arm: a full bottom-up fixpoint after every mutation.
fn run_rebuild(w: &Workload) -> ArmResult {
    let mut db = w.database.clone();
    let start = Instant::now();
    let mut model = BottomUpEngine::new(&w.rulebase, &db)
        .and_then(|mut e| e.model())
        .expect("initial build");
    let mut queries_true = 0;
    for op in &w.script {
        match op {
            Op::Assert(f) => {
                db.insert(f.clone());
                model = BottomUpEngine::new(&w.rulebase, &db)
                    .and_then(|mut e| e.model())
                    .expect("rebuild");
            }
            Op::Retract(f) => {
                db.remove(f);
                model = BottomUpEngine::new(&w.rulebase, &db)
                    .and_then(|mut e| e.model())
                    .expect("rebuild");
            }
            Op::Query(f) => queries_true += usize::from(model.contains(f)),
        }
    }
    ArmResult {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        queries_true,
        final_model_facts: model.len(),
        stats: None,
    }
}

/// Untimed lockstep replay: after every mutation the maintained model
/// must equal the from-scratch model fact-for-fact.
fn verify_lockstep(w: &Workload) -> Result<(), String> {
    let mut db = w.database.clone();
    let mut m = MaterializedModel::build(&w.rulebase, &db).map_err(|e| e.to_string())?;
    for (i, op) in w.script.iter().enumerate() {
        match op {
            Op::Assert(f) => {
                db.insert(f.clone());
                m.assert_fact(&w.rulebase, &db, f)
                    .map_err(|e| e.to_string())?;
            }
            Op::Retract(f) => {
                db.remove(f);
                m.retract_fact(&w.rulebase, &db, f)
                    .map_err(|e| e.to_string())?;
            }
            Op::Query(_) => continue,
        }
        let full = BottomUpEngine::new(&w.rulebase, &db)
            .and_then(|mut e| e.model())
            .map_err(|e| e.to_string())?;
        if full.len() != m.model().len() || full.iter_facts().any(|f| !m.model().contains(&f)) {
            return Err(format!(
                "model divergence after op {i}: maintained {} facts, full {}",
                m.model().len(),
                full.len()
            ));
        }
    }
    Ok(())
}

struct Run {
    communities: usize,
    nodes: usize,
    density: f64,
    mutations: usize,
    incremental: ArmResult,
    rebuild: ArmResult,
    speedup: f64,
    verified: bool,
}

fn run_config(
    communities: usize,
    n: usize,
    density: f64,
    ops: usize,
    seed: u64,
    verify: bool,
) -> Run {
    let w = build_workload(communities, n, density, ops, seed);
    let incremental = run_incremental(&w);
    let rebuild = run_rebuild(&w);
    assert_eq!(
        incremental.queries_true, rebuild.queries_true,
        "arms must answer the probe stream identically"
    );
    assert_eq!(incremental.final_model_facts, rebuild.final_model_facts);
    let verified = if verify {
        match verify_lockstep(&w) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("  VERIFY FAILED: {e}");
                false
            }
        }
    } else {
        true
    };
    Run {
        communities,
        nodes: n,
        density,
        mutations: ops,
        speedup: rebuild.wall_ms / incremental.wall_ms,
        incremental,
        rebuild,
        verified,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = check || args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_churn.json".into());
    eprintln!(
        "churn benchmark — mode {}",
        if quick { "quick" } else { "full" }
    );

    let configs: &[(usize, usize, f64, usize)] = if quick {
        &[(24, 10, 0.25, 40), (32, 8, 0.30, 50)]
    } else {
        &[(40, 12, 0.25, 120), (60, 10, 0.30, 160), (80, 8, 0.35, 200)]
    };
    let runs: Vec<Run> = configs
        .iter()
        .map(|&(k, n, d, ops)| run_config(k, n, d, ops, 17, true))
        .collect();
    for r in &runs {
        let stats = r.incremental.stats.expect("incremental arm tracks stats");
        eprintln!(
            "  {:>2}x{:>2} density={:.2} muts={:>3}: incremental {:>8.2} ms vs rebuild {:>8.2} ms — {:>5.1}x \
             (dred {} / conservative {} / domain {}, overdel {} rederived {}, verified {})",
            r.communities,
            r.nodes,
            r.density,
            r.mutations,
            r.incremental.wall_ms,
            r.rebuild.wall_ms,
            r.speedup,
            stats.incremental_retractions + stats.incremental_assertions,
            stats.conservative_updates,
            stats.domain_rebuilds,
            stats.overdeleted_facts,
            stats.rederived_facts,
            r.verified
        );
    }

    let mut report = String::from("{\n");
    let _ = writeln!(report, "  \"schema\": \"bench_churn/v1\",");
    let _ = writeln!(
        report,
        "  \"command\": \"cargo run --release -p hdl-bench --bin churn\","
    );
    let _ = writeln!(
        report,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(report, "  \"workload\": \"transitive closure over a random digraph; interleaved assert/retract with 3 reachability probes per mutation\",");
    let _ = writeln!(report, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let stats = r.incremental.stats.expect("stats");
        let _ = writeln!(
            report,
            "    {{\"communities\": {}, \"nodes_per_community\": {}, \"density\": {:.2}, \"mutations\": {}, \"model_facts\": {}, \
             \"incremental_ms\": {:.3}, \"rebuild_ms\": {:.3}, \"speedup\": {:.2}, \
             \"incremental_retractions\": {}, \"incremental_assertions\": {}, \
             \"conservative_updates\": {}, \"domain_rebuilds\": {}, \
             \"overdeleted_facts\": {}, \"rederived_facts\": {}, \"verified\": {}}}{}",
            r.communities,
            r.nodes,
            r.density,
            r.mutations,
            r.incremental.final_model_facts,
            r.incremental.wall_ms,
            r.rebuild.wall_ms,
            r.speedup,
            stats.incremental_retractions,
            stats.incremental_assertions,
            stats.conservative_updates,
            stats.domain_rebuilds,
            stats.overdeleted_facts,
            stats.rederived_facts,
            r.verified,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(report, "  ]");
    report.push_str("}\n");
    std::fs::write(&out_path, &report).expect("write BENCH json");
    eprintln!("wrote {out_path}");

    if check {
        let mut failures = Vec::new();
        for r in &runs {
            if !r.verified {
                failures.push(format!(
                    "{}x{}: maintained model diverged from full rebuild",
                    r.communities, r.nodes
                ));
            }
            if r.speedup < 5.0 {
                failures.push(format!(
                    "{}x{}: speedup {:.1}x below the 5x gate",
                    r.communities, r.nodes, r.speedup
                ));
            }
            let stats = r.incremental.stats.expect("stats");
            if stats.full_builds != 1 || stats.domain_rebuilds != 0 {
                failures.push(format!(
                    "{}x{}: expected 1 full build and 0 domain rebuilds, got {} / {}",
                    r.communities, r.nodes, stats.full_builds, stats.domain_rebuilds
                ));
            }
        }
        if failures.is_empty() {
            eprintln!("all gates passed");
        } else {
            for f in &failures {
                eprintln!("GATE FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
