//! `fixpoint` — the tracked fixpoint benchmark behind `BENCH_fixpoint.json`.
//!
//! Runs each workload under up to three engine configurations —
//!
//! - `naive`: the retained [`NaiveEngine`] reference (full re-fire of
//!   every rule, every round),
//! - `semi_naive_w1`: the semi-naive delta-rotating closure,
//! - `magic`: the demand rewrite ([`MagicEngine`]) in front of a fresh
//!   semi-naive run — only on the `*_point` workloads, where the query
//!   has bound arguments for the rewrite to exploit (`whatif_point` asks
//!   a sequence of hypothetical point queries of one kept engine),
//!
//! — checks that all configurations agree on the answer, and emits wall
//! time, rounds, premise-match attempts, index probe/hit counts, and
//! the per-round delta trajectory as JSON. The attempts counters are
//! deterministic, so the naive/semi and semi/magic ratios are stable
//! regression gates; wall time is machine-dependent and only
//! sanity-gated.
//!
//! ```console
//! $ cargo run --release -p hdl-bench --bin fixpoint            # full sizes
//! $ cargo run --release -p hdl-bench --bin fixpoint -- --quick # CI sizes
//! $ cargo run --release -p hdl-bench --bin fixpoint -- --check # quick + gates
//! ```
//!
//! `--check` exits non-zero if semi-naive is slower than naive on a
//! transitive-closure workload, the naive/semi attempts ratio falls
//! below 3×, fewer than two point-query workloads show a ≥ 10× semi/
//! magic attempts ratio, `whatif_point` shows a semi/magic attempts
//! ratio under 5× (the premise walk's order: the written order makes
//! about 2×).

use hdl_base::Database;
use hdl_bench::workloads::{
    clustered_digraph, hamiltonian_reach_program, random_digraph, reach_program,
    same_generation_program, tc_program, Digraph,
};
use hdl_core::ast::{Premise, Rulebase};
use hdl_core::engine::{BottomUpEngine, MagicEngine, NaiveEngine};
use hdl_core::parser::parse_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy)]
enum Config {
    Naive,
    Semi,
    Magic,
}

impl Config {
    /// The configuration's name in the JSON. `semi_naive_w1` keeps the
    /// name it had beside a multi-worker row, so the trajectory of
    /// earlier files stays comparable.
    fn label(self) -> &'static str {
        match self {
            Config::Naive => "naive",
            Config::Semi => "semi_naive_w1",
            Config::Magic => "magic",
        }
    }
}

/// Every workload runs the naive reference and the semi-naive closure.
const MODEL_CONFIGS: [Config; 2] = [Config::Naive, Config::Semi];

/// Point-query workloads additionally run the demand rewrite.
const POINT_CONFIGS: [Config; 3] = [Config::Naive, Config::Semi, Config::Magic];

/// What the workload asks of the engine.
enum Task {
    /// Compute the full perfect model of the base database.
    Model,
    /// Evaluate one ground query (hypothetical / negation workloads).
    Holds(Premise),
    /// Evaluate ground queries in turn on one kept engine.
    Queries(Vec<Premise>),
}

/// Deterministic work counters plus the best wall time of the repeats.
struct RunMetrics {
    wall_ms: f64,
    attempts: u64,
    rounds: u64,
    index_probes: u64,
    index_hits: u64,
    magic_rules: u64,
    demand_facts: u64,
    delta: Vec<u64>,
}

impl RunMetrics {
    fn from_stats(wall_ms: f64, s: &hdl_core::engine::EngineStats) -> Self {
        RunMetrics {
            wall_ms,
            attempts: s.goal_expansions,
            rounds: s.rounds,
            index_probes: s.index_probes,
            index_hits: s.index_hits,
            magic_rules: s.magic_rules,
            demand_facts: s.demand_facts,
            delta: s.delta_facts_per_round.clone(),
        }
    }
}

/// The answer a run produced, for cross-configuration equivalence.
#[derive(PartialEq)]
enum Answer {
    Model(Database),
    Verdict(bool),
    Verdicts(Vec<bool>),
}

impl Answer {
    fn describe(&self) -> String {
        match self {
            Answer::Model(m) => format!("{} facts", m.len()),
            Answer::Verdict(v) => format!("verdict {v}"),
            Answer::Verdicts(vs) => {
                let yes = vs.iter().filter(|&&v| v).count();
                format!("{yes} of {} verdicts true", vs.len())
            }
        }
    }
}

fn run_once(
    rb: &Rulebase,
    db: &Database,
    task: &Task,
    config: Config,
) -> (f64, RunMetrics, Answer) {
    let start = Instant::now();
    let mut eng;
    let answer = match config {
        Config::Naive => {
            let mut naive = NaiveEngine::new(rb, db).expect("workload stratifies");
            let answer = match task {
                Task::Model => Answer::Model(naive.model().expect("naive model")),
                Task::Holds(q) => Answer::Verdict(naive.holds(q).expect("naive holds")),
                Task::Queries(qs) => Answer::Verdicts(
                    qs.iter()
                        .map(|q| naive.holds(q).expect("naive holds"))
                        .collect(),
                ),
            };
            let wall = start.elapsed().as_secs_f64() * 1e3;
            return (wall, RunMetrics::from_stats(wall, naive.stats()), answer);
        }
        Config::Magic => {
            let mut magic = MagicEngine::new(rb, db).expect("workload stratifies");
            let answer = match task {
                Task::Model => unreachable!("magic runs only on point-query workloads"),
                Task::Holds(q) => Answer::Verdict(magic.holds(q).expect("magic holds")),
                Task::Queries(qs) => Answer::Verdicts(
                    qs.iter()
                        .map(|q| magic.holds(q).expect("magic holds"))
                        .collect(),
                ),
            };
            let wall = start.elapsed().as_secs_f64() * 1e3;
            return (wall, RunMetrics::from_stats(wall, magic.stats()), answer);
        }
        Config::Semi => {
            eng = BottomUpEngine::new(rb, db).expect("workload stratifies");
            match task {
                Task::Model => Answer::Model(eng.model().expect("semi-naive model")),
                Task::Holds(q) => Answer::Verdict(eng.holds(q).expect("semi-naive holds")),
                Task::Queries(qs) => Answer::Verdicts(
                    qs.iter()
                        .map(|q| eng.holds(q).expect("semi-naive holds"))
                        .collect(),
                ),
            }
        }
    };
    let wall = start.elapsed().as_secs_f64() * 1e3;
    (wall, RunMetrics::from_stats(wall, eng.stats()), answer)
}

struct WorkloadResult {
    name: &'static str,
    params: String,
    answer: String,
    runs: Vec<(&'static str, RunMetrics)>,
}

impl WorkloadResult {
    fn metrics(&self, label: &str) -> &RunMetrics {
        &self
            .runs
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no config {label}"))
            .1
    }

    fn attempts_ratio(&self) -> f64 {
        ratio(
            self.metrics("naive").attempts as f64,
            self.metrics("semi_naive_w1").attempts as f64,
        )
    }

    fn wall_ratio_naive_over_semi(&self) -> f64 {
        ratio(
            self.metrics("naive").wall_ms,
            self.metrics("semi_naive_w1").wall_ms,
        )
    }

    /// Semi-naive over magic attempts — how much work the demand
    /// rewrite saved. `None` on workloads that did not run `magic`.
    fn magic_attempts_ratio(&self) -> Option<f64> {
        let magic = self.runs.iter().find(|(l, _)| *l == "magic")?;
        Some(ratio(
            self.metrics("semi_naive_w1").attempts as f64,
            magic.1.attempts as f64,
        ))
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        f64::INFINITY
    } else {
        a / b
    }
}

/// `n` what-if queries over `g`, drawn from `seed`: `reach(a, b)` as
/// is, under `add:` of an edge, and under `del:` of an edge of `g`, in
/// turn.
fn whatif_queries(g: &Digraph, n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (a, b) = (rng.gen_range(0..g.n), rng.gen_range(0..g.n));
            let goal = format!("reach(v{a}, v{b})");
            let (x, y) = match i % 3 {
                0 => return format!("?- {goal}."),
                1 => (rng.gen_range(0..g.n), rng.gen_range(0..g.n)),
                _ => g.edges[rng.gen_range(0..g.edges.len())],
            };
            let op = if i % 3 == 1 { "add" } else { "del" };
            format!("?- {goal}[{op}: edge(v{x}, v{y})].")
        })
        .collect()
}

fn run_workload(
    name: &'static str,
    params: String,
    rb: &Rulebase,
    db: &Database,
    task: &Task,
    configs: &[Config],
    repeats: usize,
) -> WorkloadResult {
    let mut runs: Vec<(&'static str, RunMetrics)> = Vec::new();
    let mut reference: Option<Answer> = None;
    for &config in configs {
        let (_, metrics, answer) = run_once(rb, db, task, config);
        match &reference {
            None => reference = Some(answer),
            Some(expected) => assert!(
                *expected == answer,
                "{name}: {} disagrees with naive reference",
                config.label()
            ),
        }
        runs.push((config.label(), metrics));
    }
    // Wall time is the minimum over all runs; counters are
    // deterministic across repeats. Repeats are interleaved across
    // configurations so a scheduler hiccup lands on all of them
    // rather than skewing one configuration's burst.
    for _ in 1..repeats {
        for (i, &config) in configs.iter().enumerate() {
            let (wall, _, _) = run_once(rb, db, task, config);
            runs[i].1.wall_ms = runs[i].1.wall_ms.min(wall);
        }
    }
    for (label, metrics) in &runs {
        eprintln!(
            "  {name:<16} {label:<14} {:>9.2} ms  {:>12} attempts  {:>6} rounds  {:>12} probes",
            metrics.wall_ms, metrics.attempts, metrics.rounds, metrics.index_probes,
        );
    }
    WorkloadResult {
        name,
        params,
        answer: reference.expect("at least one config ran").describe(),
        runs,
    }
}

/// Minimal JSON emitter — the workspace is offline, so no serde.
fn json(results: &[WorkloadResult], mode: &str, threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench_fixpoint/v3\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p hdl-bench --bin fixpoint\","
    );
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"host_threads\": {threads},");
    out.push_str("  \"workloads\": [\n");
    for (wi, w) in results.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(out, "      \"params\": \"{}\",", w.params);
        let _ = writeln!(out, "      \"answer\": \"{}\",", w.answer);
        let _ = writeln!(
            out,
            "      \"attempts_ratio_naive_over_semi\": {:.2},",
            w.attempts_ratio()
        );
        let _ = writeln!(
            out,
            "      \"wall_ratio_naive_over_semi\": {:.2},",
            w.wall_ratio_naive_over_semi()
        );
        if let Some(r) = w.magic_attempts_ratio() {
            let _ = writeln!(out, "      \"attempts_ratio_semi_over_magic\": {r:.2},");
        }
        out.push_str("      \"configs\": [\n");
        for (ci, (label, m)) in w.runs.iter().enumerate() {
            out.push_str("        {");
            let _ = write!(
                out,
                "\"config\": \"{label}\", \"wall_ms\": {:.3}, \"attempts\": {}, \
                 \"rounds\": {}, \"index_probes\": {}, \"index_hits\": {}, \
                 \"magic_rules\": {}, \"demand_facts\": {}, ",
                m.wall_ms,
                m.attempts,
                m.rounds,
                m.index_probes,
                m.index_hits,
                m.magic_rules,
                m.demand_facts
            );
            // The delta trajectory of the last model computed; long
            // tails (chains) are truncated for readability.
            const DELTA_CAP: usize = 32;
            let shown: Vec<String> = m.delta.iter().take(DELTA_CAP).map(u64::to_string).collect();
            let _ = write!(
                out,
                "\"delta_rounds\": {}, \"delta_facts_per_round\": [{}{}]",
                m.delta.len(),
                shown.join(", "),
                if m.delta.len() > DELTA_CAP {
                    ", -1"
                } else {
                    ""
                }
            );
            out.push_str(if ci + 1 < w.runs.len() { "},\n" } else { "}\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if wi + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = check || args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_fixpoint.json".into());
    // Quick mode gates wall-clock ratios in CI, so it takes more
    // repeats: the min over five runs is stable against scheduler
    // noise that a min over two is not.
    let repeats = if quick { 5 } else { 3 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "fixpoint benchmark — mode {}, {} host threads",
        if quick { "quick" } else { "full" },
        threads
    );

    let mut results = Vec::new();

    // Chain TC: many rounds with shrinking deltas — the workload where
    // naive re-derivation is most wasteful (the attempts-ratio gate).
    let n = if quick { 64 } else { 192 };
    let (rb, db, mut syms) = tc_program(&Digraph::chain(n));
    results.push(run_workload(
        "tc_chain",
        format!("chain of {n} nodes"),
        &rb,
        &db,
        &Task::Model,
        &MODEL_CONFIGS,
        repeats,
    ));

    // Point reachability on the same chain: both query arguments bound,
    // so the demand rewrite only derives the O(n) suffix reachable from
    // the source instead of the O(n²) full closure.
    let q = parse_query(&format!("?- tc(v0, v{}).", n - 1), &mut syms).expect("query parses");
    results.push(run_workload(
        "tc_chain_point",
        format!("chain of {n} nodes, query tc(v0, v{})", n - 1),
        &rb,
        &db,
        &Task::Holds(q),
        &POINT_CONFIGS,
        repeats,
    ));

    // Dense random TC: few rounds with wide deltas — the most join work
    // per round (the naive/semi wall-clock gate).
    let (n, d) = if quick { (64, 0.10) } else { (200, 0.035) };
    let g = random_digraph(n, d, 7);
    let (rb, db, mut syms) = tc_program(&g);
    results.push(run_workload(
        "tc_dense",
        format!(
            "random digraph n={n} density={d} seed=7 ({} edges)",
            g.edges.len()
        ),
        &rb,
        &db,
        &Task::Model,
        &MODEL_CONFIGS,
        repeats,
    ));

    // Point reachability on the dense digraph: demand restricts the
    // closure to the single-source slice instead of all pairs.
    let q = parse_query(&format!("?- tc(v0, v{}).", n - 1), &mut syms).expect("query parses");
    results.push(run_workload(
        "tc_dense_point",
        format!(
            "random digraph n={n} density={d} seed=7, query tc(v0, v{})",
            n - 1
        ),
        &rb,
        &db,
        &Task::Holds(q),
        &POINT_CONFIGS,
        repeats,
    ));

    // Same-generation over a complete binary tree: non-linear recursion
    // with geometrically widening deltas.
    let depth = if quick { 6 } else { 9 };
    let (rb, db, mut syms) = same_generation_program(depth);
    results.push(run_workload(
        "same_generation",
        format!("complete binary tree, depth {depth}"),
        &rb,
        &db,
        &Task::Model,
        &MODEL_CONFIGS,
        repeats,
    ));

    // Point same-generation between the leftmost and rightmost leaves:
    // demand walks only the two root paths and the levels they touch,
    // while the full model materializes every same-level pair.
    let (lo, hi) = (1usize << (depth - 1), (1usize << depth) - 1);
    let q = parse_query(&format!("?- sg(n{lo}, n{hi})."), &mut syms).expect("query parses");
    results.push(run_workload(
        "sg_point",
        format!("complete binary tree, depth {depth}, query sg(n{lo}, n{hi})"),
        &rb,
        &db,
        &Task::Holds(q),
        &POINT_CONFIGS,
        repeats,
    ));

    // What-if reachability: point `reach/2` queries, plain and under an
    // `add:` or `del:` of one edge, over a chain of clustered digraphs,
    // asked in turn of one kept engine. Every magic fact of a query
    // carries its target, so the premise walk's order decides how many
    // of them each derived fact is tested against.
    let (clusters, n) = if quick { (4, 18) } else { (10, 36) };
    let g = clustered_digraph(clusters, 10, 2, 2, 1);
    let (rb, db, mut syms) = reach_program(&g);
    let queries = whatif_queries(&g, n, 1)
        .iter()
        .map(|t| parse_query(t, &mut syms).expect("query parses"))
        .collect();
    results.push(run_workload(
        "whatif_point",
        format!(
            "{clusters} clusters of 10 nodes, out-degree 2, 2 bridges, seed 1 ({} edges), \
             {n} queries",
            g.edges.len()
        ),
        &rb,
        &db,
        &Task::Queries(queries),
        &POINT_CONFIGS,
        repeats,
    ));

    // Hamiltonian path (Example 7) with the unvisited-reachability
    // pruning relation: negation + hypothetical branching, and a
    // genuinely recursive fixpoint recomputed inside every augmented
    // database the search explores. A chain plus skip edges keeps the
    // per-branch `reach` fixpoint deep — the regime where naive
    // re-derivation compounds.
    let hn = if quick { 12 } else { 16 };
    let mut g = Digraph::chain(hn);
    for i in (0..hn.saturating_sub(2)).step_by(3) {
        g.edges.push((i, i + 2));
    }
    let (rb, db, mut syms) = hamiltonian_reach_program(&g);
    let q = parse_query("?- yes.", &mut syms).expect("query parses");
    results.push(run_workload(
        "hamiltonian",
        format!(
            "chain n={hn} with skip edges + reach pruning ({} edges)",
            g.edges.len()
        ),
        &rb,
        &db,
        &Task::Holds(q),
        &MODEL_CONFIGS,
        repeats,
    ));

    // QBF (∃∀∃, 3 blocks): the deep-stratification workload.
    {
        use hdl_encodings::qbf::build::{n as neg, p as pos};
        use hdl_encodings::qbf::{encode_qbf, Qbf, Quant};
        let qbf = Qbf {
            prefix: vec![
                (Quant::Exists, vec![0]),
                (Quant::Forall, vec![1]),
                (Quant::Exists, vec![2]),
            ],
            clauses: vec![
                vec![neg(0), pos(2)],
                vec![neg(1), pos(2)],
                vec![pos(0), pos(1), neg(2)],
            ],
        };
        let enc = encode_qbf(&qbf).expect("qbf encodes");
        results.push(run_workload(
            "qbf_eae",
            "exists_forall_exists_def, 3 blocks".into(),
            &enc.rulebase,
            &enc.database,
            &Task::Holds(enc.sat_query()),
            &MODEL_CONFIGS,
            repeats,
        ));
    }

    let report = json(&results, if quick { "quick" } else { "full" }, threads);
    std::fs::write(&out_path, &report).expect("write BENCH json");
    eprintln!("wrote {out_path}");

    let find = |name: &str| {
        results
            .iter()
            .find(|w| w.name == name)
            .expect("workload present")
    };
    let tc_chain = find("tc_chain");
    let tc_dense = find("tc_dense");
    let ham = find("hamiltonian");
    let point: Vec<&WorkloadResult> = results
        .iter()
        .filter(|w| w.magic_attempts_ratio().is_some())
        .collect();
    eprintln!(
        "gates: tc_chain attempts ratio {:.2}x, hamiltonian attempts ratio {:.2}x, \
         tc wall naive/semi {:.2}x|{:.2}x",
        tc_chain.attempts_ratio(),
        ham.attempts_ratio(),
        tc_chain.wall_ratio_naive_over_semi(),
        tc_dense.wall_ratio_naive_over_semi(),
    );
    for w in &point {
        eprintln!(
            "gates: {} semi/magic attempts ratio {:.2}x",
            w.name,
            w.magic_attempts_ratio().unwrap_or(0.0)
        );
    }

    if check {
        let mut failed = false;
        // Deterministic gate: delta-rotation must cut attempts ≥ 3× on
        // the chain-TC and Hamiltonian workloads.
        for (w, min) in [(tc_chain, 3.0), (ham, 3.0)] {
            if w.attempts_ratio() < min {
                eprintln!(
                    "GATE FAILED: {} attempts ratio {:.2} < {min}",
                    w.name,
                    w.attempts_ratio()
                );
                failed = true;
            }
        }
        // Wall-clock gate: semi-naive must not be slower than naive on
        // the transitive-closure workloads (generous margin — the
        // attempts ratio predicts ≥ 3×).
        for w in [tc_chain, tc_dense] {
            if w.wall_ratio_naive_over_semi() < 1.0 {
                eprintln!(
                    "GATE FAILED: {} semi-naive slower than naive ({:.2}x)",
                    w.name,
                    w.wall_ratio_naive_over_semi()
                );
                failed = true;
            }
        }
        // Demand gate: the magic rewrite must cut attempts ≥ 10× versus
        // single-threaded semi-naive on at least two point-query
        // workloads (deterministic counters, so this is stable).
        let strong = point
            .iter()
            .filter(|w| w.magic_attempts_ratio().unwrap_or(0.0) >= 10.0)
            .count();
        if strong < 2 {
            for w in &point {
                eprintln!(
                    "  {} semi/magic attempts ratio {:.2}",
                    w.name,
                    w.magic_attempts_ratio().unwrap_or(0.0)
                );
            }
            eprintln!(
                "GATE FAILED: only {strong} point workloads reached a 10x demand ratio (need 2)"
            );
            failed = true;
        }
        // Walk-order gate: on `whatif_point` every magic fact of a query
        // carries its target, so a walk that probes the magic guard by
        // the target alone tests all of them for each derived fact. The
        // cost-ordered walk cuts magic attempts ≥ 5× below semi-naive;
        // the written order made about 2× (deterministic counters).
        let whatif = find("whatif_point").magic_attempts_ratio().unwrap_or(0.0);
        if whatif < 5.0 {
            eprintln!("GATE FAILED: whatif_point semi/magic attempts ratio {whatif:.2} < 5");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("all gates passed");
    }
}
