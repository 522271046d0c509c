//! Regenerates the result tables in EXPERIMENTS.md.
//!
//! Unlike the Criterion benches (which measure wall time), this binary
//! prints the *semantic* results: verdicts, work counters, stratification
//! shapes, and bound checks — everything EXPERIMENTS.md quotes.
//!
//! Run with `cargo run --release -p hdl-bench --bin experiments`.

use hdl_base::{Atom, Database, GroundAtom, Symbol, SymbolTable, Term, Var};
use hdl_bench::workloads::{
    chain_program, hamiltonian_program, layered_rulebase, parity_program, random_digraph, Digraph,
};
use hdl_core::analysis::stratify::linear_stratification;
use hdl_core::engine::{BottomUpEngine, MagicEngine, NaiveEngine, ProveEngine, TopDownEngine};
use hdl_core::parser::parse_query;
use hdl_encodings::lemma2::unary_query_rulebase;
use hdl_encodings::tm::encode;
use hdl_turing::{library, Cascade, Sym};
use std::time::Instant;

fn main() {
    e1_university();
    e2_chains();
    e3_parity();
    e4_hamiltonian();
    e5_stratification();
    e6_tm_encoding();
    e7_prove_bounds();
    e8_expressibility();
    e9_hierarchy();
    e10_baseline();
    e11_qbf();
}

fn banner(s: &str) {
    println!("\n=== {s} ===");
}

fn e11_qbf() {
    use hdl_encodings::qbf::build::{n as neg, p as pos, sat};
    use hdl_encodings::qbf::{encode_qbf, Qbf, Quant};
    banner("E11 (extension): QBF as stratified rulebases");
    println!(
        "{:<34} {:>7} {:>6} {:>7} {:>8} {:>8} {:>10}",
        "formula", "blocks", "rules", "strata", "derived", "direct", "eval_us"
    );
    let cases: Vec<(&str, Qbf)> = vec![
        (
            "sat_2clauses",
            sat(2, vec![vec![pos(0), pos(1)], vec![neg(0), pos(1)]]),
        ),
        (
            "unsat_x_and_not_x",
            sat(1, vec![vec![pos(0)], vec![neg(0)]]),
        ),
        (
            "exists_forall_or",
            Qbf {
                prefix: vec![(Quant::Exists, vec![0]), (Quant::Forall, vec![1])],
                clauses: vec![vec![pos(0), pos(1)]],
            },
        ),
        (
            "forall_exists_xor",
            Qbf {
                prefix: vec![(Quant::Forall, vec![0]), (Quant::Exists, vec![1])],
                clauses: vec![vec![pos(0), pos(1)], vec![neg(0), neg(1)]],
            },
        ),
        (
            "exists_forall_exists_def",
            Qbf {
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
            },
        ),
    ];
    for (label, qbf) in cases {
        let direct = qbf.eval();
        let enc = encode_qbf(&qbf).unwrap();
        let ls = linear_stratification(&enc.rulebase).unwrap();
        let t0 = Instant::now();
        let mut eng = TopDownEngine::new(&enc.rulebase, &enc.database).unwrap();
        let derived = eng.holds(&enc.sat_query()).unwrap();
        let us = t0.elapsed().as_micros();
        assert_eq!(derived, direct);
        println!(
            "{label:<34} {:>7} {:>6} {:>7} {derived:>8} {direct:>8} {us:>10}",
            qbf.prefix.len(),
            enc.rulebase.len(),
            ls.num_strata()
        );
    }
}

fn e1_university() {
    banner("E1: Examples 1-3 (university)");
    let src = "
        take(tony, cs250). take(tony, his101).
        take(alice, his101). take(alice, eng201).
        take(bob, cs452).
        grad(S) :- take(S, his101), take(S, eng201).
    ";
    let mut syms = SymbolTable::new();
    let program = hdl_core::parser::parse_program(src, &mut syms).unwrap();
    let (rules, facts) = hdl_core::parser::split_facts(program);
    let db: Database = facts.into_iter().collect();
    let mut eng = TopDownEngine::new(&rules, &db).unwrap();
    for q in [
        "?- grad(alice).",
        "?- grad(tony).",
        "?- grad(tony)[add: take(tony, eng201)].",
        "?- grad(tony)[add: take(tony, C)].",
        "?- grad(bob)[add: take(bob, C)].",
    ] {
        let query = parse_query(q, &mut syms).unwrap();
        println!("{q:<45} => {}", eng.holds(&query).unwrap());
    }
}

fn e2_chains() {
    banner("E2: Examples 4-5 (hypothetical chains)");
    println!(
        "{:>6} {:>12} {:>10} {:>10}",
        "n", "time_us", "dbs", "expansions"
    );
    for n in [4usize, 16, 64, 128, 256] {
        let (rules, db, mut syms) = chain_program(n);
        let q = parse_query("?- a1.", &mut syms).unwrap();
        let start = Instant::now();
        let mut eng = TopDownEngine::new(&rules, &db).unwrap();
        assert!(eng.holds(&q).unwrap());
        let us = start.elapsed().as_micros();
        println!(
            "{n:>6} {us:>12} {:>10} {:>10}",
            eng.stats().databases_created,
            eng.stats().goal_expansions
        );
    }
}

fn e3_parity() {
    banner("E3: Example 6 (parity of |a|)");
    println!(
        "{:>4} {:>6} {:>6} {:>12} {:>12} {:>12}",
        "n", "even", "odd", "td_us", "bu_us", "prove_us"
    );
    for n in 0..=9 {
        let (rules, db, mut syms) = parity_program(n);
        let qe = parse_query("?- even.", &mut syms).unwrap();
        let qo = parse_query("?- odd.", &mut syms).unwrap();

        let t0 = Instant::now();
        let mut td = TopDownEngine::new(&rules, &db).unwrap();
        let even = td.holds(&qe).unwrap();
        let odd = td.holds(&qo).unwrap();
        let td_us = t0.elapsed().as_micros();

        let t0 = Instant::now();
        let mut bu = BottomUpEngine::new(&rules, &db).unwrap();
        assert_eq!(bu.holds(&qe).unwrap(), even);
        let bu_us = t0.elapsed().as_micros();

        let t0 = Instant::now();
        let mut pe = ProveEngine::new(&rules, &db).unwrap();
        assert_eq!(pe.holds(&qe).unwrap(), even);
        let pe_us = t0.elapsed().as_micros();

        assert_eq!(even, n % 2 == 0);
        assert_eq!(odd, n % 2 == 1);
        println!("{n:>4} {even:>6} {odd:>6} {td_us:>12} {bu_us:>12} {pe_us:>12}");
    }
}

fn e4_hamiltonian() {
    banner("E4: Examples 7-8 (Hamiltonian path, NP search)");
    println!(
        "{:>3} {:<12} {:>6} {:>6} {:>12} {:>12} {:>10}",
        "n", "graph", "rb", "dfs", "rb_us", "dfs_us", "dbs"
    );
    for n in 3..=7 {
        for (label, g) in [
            ("chain", Digraph::chain(n)),
            ("star", Digraph::star(n)),
            ("rand_d04", random_digraph(n, 0.4, 42)),
        ] {
            let t0 = Instant::now();
            let direct = g.has_hamiltonian_path();
            let dfs_us = t0.elapsed().as_micros();

            let (rules, db, mut syms) = hamiltonian_program(&g);
            let q = parse_query("?- yes.", &mut syms).unwrap();
            let t0 = Instant::now();
            let mut eng = TopDownEngine::new(&rules, &db).unwrap();
            let rb = eng.holds(&q).unwrap();
            let rb_us = t0.elapsed().as_micros();
            assert_eq!(rb, direct);
            println!(
                "{n:>3} {label:<12} {rb:>6} {direct:>6} {rb_us:>12} {dfs_us:>12} {:>10}",
                eng.stats().databases_created
            );
        }
    }
}

fn e5_stratification() {
    banner("E5: Lemma 1 (stratification decision + relaxation)");
    println!(
        "{:>4} {:>4} {:>6} {:>8} {:>12} {:>12}",
        "k", "w", "rules", "strata", "iterations", "time_us"
    );
    for (k, w) in [(1usize, 1usize), (2, 2), (4, 4), (8, 8), (16, 16), (32, 16)] {
        let (rb, _) = layered_rulebase(k, w);
        let t0 = Instant::now();
        let ls = linear_stratification(&rb).unwrap();
        let us = t0.elapsed().as_micros();
        println!(
            "{k:>4} {w:>4} {:>6} {:>8} {:>12} {us:>12}",
            rb.len(),
            ls.num_strata(),
            ls.relaxation_iterations
        );
        assert_eq!(ls.num_strata(), k);
    }
}

fn e6_tm_encoding() {
    banner("E6: Theorem 1 lower bound (oracle TM -> rulebase)");
    println!(
        "{:<32} {:>6} {:>6} {:>7} {:>8} {:>8} {:>12}",
        "machine/input", "rules", "facts", "strata", "derived", "direct", "eval_us"
    );
    let cascade = Cascade::new(vec![library::contains_one()]).unwrap();
    for input in [vec![], vec![Sym(0), Sym(1)], vec![Sym(0), Sym(0), Sym(0)]] {
        let bound = 6;
        let enc = encode(&cascade, &input, bound).unwrap();
        let ls = linear_stratification(&enc.rulebase).unwrap();
        let direct = cascade.accepts(&input, bound);
        let t0 = Instant::now();
        let mut eng = TopDownEngine::new(&enc.rulebase, &enc.database).unwrap();
        let derived = eng.holds(&enc.accept_query()).unwrap();
        let us = t0.elapsed().as_micros();
        assert_eq!(derived, direct);
        let label = format!(
            "contains_one/{:?}",
            input.iter().map(|s| s.0).collect::<Vec<_>>()
        );
        println!(
            "{label:<32} {:>6} {:>6} {:>7} {derived:>8} {direct:>8} {us:>12}",
            enc.rulebase.len(),
            enc.database.len(),
            ls.num_strata()
        );
    }
    for (top, label) in [
        (library::write_then_ask(Sym(1), true), "sigma2/write1_yes"),
        (library::write_then_ask(Sym(0), true), "sigma2/write0_yes"),
        (library::write_then_ask(Sym(0), false), "sigma2/write0_no"),
        (library::guess_and_ask(1), "sigma2/guess1_yes"),
    ] {
        let cascade = Cascade::new(vec![top, library::contains_one()]).unwrap();
        let enc = encode(&cascade, &[], 8).unwrap();
        let ls = linear_stratification(&enc.rulebase).unwrap();
        let direct = cascade.accepts(&[], 8);
        let t0 = Instant::now();
        let mut eng = TopDownEngine::new(&enc.rulebase, &enc.database).unwrap();
        let derived = eng.holds(&enc.accept_query()).unwrap();
        let us = t0.elapsed().as_micros();
        assert_eq!(derived, direct);
        println!(
            "{label:<32} {:>6} {:>6} {:>7} {derived:>8} {direct:>8} {us:>12}",
            enc.rulebase.len(),
            enc.database.len(),
            ls.num_strata()
        );
    }
}

fn e7_prove_bounds() {
    banner("E7: Theorem 3 (PROVE goal-sequence budget, parity workload)");
    println!(
        "{:>4} {:>14} {:>14} {:>10}",
        "n", "sigma_expans", "budget(4(n+1)^2)", "within"
    );
    for n in [2usize, 4, 6, 8, 10] {
        let (rules, db, mut syms) = parity_program(n);
        let q = parse_query("?- even.", &mut syms).unwrap();
        let mut pe = ProveEngine::new(&rules, &db).unwrap();
        assert_eq!(pe.holds(&q).unwrap(), n % 2 == 0);
        let e = pe.stats().sigma_expansions[0];
        let budget = 4 * (n as u64 + 1).pow(2);
        println!("{n:>4} {e:>14} {budget:>14} {:>10}", e <= budget);
        assert!(e <= budget);
    }
}

fn e8_expressibility() {
    banner("E8: section 6 (generic queries on unordered domains)");
    let nonempty = Cascade::new(vec![library::bitmap_nonempty()]).unwrap();
    let parity = Cascade::new(vec![library::bitmap_even_ones()]).unwrap();
    println!(
        "{:<22} {:>3} {:>4} {:>8} {:>8} {:>12}",
        "query", "n", "|p|", "derived", "truth", "eval_us"
    );
    type Truth = fn(usize) -> bool;
    let cases: [(&Cascade, &str, Truth); 2] = [
        (&nonempty, "nonempty", |m| m >= 1),
        (&parity, "even_cardinality", |m| m % 2 == 0),
    ];
    for (cascade, qname, truth) in cases {
        for n in 2..=3usize {
            for m in 0..=n {
                let enc = unary_query_rulebase(cascade, 2, false).unwrap();
                let mut syms = enc.symbols.clone();
                let consts: Vec<Symbol> = (0..n).map(|i| syms.intern(&format!("a{i}"))).collect();
                let mut db = Database::new();
                for &c in &consts {
                    db.insert(GroundAtom::new(enc.domain, vec![c]));
                }
                for &c in consts.iter().take(m) {
                    db.insert(GroundAtom::new(enc.p, vec![c]));
                }
                let t0 = Instant::now();
                let mut eng = TopDownEngine::new(&enc.rulebase, &db).unwrap();
                let derived = eng.holds(&enc.yes_query()).unwrap();
                let us = t0.elapsed().as_micros();
                let want = truth(m);
                assert_eq!(derived, want);
                println!("{qname:<22} {n:>3} {m:>4} {derived:>8} {want:>8} {us:>12}");
            }
        }
    }
}

fn e9_hierarchy() {
    banner("E9: cost vs number of strata (layered workload)");
    println!(
        "{:>4} {:>8} {:>12} {:>12}",
        "k", "verdict", "td_us", "prove_us"
    );
    for k in [1usize, 2, 4, 8, 16] {
        let (rb, mut syms) = layered_rulebase(k, 2);
        let mut db = Database::new();
        for i in 1..=k {
            for j in 0..2 {
                let d = syms.intern(&format!("d_{i}_{j}"));
                db.insert(GroundAtom::new(d, vec![]));
            }
        }
        let q = parse_query(&format!("?- a_{k}_0."), &mut syms).unwrap();
        let expected = k % 2 == 1;
        let t0 = Instant::now();
        let mut td = TopDownEngine::new(&rb, &db).unwrap();
        assert_eq!(td.holds(&q).unwrap(), expected);
        let td_us = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let mut pe = ProveEngine::new(&rb, &db).unwrap();
        assert_eq!(pe.holds(&q).unwrap(), expected);
        let pe_us = t0.elapsed().as_micros();
        println!("{k:>4} {expected:>8} {td_us:>12} {pe_us:>12}");
    }
}

fn e10_baseline() {
    banner("E10: Datalog baseline (tc(v0, X) over chains)");
    println!(
        "{:>5} {:>8} {:>9} {:>9} {:>9} {:>9} {:>13} {:>13} {:>13} {:>13}",
        "n",
        "answers",
        "dl_us",
        "naive_us",
        "semi_us",
        "magic_us",
        "naive_att",
        "semi_att",
        "magic_att",
        "semi_new"
    );
    for n in [8usize, 16, 32, 48] {
        let mut syms = SymbolTable::new();
        let rules = hdl_bench::workloads::tc_rules(&mut syms);
        let db = hdl_bench::workloads::tc_edb(&mut syms, n);
        let tc = syms.lookup("tc").unwrap();
        let v0 = syms.lookup("v0").unwrap();
        let hyp_rules = hdl_core::parser::parse_program(
            "tc(X, Y) :- e(X, Y).
             tc(X, Z) :- e(X, Y), tc(Y, Z).",
            &mut syms,
        )
        .unwrap();
        let pattern = Atom::new(tc, vec![Term::Const(v0), Term::Var(Var(0))]);

        // The independent oracle: hdl-datalog's naive evaluator.
        let t0 = Instant::now();
        let m = hdl_datalog::naive::evaluate(&rules, &db).unwrap();
        let expected: Vec<Vec<Symbol>> = m
            .tuples(tc)
            .filter(|t| t[0] == v0)
            .map(|t| t.to_vec())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let dl_us = t0.elapsed().as_micros();
        assert_eq!(expected.len(), n - 1);

        // Core's engines, all answering the same pattern.
        let t0 = Instant::now();
        let mut naive = NaiveEngine::new(&hyp_rules, &db).unwrap();
        assert_eq!(naive.answers(&pattern).unwrap(), expected);
        let naive_us = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let mut semi = BottomUpEngine::new(&hyp_rules, &db).unwrap();
        assert_eq!(semi.answers(&pattern).unwrap(), expected);
        let semi_us = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let mut magic = MagicEngine::new(&hyp_rules, &db).unwrap();
        assert_eq!(magic.answers(&pattern).unwrap(), expected);
        let magic_us = t0.elapsed().as_micros();

        let semi_new: u64 = semi.stats().delta_facts_per_round.iter().sum();
        println!(
            "{n:>5} {:>8} {dl_us:>9} {naive_us:>9} {semi_us:>9} {magic_us:>9} {:>13} {:>13} {:>13} {semi_new:>13}",
            expected.len(),
            naive.stats().goal_expansions,
            semi.stats().goal_expansions,
            magic.stats().goal_expansions,
        );
    }
}
