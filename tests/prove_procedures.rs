//! E7: the §5.2 PROVE procedures — agreement with the reference engines
//! and the Theorem 3 goal-sequence bound.

use hdl_encodings::qbf::{encode_qbf, Lit, Qbf, Quant};
use hypothetical_datalog::prelude::*;

fn setup(src: &str) -> (Rulebase, Database, SymbolTable) {
    let mut syms = SymbolTable::new();
    let program = parse_program(src, &mut syms).expect("parses");
    let (rules, facts) = split_facts(program);
    (rules, facts.into_iter().collect(), syms)
}

#[test]
fn sigma_expansions_respect_theorem_3_bound() {
    // Example 6 parity: Σ₁ = {even, odd} rules → k₁ = 1 equivalence
    // class; k₀ = max arity = 1. Theorem 3 bounds any repetition-free
    // goal sequence by O(n^{2·k₁·k₀}) = O(n²). Our engine memoizes, so
    // the number of *distinct* Σ expansions must come in under c·n².
    for n in [2usize, 4, 6, 8] {
        let mut src = String::from(
            "even :- select(X), odd[add: b(X)].
             odd :- select(X), even[add: b(X)].
             even :- ~select(X).
             select(X) :- a(X), ~b(X).\n",
        );
        for i in 0..n {
            src.push_str(&format!("a(t{i}).\n"));
        }
        let (rules, db, mut syms) = setup(&src);
        let mut pe = ProveEngine::new(&rules, &db).expect("linearly stratified");
        let q = parse_query("?- even.", &mut syms).unwrap();
        let verdict = pe.holds(&q).unwrap();
        assert_eq!(verdict, n % 2 == 0);
        let expansions = pe.stats().sigma_expansions[0];
        let bound = 4 * (n as u64 + 1).pow(2);
        assert!(
            expansions <= bound,
            "n={n}: {expansions} Σ-expansions exceeds the Theorem 3 budget {bound}"
        );
    }
}

#[test]
fn prove_agrees_with_reference_on_example_9() {
    // The canonical 3-stratum rulebase, with base facts toggling each
    // stratum's outcome.
    let src = "
        a3 :- b3, a3[add: c3].
        a3 :- d3, ~a2.
        a2 :- b2, a2[add: c2].
        a2 :- d2, ~a1.
        a1 :- b1, a1[add: c1].
        a1 :- d1.
        d3. d2.
    ";
    let (rules, db, mut syms) = setup(src);
    let mut pe = ProveEngine::new(&rules, &db).unwrap();
    assert_eq!(pe.stratification().num_strata(), 3);
    let mut td = TopDownEngine::new(&rules, &db).unwrap();
    let mut bu = BottomUpEngine::new(&rules, &db).unwrap();
    for atom in ["a1", "a2", "a3"] {
        let q = parse_query(&format!("?- {atom}."), &mut syms).unwrap();
        let p = pe.holds(&q).unwrap();
        let t = td.holds(&q).unwrap();
        let b = bu.holds(&q).unwrap();
        assert_eq!(p, t, "{atom}");
        assert_eq!(p, b, "{atom}");
    }
    // d1 absent → a1 false → ~a1 holds → a2 true (d2 present) → a3 false.
    let expect = [("a1", false), ("a2", true), ("a3", false)];
    for (atom, want) in expect {
        let q = parse_query(&format!("?- {atom}."), &mut syms).unwrap();
        assert_eq!(pe.holds(&q).unwrap(), want, "{atom}");
    }
}

#[test]
fn delta_oracle_chain_through_hypothetical_premises() {
    // A Δ₂ rule with a hypothetical premise over Σ₁ — the exact shape
    // PROVE_Δᵢ's TEST⁰ resolves through PROVE_Σᵢ₋₁ (§5.2.2).
    let src = "
        reach :- step[add: key].
        step :- step2[add: key2].
        step2 :- key, key2.
        blocked :- ~reach.
        verdict :- reach[add: extra], ~blocked.
    ";
    let (rules, db, mut syms) = setup(src);
    let mut pe = ProveEngine::new(&rules, &db).unwrap();
    for (q, want) in [("reach", true), ("blocked", false), ("verdict", true)] {
        let query = parse_query(&format!("?- {q}."), &mut syms).unwrap();
        assert_eq!(pe.holds(&query).unwrap(), want, "{q}");
    }
    assert!(pe.stats().oracle_calls > 0, "TEST⁰ must hit the oracle");
}

#[test]
fn prove_rejects_non_linear_rulebases() {
    let src = "a :- b, a[add: c1], a[add: c2].";
    let (rules, db, _) = setup(src);
    assert!(ProveEngine::new(&rules, &db).is_err());
}

#[test]
fn delta_substrata_negation_inside_a_segment() {
    // Intra-Δ stratified negation: winner depends on loser which depends
    // on base — all within Δ₁ sub-strata.
    let src = "
        base(x1).
        loser(X) :- base(X), ~promoted(X).
        promoted(X) :- star(X).
        winner(X) :- base(X), ~loser(X).
    ";
    let (rules, db, mut syms) = setup(src);
    let mut pe = ProveEngine::new(&rules, &db).unwrap();
    let loser = parse_query("?- loser(x1).", &mut syms).unwrap();
    let winner = parse_query("?- winner(x1).", &mut syms).unwrap();
    assert!(pe.holds(&loser).unwrap());
    assert!(!pe.holds(&winner).unwrap());

    // Now promote x1: it stops losing and starts winning.
    let src2 = format!("{src}\nstar(x1).");
    let (rules2, db2, mut syms2) = setup(&src2);
    let mut pe2 = ProveEngine::new(&rules2, &db2).unwrap();
    let loser = parse_query("?- loser(x1).", &mut syms2).unwrap();
    let winner = parse_query("?- winner(x1).", &mut syms2).unwrap();
    assert!(!pe2.holds(&loser).unwrap());
    assert!(pe2.holds(&winner).unwrap());
}

#[test]
fn hamiltonian_on_prove_engine() {
    let src = "
        yes :- node(X), path(X)[add: pnode(X)].
        path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
        path(X) :- ~select(Y).
        select(Y) :- node(Y), ~pnode(Y).
        node(a). node(b). node(c).
        edge(a, b). edge(b, c).
    ";
    let (rules, db, mut syms) = setup(src);
    let mut pe = ProveEngine::new(&rules, &db).unwrap();
    let q = parse_query("?- yes.", &mut syms).unwrap();
    assert!(pe.holds(&q).unwrap());
    assert_eq!(pe.stratification().num_strata(), 1);
}

/// One line of the counters a PROVE run reports, for exact pinning.
fn prove_counters(pe: &ProveEngine<'_>) -> String {
    let s = pe.stats();
    format!(
        "sigma_expansions={:?} oracle_calls={} delta_models={} memo_hits={} \
         index_probes={} index_hits={} delta_facts_per_round={:?}",
        s.sigma_expansions,
        s.oracle_calls,
        s.delta_models,
        s.memo_hits,
        s.index_probes,
        s.index_hits,
        s.delta_facts_per_round,
    )
}

/// Examples 7–8 over a fixed digraph on six nodes without a Hamiltonian
/// path, drawn once from a seeded splitmix64 generator so the instance
/// never changes.
fn seeded_hamiltonian_source() -> String {
    let mut src = String::from(
        "yes :- node(X), path(X)[add: pnode(X)].
         path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
         path(X) :- ~select(Y).
         select(Y) :- node(Y), ~pnode(Y).
         no :- ~yes.\n",
    );
    let n = 6;
    let mut state: u64 = 7;
    for v in 0..n {
        src.push_str(&format!("node(v{v}).\n"));
    }
    for a in 0..n {
        for b in 0..n {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if a != b && z % 100 < 15 {
                src.push_str(&format!("edge(v{a}, v{b}).\n"));
            }
        }
    }
    src
}

#[test]
fn prove_counters_are_pinned() {
    // Exact work counters of the §5.2 procedures on fixed instances.
    // Every value is deterministic: any change to how PROVE_Δᵢ schedules
    // rounds, resolves TEST⁰ premises or matches against the layered
    // model shows up here.
    let src = seeded_hamiltonian_source();
    let expected = [
        (
            "yes",
            false,
            "sigma_expansions=[26, 0] oracle_calls=0 delta_models=25 memo_hits=0 \
             index_probes=150 index_hits=59 delta_facts_per_round=[3, 0]",
        ),
        (
            "no",
            true,
            "sigma_expansions=[26, 0] oracle_calls=1 delta_models=26 memo_hits=0 \
             index_probes=150 index_hits=59 delta_facts_per_round=[1, 0]",
        ),
    ];
    for (goal, verdict, counters) in expected {
        let (rules, db, mut syms) = setup(&src);
        let mut pe = ProveEngine::new(&rules, &db).expect("linearly stratified");
        assert_eq!(pe.stratification().num_strata(), 2);
        let q = parse_query(&format!("?- {goal}."), &mut syms).unwrap();
        assert_eq!(pe.holds(&q).unwrap(), verdict, "{goal}");
        assert_eq!(prove_counters(&pe), counters, "{goal}");
    }

    // ∃x0 x1 ∀x2 x3 . (x0 ∨ x2) ∧ (¬x0 ∨ x1 ∨ x3) ∧ (x1 ∨ ¬x2 ∨ x3):
    // two quantifier blocks, so two strata.
    let lit = |var: usize, positive: bool| Lit { var, positive };
    let qbf = Qbf {
        prefix: vec![(Quant::Exists, vec![0, 1]), (Quant::Forall, vec![2, 3])],
        clauses: vec![
            vec![lit(0, true), lit(2, true)],
            vec![lit(0, false), lit(1, true), lit(3, true)],
            vec![lit(1, true), lit(2, false), lit(3, true)],
        ],
    };
    let enc = encode_qbf(&qbf).unwrap();
    let mut pe = ProveEngine::new(&enc.rulebase, &enc.database).expect("linearly stratified");
    assert_eq!(pe.holds(&enc.sat_query()).unwrap(), qbf.eval());
    assert_eq!(
        prove_counters(&pe),
        "sigma_expansions=[10, 4] oracle_calls=1 delta_models=12 memo_hits=4 \
         index_probes=195 index_hits=99 delta_facts_per_round=[1, 0]",
        "2-block QBF"
    );
}

/// One line of the counters a top-down run reports, for exact pinning.
fn topdown_counters(td: &TopDownEngine<'_>) -> String {
    let s = td.stats();
    format!(
        "goal_expansions={} memo_hits={} calls={} max_depth={} databases_created={}",
        s.goal_expansions, s.memo_hits, s.calls, s.max_depth, s.databases_created,
    )
}

#[test]
fn topdown_counters_are_pinned() {
    // Exact work counters of the goal-directed search on the instances
    // `prove_counters_are_pinned` uses, plus E2's hypothetical chain:
    // any change to how the search tables goals, walks premises or
    // creates databases shows up here.
    let src = seeded_hamiltonian_source();
    let expected = [
        (
            "yes",
            false,
            "goal_expansions=267 memo_hits=40 calls=366 max_depth=6 databases_created=25",
        ),
        (
            "no",
            true,
            "goal_expansions=268 memo_hits=40 calls=367 max_depth=7 databases_created=25",
        ),
    ];
    for (goal, verdict, counters) in expected {
        let (rules, db, mut syms) = setup(&src);
        let mut td = TopDownEngine::new(&rules, &db).unwrap();
        let q = parse_query(&format!("?- {goal}."), &mut syms).unwrap();
        assert_eq!(td.holds(&q).unwrap(), verdict, "{goal}");
        assert_eq!(topdown_counters(&td), counters, "{goal}");
    }

    // E2's chain at n = 16: a1 :- a2[add: b1]. … a17 :- dgoal.
    // dgoal :- b1, …, b16.
    let n = 16;
    let mut chain = String::new();
    for i in 1..=n {
        chain.push_str(&format!("a{i} :- a{}[add: b{i}].\n", i + 1));
    }
    chain.push_str(&format!("a{} :- dgoal.\n", n + 1));
    let body: Vec<String> = (1..=n).map(|i| format!("b{i}")).collect();
    chain.push_str(&format!("dgoal :- {}.\n", body.join(", ")));
    let (rules, db, mut syms) = setup(&chain);
    let mut td = TopDownEngine::new(&rules, &db).unwrap();
    let q = parse_query("?- a1.", &mut syms).unwrap();
    assert!(td.holds(&q).unwrap());
    assert_eq!(
        topdown_counters(&td),
        "goal_expansions=18 memo_hits=0 calls=18 max_depth=17 databases_created=16",
        "chain n=16"
    );

    // The 2-block QBF of `prove_counters_are_pinned`.
    let lit = |var: usize, positive: bool| Lit { var, positive };
    let qbf = Qbf {
        prefix: vec![(Quant::Exists, vec![0, 1]), (Quant::Forall, vec![2, 3])],
        clauses: vec![
            vec![lit(0, true), lit(2, true)],
            vec![lit(0, false), lit(1, true), lit(3, true)],
            vec![lit(1, true), lit(2, false), lit(3, true)],
        ],
    };
    let enc = encode_qbf(&qbf).unwrap();
    let mut td = TopDownEngine::new(&enc.rulebase, &enc.database).unwrap();
    assert_eq!(td.holds(&enc.sat_query()).unwrap(), qbf.eval());
    assert_eq!(
        topdown_counters(&td),
        "goal_expansions=116 memo_hits=126 calls=257 max_depth=11 databases_created=10",
        "2-block QBF"
    );
}
