//! Robustness: the parser never panics, evaluation is insensitive to
//! fact-insertion order, and resource limits fail cleanly.

use hypothetical_datalog::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary input never panics the parser — it parses or errors.
    #[test]
    fn parser_total_on_arbitrary_strings(src in "\\PC{0,200}") {
        let mut syms = SymbolTable::new();
        let _ = parse_program(&src, &mut syms);
        let _ = parse_query(&src, &mut syms);
    }

    /// Arbitrary *token-shaped* soup: higher parse-success density, still
    /// no panics, and anything that parses also pretty-prints and
    /// re-parses.
    #[test]
    fn parser_total_on_token_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("p".to_string()),
                Just("q(X)".to_string()),
                Just(":-".to_string()),
                Just("~".to_string()),
                Just("[add:".to_string()),
                Just("]".to_string()),
                Just(",".to_string()),
                Just(".".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("X".to_string()),
                Just("abc".to_string()),
            ],
            0..25,
        )
    ) {
        let src = toks.join(" ");
        let mut syms = SymbolTable::new();
        if let Ok(rb) = parse_program(&src, &mut syms) {
            let printed = pretty::rulebase(&rb, &syms);
            let mut syms2 = SymbolTable::new();
            let rb2 = parse_program(&printed, &mut syms2).expect("printed form parses");
            prop_assert_eq!(rb.len(), rb2.len());
        }
    }

    /// Shuffling the EDB insertion order never changes any verdict.
    #[test]
    fn insertion_order_is_irrelevant(perm in proptest::sample::subsequence(
        (0usize..6).collect::<Vec<_>>(), 0..=6)
    ) {
        let rules_src = "
            even :- select(X), odd[add: b(X)].
            odd :- select(X), even[add: b(X)].
            even :- ~select(X).
            select(X) :- a(X), ~b(X).
        ";
        // Baseline: facts in index order; permuted: chosen subset first,
        // remainder after — same set either way.
        let all: Vec<usize> = (0..6).collect();
        let mut order = perm.clone();
        for i in &all {
            if !order.contains(i) {
                order.push(*i);
            }
        }
        let build = |order: &[usize]| -> Session {
            let mut s = Session::new();
            s.load(rules_src).unwrap();
            for &i in order {
                s.load(&format!("a(t{i}).")).unwrap();
            }
            s
        };
        let mut base = build(&all);
        let mut shuffled = build(&order);
        prop_assert_eq!(base.ask("?- even.").unwrap(), shuffled.ask("?- even.").unwrap());
        prop_assert_eq!(base.ask("?- odd.").unwrap(), shuffled.ask("?- odd.").unwrap());
    }
}

#[test]
fn expansion_limit_fails_cleanly() {
    // Hamiltonian search on a dense graph with a tiny expansion budget.
    let mut syms = SymbolTable::new();
    let mut src = String::from(
        "yes :- node(X), path(X)[add: pnode(X)].
         path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
         path(X) :- ~select(Y).
         select(Y) :- node(Y), ~pnode(Y).\n",
    );
    for i in 0..6 {
        src.push_str(&format!("node(n{i}).\n"));
        for j in 0..6 {
            if i != j {
                src.push_str(&format!("edge(n{i}, n{j}).\n"));
            }
        }
    }
    let program = parse_program(&src, &mut syms).unwrap();
    let (rules, facts) = split_facts(program);
    let db: Database = facts.into_iter().collect();
    let mut eng = TopDownEngine::new(&rules, &db)
        .unwrap()
        .with_limits(Limits {
            max_expansions: 5,
            max_databases: 1_000_000,
        });
    let q = parse_query("?- yes.", &mut syms).unwrap();
    let err = eng.holds(&q).unwrap_err();
    assert!(err.to_string().contains("limit exceeded"), "{err}");
}

#[test]
fn database_limit_fails_cleanly() {
    let mut syms = SymbolTable::new();
    let mut src = String::from(
        "even :- select(X), odd[add: b(X)].
         odd :- select(X), even[add: b(X)].
         even :- ~select(X).
         select(X) :- a(X), ~b(X).\n",
    );
    for i in 0..8 {
        src.push_str(&format!("a(t{i}).\n"));
    }
    let program = parse_program(&src, &mut syms).unwrap();
    let (rules, facts) = split_facts(program);
    let db: Database = facts.into_iter().collect();
    let mut eng = TopDownEngine::new(&rules, &db)
        .unwrap()
        .with_limits(Limits {
            max_expansions: u64::MAX,
            max_databases: 3,
        });
    let q = parse_query("?- even.", &mut syms).unwrap();
    assert!(eng.holds(&q).is_err());
}

/// Asks each of `queries` of a fresh engine, to learn the most work one
/// query takes, then all of them of one engine kept across them and
/// limited to exactly that much. The kept engine must answer them all
/// alike, although their work together passes the limits. `work` reads
/// an engine's goal expansions and its databases (or models).
fn kept_answers_past_the_total<E>(
    queries: &[Premise],
    make: impl Fn(Limits) -> E,
    ask: impl Fn(&mut E, &Premise) -> hdl_base::Result<bool>,
    work: impl Fn(&E) -> (u64, u64),
) {
    let run = |mut eng: E, queries: &[Premise]| {
        let verdicts: Vec<bool> = queries
            .iter()
            .map(|q| ask(&mut eng, q).expect("within the per-query limits"))
            .collect();
        (verdicts, work(&eng))
    };
    let mut want = Vec::new();
    let mut most = Limits {
        max_expansions: 0,
        max_databases: 0,
    };
    for q in queries {
        let (verdicts, (x, d)) = run(make(Limits::default()), std::slice::from_ref(q));
        want.extend(verdicts);
        most.max_expansions = most.max_expansions.max(x);
        most.max_databases = most.max_databases.max(d);
    }
    let (got, (x, d)) = run(make(most), queries);
    assert_eq!(got, want);
    assert!(
        x > most.max_expansions && d > most.max_databases,
        "{x} expansions, {d} databases against {most:?}"
    );
}

/// The limits count per query, for each engine a service worker keeps.
#[test]
fn kept_engines_answer_queries_past_the_limits_total() {
    let mut syms = SymbolTable::new();
    let mut src = String::from("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n");
    for i in 0..8 {
        src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
    }
    let (rules, facts) = split_facts(parse_program(&src, &mut syms).unwrap());
    let db: Database = facts.into_iter().collect();
    // Each query opens a database of its own, so little work is shared.
    let queries: Vec<Premise> = (0..8)
        .map(|k| {
            let q = format!("?- tc(v{k}, v0)[add: e(v8, v{k})].");
            parse_query(&q, &mut syms).unwrap()
        })
        .collect();
    kept_answers_past_the_total(
        &queries,
        |l| TopDownEngine::new(&rules, &db).unwrap().with_limits(l),
        |e, q| e.holds(q),
        |e| (e.stats().goal_expansions, e.stats().databases_created),
    );
    kept_answers_past_the_total(
        &queries,
        |l| ProveEngine::new(&rules, &db).unwrap().with_limits(l),
        |e, q| e.holds(q),
        |e| (e.stats().goal_expansions, e.stats().databases_created),
    );
    kept_answers_past_the_total(
        &queries,
        |l| BottomUpEngine::new(&rules, &db).unwrap().with_limits(l),
        |e, q| e.holds(q),
        |e| (e.stats().goal_expansions, e.stats().calls),
    );
}

/// `explain` forgets the memoized verdicts and proves its goals again;
/// the goal-set cap must then count them from an empty table, so a kept
/// engine trips it exactly where a fresh one does.
#[test]
fn explain_counts_its_goals_against_the_goal_set_cap() {
    let mut syms = SymbolTable::new();
    let mut src = String::from("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n");
    for i in 0..8 {
        src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
    }
    let (rules, facts) = split_facts(parse_program(&src, &mut syms).unwrap());
    let db: Database = facts.into_iter().collect();
    let q = parse_query("?- tc(v0, v8).", &mut syms).unwrap();
    let capped = || Budget::unlimited().with_max_goal_set(3);
    let mut fresh = TopDownEngine::new(&rules, &db).unwrap();
    fresh.set_budget(capped());
    let want = fresh.explain(&q).map(|p| p.is_some());
    assert!(want.is_err(), "the cap is below the proof's goals");
    let mut kept = TopDownEngine::new(&rules, &db).unwrap();
    assert!(kept.holds(&q).unwrap());
    kept.set_budget(capped());
    assert_eq!(kept.explain(&q).map(|p| p.is_some()), want);
}

#[test]
fn errors_are_printable_and_typed() {
    let mut syms = SymbolTable::new();
    let err = parse_program("p :- ~q[add: r].", &mut syms).unwrap_err();
    assert!(matches!(err, hdl_base::Error::Parse { .. }));
    let err = parse_program("p(a).\np(a, b).", &mut syms).unwrap_err();
    assert!(matches!(err, hdl_base::Error::ArityMismatch { .. }));
    let rb = parse_program("a :- ~b.\nb :- ~a.", &mut syms).unwrap();
    let err = TopDownEngine::new(&rb, &Database::new()).err().unwrap();
    assert!(matches!(err, hdl_base::Error::NotStratified { .. }));
}

#[test]
fn deep_chains_evaluate_given_proportional_stack() {
    // The top-down engine's recursion depth is proportional to proof
    // depth (documented); a 1500-link chain of hypothetical insertions
    // needs more than the 2 MiB default *test-thread* stack in debug
    // builds, so give it a worker with room — the pattern a caller with
    // deep programs should use.
    let handle = std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            let n = 1500;
            let mut src = String::new();
            for i in 1..=n {
                src.push_str(&format!("a{i} :- a{}[add: b{i}].\n", i + 1));
            }
            src.push_str(&format!("a{} :- b1.\n", n + 1));
            let mut s = Session::new();
            s.load(&src).unwrap();
            s.ask("?- a1.").unwrap()
        })
        .expect("spawn worker");
    assert!(handle.join().expect("no panic"));
}
