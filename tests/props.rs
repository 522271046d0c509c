//! Property-based tests over randomly generated programs.
//!
//! Core invariants:
//! - the three hypothetical engines agree on every query;
//! - a kept top-down or PROVE engine answers a query sequence as a fresh
//!   engine per query does, through limit trips and domain growth;
//! - negation-free inference is monotone in the database (§3.1 notes the
//!   base system is monotonic — negation is what breaks it);
//! - parse ∘ pretty is the identity on rulebases;
//! - the independent naive Datalog evaluator and the semi-naive kernel
//!   produce identical models on hypothesis-free programs, and the
//!   independent stratifier and core's stratum solver identical strata;
//! - the §5.1 encoding agrees with the machine simulator on random
//!   nondeterministic machines.

use hdl_base::{Database, GroundAtom, SymbolTable};
use hdl_core::analysis::{global_strata, RecursionAnalysis};
use hdl_core::ast::{HypRule, Premise, Rulebase};
use hdl_core::engine::{BottomUpEngine, Limits, ProveEngine, TopDownEngine};
use hdl_core::parser::{parse_program, parse_query};
use proptest::prelude::*;

/// Tight limits so pathological random programs fail fast instead of
/// dominating the test budget; limited cases are skipped, not compared.
fn small_limits() -> Limits {
    Limits {
        // The unit is premise-match attempts (finer-grained than the old
        // per-firing count), so the ceiling is correspondingly higher.
        max_expansions: 2_000_000,
        max_databases: 3_000,
    }
}

// ---------------------------------------------------------------------
// Random program generation (negation-free fragment + stratified NAF).
// ---------------------------------------------------------------------

/// A premise sketch for the generator.
#[derive(Clone, Debug)]
enum PremiseSketch {
    Pos(usize, Vec<u8>), // predicate, args (var index 0..2 or 100+const)
    Neg(usize, Vec<u8>), // only to strictly-lower-level preds
    Hyp(usize, Vec<u8>, usize, Vec<u8>), // goal pred/args, add pred/args
    /// `goal[add: …, del: …]` with a nonempty del list. The goal edge is
    /// negation-like (stratify.rs), so like `Neg` the goal predicate is
    /// restricted to strictly-lower levels.
    HypDel {
        goal: (usize, Vec<u8>),
        add: Option<(usize, Vec<u8>)>,
        del: (usize, Vec<u8>),
    },
}

#[derive(Clone, Debug)]
struct RuleSketch {
    head: (usize, Vec<u8>),
    body: Vec<PremiseSketch>,
}

const NUM_PREDS: usize = 4;
const NUM_CONSTS: usize = 3;

fn arg_strategy() -> impl Strategy<Value = u8> {
    // 0..2 = variables X0..X2, 100..102 = constants c0..c2.
    prop_oneof![0u8..3, 100u8..(100 + NUM_CONSTS as u8)]
}

fn args_strategy(arity: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(arg_strategy(), arity)
}

/// Predicate `i` has arity `i % 2 + 1` ∈ {1, 2}.
fn arity(pred: usize) -> usize {
    pred % 2 + 1
}

/// Levels make negation stratified by construction: predicate `i` has
/// level `i`, and `~q` may only appear in rules for heads with a
/// strictly greater level.
fn premise_strategy(head_pred: usize, allow_neg: bool) -> BoxedStrategy<PremiseSketch> {
    let pos = (0..NUM_PREDS)
        .prop_flat_map(|p| args_strategy(arity(p)).prop_map(move |a| PremiseSketch::Pos(p, a)));
    let hyp = (0..NUM_PREDS, 0..NUM_PREDS).prop_flat_map(|(g, ad)| {
        (args_strategy(arity(g)), args_strategy(arity(ad)))
            .prop_map(move |(ga, aa)| PremiseSketch::Hyp(g, ga, ad, aa))
    });
    if allow_neg && head_pred > 0 {
        let neg = (0..head_pred)
            .prop_flat_map(|p| args_strategy(arity(p)).prop_map(move |a| PremiseSketch::Neg(p, a)));
        let hyp_del = (
            0..head_pred,
            prop_oneof![Just(None), (0..NUM_PREDS).prop_map(Some)],
            0..NUM_PREDS,
        )
            .prop_flat_map(|(g, ad, dl)| {
                let add = match ad {
                    Some(p) => args_strategy(arity(p))
                        .prop_map(move |a| Some((p, a)))
                        .boxed(),
                    None => Just(None).boxed(),
                };
                (args_strategy(arity(g)), add, args_strategy(arity(dl))).prop_map(
                    move |(ga, add, da)| PremiseSketch::HypDel {
                        goal: (g, ga),
                        add,
                        del: (dl, da),
                    },
                )
            });
        prop_oneof![4 => pos, 2 => hyp, 2 => neg, 1 => hyp_del].boxed()
    } else {
        prop_oneof![4 => pos, 2 => hyp].boxed()
    }
}

fn rule_strategy(allow_neg: bool) -> impl Strategy<Value = RuleSketch> {
    (0..NUM_PREDS).prop_flat_map(move |head_pred| {
        let head = args_strategy(arity(head_pred)).prop_map(move |a| (head_pred, a));
        let body = proptest::collection::vec(premise_strategy(head_pred, allow_neg), 1..=3);
        (head, body).prop_map(|(head, body)| RuleSketch { head, body })
    })
}

fn program_strategy(allow_neg: bool) -> impl Strategy<Value = Vec<RuleSketch>> {
    proptest::collection::vec(rule_strategy(allow_neg), 1..=4)
}

fn facts_strategy() -> impl Strategy<Value = Vec<(usize, Vec<u8>)>> {
    proptest::collection::vec(
        (0..NUM_PREDS).prop_flat_map(|p| {
            proptest::collection::vec(100u8..(100 + NUM_CONSTS as u8), arity(p))
                .prop_map(move |a| (p, a))
        }),
        0..=5,
    )
}

fn render_arg(a: u8) -> String {
    if a >= 100 {
        format!("c{}", a - 100)
    } else {
        format!("X{a}")
    }
}

fn render_atom(pred: usize, args: &[u8]) -> String {
    let rendered: Vec<String> = args.iter().map(|&a| render_arg(a)).collect();
    format!("q{pred}({})", rendered.join(", "))
}

fn render_program(rules: &[RuleSketch]) -> String {
    let mut out = String::new();
    for r in rules {
        out.push_str(&render_atom(r.head.0, &r.head.1));
        out.push_str(" :- ");
        let premises: Vec<String> = r
            .body
            .iter()
            .map(|p| match p {
                PremiseSketch::Pos(pr, a) => render_atom(*pr, a),
                PremiseSketch::Neg(pr, a) => format!("~{}", render_atom(*pr, a)),
                PremiseSketch::Hyp(g, ga, ad, aa) => {
                    format!("{}[add: {}]", render_atom(*g, ga), render_atom(*ad, aa))
                }
                PremiseSketch::HypDel { goal, add, del } => match add {
                    Some((ap, aa)) => format!(
                        "{}[add: {}, del: {}]",
                        render_atom(goal.0, &goal.1),
                        render_atom(*ap, aa),
                        render_atom(del.0, &del.1)
                    ),
                    None => format!(
                        "{}[del: {}]",
                        render_atom(goal.0, &goal.1),
                        render_atom(del.0, &del.1)
                    ),
                },
            })
            .collect();
        out.push_str(&premises.join(", "));
        out.push_str(".\n");
    }
    out
}

fn build(rules: &[RuleSketch], facts: &[(usize, Vec<u8>)]) -> (Rulebase, Database, SymbolTable) {
    let src = render_program(rules);
    let mut syms = SymbolTable::new();
    let rb = parse_program(&src, &mut syms).expect("generated program parses");
    let mut db = Database::new();
    for (p, args) in facts {
        let pred = syms.intern(&format!("q{p}"));
        let consts: Vec<_> = args
            .iter()
            .map(|&a| syms.intern(&format!("c{}", a - 100)))
            .collect();
        db.insert(GroundAtom::new(pred, consts));
    }
    // Make sure every constant exists even with no facts.
    for c in 0..NUM_CONSTS {
        syms.intern(&format!("c{c}"));
    }
    (rb, db, syms)
}

/// All ground queries we compare engines on.
fn ground_queries(syms: &mut SymbolTable) -> Vec<hdl_core::ast::Premise> {
    let mut out = Vec::new();
    for p in 0..NUM_PREDS {
        let combos: Vec<Vec<usize>> = if arity(p) == 1 {
            (0..NUM_CONSTS).map(|c| vec![c]).collect()
        } else {
            (0..NUM_CONSTS)
                .flat_map(|a| (0..NUM_CONSTS).map(move |b| vec![a, b]))
                .collect()
        };
        for combo in combos {
            let rendered: Vec<String> = combo.iter().map(|c| format!("c{c}")).collect();
            let q = format!("?- q{p}({}).", rendered.join(", "));
            out.push(parse_query(&q, syms).expect("query parses"));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three engines agree on every ground query, for negation-free
    /// random hypothetical programs.
    #[test]
    fn engines_agree_negation_free(
        rules in program_strategy(false),
        facts in facts_strategy(),
    ) {
        let (rb, db, mut syms) = build(&rules, &facts);
        let queries = ground_queries(&mut syms);

        let mut bu = BottomUpEngine::new(&rb, &db).unwrap().with_limits(small_limits());
        let mut td = TopDownEngine::new(&rb, &db).unwrap().with_limits(small_limits());
        let pe = ProveEngine::new(&rb, &db).map(|e| e.with_limits(small_limits()));
        let mut pe = pe.ok();

        for q in &queries {
            let (Ok(a), Ok(b)) = (bu.holds(q), td.holds(q)) else {
                return Ok(()); // resource-limited case: skip
            };
            prop_assert_eq!(a, b, "bottom-up vs top-down on {:?}\n{}", q, render_program(&rules));
            if let Some(pe) = pe.as_mut() {
                let Ok(c) = pe.holds(q) else { return Ok(()) };
                prop_assert_eq!(a, c, "bottom-up vs prove on {:?}\n{}", q, render_program(&rules));
            }
        }
    }

    /// Engines agree on random programs *with stratified negation*.
    #[test]
    fn engines_agree_with_stratified_negation(
        rules in program_strategy(true),
        facts in facts_strategy(),
    ) {
        let (rb, db, mut syms) = build(&rules, &facts);
        // Levels keep direct negation downward, but upward positive edges
        // can still close a cycle through negation; both engines must
        // then reject consistently, and we skip the case.
        let bu = BottomUpEngine::new(&rb, &db);
        let td = TopDownEngine::new(&rb, &db);
        prop_assert_eq!(bu.is_err(), td.is_err(), "engines disagree on stratifiability");
        let (Ok(bu), Ok(td)) = (bu, td) else { return Ok(()) };
        let mut bu = bu.with_limits(small_limits());
        let mut td = td.with_limits(small_limits());
        let mut pe = ProveEngine::new(&rb, &db).map(|e| e.with_limits(small_limits())).ok();
        for q in ground_queries(&mut syms) {
            let (Ok(a), Ok(b)) = (bu.holds(&q), td.holds(&q)) else { return Ok(()) };
            prop_assert_eq!(a, b, "bottom-up vs top-down on {:?}\n{}", q, render_program(&rules));
            if let Some(pe) = pe.as_mut() {
                let Ok(c) = pe.holds(&q) else { return Ok(()) };
                prop_assert_eq!(a, c, "vs prove on {:?}\n{}", q, render_program(&rules));
            }
        }
    }

    /// Monotonicity: without negation, growing the database never loses
    /// derivations (the paper's §3.1 motivation for adding NAF).
    #[test]
    fn negation_free_inference_is_monotone(
        rules in program_strategy(false),
        facts in facts_strategy(),
        extra in facts_strategy(),
    ) {
        let (rb, db, mut syms) = build(&rules, &facts);
        let mut bigger = db.clone();
        for (p, args) in &extra {
            let pred = syms.intern(&format!("q{p}"));
            let consts: Vec<_> = args.iter().map(|&a| syms.intern(&format!("c{}", a - 100))).collect();
            bigger.insert(GroundAtom::new(pred, consts));
        }
        let mut small = TopDownEngine::new(&rb, &db).unwrap().with_limits(small_limits());
        let mut big = TopDownEngine::new(&rb, &bigger).unwrap().with_limits(small_limits());
        for q in ground_queries(&mut syms) {
            let (Ok(a), Ok(b)) = (small.holds(&q), big.holds(&q)) else { return Ok(()) };
            prop_assert!(!a || b, "derivation lost after growing DB: {:?}\n{}", q, render_program(&rules));
        }
    }

    /// Assuming `f` in and hypothetically deleting it again is the
    /// identity: for every ground query `g` and every engine,
    /// `g[del: f]` over `DB ∪ {f}` answers exactly like `g` over `DB`
    /// (with `f` absent from `DB`). Constants are anchored in a spare
    /// EDB predicate so both sides ground negation over the same domain.
    #[test]
    fn assume_then_del_is_identity_on_all_engines(
        rules in program_strategy(true),
        facts in facts_strategy(),
        f in (0..NUM_PREDS).prop_flat_map(|p| {
            proptest::collection::vec(100u8..(100 + NUM_CONSTS as u8), arity(p))
                .prop_map(move |a| (p, a))
        }),
    ) {
        let (rb, mut db, mut syms) = build(&rules, &facts);
        let anch = syms.intern("anch");
        for c in 0..NUM_CONSTS {
            let cc = syms.intern(&format!("c{c}"));
            db.insert(GroundAtom::new(anch, vec![cc]));
        }
        let fact = {
            let pred = syms.intern(&format!("q{}", f.0));
            let args: Vec<_> = f.1.iter().map(|&a| syms.intern(&format!("c{}", a - 100))).collect();
            GroundAtom::new(pred, args)
        };
        db.remove(&fact); // the "original" database never holds f
        let mut db_plus = db.clone();
        db_plus.insert(fact.clone()); // f assumed in

        let Ok(bu) = BottomUpEngine::new(&rb, &db) else { return Ok(()) };
        let mut bu = bu.with_limits(small_limits());
        let mut bu_plus = BottomUpEngine::new(&rb, &db_plus).unwrap().with_limits(small_limits());
        let mut td = TopDownEngine::new(&rb, &db).unwrap().with_limits(small_limits());
        let mut td_plus = TopDownEngine::new(&rb, &db_plus).unwrap().with_limits(small_limits());
        let mut pe = ProveEngine::new(&rb, &db).map(|e| e.with_limits(small_limits())).ok();
        let mut pe_plus = ProveEngine::new(&rb, &db_plus).map(|e| e.with_limits(small_limits())).ok();

        let fact_txt = render_atom(f.0, &f.1);
        for p in 0..NUM_PREDS {
            let combos: Vec<Vec<usize>> = if arity(p) == 1 {
                (0..NUM_CONSTS).map(|c| vec![c]).collect()
            } else {
                (0..NUM_CONSTS)
                    .flat_map(|a| (0..NUM_CONSTS).map(move |b| vec![a, b]))
                    .collect()
            };
            for combo in combos {
                let rendered: Vec<String> = combo.iter().map(|c| format!("c{c}")).collect();
                let base = format!("q{p}({})", rendered.join(", "));
                let plain = parse_query(&format!("?- {base}."), &mut syms).unwrap();
                let del = parse_query(&format!("?- {base}[del: {fact_txt}]."), &mut syms).unwrap();
                let (Ok(a), Ok(b)) = (bu.holds(&plain), bu_plus.holds(&del)) else { return Ok(()) };
                prop_assert_eq!(
                    a, b,
                    "bottom-up: {} vs [del: {}]\n{}",
                    base, fact_txt, render_program(&rules)
                );
                let (Ok(a), Ok(b)) = (td.holds(&plain), td_plus.holds(&del)) else { return Ok(()) };
                prop_assert_eq!(
                    a, b,
                    "top-down: {} vs [del: {}]\n{}",
                    base, fact_txt, render_program(&rules)
                );
                if let (Some(pe), Some(pe_plus)) = (pe.as_mut(), pe_plus.as_mut()) {
                    let (Ok(a), Ok(b)) = (pe.holds(&plain), pe_plus.holds(&del)) else { return Ok(()) };
                    prop_assert_eq!(
                        a, b,
                        "prove: {} vs [del: {}]\n{}",
                        base, fact_txt, render_program(&rules)
                    );
                }
            }
        }
    }

    /// parse ∘ pretty = identity on generated rulebases.
    #[test]
    fn pretty_parse_roundtrip(rules in program_strategy(true)) {
        let src = render_program(&rules);
        let mut syms = SymbolTable::new();
        let rb = parse_program(&src, &mut syms).unwrap();
        let printed = hdl_core::pretty::rulebase(&rb, &syms);
        let mut syms2 = SymbolTable::new();
        let rb2 = parse_program(&printed, &mut syms2).unwrap();
        let printed2 = hdl_core::pretty::rulebase(&rb2, &syms2);
        prop_assert_eq!(printed, printed2);
        prop_assert_eq!(rb.len(), rb2.len());
    }
}

// ---------------------------------------------------------------------
// Fresh constants in query-level overlays: Definition 3 evaluates the
// goal in `(DB ∖ C̄) ∪ B̄`, so constants introduced by a query's `add:`
// atoms join the domain rule groundings range over — even when nothing
// in the program or database mentions them. The generated corpus above
// never produces such queries (its hypothetical premises only reuse
// program constants), which is exactly how the ROADMAP domain bug
// survived 482 cases; these strategies produce them deliberately.
// ---------------------------------------------------------------------

mod fresh_constant_overlays {
    use super::*;
    use hdl_core::engine::EngineStats;
    use hdl_core::parser::parse_query;

    /// `c…` are program constants, `z…` are fresh to the whole world.
    fn render_const(a: u8) -> String {
        if a >= 200 {
            format!("z{}", a - 200)
        } else {
            format!("c{}", a - 100)
        }
    }

    /// Ground argument lists drawn from known and fresh constants.
    fn ground_args(n: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(prop_oneof![100u8..(100 + NUM_CONSTS as u8), 200u8..202], n)
    }

    #[derive(Clone, Debug)]
    struct HypQuery {
        goal: (usize, Vec<u8>),
        add: (usize, Vec<u8>),
        del: Option<(usize, Vec<u8>)>,
    }

    fn hyp_query_strategy() -> impl Strategy<Value = HypQuery> {
        (
            0..NUM_PREDS,
            0..NUM_PREDS,
            prop_oneof![Just(None), (0..NUM_PREDS).prop_map(Some)],
        )
            .prop_flat_map(|(g, ad, dl)| {
                let del = match dl {
                    Some(p) => ground_args(arity(p))
                        .prop_map(move |a| Some((p, a)))
                        .boxed(),
                    None => Just(None).boxed(),
                };
                (ground_args(arity(g)), ground_args(arity(ad)), del).prop_map(
                    move |(ga, aa, del)| HypQuery {
                        goal: (g, ga),
                        add: (ad, aa),
                        del,
                    },
                )
            })
    }

    /// A ground atom over program (`c…`) and fresh (`z…`) constants.
    fn render_ground(p: usize, args: &[u8]) -> String {
        let rendered: Vec<String> = args.iter().map(|&a| render_const(a)).collect();
        format!("q{p}({})", rendered.join(", "))
    }

    fn render_query(q: &HypQuery) -> String {
        match &q.del {
            Some((dp, da)) => format!(
                "?- {}[add: {}, del: {}].",
                render_ground(q.goal.0, &q.goal.1),
                render_ground(q.add.0, &q.add.1),
                render_ground(*dp, da)
            ),
            None => format!(
                "?- {}[add: {}].",
                render_ground(q.goal.0, &q.goal.1),
                render_ground(q.add.0, &q.add.1)
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Top-down ≡ bottom-up ≡ PROVE on hypothetical queries whose
        /// `add:`/`del:` atoms introduce constants the program has never
        /// seen. Several queries run against the *same* engine instances,
        /// so memoized state invalidation on domain growth is exercised
        /// too.
        #[test]
        fn engines_agree_when_queries_introduce_fresh_constants(
            rules in program_strategy(true),
            facts in facts_strategy(),
            queries in proptest::collection::vec(hyp_query_strategy(), 1..=6),
        ) {
            let (rb, db, mut syms) = build(&rules, &facts);
            let bu = BottomUpEngine::new(&rb, &db);
            let td = TopDownEngine::new(&rb, &db);
            prop_assert_eq!(bu.is_err(), td.is_err(), "engines disagree on stratifiability");
            let (Ok(bu), Ok(td)) = (bu, td) else { return Ok(()) };
            let mut bu = bu.with_limits(small_limits());
            let mut td = td.with_limits(small_limits());
            let mut pe = ProveEngine::new(&rb, &db).map(|e| e.with_limits(small_limits())).ok();
            for sketch in &queries {
                let text = render_query(sketch);
                let q = parse_query(&text, &mut syms).expect("query parses");
                let (Ok(a), Ok(b)) = (bu.holds(&q), td.holds(&q)) else { return Ok(()) };
                prop_assert_eq!(
                    a, b,
                    "bottom-up vs top-down on {}\n{}",
                    text, render_program(&rules)
                );
                if let Some(pe) = pe.as_mut() {
                    let Ok(c) = pe.holds(&q) else { return Ok(()) };
                    prop_assert_eq!(
                        a, c,
                        "bottom-up vs prove on {}\n{}",
                        text, render_program(&rules)
                    );
                }
            }
        }
    }

    /// The ROADMAP repro, pinned: `?- tc(a, c)[add: edge(b, c)].` must
    /// answer true on every engine — `c` is fresh to the program, and
    /// before the domain fix the top-down and PROVE engines refused to
    /// instantiate the recursive rule at it (answering false while
    /// bottom-up said true).
    #[test]
    fn fresh_add_constant_repro_answers_true_on_all_engines() {
        let src = "edge(a, b).\n\
                   tc(X, Y) :- edge(X, Y).\n\
                   tc(X, Z) :- edge(X, Y), tc(Y, Z).\n";
        let mut syms = SymbolTable::new();
        let program = parse_program(src, &mut syms).unwrap();
        let (rb, facts) = hdl_core::parser::split_facts(program);
        let db: Database = facts.into_iter().collect();
        let q = parse_query("?- tc(a, c)[add: edge(b, c)].", &mut syms).unwrap();

        let mut td = TopDownEngine::new(&rb, &db).unwrap();
        assert!(td.holds(&q).unwrap(), "top-down");
        let mut bu = BottomUpEngine::new(&rb, &db).unwrap();
        assert!(bu.holds(&q).unwrap(), "bottom-up");
        let mut pe = ProveEngine::new(&rb, &db).unwrap();
        assert!(pe.holds(&q).unwrap(), "prove");

        // The fresh constant also reaches negation-over-domain: with
        // r(z) assumed in, `p(z) :- anch-free ~q(z)` style goals must
        // agree too. (q is underivable, so p(z) holds exactly when z is
        // in the evaluation domain of the overlay world.)
        let src2 = "p(X) :- r(X), ~q(X).\nq(sentinel).\n";
        let mut syms2 = SymbolTable::new();
        let program2 = parse_program(src2, &mut syms2).unwrap();
        let (rb2, facts2) = hdl_core::parser::split_facts(program2);
        let db2: Database = facts2.into_iter().collect();
        let q2 = parse_query("?- p(zzz)[add: r(zzz)].", &mut syms2).unwrap();
        let mut td2 = TopDownEngine::new(&rb2, &db2).unwrap();
        let mut bu2 = BottomUpEngine::new(&rb2, &db2).unwrap();
        let mut pe2 = ProveEngine::new(&rb2, &db2).unwrap();
        let (a, b, c) = (
            td2.holds(&q2).unwrap(),
            bu2.holds(&q2).unwrap(),
            pe2.holds(&q2).unwrap(),
        );
        assert!(a && b && c, "td={a} bu={b} prove={c}");
    }

    /// The two engines built on the tabled search, as
    /// [`kept_matches_fresh`] drives them.
    trait Tabled: Sized {
        fn ask(&mut self, q: &Premise) -> hdl_base::Result<bool>;
        fn counters(&self) -> &EngineStats;
        fn limited(self, limits: Limits) -> Self;
    }

    impl Tabled for TopDownEngine<'_> {
        fn ask(&mut self, q: &Premise) -> hdl_base::Result<bool> {
            self.holds(q)
        }
        fn counters(&self) -> &EngineStats {
            self.stats()
        }
        fn limited(self, limits: Limits) -> Self {
            self.with_limits(limits)
        }
    }

    impl Tabled for ProveEngine<'_> {
        fn ask(&mut self, q: &Premise) -> hdl_base::Result<bool> {
            self.holds(q)
        }
        fn counters(&self) -> &EngineStats {
            self.stats()
        }
        fn limited(self, limits: Limits) -> Self {
            self.with_limits(limits)
        }
    }

    /// Asks `queries` of one kept engine and of a fresh engine per
    /// query. Query `grow` grows the domain for that query only, so past
    /// it the kept engine must answer as a fresh engine that never saw
    /// it. The limits count per query, so each query gets the limits of
    /// [`small_limits`] however far the kept engine's counters have
    /// grown — except query `trip.0`, which may expand only `trip.1`
    /// goals. Every query the kept engine answers must get the fresh
    /// engine's verdict, and up to
    /// `grow` its expansions summed over those queries must not exceed
    /// the fresh engines'. A case a fresh engine cannot finish is
    /// skipped.
    fn kept_matches_fresh<E: Tabled>(
        make: impl Fn() -> E,
        queries: &[(String, Premise)],
        grow: usize,
        trip: (usize, u64),
        program: &str,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut kept = make();
        let (mut kept_sum, mut fresh_sum) = (0, 0);
        for (i, (text, q)) in queries.iter().enumerate() {
            let mut fresh = make();
            let Ok(want) = fresh.ask(q) else {
                return Ok(());
            };
            let expanded = kept.counters().goal_expansions;
            let cap = if i == trip.0 {
                trip.1
            } else {
                small_limits().max_expansions
            };
            kept = kept.limited(Limits {
                max_expansions: cap,
                ..small_limits()
            });
            match kept.ask(q) {
                Ok(got) => {
                    prop_assert_eq!(got, want, "kept vs fresh engine on {}\n{}", text, program);
                    if i <= grow {
                        kept_sum += kept.counters().goal_expansions - expanded;
                        fresh_sum += fresh.counters().goal_expansions;
                    }
                }
                Err(hdl_base::Error::LimitExceeded { .. }) if i == trip.0 => {}
                Err(e) => prop_assert!(false, "kept engine failed on {}: {}\n{}", text, e, program),
            }
        }
        prop_assert!(
            kept_sum <= fresh_sum,
            "kept engine expanded {} goals, fresh engines {}\n{}",
            kept_sum,
            fresh_sum,
            program
        );
        Ok(())
    }

    /// Pinned: a verdict memoized under one domain must not survive a
    /// change of it. `p` holds once the domain has a constant without
    /// `q0`, and only the second query's `add:` brings one in, for that
    /// query: `p` holds there and nowhere else. Random programs seldom
    /// build this shape.
    #[test]
    fn kept_engines_drop_verdicts_of_a_smaller_domain() {
        let src = "q0(c0).\nr(X) :- ~q0(X).\np :- r(X).\n";
        let mut syms = SymbolTable::new();
        let program = parse_program(src, &mut syms).unwrap();
        let (rb, facts) = hdl_core::parser::split_facts(program);
        let db: Database = facts.into_iter().collect();
        let answers = [false, true, false];
        for (t, want) in ["?- p.", "?- p[add: t(z0)].", "?- p."].iter().zip(answers) {
            let q = parse_query(t, &mut syms).unwrap();
            assert_eq!(
                TopDownEngine::new(&rb, &db).unwrap().holds(&q).unwrap(),
                want,
                "{t}"
            );
        }
        let queries: Vec<(String, Premise)> = ["?- p.", "?- p[add: t(z0)].", "?- p."]
            .into_iter()
            .map(|t| (t.to_owned(), parse_query(t, &mut syms).unwrap()))
            .collect();
        let no_trip = (usize::MAX, 0);
        let make = || TopDownEngine::new(&rb, &db).unwrap();
        kept_matches_fresh(make, &queries, 1, no_trip, src).unwrap();
        let make = || ProveEngine::new(&rb, &db).unwrap();
        kept_matches_fresh(make, &queries, 1, no_trip, src).unwrap();
    }

    /// A ground atom over the program's own constants.
    fn known_atom() -> impl Strategy<Value = String> {
        (0..NUM_PREDS).prop_flat_map(|p| {
            proptest::collection::vec(100u8..(100 + NUM_CONSTS as u8), arity(p))
                .prop_map(move |a| render_atom(p, &a))
        })
    }

    /// A query over the program's own constants: a ground atom, or one
    /// under an `add:` and maybe a `del:`.
    fn known_query() -> impl Strategy<Value = String> {
        prop_oneof![
            known_atom().prop_map(|g| format!("?- {g}.")),
            (known_atom(), known_atom()).prop_map(|(g, a)| format!("?- {g}[add: {a}].")),
            (known_atom(), known_atom(), known_atom())
                .prop_map(|(g, a, d)| format!("?- {g}[add: {a}, del: {d}].")),
        ]
    }

    /// A hypothetical query whose `add:` atom brings in a fresh
    /// constant, so it grows the domain for that query and the engines
    /// drop their tables before and after it.
    fn fresh_query() -> impl Strategy<Value = String> {
        (0..NUM_PREDS, 0..NUM_PREDS).prop_flat_map(|(g, ad)| {
            (
                ground_args(arity(g)),
                proptest::collection::vec(200u8..202, arity(ad)),
            )
                .prop_map(move |(ga, aa)| {
                    format!(
                        "?- {}[add: {}].",
                        render_ground(g, &ga),
                        render_ground(ad, &aa)
                    )
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One kept `TopDownEngine` and one kept `ProveEngine` answer a
        /// query sequence exactly as a fresh engine per query does, with
        /// no more goal expansions: through a query that trips the
        /// expansion limit mid-search and is then asked again (unwinding
        /// must leave no stale verdict in the goal tables), a query
        /// whose `add:` grows the domain for that query only, and the
        /// first queries asked again afterwards (verdicts memoized under
        /// either domain must not answer under the other).
        #[test]
        fn kept_engines_answer_like_fresh_engines(
            rules in program_strategy(true),
            facts in facts_strategy(),
            known in proptest::collection::vec(known_query(), 1..=6),
            last in fresh_query(),
            trip_at in 0usize..6,
            trip_after in 0u64..8,
        ) {
            let (rb, mut db, mut syms) = build(&rules, &facts);
            // Every program constant in the domain, so only `last` grows it.
            let known_pred = syms.intern("known");
            for c in 0..NUM_CONSTS {
                db.insert(GroundAtom::new(known_pred, vec![syms.intern(&format!("c{c}"))]));
            }
            let program = render_program(&rules);
            // The tripped query is asked again: a stale verdict left by
            // its unwinding would show there first.
            let mut known = known;
            if trip_at < known.len() {
                known.insert(trip_at + 1, known[trip_at].clone());
            }
            let grow = known.len();
            let queries: Vec<(String, Premise)> = known
                .clone()
                .into_iter()
                .chain([last])
                .chain(known)
                .map(|t| {
                    let q = parse_query(&t, &mut syms).expect("query parses");
                    (t, q)
                })
                .collect();
            let trip = (trip_at, trip_after);
            if TopDownEngine::new(&rb, &db).is_ok() {
                let make = || TopDownEngine::new(&rb, &db).unwrap().with_limits(small_limits());
                kept_matches_fresh(make, &queries, grow, trip, &program)?;
            }
            if ProveEngine::new(&rb, &db).is_ok() {
                let make = || ProveEngine::new(&rb, &db).unwrap().with_limits(small_limits());
                kept_matches_fresh(make, &queries, grow, trip, &program)?;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Independent oracle: hdl-datalog's naive evaluator ≡ core's kernel.
// ---------------------------------------------------------------------

/// `src` with every hypothetical premise replaced by its goal atom (an
/// arbitrary but deterministic datalog-ification), as a core rulebase
/// and as `hdl-datalog` rules.
fn hypothesis_free(src: &str, syms: &mut SymbolTable) -> (Rulebase, Vec<hdl_datalog::Rule>) {
    let rb = parse_program(src, syms).unwrap();
    let projected: Rulebase = rb
        .iter()
        .map(|r| {
            let premises = r
                .premises
                .iter()
                .map(|p| match p {
                    Premise::Hyp { goal, .. } => Premise::Atom(goal.clone()),
                    p => p.clone(),
                })
                .collect();
            HypRule::new(r.head.clone(), premises)
        })
        .collect();
    let dl_rules = projected
        .iter()
        .map(|r| {
            let body = r
                .premises
                .iter()
                .map(|p| match p {
                    Premise::Atom(a) => hdl_datalog::Literal::Pos(a.clone()),
                    Premise::Neg(a) => hdl_datalog::Literal::Neg(a.clone()),
                    Premise::Hyp { .. } => unreachable!("projected away"),
                })
                .collect();
            hdl_datalog::Rule::new(r.head.clone(), body)
        })
        .collect();
    (projected, dl_rules)
}

/// The hypothesis-free projection of `src` over `facts`, with the model
/// `hdl_datalog::naive` derives for it: `(rulebase, database, model)`.
/// `None` for the programs the oracle reads differently.
fn oracle_case(src: &str, facts: &[(usize, Vec<u8>)]) -> Option<(Rulebase, Database, Database)> {
    let mut syms = SymbolTable::new();
    let (projected, dl_rules) = hypothesis_free(src, &mut syms);
    // The hyp→pos rewrite can create new negative cycles; skip those.
    hdl_datalog::stratify(&dl_rules).ok()?;
    let mut db = Database::new();
    for (p, args) in facts {
        let pred = syms.intern(&format!("q{p}"));
        let consts: Vec<_> = args
            .iter()
            .map(|&a| syms.intern(&format!("c{}", a - 100)))
            .collect();
        db.insert(GroundAtom::new(pred, consts));
    }
    // A variable occurring only in a negated premise reads as ¬∃ in
    // core (the paper's `~select(Y)`) but as ∃¬ in hdl-datalog, which
    // grounds it over the domain first; skip programs that have one.
    let plans = hdl_core::engine::Context::new(&projected, &db)
        .unwrap()
        .plans;
    if plans
        .iter()
        .any(|p| p.inner_neg_vars.iter().any(|v| !v.is_empty()))
    {
        return None;
    }
    let oracle = hdl_datalog::naive::evaluate(&dl_rules, &db).unwrap();
    Some((projected, db, oracle))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On hypothesis-free programs, `hdl_datalog::naive` — written
    /// independently of `hdl-core` — derives exactly the model of
    /// `BottomUpEngine`'s semi-naive kernel.
    #[test]
    fn naive_oracle_equals_bottom_up_kernel(
        rules in program_strategy(true),
        facts in facts_strategy(),
    ) {
        let src = render_program(&rules);
        let Some((projected, db, oracle)) = oracle_case(&src, &facts) else {
            return Ok(());
        };
        let mut eng = BottomUpEngine::new(&projected, &db)
            .unwrap()
            .with_limits(small_limits());
        let Ok(model) = eng.model() else {
            return Ok(()); // resource-limited case: skip
        };
        prop_assert_eq!(&oracle, &model, "{}", src);
    }

    /// On hypothesis-free programs, core's stratum solver and
    /// `hdl_datalog::stratify` agree: the same least global strata, and
    /// a refusal exactly when the oracle refuses.
    #[test]
    fn stratum_solver_equals_the_oracle(rules in program_strategy(true)) {
        let src = render_program(&rules);
        let mut syms = SymbolTable::new();
        let (projected, dl_rules) = hypothesis_free(&src, &mut syms);
        let ra = RecursionAnalysis::new(&projected);
        match (global_strata(&projected, &ra, None), hdl_datalog::stratify(&dl_rules)) {
            (Ok(ours), Ok(oracle)) => {
                prop_assert_eq!(&ours.stratum_of, &oracle.stratum_of, "{}", src);
                prop_assert_eq!(ours.num_strata, oracle.num_strata, "{}", src);
            }
            (Err(_), Err(_)) => {}
            (ours, oracle) => prop_assert!(
                false,
                "solver {:?} but oracle {:?}\n{}",
                ours.map(|s| s.num_strata),
                oracle.map(|s| s.num_strata),
                src
            ),
        }
    }
}

// ---------------------------------------------------------------------
// The kernel's premise walk: written order changes no model or answer.
// ---------------------------------------------------------------------

mod premise_order {
    use super::*;
    use hdl_core::engine::MagicEngine;

    /// `rules` with each rule's premises sorted by their keys: premise
    /// `j` of rule `i` gets `keys[3i + j]` (a rule has at most three).
    fn permuted(rules: &[RuleSketch], keys: &[u32]) -> Vec<RuleSketch> {
        rules
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut body: Vec<_> = r.body.iter().enumerate().collect();
                body.sort_by_key(|&(j, _)| keys[3 * i + j]);
                RuleSketch {
                    head: r.head.clone(),
                    body: body.into_iter().map(|(_, p)| p.clone()).collect(),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fixpoint kernel walks premises in cost order, which the
        /// written order only breaks ties of: permuting each rule's
        /// premises must leave the bottom-up model and the magic
        /// engine's answers unchanged, and both must match the top-down
        /// engine, which walks in written order. `NaiveEngine` shares
        /// the kernel's walk, so the oracles are the top-down engine
        /// and, on the hypothesis-free projection, `hdl_datalog::naive`.
        #[test]
        fn permuted_premises_change_no_model_or_answer(
            rules in program_strategy(true),
            facts in facts_strategy(),
            keys in proptest::collection::vec(0u32..1000, 12),
        ) {
            let shuffled = permuted(&rules, &keys);
            let (src, shuffled_src) = (render_program(&rules), render_program(&shuffled));
            let (rb, db, mut syms) = build(&rules, &facts);
            let Ok(td) = TopDownEngine::new(&rb, &db) else { return Ok(()) };
            let mut td = td.with_limits(small_limits());
            let rb2 = parse_program(&shuffled_src, &mut syms).expect("permuted program parses");
            let mut models = Vec::new();
            for rb in [&rb, &rb2] {
                let mut bu = BottomUpEngine::new(rb, &db).unwrap().with_limits(small_limits());
                let Ok(model) = bu.model() else { return Ok(()) };
                models.push(model);
            }
            prop_assert_eq!(&models[0], &models[1], "model of\n{}permuted to\n{}", src, shuffled_src);
            let mut magic = MagicEngine::new(&rb, &db).unwrap().with_limits(small_limits());
            let mut magic2 = MagicEngine::new(&rb2, &db).unwrap().with_limits(small_limits());
            for p in 0..NUM_PREDS {
                let free = if arity(p) == 1 { "X0" } else { "X0, X1" };
                let q = parse_query(&format!("?- q{p}({free})."), &mut syms).unwrap();
                let Premise::Atom(atom) = &q else { unreachable!() };
                let Ok(want) = td.answers(atom) else { return Ok(()) };
                let mut rows: Vec<Vec<_>> = models[0].tuples(atom.pred).map(<[_]>::to_vec).collect();
                rows.sort();
                prop_assert_eq!(&rows, &want, "bottom-up model vs top-down on q{}\n{}", p, src);
                for (eng, text) in [(&mut magic, &src), (&mut magic2, &shuffled_src)] {
                    let Ok(got) = eng.answers(atom) else { return Ok(()) };
                    prop_assert_eq!(&got, &want, "magic vs top-down on q{}\n{}", p, text);
                }
            }
            let Some((projected, db, oracle)) = oracle_case(&shuffled_src, &facts) else {
                return Ok(());
            };
            let mut bu = BottomUpEngine::new(&projected, &db).unwrap().with_limits(small_limits());
            let Ok(model) = bu.model() else { return Ok(()) };
            prop_assert_eq!(&oracle, &model, "hypothesis-free projection of\n{}", shuffled_src);
        }
    }

    /// A recursive premise past the 64th, which the walk keeps outside
    /// its premise bit sets: every round after the first seeds on it,
    /// and the walk must still take every premise between the set and
    /// the seed. One shape has more variables than the sets hold, one
    /// fewer. Both models must equal `hdl_datalog::naive`'s.
    #[test]
    fn a_recursive_premise_past_the_bit_sets_seeds_sound_rounds() {
        let chain: Vec<String> = (0..65).map(|i| format!("e(X{i}, X{})", i + 1)).collect();
        let guards = vec!["f(X)"; 64].join(", ");
        let shapes = [
            format!("t(X0) :- {}, t(X65).", chain.join(", ")),
            format!("t(X) :- {guards}, e(X, Y), t(Y)."),
        ];
        for shape in shapes {
            let src = format!("t(X) :- b(X).\n{shape}\n");
            let mut syms = SymbolTable::new();
            let (rb, dl_rules) = hypothesis_free(&src, &mut syms);
            let (e, f, b) = (syms.intern("e"), syms.intern("f"), syms.intern("b"));
            let mut db = Database::new();
            // A chain v0 → … → v140 ending in `b`, and `f` on every node
            // and on `w`, which has no edge.
            let nodes: Vec<_> = (0..=140).map(|i| syms.intern(&format!("v{i}"))).collect();
            for pair in nodes.windows(2) {
                db.insert(GroundAtom::new(e, pair.to_vec()));
            }
            for &v in nodes.iter().chain([&syms.intern("w")]) {
                db.insert(GroundAtom::new(f, vec![v]));
            }
            db.insert(GroundAtom::new(b, vec![nodes[140]]));
            let oracle = hdl_datalog::naive::evaluate(&dl_rules, &db).unwrap();
            let model = BottomUpEngine::new(&rb, &db).unwrap().model().unwrap();
            assert_eq!(oracle, model, "{src}");
        }
    }
}

// ---------------------------------------------------------------------
// Semi-naive bottom-up closure ≡ retained naive reference.
// ---------------------------------------------------------------------

mod seminaive_equivalence {
    use super::*;
    use hdl_core::engine::NaiveEngine;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The semi-naive, index-driven closure derives exactly the
        /// perfect model of the retained naive reference on random
        /// hypothetical programs (including `add:` branching).
        #[test]
        fn seminaive_model_matches_naive_reference(
            rules in program_strategy(true),
            facts in facts_strategy(),
        ) {
            let (rb, db, _) = build(&rules, &facts);
            let Ok(naive) = NaiveEngine::new(&rb, &db) else { return Ok(()) };
            let mut naive = naive.with_limits(small_limits());
            let mut semi = BottomUpEngine::new(&rb, &db)
                .unwrap()
                .with_limits(small_limits());
            let (m_naive, m_semi) = (naive.model(), semi.model());
            let (Ok(m_naive), Ok(m_semi)) = (m_naive, m_semi) else {
                return Ok(()); // resource-limited case: skip
            };
            prop_assert_eq!(m_naive, m_semi, "{}", render_program(&rules));
        }
    }
}

// ---------------------------------------------------------------------
// Incremental retraction ≡ full recomputation (DRed differential).
// ---------------------------------------------------------------------

mod incremental_maintenance {
    use super::*;
    use hdl_core::engine::NaiveEngine;
    use hdl_core::MaterializedModel;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A [`MaterializedModel`] maintained through a random
        /// retract/assert script equals the naive-reference model
        /// recomputed from scratch after every mutation, on random
        /// programs with stratified negation and `del:` premises —
        /// whichever maintenance path each step takes (fact-level DRed,
        /// conservative cone recompute, or domain rebuild).
        #[test]
        fn maintained_model_equals_naive_recompute(
            rules in program_strategy(true),
            facts in facts_strategy(),
            extra in facts_strategy(),
        ) {
            let (rb, mut db, mut syms) = build(&rules, &facts);
            // Pre-screen: skip unstratifiable programs and cases the
            // budget rejects (the maintenance API itself is unlimited).
            let Ok(screen) = NaiveEngine::new(&rb, &db) else { return Ok(()) };
            if screen.with_limits(small_limits()).model().is_err() {
                return Ok(());
            }
            let mut m = MaterializedModel::build(&rb, &db).unwrap();

            // Script: retract every original fact, then assert every
            // extra one — exercising both directions, including
            // retractions that shrink the constant domain and
            // assertions that grow it.
            let mut script: Vec<(usize, Vec<u8>, bool)> = Vec::new();
            for (p, args) in &facts {
                script.push((*p, args.clone(), false));
            }
            for (p, args) in &extra {
                script.push((*p, args.clone(), true));
            }
            for (p, args, insert) in script {
                let pred = syms.intern(&format!("q{p}"));
                let consts: Vec<_> = args
                    .iter()
                    .map(|&a| syms.intern(&format!("c{}", a - 100)))
                    .collect();
                let fact = GroundAtom::new(pred, consts);
                if insert {
                    if !db.insert(fact.clone()) {
                        continue;
                    }
                } else if !db.remove(&fact) {
                    continue;
                }
                // Budget-screen the post-mutation model before letting
                // the (unlimited) maintenance path at it.
                let Ok(expected) = NaiveEngine::new(&rb, &db)
                    .unwrap()
                    .with_limits(small_limits())
                    .model()
                else {
                    return Ok(());
                };
                if insert {
                    m.assert_fact(&rb, &db, &fact).unwrap();
                } else {
                    m.retract_fact(&rb, &db, &fact).unwrap();
                }
                prop_assert_eq!(
                    m.model(),
                    &expected,
                    "after {} of {:?}\n{}",
                    if insert { "assert" } else { "retract" },
                    fact,
                    render_program(&rules)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random machines: §5.1 encoding ≡ direct simulation.
// ---------------------------------------------------------------------

mod machines {
    use super::*;
    use hdl_turing::{Action, Cascade, Machine, Move, State, Sym};

    #[derive(Clone, Debug)]
    pub struct MachineSketch {
        pub accepting: Vec<u8>,
        pub transitions: Vec<(u8, u8, u8, u8, u8)>, // (state, read, write, move, next)
    }

    const STATES: u8 = 3;
    const SYMBOLS: u8 = 2;

    pub fn machine_strategy() -> impl Strategy<Value = MachineSketch> {
        let accepting = proptest::collection::vec(0..STATES, 0..=1);
        let transitions = proptest::collection::vec(
            (0..STATES, 0..SYMBOLS, 0..SYMBOLS, 0..2u8, 0..STATES),
            1..=5,
        );
        (accepting, transitions).prop_map(|(accepting, transitions)| MachineSketch {
            accepting,
            transitions,
        })
    }

    pub fn realize(sk: &MachineSketch) -> Machine {
        let mut m = Machine::new("random", STATES, SYMBOLS);
        for &a in &sk.accepting {
            m.accepting.push(State(a));
        }
        for &(q, r, w, mv, n) in &sk.transitions {
            m.add_transition(
                State(q),
                Sym(r),
                Action {
                    write: Sym(w),
                    work_move: if mv == 0 { Move::Left } else { Move::Right },
                    oracle_write: None,
                    next: State(n),
                },
            );
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn encoding_matches_simulator_on_random_machines(
            sk in machine_strategy(),
            input in proptest::collection::vec(0u8..2, 0..=3),
        ) {
            let machine = realize(&sk);
            let cascade = Cascade::new(vec![machine]).unwrap();
            let input: Vec<Sym> = input.into_iter().map(Sym).collect();
            let bound = 5;
            let direct = cascade.accepts(&input, bound);
            let enc = hdl_encodings::tm::encode(&cascade, &input, bound).unwrap();
            let mut engine = TopDownEngine::new(&enc.rulebase, &enc.database)
                .unwrap()
                .with_limits(super::small_limits());
            let Ok(derived) = engine.holds(&enc.accept_query()) else { return Ok(()) };
            prop_assert_eq!(derived, direct, "machine {:?} input {:?}", sk, input);
        }
    }
}

// ---------------------------------------------------------------------
// Grounding (Definition 3 made literal) agrees with direct evaluation.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grounded_program_agrees_with_direct_evaluation(
        rules in program_strategy(true),
        facts in facts_strategy(),
    ) {
        use hdl_core::transform::{eliminate_inner_negation, ground_program};
        let (rb, db, mut syms) = build(&rules, &facts);
        let Ok(direct) = TopDownEngine::new(&rb, &db) else { return Ok(()) };
        let mut direct = direct.with_limits(small_limits());
        let normalized = eliminate_inner_negation(&rb, &mut syms);
        let Ok(grounded) = ground_program(&normalized, &db, 100_000) else {
            return Ok(());
        };
        let Ok(via_ground) = BottomUpEngine::new(&grounded, &db) else { return Ok(()) };
        let mut via_ground = via_ground.with_limits(small_limits());
        for q in ground_queries(&mut syms) {
            let (Ok(a), Ok(b)) = (direct.holds(&q), via_ground.holds(&q)) else {
                return Ok(());
            };
            prop_assert_eq!(a, b, "grounding disagreement on {:?}\n{}", q, render_program(&rules));
        }
    }
}

// ---------------------------------------------------------------------
// Overlay storage: a DbView over the parent+delta DAG answers exactly
// like a Database built by inserting the same facts directly.
// ---------------------------------------------------------------------

mod overlay_views {
    use super::*;
    use hdl_base::{Atom, Bindings, DbStore, Term, Var};

    fn realize(syms: &mut SymbolTable, facts: &[(usize, Vec<u8>)]) -> Vec<GroundAtom> {
        facts
            .iter()
            .map(|(p, args)| {
                let pred = syms.intern(&format!("q{p}"));
                let consts: Vec<_> = args
                    .iter()
                    .map(|&a| syms.intern(&format!("c{}", a - 100)))
                    .collect();
                GroundAtom::new(pred, consts)
            })
            .collect()
    }

    /// Enough extension batches that chains regularly cross
    /// [`hdl_base::FLATTEN_THRESHOLD`], exercising both representations.
    fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(usize, Vec<u8>)>>> {
        proptest::collection::vec(super::facts_strategy(), 1..=12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `DbView` membership and matching agree with a `Database` built
        /// by inserting the same facts directly, across extension chains.
        #[test]
        fn view_answers_match_materialized_database(
            base in super::facts_strategy(),
            batches in batches_strategy(),
        ) {
            let mut syms = SymbolTable::new();
            let mut store = DbStore::new();
            let mut reference = Database::new();
            for f in realize(&mut syms, &base) {
                reference.insert(f);
            }
            let mut db = store.intern_database(&reference);
            for batch in &batches {
                let ids: Vec<_> = realize(&mut syms, batch)
                    .into_iter()
                    .map(|f| {
                        reference.insert(f.clone());
                        store.intern_fact(f)
                    })
                    .collect();
                db = store.extend(db, &ids);
            }
            let view = store.view(db);
            prop_assert_eq!(view.len(), reference.len());
            for fact in reference.iter_facts() {
                prop_assert!(view.contains(&fact), "missing {:?}", fact);
            }
            // Matching agrees for fully-open and half-ground patterns over
            // every predicate (covers facts_of, for_each_match, and the
            // empty-relation case for predicates with no facts).
            for p in 0..super::NUM_PREDS {
                let pred = syms.intern(&format!("q{p}"));
                let ar = super::arity(p);
                let open: Vec<Term> = (0..ar as u32).map(|i| Term::Var(Var(i))).collect();
                let mut half = open.clone();
                half[0] = Term::Const(syms.intern("c0"));
                for pattern in [Atom::new(pred, open), Atom::new(pred, half)] {
                    let mut got = view.all_matches(&pattern, &mut Bindings::new(ar));
                    let mut want = reference.all_matches(&pattern, &mut Bindings::new(ar));
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want, "pattern over q{}", p);
                }
            }
        }

        /// Extending a database by facts it already holds is the identity
        /// on `DbId` — the degenerate-hypothesis invariant the engines'
        /// `(FactId, DbId)` memo keys rely on.
        #[test]
        fn extend_by_present_facts_returns_same_id(
            base in super::facts_strategy(),
            extra in super::facts_strategy(),
            picks in proptest::collection::vec(0usize..64, 1..=4),
        ) {
            let mut syms = SymbolTable::new();
            let mut store = DbStore::new();
            let mut reference = Database::new();
            for f in realize(&mut syms, &base) {
                reference.insert(f);
            }
            let mut db = store.intern_database(&reference);
            let ids: Vec<_> = realize(&mut syms, &extra)
                .into_iter()
                .map(|f| store.intern_fact(f))
                .collect();
            if !ids.is_empty() {
                db = store.extend(db, &ids);
            }
            // Re-adding any subset of what the view already holds must not
            // mint a new node.
            let present: Vec<_> = store.view(db).fact_ids().collect();
            if present.is_empty() {
                return Ok(());
            }
            let re_add: Vec<_> = picks.iter().map(|&i| present[i % present.len()]).collect();
            let nodes_before = store.len();
            prop_assert_eq!(store.extend(db, &re_add), db);
            prop_assert_eq!(store.len(), nodes_before);
        }
    }
}

// ---------------------------------------------------------------------
// Durability: checkpoint encode→decode is the identity on session
// state, and replaying a WAL reconstructs exactly the session that
// wrote it.
// ---------------------------------------------------------------------

mod persistence {
    use super::*;
    use hdl_core::session::Session;
    use hdl_core::OpText;
    use hdl_persist::{decode_checkpoint, encode_checkpoint, DurableSession, FsyncPolicy};
    use proptest::test_runner::TestCaseError;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Minimal scratch directory, removed on drop (no tempfile dep).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("hdl-props-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn render_fact(p: usize, args: &[u8]) -> String {
        super::render_atom(p, args)
    }

    /// Ground-fact-only batches (constants, no variables).
    fn ground_batch_strategy() -> impl Strategy<Value = Vec<(usize, Vec<u8>)>> {
        super::facts_strategy()
    }

    /// Ground facts rendered as `q0(c1)<sep>q1(c0, c2)<sep>…`.
    fn facts_text(sep: &'static str) -> impl Strategy<Value = String> {
        ground_batch_strategy().prop_map(move |batch| {
            let facts: Vec<String> = batch.iter().map(|(p, a)| render_fact(*p, a)).collect();
            facts.join(sep)
        })
    }

    /// One mutation line, `load|assume|retract TEXT` or `pop`. Texts
    /// the op refuses (an empty frame, a retract of several facts, a
    /// pop with no frame) are generated too: both sessions must refuse
    /// them alike.
    fn op_strategy() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => facts_text(". ").prop_map(|t| format!("load {t}.")),
            3 => facts_text(", ").prop_map(|t| format!("assume {t}")),
            2 => (0..NUM_PREDS).prop_flat_map(|p| {
                proptest::collection::vec(100u8..(100 + NUM_CONSTS as u8), arity(p))
                    .prop_map(move |a| format!("retract {}", render_fact(p, &a)))
            }),
            1 => facts_text(", ").prop_map(|t| format!("retract {t}")),
            2 => Just("pop".to_owned()),
        ]
    }

    /// The op text of a generated line.
    fn op_text(line: &str) -> OpText<'_> {
        match line.split_once(' ').unwrap_or((line, "")) {
            ("load", text) => OpText::Load(text),
            ("assume", text) => OpText::Assume(text),
            ("retract", text) => OpText::Retract(text),
            _ => OpText::Pop,
        }
    }

    /// Applies every line to both sessions through the text entry the
    /// shell and the tenant use; they must agree on each result.
    fn apply_both(a: &mut Session, b: &mut Session, lines: &[String]) -> Result<(), TestCaseError> {
        for line in lines {
            let text = op_text(line);
            prop_assert_eq!(a.apply_text(text), b.apply_text(text), "on `{}`", line);
        }
        Ok(())
    }

    /// Every ground query, rendered textually so each session resolves
    /// it in its own symbol space.
    fn query_texts() -> Vec<String> {
        let mut out = Vec::new();
        for p in 0..NUM_PREDS {
            let combos: Vec<Vec<usize>> = if arity(p) == 1 {
                (0..NUM_CONSTS).map(|c| vec![c]).collect()
            } else {
                (0..NUM_CONSTS)
                    .flat_map(|a| (0..NUM_CONSTS).map(move |b| vec![a, b]))
                    .collect()
            };
            for combo in combos {
                let rendered: Vec<String> = combo.iter().map(|c| format!("c{c}")).collect();
                out.push(format!("?- q{p}({}).", rendered.join(", ")));
            }
        }
        out
    }

    /// One fact of a drawn assumption frame.
    #[derive(Debug, Clone)]
    enum FrameFact {
        /// A fact over the program's predicates and constants.
        Drawn(usize, Vec<u8>),
        /// The fact at this index, modulo their count, among those the
        /// base and the earlier frames hold.
        Repeat(usize),
    }

    /// A frame of up to five facts, about half of them repeats.
    fn frame_strategy() -> impl Strategy<Value = Vec<FrameFact>> {
        proptest::collection::vec(
            prop_oneof![
                (0..NUM_PREDS).prop_flat_map(|p| {
                    proptest::collection::vec(100u8..(100 + NUM_CONSTS as u8), arity(p))
                        .prop_map(move |args| FrameFact::Drawn(p, args))
                }),
                (0usize..64).prop_map(FrameFact::Repeat),
            ],
            0..=5,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `decode_checkpoint ∘ encode_checkpoint` is the identity on
        /// (symbols, rulebase, base, frames): the base in iteration
        /// order and every frame exactly, with the facts it repeats from
        /// the base, earlier frames and itself.
        #[test]
        fn checkpoint_roundtrip_identity(
            rules in program_strategy(true),
            base in facts_strategy(),
            frames in proptest::collection::vec(frame_strategy(), 0..=6),
            epoch in 0u64..1000,
            watermark in 0u64..1000,
        ) {
            let (rb, db, mut syms) = build(&rules, &base);
            let mut held: Vec<GroundAtom> = db.iter_facts().collect();
            let mut frame_atoms: Vec<Vec<GroundAtom>> = Vec::new();
            for frame in &frames {
                let mut atoms = Vec::new();
                for fact in frame {
                    let atom = match fact {
                        FrameFact::Drawn(p, args) => {
                            let pred = syms.intern(&format!("q{p}"));
                            let consts: Vec<_> = args
                                .iter()
                                .map(|&a| syms.intern(&format!("c{}", a - 100)))
                                .collect();
                            GroundAtom::new(pred, consts)
                        }
                        FrameFact::Repeat(_) if held.is_empty() => continue,
                        FrameFact::Repeat(i) => held[i % held.len()].clone(),
                    };
                    held.push(atom.clone());
                    atoms.push(atom);
                }
                frame_atoms.push(atoms);
            }

            let bytes = encode_checkpoint(epoch, watermark, &syms, &rb, &db, &frame_atoms);
            let state = decode_checkpoint(&bytes).expect("roundtrip decodes");

            prop_assert_eq!(state.epoch, epoch);
            prop_assert_eq!(state.watermark, watermark);
            prop_assert_eq!(state.symbols.len(), syms.len());
            let printed = hdl_core::pretty::rulebase(&rb, &syms);
            let reprinted = hdl_core::pretty::rulebase(&state.rulebase, &state.symbols);
            prop_assert_eq!(printed, reprinted);
            let listed = |db: &Database| db.iter_facts().collect::<Vec<_>>();
            prop_assert_eq!(listed(&state.base), listed(&db));
            prop_assert_eq!(state.frames, frame_atoms);
        }

        /// A session recovered from its WAL answers every ground query
        /// exactly like a twin built by applying the same mutations
        /// directly, and carries the same assumption-frame structure.
        #[test]
        fn wal_replay_equals_direct_build(
            rules in program_strategy(false),
            ops in proptest::collection::vec(op_strategy(), 0..=8),
        ) {
            let dir = TempDir::new();
            let mut durable =
                DurableSession::open(&dir.0, FsyncPolicy::Never).unwrap();
            let mut direct = Session::new();

            let src = render_program(&rules);
            durable.load(&src).unwrap();
            direct.load(&src).unwrap();
            apply_both(&mut durable, &mut direct, &ops)?;

            drop(durable); // no checkpoint: recovery must replay the WAL
            let mut recovered =
                DurableSession::open(&dir.0, FsyncPolicy::Never).unwrap();
            prop_assert!(
                recovered.recovery_report().is_some_and(|r| r.restored_anything())
            );

            prop_assert_eq!(
                recovered.assumptions().len(),
                direct.assumptions().len()
            );
            let mut rec_frames: Vec<Vec<String>> = Vec::new();
            for frames in [recovered.assumptions(), direct.assumptions()] {
                rec_frames.push(frames.iter().map(|f| f.len().to_string()).collect());
            }
            prop_assert_eq!(&rec_frames[0], &rec_frames[1]);
            for q in query_texts() {
                let a = recovered.ask(&q).unwrap();
                let b = direct.ask(&q).unwrap();
                prop_assert_eq!(a, b, "divergence on {} after {:?}", q, ops);
            }
        }

        /// Checkpoint-then-recover is also the identity: after a
        /// checkpoint the WAL is empty, so this exercises the snapshot
        /// path rather than replay.
        #[test]
        fn checkpoint_recover_equals_direct_build(
            rules in program_strategy(false),
            ops in proptest::collection::vec(op_strategy(), 0..=6),
        ) {
            let dir = TempDir::new();
            let mut durable =
                DurableSession::open(&dir.0, FsyncPolicy::Never).unwrap();
            let mut direct = Session::new();
            let src = render_program(&rules);
            durable.load(&src).unwrap();
            direct.load(&src).unwrap();
            apply_both(&mut durable, &mut direct, &ops)?;
            durable.checkpoint().unwrap();
            drop(durable);

            let mut recovered =
                DurableSession::open(&dir.0, FsyncPolicy::Never).unwrap();
            let report = recovered.recovery_report().cloned().unwrap();
            prop_assert_eq!(report.records_replayed, 0, "WAL should be empty");
            for q in query_texts() {
                let a = recovered.ask(&q).unwrap();
                let b = direct.ask(&q).unwrap();
                prop_assert_eq!(a, b, "divergence on {} after {:?}", q, ops);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Linear-stratified-by-construction programs: all three engines,
// including PROVE, must agree (PROVE must also *accept* the program).
// ---------------------------------------------------------------------

mod linear_programs {
    use super::*;

    /// One stratum of the generated program: predicate `a_i` with a
    /// linear hypothetical self-recursion reading EDB guard `g_i`, a base
    /// rule negating the stratum below, and an EDB-driven base case.
    #[derive(Clone, Debug)]
    pub struct StratumSketch {
        /// Whether the hypothetical recursion rule is present.
        pub recursive: bool,
        /// Whether the base rule requires the guard fact.
        pub guarded_base: bool,
        /// Which guard facts are present in the EDB.
        pub guard_fact: bool,
        pub base_fact: bool,
    }

    fn stratum_strategy() -> impl Strategy<Value = StratumSketch> {
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
            |(recursive, guarded_base, guard_fact, base_fact)| StratumSketch {
                recursive,
                guarded_base,
                guard_fact,
                base_fact,
            },
        )
    }

    fn render(strata: &[StratumSketch]) -> String {
        let mut src = String::new();
        for (i, st) in strata.iter().enumerate() {
            let lvl = i + 1;
            if st.recursive {
                src.push_str(&format!("a{lvl} :- g{lvl}, a{lvl}[add: c{lvl}].\n"));
            }
            let base_guard = if st.guarded_base {
                format!("b{lvl}, ")
            } else {
                String::new()
            };
            if lvl == 1 {
                src.push_str(&format!("a1 :- {base_guard}seed.\n"));
            } else {
                src.push_str(&format!(
                    "a{lvl} :- {base_guard}~a{prev}.\n",
                    prev = lvl - 1
                ));
            }
            if st.guard_fact {
                src.push_str(&format!("g{lvl}.\n"));
            }
            if st.base_fact {
                src.push_str(&format!("b{lvl}.\n"));
            }
        }
        src.push_str("seed.\n");
        src
    }

    /// Reference semantics computed by hand: a1 = (b1 if guarded) ∧ seed;
    /// a_i = base_i ∧ ¬a_{i-1} (the recursive rule never derives anything
    /// new here because its premise is the same-stratum atom itself).
    fn expected(strata: &[StratumSketch]) -> Vec<bool> {
        let mut out = Vec::new();
        let mut below = false;
        for (i, st) in strata.iter().enumerate() {
            let base_ok = !st.guarded_base || st.base_fact;
            let v = if i == 0 { base_ok } else { base_ok && !below };
            out.push(v);
            below = v;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn all_three_engines_agree_on_layered_programs(
            strata in proptest::collection::vec(stratum_strategy(), 1..=4)
        ) {
            let src = render(&strata);
            let mut syms = SymbolTable::new();
            let program = parse_program(&src, &mut syms).unwrap();
            let (rb, facts) = hdl_core::parser::split_facts(program);
            let db: Database = facts.into_iter().collect();

            let mut bu = BottomUpEngine::new(&rb, &db).unwrap();
            let mut td = TopDownEngine::new(&rb, &db).unwrap();
            let mut pe = ProveEngine::new(&rb, &db)
                .expect("layered programs are linearly stratified");

            let want = expected(&strata);
            for (i, &w) in want.iter().enumerate() {
                let q = parse_query(&format!("?- a{}.", i + 1), &mut syms).unwrap();
                let b = bu.holds(&q).unwrap();
                let t = td.holds(&q).unwrap();
                let p = pe.holds(&q).unwrap();
                prop_assert_eq!(b, w, "bottom-up vs expected on a{}\n{}", i + 1, src);
                prop_assert_eq!(t, w, "top-down vs expected on a{}\n{}", i + 1, src);
                prop_assert_eq!(p, w, "prove vs expected on a{}\n{}", i + 1, src);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Demand-driven (magic-sets) engine ≡ naive reference.
// ---------------------------------------------------------------------

mod magic_equivalence {
    use super::*;
    use hdl_core::engine::{MagicEngine, NaiveEngine};

    /// `c…` are program constants, `z…` are fresh to the whole world
    /// (the PR-8 Definition-3 generator shape).
    fn render_const(a: u8) -> String {
        if a >= 200 {
            format!("z{}", a - 200)
        } else {
            format!("c{}", a - 100)
        }
    }

    fn ground_args(n: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(prop_oneof![100u8..(100 + NUM_CONSTS as u8), 200u8..202], n)
    }

    #[derive(Clone, Debug)]
    struct HypQuery {
        goal: (usize, Vec<u8>),
        add: (usize, Vec<u8>),
        del: Option<(usize, Vec<u8>)>,
    }

    fn hyp_query_strategy() -> impl Strategy<Value = HypQuery> {
        (
            0..NUM_PREDS,
            0..NUM_PREDS,
            prop_oneof![Just(None), (0..NUM_PREDS).prop_map(Some)],
        )
            .prop_flat_map(|(g, ad, dl)| {
                let del = match dl {
                    Some(p) => ground_args(arity(p))
                        .prop_map(move |a| Some((p, a)))
                        .boxed(),
                    None => Just(None).boxed(),
                };
                (ground_args(arity(g)), ground_args(arity(ad)), del).prop_map(
                    move |(ga, aa, del)| HypQuery {
                        goal: (g, ga),
                        add: (ad, aa),
                        del,
                    },
                )
            })
    }

    fn render_query(q: &HypQuery) -> String {
        let atom = |p: usize, args: &[u8]| {
            let rendered: Vec<String> = args.iter().map(|&a| render_const(a)).collect();
            format!("q{p}({})", rendered.join(", "))
        };
        match &q.del {
            Some((dp, da)) => format!(
                "?- {}[add: {}, del: {}].",
                atom(q.goal.0, &q.goal.1),
                atom(q.add.0, &q.add.1),
                atom(*dp, da)
            ),
            None => format!(
                "?- {}[add: {}].",
                atom(q.goal.0, &q.goal.1),
                atom(q.add.0, &q.add.1)
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The demand rewrite answers exactly like the naive reference
        /// on every ground query, over random programs with stratified
        /// negation and `del:`-carrying hypothetical premises.
        #[test]
        fn magic_matches_naive_on_ground_queries(
            rules in program_strategy(true),
            facts in facts_strategy(),
        ) {
            let (rb, db, mut syms) = build(&rules, &facts);
            let Ok(naive) = NaiveEngine::new(&rb, &db) else { return Ok(()) };
            let mut naive = naive.with_limits(small_limits());
            let mut magic = MagicEngine::new(&rb, &db)
                .unwrap()
                .with_limits(small_limits());
            for q in ground_queries(&mut syms) {
                let (Ok(a), Ok(b)) = (naive.holds(&q), magic.holds(&q)) else {
                    return Ok(()); // resource-limited case: skip
                };
                prop_assert_eq!(a, b, "naive vs magic on {:?}\n{}", q, render_program(&rules));
            }
        }

        /// Answer enumeration agrees row-for-row on free and half-bound
        /// patterns of every predicate.
        #[test]
        fn magic_matches_naive_on_answer_patterns(
            rules in program_strategy(true),
            facts in facts_strategy(),
        ) {
            let (rb, db, mut syms) = build(&rules, &facts);
            let Ok(naive) = NaiveEngine::new(&rb, &db) else { return Ok(()) };
            let mut naive = naive.with_limits(small_limits());
            let mut magic = MagicEngine::new(&rb, &db)
                .unwrap()
                .with_limits(small_limits());
            for p in 0..NUM_PREDS {
                let free = if arity(p) == 1 { "X0" } else { "X0, X1" };
                let half = if arity(p) == 1 { "c0".to_owned() } else { "c0, X0".to_owned() };
                for pat in [format!("q{p}({free})"), format!("q{p}({half})")] {
                    let q = parse_query(&format!("?- {pat}."), &mut syms).unwrap();
                    let hdl_core::ast::Premise::Atom(atom) = &q else { unreachable!() };
                    let (Ok(a), Ok(b)) = (naive.answers(atom), magic.answers(atom)) else {
                        return Ok(());
                    };
                    prop_assert_eq!(a, b, "naive vs magic rows on {}\n{}", pat, render_program(&rules));
                }
            }
        }

        /// Magic ≡ naive on hypothetical queries whose `add:`/`del:`
        /// atoms introduce constants the program has never seen, several
        /// queries against the same engine instances (domain growth and
        /// overlay-threaded demand seeds are both exercised).
        #[test]
        fn magic_matches_naive_on_fresh_constant_overlays(
            rules in program_strategy(true),
            facts in facts_strategy(),
            queries in proptest::collection::vec(hyp_query_strategy(), 1..=6),
        ) {
            let (rb, db, mut syms) = build(&rules, &facts);
            let Ok(naive) = NaiveEngine::new(&rb, &db) else { return Ok(()) };
            let mut naive = naive.with_limits(small_limits());
            let mut magic = MagicEngine::new(&rb, &db)
                .unwrap()
                .with_limits(small_limits());
            for hq in &queries {
                let q = parse_query(&render_query(hq), &mut syms).unwrap();
                let (Ok(a), Ok(b)) = (naive.holds(&q), magic.holds(&q)) else {
                    return Ok(());
                };
                prop_assert_eq!(
                    a, b,
                    "naive vs magic on {}\n{}",
                    render_query(hq),
                    render_program(&rules)
                );
            }
        }
    }

    /// Pinned regression: a stratum the adornment analysis cannot bound
    /// (`~picked(Y)` with inner-existential `Y`) must fall back to
    /// unrestricted evaluation — same answers, `unbound_fallbacks`
    /// recorded — never silently drop answers.
    #[test]
    fn unbound_stratum_falls_back_instead_of_dropping_answers() {
        let src = "
            item(c0). item(c1). item(c2).
            sel(c1).
            picked(X0) :- sel(X0).
            open(X0) :- item(X0), ~picked(X1).
        ";
        let mut syms = SymbolTable::new();
        let rb = parse_program(src, &mut syms).unwrap();
        let (rb, facts) = hdl_core::parser::split_facts(rb);
        let db: Database = facts.into_iter().collect();
        let mut naive = NaiveEngine::new(&rb, &db).unwrap();
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        let pat = {
            let q = parse_query("?- open(X0).", &mut syms).unwrap();
            let hdl_core::ast::Premise::Atom(atom) = q else {
                unreachable!()
            };
            atom
        };
        assert_eq!(
            magic.answers(&pat).unwrap(),
            naive.answers(&pat).unwrap(),
            "fallback must preserve the full answer set"
        );
        assert!(
            magic.stats().unbound_fallbacks > 0,
            "the unboundable stratum must be recorded as a fallback: {:?}",
            magic.stats()
        );
    }
}

/// The committed write path: a `Database` with tombstoned retraction
/// against a plain insertion-ordered model, and `SymbolTable` clones
/// against the prefix they were taken at.
mod write_path {
    use hdl_base::{Atom, Bindings, Database, MatchCounters, Symbol, SymbolTable, Term, Var};
    use proptest::prelude::*;

    /// One step against a database: `(kind, pred, args)`. Kinds 0–3
    /// insert, 4–6 remove, 7 `contains`, 8 a counted match and 9
    /// `tuples`. For a match, an arg below `CONSTS` is that constant and
    /// `CONSTS + i` is variable `i`.
    type Step = (u8, u8, Vec<u8>);

    const CONSTS: u8 = 4;

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        // Two binary predicates over four constants hold at most 16
        // tuples each, so a relation's tombstones outnumber its live
        // rows within its first 17 successful removes: 300 steps at
        // 3-in-10 removes cross the compaction threshold many times.
        let step = (
            0u8..10,
            0u8..2,
            proptest::collection::vec(0u8..CONSTS + 2, 2),
        );
        proptest::collection::vec(step, 100..=300)
    }

    fn sym(c: u8) -> Symbol {
        Symbol(u32::from(c))
    }

    fn pred(p: u8) -> Symbol {
        Symbol(100 + u32::from(p))
    }

    /// The model's answer to a counted match: the matches' bindings in
    /// insertion order, and the counters the indexed scan must report.
    /// A predicate never inserted has no relation to probe.
    fn model_match(
        rows: &[Vec<u8>],
        ever_inserted: bool,
        args: &[u8],
    ) -> (Vec<[Option<u8>; 2]>, MatchCounters) {
        let bound = args.iter().position(|&a| a < CONSTS);
        if !ever_inserted {
            return (Vec::new(), MatchCounters::default());
        }
        let candidates: Vec<&Vec<u8>> = rows
            .iter()
            .filter(|r| bound.is_none_or(|i| r[i] == args[i]))
            .collect();
        let counters = MatchCounters {
            probes: u64::from(bound.is_some()),
            hits: u64::from(bound.is_some() && !candidates.is_empty()),
            attempts: candidates.len() as u64,
        };
        let mut matches = Vec::new();
        for row in candidates {
            let mut vars = [None; 2];
            let fits = args.iter().zip(row).all(|(&a, &c)| {
                if a < CONSTS {
                    return a == c;
                }
                let slot = &mut vars[usize::from(a - CONSTS)];
                *slot.get_or_insert(c) == c
            });
            if fits {
                matches.push(vars);
            }
        }
        (matches, counters)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn database_agrees_with_an_ordered_model(steps in steps()) {
            let mut db = Database::new();
            // Per predicate, the live tuples in insertion order.
            let mut model: [Vec<Vec<u8>>; 2] = Default::default();
            let mut ever_inserted = [false; 2];
            for (kind, p, args) in &steps {
                let rows = &mut model[usize::from(*p)];
                let tuple: Vec<u8> = args.iter().map(|a| a % CONSTS).collect();
                let syms: Vec<Symbol> = tuple.iter().map(|&c| sym(c)).collect();
                let at = rows.iter().position(|r| *r == tuple);
                match kind {
                    0..=3 => {
                        prop_assert_eq!(db.insert_tuple(pred(*p), &syms), at.is_none());
                        if at.is_none() {
                            rows.push(tuple);
                        }
                        ever_inserted[usize::from(*p)] = true;
                    }
                    4..=6 => {
                        let fact = hdl_base::GroundAtom::new(pred(*p), syms);
                        prop_assert_eq!(db.remove(&fact), at.is_some());
                        if let Some(i) = at {
                            rows.remove(i);
                        }
                    }
                    7 => prop_assert_eq!(db.contains_tuple(pred(*p), &syms), at.is_some()),
                    8 => {
                        let terms = args
                            .iter()
                            .map(|&a| match a {
                                a if a < CONSTS => Term::Const(sym(a)),
                                a => Term::Var(Var(u32::from(a - CONSTS))),
                            })
                            .collect();
                        let pattern = Atom::new(pred(*p), terms);
                        let mut b = Bindings::new(2);
                        let mut counters = MatchCounters::default();
                        let mut seen = Vec::new();
                        db.for_each_match_counted(&pattern, &mut b, &mut counters, |bb| {
                            let var = |i| bb.get(Var(i)).map(|s: Symbol| s.0 as u8);
                            seen.push([var(0), var(1)]);
                            false
                        });
                        let (want, want_counters) =
                            model_match(rows, ever_inserted[usize::from(*p)], args);
                        prop_assert_eq!(seen, want);
                        prop_assert_eq!(counters, want_counters);
                    }
                    _ => {
                        let got: Vec<Vec<u8>> = db
                            .tuples(pred(*p))
                            .map(|t| t.iter().map(|s| s.0 as u8).collect())
                            .collect();
                        prop_assert_eq!(&got, rows);
                    }
                }
                prop_assert_eq!(db.count(pred(*p)), model[usize::from(*p)].len());
                prop_assert_eq!(db.len(), model[0].len() + model[1].len());
            }
            let mut live: Vec<Symbol> = db.predicates().collect();
            live.sort();
            let want: Vec<Symbol> = (0..2).filter(|&p| !model[usize::from(p)].is_empty()).map(pred).collect();
            prop_assert_eq!(live, want);
        }

        #[test]
        fn symbol_table_clones_keep_their_prefix(
            base in proptest::collection::vec(0u16..400, 0..300),
            more in proptest::collection::vec(0u16..400, 0..200),
            a_only in proptest::collection::vec(0u16..100, 1..100),
            b_only in proptest::collection::vec(0u16..100, 1..100),
        ) {
            let mut table = SymbolTable::new();
            for i in &base {
                table.intern(&format!("s{i}"));
            }
            let prefix: Vec<String> = table.iter().map(|(_, n)| n.to_owned()).collect();
            let snapshot = table.clone();
            for i in &more {
                table.intern(&format!("s{i}"));
            }
            // The snapshot resolves exactly its own prefix.
            prop_assert_eq!(snapshot.len(), prefix.len());
            for (id, name) in prefix.iter().enumerate() {
                prop_assert_eq!(snapshot.name(Symbol(id as u32)), name.as_str());
                prop_assert_eq!(snapshot.lookup(name), Some(Symbol(id as u32)));
                prop_assert_eq!(table.name(Symbol(id as u32)), name.as_str());
            }
            for i in &more {
                let name = format!("s{i}");
                let known = prefix.contains(&name);
                prop_assert_eq!(snapshot.lookup(&name).is_some(), known);
            }
            // Two clones of one table intern disjoint names privately.
            let (mut a, mut b) = (table.clone(), table.clone());
            let n = table.len();
            for i in &a_only {
                a.intern(&format!("a{i}"));
            }
            for i in &b_only {
                b.intern(&format!("b{i}"));
            }
            prop_assert_eq!(table.len(), n);
            for (s, name) in a.iter_from(n) {
                prop_assert!(name.starts_with('a'));
                prop_assert_eq!(b.lookup(name), None);
                prop_assert_eq!(a.lookup(name), Some(s));
                prop_assert_ne!(b.iter_from(n).find(|&(t, _)| t == s).map(|(_, m)| m), Some(name));
            }
            for (s, name) in b.iter_from(n) {
                prop_assert!(name.starts_with('b'));
                prop_assert_eq!(a.lookup(name), None);
                prop_assert_eq!(b.name(s), name);
            }
        }
    }
}
