//! E10: the plain-Datalog baseline vs the hypothetical engine.
//!
//! On queries both can express (transitive closure, same-generation) the
//! engines must return identical answers. On queries the paper proves
//! inexpressible in Datalog (parity, Hamiltonicity) we demonstrate the
//! hypothetical rulebase computing them — the expressiveness gap §2
//! references ("[3] shows a strong sense in which such rules cannot be
//! expressed in Datalog").

use hdl_base::{Atom, Database, GroundAtom, SymbolTable, Term, Var};
use hdl_datalog::{Literal, Rule};
use hypothetical_datalog::prelude::*;

fn chain_edb(syms: &mut SymbolTable, n: usize) -> Database {
    let e = syms.intern("e");
    let nodes: Vec<_> = (0..n).map(|i| syms.intern(&format!("v{i}"))).collect();
    let mut db = Database::new();
    for w in nodes.windows(2) {
        db.insert(GroundAtom::new(e, vec![w[0], w[1]]));
    }
    db
}

#[test]
fn transitive_closure_agrees_across_systems() {
    let mut syms = SymbolTable::new();
    // Datalog version.
    let tc = syms.intern("tc");
    let e = syms.intern("e");
    let v = |i: u32| Term::Var(Var(i));
    let dl_rules = vec![
        Rule::new(
            Atom::new(tc, vec![v(0), v(1)]),
            vec![Literal::Pos(Atom::new(e, vec![v(0), v(1)]))],
        ),
        Rule::new(
            Atom::new(tc, vec![v(0), v(2)]),
            vec![
                Literal::Pos(Atom::new(e, vec![v(0), v(1)])),
                Literal::Pos(Atom::new(tc, vec![v(1), v(2)])),
            ],
        ),
    ];
    let db = chain_edb(&mut syms, 7);
    let dl_answers = hdl_datalog::naive::query(&dl_rules, &db, tc).unwrap();

    // Hypothetical-engine version of the same program.
    let hyp_rules = parse_program(
        "tc(X, Y) :- e(X, Y).
         tc(X, Z) :- e(X, Y), tc(Y, Z).",
        &mut syms,
    )
    .unwrap();
    let mut bu = BottomUpEngine::new(&hyp_rules, &db).unwrap();
    let pattern = Atom::new(tc, vec![v(0), v(1)]);
    let hyp_answers = bu.answers(&pattern).unwrap();
    assert_eq!(dl_answers, hyp_answers);
    assert_eq!(hyp_answers.len(), 21, "C(7,2) ordered reachable pairs");

    let mut td = TopDownEngine::new(&hyp_rules, &db).unwrap();
    assert_eq!(td.answers(&pattern).unwrap(), dl_answers);
}

#[test]
fn same_generation_agrees_across_systems() {
    let mut syms = SymbolTable::new();
    // sg(X,Y) :- flat(X,Y).   sg(X,Y) :- up(X,A), sg(A,B), down(B,Y).
    let src = "
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).
    ";
    let hyp_rules = parse_program(src, &mut syms).unwrap();
    let (up, down, flat, sg) = (
        syms.lookup("up").unwrap(),
        syms.lookup("down").unwrap(),
        syms.lookup("flat").unwrap(),
        syms.lookup("sg").unwrap(),
    );
    let v = |i: u32| Term::Var(Var(i));
    let dl_rules = vec![
        Rule::new(
            Atom::new(sg, vec![v(0), v(1)]),
            vec![Literal::Pos(Atom::new(flat, vec![v(0), v(1)]))],
        ),
        Rule::new(
            Atom::new(sg, vec![v(0), v(1)]),
            vec![
                Literal::Pos(Atom::new(up, vec![v(0), v(2)])),
                Literal::Pos(Atom::new(sg, vec![v(2), v(3)])),
                Literal::Pos(Atom::new(down, vec![v(3), v(1)])),
            ],
        ),
    ];
    // A small tree: leaves l1..l4 up to parents p1, p2, flat link p1-p2.
    let mut db = Database::new();
    let c = |syms: &mut SymbolTable, s: &str| syms.intern(s);
    let (l1, l2, l3, l4, p1, p2) = (
        c(&mut syms, "l1"),
        c(&mut syms, "l2"),
        c(&mut syms, "l3"),
        c(&mut syms, "l4"),
        c(&mut syms, "p1"),
        c(&mut syms, "p2"),
    );
    for (a, b) in [(l1, p1), (l2, p1), (l3, p2), (l4, p2)] {
        db.insert(GroundAtom::new(up, vec![a, b]));
        db.insert(GroundAtom::new(down, vec![b, a]));
    }
    db.insert(GroundAtom::new(flat, vec![p1, p2]));

    let dl = hdl_datalog::naive::query(&dl_rules, &db, sg).unwrap();
    let mut bu = BottomUpEngine::new(&hyp_rules, &db).unwrap();
    let hyp = bu.answers(&Atom::new(sg, vec![v(0), v(1)])).unwrap();
    assert_eq!(dl, hyp);
    // l1/l2 are same-generation with l3/l4 through the flat link.
    assert!(hyp.contains(&vec![l1, l3]));
    assert!(!hyp.contains(&vec![l1, l2]), "siblings share no flat link");
}

#[test]
fn parity_is_beyond_the_baseline_but_not_the_hypothetical_engine() {
    // There is no Datalog program for parity (it is not expressible in
    // fixpoint logic without order); the hypothetical rulebase of
    // Example 6 computes it. We demonstrate the positive side and pin
    // the hypothetical rulebase's verdicts across sizes.
    for n in 0..6 {
        let mut src = String::from(
            "even :- select(X), odd[add: b(X)].
             odd :- select(X), even[add: b(X)].
             even :- ~select(X).
             select(X) :- a(X), ~b(X).\n",
        );
        for i in 0..n {
            src.push_str(&format!("a(t{i}).\n"));
        }
        let mut syms = SymbolTable::new();
        let program = parse_program(&src, &mut syms).unwrap();
        let (rules, facts) = split_facts(program);
        let db: Database = facts.into_iter().collect();
        let mut eng = TopDownEngine::new(&rules, &db).unwrap();
        let q = parse_query("?- even.", &mut syms).unwrap();
        assert_eq!(eng.holds(&q).unwrap(), n % 2 == 0);
    }
}

#[test]
fn negation_complement_queries_agree() {
    // Complement of transitive closure under stratified negation, both
    // systems.
    let mut syms = SymbolTable::new();
    let src = "
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- e(X, Y), tc(Y, Z).
        unreach(X, Y) :- node(X), node(Y), ~tc(X, Y).
    ";
    let hyp_rules = parse_program(src, &mut syms).unwrap();
    let (e, node, tc, unreach) = (
        syms.lookup("e").unwrap(),
        syms.lookup("node").unwrap(),
        syms.lookup("tc").unwrap(),
        syms.lookup("unreach").unwrap(),
    );
    let v = |i: u32| Term::Var(Var(i));
    let dl_rules = vec![
        Rule::new(
            Atom::new(tc, vec![v(0), v(1)]),
            vec![Literal::Pos(Atom::new(e, vec![v(0), v(1)]))],
        ),
        Rule::new(
            Atom::new(tc, vec![v(0), v(2)]),
            vec![
                Literal::Pos(Atom::new(e, vec![v(0), v(1)])),
                Literal::Pos(Atom::new(tc, vec![v(1), v(2)])),
            ],
        ),
        Rule::new(
            Atom::new(unreach, vec![v(0), v(1)]),
            vec![
                Literal::Pos(Atom::new(node, vec![v(0)])),
                Literal::Pos(Atom::new(node, vec![v(1)])),
                Literal::Neg(Atom::new(tc, vec![v(0), v(1)])),
            ],
        ),
    ];
    let mut db = chain_edb(&mut syms, 4);
    for i in 0..4 {
        let n = syms.intern(&format!("v{i}"));
        db.insert(GroundAtom::new(node, vec![n]));
    }
    let dl = hdl_datalog::naive::query(&dl_rules, &db, unreach).unwrap();
    let mut bu = BottomUpEngine::new(&hyp_rules, &db).unwrap();
    let hyp = bu.answers(&Atom::new(unreach, vec![v(0), v(1)])).unwrap();
    assert_eq!(dl, hyp);
    assert_eq!(hyp.len(), 16 - 6, "16 pairs minus 6 reachable");
}
