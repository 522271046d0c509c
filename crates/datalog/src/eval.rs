//! Rule-body matching for the naive evaluator.
//!
//! Bodies are evaluated left to right with backtracking over the indexed
//! database. Variables that remain unbound when a negated literal (or the
//! head) is reached are enumerated over the *active domain* — the set of
//! constants in the program and database — which implements the paper's
//! "ground substitution over `dom(R, DB)`" semantics (Definition 3) for
//! rules that are not range-restricted.

use crate::ast::{Literal, Rule};
use hdl_base::{Bindings, Database, GroundAtom, Symbol};

/// Collects the active domain of a rule set plus database.
pub fn active_domain(rules: &[Rule], db: &Database) -> Vec<Symbol> {
    let mut dom: Vec<Symbol> = db.constants().into_iter().collect();
    for r in rules {
        for t in r
            .head
            .args
            .iter()
            .chain(r.body.iter().flat_map(|l| l.atom().args.iter()))
        {
            if let Some(c) = t.as_const() {
                dom.push(c);
            }
        }
    }
    dom.sort_unstable();
    dom.dedup();
    dom
}

/// Calls `emit` with every head fact derivable from `rule` in one step
/// against `db`. Negated literals refer to strictly lower, already-closed
/// strata.
pub fn fire_rule(rule: &Rule, db: &Database, domain: &[Symbol], emit: &mut impl FnMut(GroundAtom)) {
    let mut bindings = Bindings::new(rule.num_vars);
    walk(rule, 0, db, domain, &mut bindings, emit);
}

fn walk(
    rule: &Rule,
    idx: usize,
    db: &Database,
    domain: &[Symbol],
    bindings: &mut Bindings,
    emit: &mut impl FnMut(GroundAtom),
) {
    if idx == rule.body.len() {
        emit_head(rule, domain, bindings, emit);
        return;
    }
    match &rule.body[idx] {
        Literal::Pos(atom) => {
            db.for_each_match(atom, bindings, |b| {
                walk(rule, idx + 1, db, domain, b, emit);
                false
            });
        }
        Literal::Neg(atom) => {
            // Ground any remaining free variables over the domain, then
            // require absence.
            let free = bindings.free_vars_of(atom);
            enumerate(domain, &free, bindings, &mut |b| {
                let fact = atom.ground(b).expect("all vars bound after enumeration");
                if !db.contains(&fact) {
                    walk(rule, idx + 1, db, domain, b, emit);
                }
            });
        }
    }
}

fn emit_head(
    rule: &Rule,
    domain: &[Symbol],
    bindings: &mut Bindings,
    emit: &mut impl FnMut(GroundAtom),
) {
    let free = bindings.free_vars_of(&rule.head);
    enumerate(domain, &free, bindings, &mut |b| {
        let fact = rule.head.ground(b).expect("all head vars bound");
        emit(fact);
    });
}

/// Enumerates all assignments of `vars` over `domain`, calling `f` for each
/// complete assignment; restores `bindings` afterwards.
pub fn enumerate(
    domain: &[Symbol],
    vars: &[hdl_base::Var],
    bindings: &mut Bindings,
    f: &mut impl FnMut(&mut Bindings),
) {
    if vars.is_empty() {
        f(bindings);
        return;
    }
    let (first, rest) = (vars[0], &vars[1..]);
    for &c in domain {
        bindings.set(first, c);
        enumerate(domain, rest, bindings, f);
    }
    bindings.unset(first);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl_base::{Atom, Term, Var};

    fn s(i: u32) -> Symbol {
        Symbol(i)
    }
    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn fact(p: u32, args: &[u32]) -> GroundAtom {
        GroundAtom::new(s(p), args.iter().map(|&a| s(a)).collect())
    }

    #[test]
    fn join_two_literals() {
        // h(X,Z) :- e(X,Y), e(Y,Z).
        let rule = Rule::new(
            Atom::new(s(0), vec![v(0), v(2)]),
            vec![
                Literal::Pos(Atom::new(s(1), vec![v(0), v(1)])),
                Literal::Pos(Atom::new(s(1), vec![v(1), v(2)])),
            ],
        );
        let mut db = Database::new();
        db.insert(fact(1, &[10, 11]));
        db.insert(fact(1, &[11, 12]));
        db.insert(fact(1, &[12, 13]));
        let dom = active_domain(std::slice::from_ref(&rule), &db);
        let mut out = Vec::new();
        fire_rule(&rule, &db, &dom, &mut |f| out.push(f));
        out.sort();
        assert_eq!(out, vec![fact(0, &[10, 12]), fact(0, &[11, 13])]);
    }

    #[test]
    fn negation_filters() {
        // h(X) :- d(X), ~bad(X).
        let rule = Rule::new(
            Atom::new(s(0), vec![v(0)]),
            vec![
                Literal::Pos(Atom::new(s(1), vec![v(0)])),
                Literal::Neg(Atom::new(s(2), vec![v(0)])),
            ],
        );
        let mut db = Database::new();
        db.insert(fact(1, &[1]));
        db.insert(fact(1, &[2]));
        db.insert(fact(2, &[2]));
        let dom = active_domain(std::slice::from_ref(&rule), &db);
        let mut out = Vec::new();
        fire_rule(&rule, &db, &dom, &mut |f| out.push(f));
        assert_eq!(out, vec![fact(0, &[1])]);
    }

    #[test]
    fn unsafe_negated_var_enumerates_domain() {
        // lonely :- ~likes(X, X).  (X free in a negated literal)
        let rule = Rule::new(
            Atom::new(s(0), vec![]),
            vec![Literal::Neg(Atom::new(s(1), vec![v(0), v(0)]))],
        );
        let mut db = Database::new();
        db.insert(fact(1, &[1, 1]));
        db.insert(fact(1, &[2, 3]));
        let dom = active_domain(std::slice::from_ref(&rule), &db);
        let mut out = Vec::new();
        fire_rule(&rule, &db, &dom, &mut |f| out.push(f));
        // Holds because e.g. likes(2,2) is absent — existential over domain.
        assert_eq!(
            out.len(),
            dom.len() - 1,
            "one emission per non-reflexive witness"
        );
    }

    #[test]
    fn unsafe_head_var_enumerates_domain() {
        // all(X) :- trigger.
        let rule = Rule::new(
            Atom::new(s(0), vec![v(0)]),
            vec![Literal::Pos(Atom::new(s(1), vec![]))],
        );
        let mut db = Database::new();
        db.insert(fact(1, &[]));
        db.insert(fact(2, &[7]));
        db.insert(fact(2, &[8]));
        let dom = active_domain(std::slice::from_ref(&rule), &db);
        let mut out = Vec::new();
        fire_rule(&rule, &db, &dom, &mut |f| out.push(f));
        out.sort();
        assert_eq!(out, vec![fact(0, &[7]), fact(0, &[8])]);
    }
}
