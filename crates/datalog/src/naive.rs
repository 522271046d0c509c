//! Naive bottom-up evaluation: fire every rule against the whole database
//! until no stratum produces a new fact.
//!
//! Kept as the simplest-possible reference implementation, written
//! independently of `hdl-core`: the property suite checks that core's
//! semi-naive kernel derives exactly the models this evaluator does, and
//! ablation experiment E10 measures the difference in work.

use crate::ast::Rule;
use crate::eval::{active_domain, fire_rule};
use crate::stratify::{stratify, Stratification};
use hdl_base::{Database, Result, Symbol};

/// Computes the perfect model of `rules` over `edb` by naive iteration.
///
/// Returns the model (EDB plus all derived facts). Fails if the program is
/// not stratified.
pub fn evaluate(rules: &[Rule], edb: &Database) -> Result<Database> {
    let strat = stratify(rules)?;
    Ok(evaluate_stratified(rules, edb, &strat))
}

/// Like [`evaluate`], with a precomputed stratification.
pub fn evaluate_stratified(rules: &[Rule], edb: &Database, strat: &Stratification) -> Database {
    let domain = active_domain(rules, edb);
    let mut model = edb.clone();
    for stratum_rules in strat.rules_by_stratum(rules) {
        loop {
            let mut fresh = Vec::new();
            for rule in &stratum_rules {
                fire_rule(rule, &model, &domain, &mut |fact| {
                    if !model.contains(&fact) {
                        fresh.push(fact);
                    }
                });
            }
            let mut changed = false;
            for fact in fresh {
                changed |= model.insert(fact);
            }
            if !changed {
                break;
            }
        }
    }
    model
}

/// Convenience: evaluate and project the tuples of one predicate.
pub fn query(rules: &[Rule], edb: &Database, pred: Symbol) -> Result<Vec<Vec<Symbol>>> {
    let model = evaluate(rules, edb)?;
    let mut out: Vec<Vec<Symbol>> = model.tuples(pred).map(|t| t.to_vec()).collect();
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Literal;
    use hdl_base::{Atom, GroundAtom, Term, Var};

    fn s(i: u32) -> Symbol {
        Symbol(i)
    }
    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }
    fn fact(p: u32, args: &[u32]) -> GroundAtom {
        GroundAtom::new(s(p), args.iter().map(|&a| s(a)).collect())
    }

    /// tc = transitive closure of edge (pred 1 -> pred 0).
    fn tc_rules() -> Vec<Rule> {
        vec![
            Rule::new(
                Atom::new(s(0), vec![v(0), v(1)]),
                vec![Literal::Pos(Atom::new(s(1), vec![v(0), v(1)]))],
            ),
            Rule::new(
                Atom::new(s(0), vec![v(0), v(2)]),
                vec![
                    Literal::Pos(Atom::new(s(1), vec![v(0), v(1)])),
                    Literal::Pos(Atom::new(s(0), vec![v(1), v(2)])),
                ],
            ),
        ]
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let mut edb = Database::new();
        for i in 0..4 {
            edb.insert(fact(1, &[i, i + 1]));
        }
        let tc = query(&tc_rules(), &edb, s(0)).unwrap();
        // 5 nodes in a chain: C(5,2) = 10 ordered reachable pairs.
        assert_eq!(tc.len(), 10);
        assert!(tc.contains(&vec![s(0), s(4)]));
        assert!(!tc.contains(&vec![s(4), s(0)]));
    }

    #[test]
    fn transitive_closure_of_a_cycle_saturates() {
        let mut edb = Database::new();
        edb.insert(fact(1, &[0, 1]));
        edb.insert(fact(1, &[1, 2]));
        edb.insert(fact(1, &[2, 0]));
        let tc = query(&tc_rules(), &edb, s(0)).unwrap();
        assert_eq!(tc.len(), 9, "every pair reachable in a 3-cycle");
    }

    #[test]
    fn stratified_negation_complement() {
        // unreachable(X,Y) :- node(X), node(Y), ~tc(X,Y).
        let mut rules = tc_rules();
        rules.push(Rule::new(
            Atom::new(s(2), vec![v(0), v(1)]),
            vec![
                Literal::Pos(Atom::new(s(3), vec![v(0)])),
                Literal::Pos(Atom::new(s(3), vec![v(1)])),
                Literal::Neg(Atom::new(s(0), vec![v(0), v(1)])),
            ],
        ));
        let mut edb = Database::new();
        edb.insert(fact(1, &[0, 1]));
        for i in 0..3 {
            edb.insert(fact(3, &[i]));
        }
        let un = query(&rules, &edb, s(2)).unwrap();
        // 9 pairs total, 1 reachable (0->1): 8 unreachable.
        assert_eq!(un.len(), 8);
        assert!(!un.contains(&vec![s(0), s(1)]));
    }

    #[test]
    fn facts_as_rules_with_empty_bodies() {
        let rules = vec![Rule::new(Atom::new(s(0), vec![Term::Const(s(7))]), vec![])];
        let model = evaluate(&rules, &Database::new()).unwrap();
        assert!(model.contains(&fact(0, &[7])));
    }

    #[test]
    fn empty_program_returns_edb() {
        let mut edb = Database::new();
        edb.insert(fact(0, &[1]));
        let model = evaluate(&[], &edb).unwrap();
        assert_eq!(model, edb);
    }
}
