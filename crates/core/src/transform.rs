//! Program transformations: inner-negation elimination and grounding.
//!
//! - [`eliminate_inner_negation`] — the paper's §3.1 remark in executable
//!   form: a premise `~A` whose variables occur nowhere else reads as
//!   ¬∃; introducing `aux(outer̄) ← A(…)` and negating `aux` instead
//!   makes every negated premise variable-closed under the outer
//!   substitution. (The paper uses the same move to reduce `~A[add:B]`
//!   to atomic negation.)
//! - [`ground_program`] — Definition 3 made literal: instantiate every
//!   rule with every ground substitution over `dom(R, DB)`. The result
//!   is a propositional-by-construction rulebase that any engine
//!   evaluates identically to the original — a fourth, independent
//!   evaluation path used as a cross-check oracle in the test suite.

use crate::analysis::recursion::RecursionAnalysis;
use crate::analysis::stratify::global_strata;
use crate::ast::{HypRule, Premise, Rulebase};
use hdl_base::{Atom, Bindings, Database, Error, Result, Symbol, SymbolTable, Term, Var};

/// Replaces every negated premise containing *inner-existential*
/// variables (occurring nowhere else in the rule) by a negated auxiliary
/// predicate parameterized over the premise's other variables.
///
/// The output program has the same meaning and no inner-negation
/// variables, so a grounding of it needs no ¬∃ special-casing.
pub fn eliminate_inner_negation(rb: &Rulebase, syms: &mut SymbolTable) -> Rulebase {
    let mut out = Rulebase::new();
    let mut aux_count = 0usize;
    for rule in rb.iter() {
        let mut new_premises = Vec::with_capacity(rule.premises.len());
        for (idx, premise) in rule.premises.iter().enumerate() {
            let Premise::Neg(atom) = premise else {
                new_premises.push(premise.clone());
                continue;
            };
            // Inner vars: occur in this premise and nowhere else.
            let inner: Vec<Var> = {
                let mut inner = Vec::new();
                for v in atom.vars() {
                    if inner.contains(&v) {
                        continue;
                    }
                    let in_head = rule.head.vars().any(|h| h == v);
                    let elsewhere = rule
                        .premises
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != idx)
                        .any(|(_, p)| p.vars().any(|o| o == v));
                    if !in_head && !elsewhere {
                        inner.push(v);
                    }
                }
                inner
            };
            if inner.is_empty() {
                new_premises.push(premise.clone());
                continue;
            }
            // aux(outer̄) :- A(args).   …and use ~aux(outer̄).
            let outer: Vec<Var> = {
                let mut outer = Vec::new();
                for v in atom.vars() {
                    if !inner.contains(&v) && !outer.contains(&v) {
                        outer.push(v);
                    }
                }
                outer
            };
            let aux = syms.intern(&format!("exists_aux_{aux_count}"));
            aux_count += 1;
            // The aux rule renumbers its variables densely.
            let mut renumber: Vec<Option<Var>> = vec![None; rule.num_vars];
            let mut next = 0u32;
            let mut map = |v: Var, renumber: &mut Vec<Option<Var>>| -> Var {
                if let Some(m) = renumber[v.index()] {
                    return m;
                }
                let m = Var(next);
                next += 1;
                renumber[v.index()] = Some(m);
                m
            };
            let aux_head_args: Vec<Term> = outer
                .iter()
                .map(|&v| Term::Var(map(v, &mut renumber)))
                .collect();
            let body_args: Vec<Term> = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(map(*v, &mut renumber)),
                    c => *c,
                })
                .collect();
            out.push(HypRule::new(
                Atom::new(aux, aux_head_args),
                vec![Premise::Atom(Atom::new(atom.pred, body_args))],
            ));
            new_premises.push(Premise::Neg(Atom::new(
                aux,
                outer.iter().map(|&v| Term::Var(v)).collect(),
            )));
        }
        out.push(HypRule::new(rule.head.clone(), new_premises));
    }
    out
}

/// Grounds `rb` over `dom(rb, db)`, instantiating each rule with every
/// total substitution. Fails (with `LimitExceeded`) if the instance
/// count would exceed `max_instances`.
///
/// The input should be free of inner-negation variables (run
/// [`eliminate_inner_negation`] first); otherwise a ¬∃ premise would be
/// split into independent ground instances, changing its meaning — this
/// function rejects such programs.
pub fn ground_program(rb: &Rulebase, db: &Database, max_instances: u64) -> Result<Rulebase> {
    // Reject remaining inner-negation variables.
    for rule in rb.iter() {
        for (idx, premise) in rule.premises.iter().enumerate() {
            if let Premise::Neg(atom) = premise {
                for v in atom.vars() {
                    let in_head = rule.head.vars().any(|h| h == v);
                    let elsewhere = rule
                        .premises
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != idx)
                        .any(|(_, p)| p.vars().any(|o| o == v));
                    if !in_head && !elsewhere {
                        return Err(Error::Invalid(
                            "ground_program: eliminate inner-negation variables first".into(),
                        ));
                    }
                }
            }
        }
    }
    let mut domain: Vec<Symbol> = db.constants().into_iter().collect();
    domain.extend(rb.constants());
    domain.sort_unstable();
    domain.dedup();

    // Instance budget check.
    let mut total: u64 = 0;
    for rule in rb.iter() {
        let count = (domain.len() as u64)
            .checked_pow(rule.num_vars as u32)
            .unwrap_or(u64::MAX);
        total = total.saturating_add(count.max(1));
    }
    if total > max_instances {
        return Err(Error::LimitExceeded {
            what: "ground instances".into(),
            limit: max_instances,
        });
    }

    let mut out = Rulebase::new();
    for rule in rb.iter() {
        let mut bindings = Bindings::new(rule.num_vars);
        ground_rule(rule, &domain, 0, &mut bindings, &mut out);
    }
    // The grounded program must still stratify (it does iff the original
    // did); check now so engines don't have to.
    global_strata(&out, &RecursionAnalysis::new(&out), None)?;
    Ok(out)
}

fn ground_rule(
    rule: &HypRule,
    domain: &[Symbol],
    var: usize,
    bindings: &mut Bindings,
    out: &mut Rulebase,
) {
    if var == rule.num_vars {
        let subst_atom = |a: &Atom| -> Atom {
            Atom::new(
                a.pred,
                a.args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Term::Const(bindings.get(*v).expect("total substitution")),
                        c => *c,
                    })
                    .collect(),
            )
        };
        let premises = rule
            .premises
            .iter()
            .map(|p| match p {
                Premise::Atom(a) => Premise::Atom(subst_atom(a)),
                Premise::Neg(a) => Premise::Neg(subst_atom(a)),
                Premise::Hyp { goal, adds, dels } => Premise::Hyp {
                    goal: subst_atom(goal),
                    adds: adds.iter().map(&subst_atom).collect(),
                    dels: dels.iter().map(&subst_atom).collect(),
                },
            })
            .collect();
        out.push(HypRule::new(subst_atom(&rule.head), premises));
        return;
    }
    if domain.is_empty() {
        return; // rules with variables are vacuous over an empty domain
    }
    for &c in domain {
        bindings.set(Var(var as u32), c);
        ground_rule(rule, domain, var + 1, bindings, out);
    }
    bindings.unset(Var(var as u32));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BottomUpEngine, TopDownEngine};
    use crate::parser::{parse_program, parse_query, split_facts};

    fn cross_check(src: &str, queries: &[&str]) {
        let mut syms = SymbolTable::new();
        let program = parse_program(src, &mut syms).unwrap();
        let (rules, facts) = split_facts(program);
        let db: Database = facts.into_iter().collect();

        let normalized = eliminate_inner_negation(&rules, &mut syms);
        let grounded = ground_program(&normalized, &db, 1_000_000).unwrap();

        let mut original = TopDownEngine::new(&rules, &db).unwrap();
        let mut via_ground = BottomUpEngine::new(&grounded, &db).unwrap();
        for q in queries {
            let query = parse_query(q, &mut syms).unwrap();
            assert_eq!(
                original.holds(&query).unwrap(),
                via_ground.holds(&query).unwrap(),
                "grounded evaluation disagrees on {q}"
            );
        }
    }

    #[test]
    fn grounding_preserves_horn_semantics() {
        cross_check(
            "e(a, b). e(b, c).
             tc(X, Y) :- e(X, Y).
             tc(X, Z) :- e(X, Y), tc(Y, Z).",
            &["?- tc(a, c).", "?- tc(c, a).", "?- tc(b, c)."],
        );
    }

    #[test]
    fn grounding_preserves_parity_semantics() {
        for n in 0..4 {
            let mut src = String::from(
                "even :- select(X), odd[add: b(X)].
                 odd :- select(X), even[add: b(X)].
                 even :- ~select(X).
                 select(X) :- a(X), ~b(X).\n",
            );
            for i in 0..n {
                src.push_str(&format!("a(t{i}).\n"));
            }
            cross_check(&src, &["?- even.", "?- odd."]);
        }
    }

    #[test]
    fn normalization_makes_negation_variable_closed() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("path(X) :- ~select(Y).", &mut syms).unwrap();
        let normalized = eliminate_inner_negation(&rb, &mut syms);
        assert_eq!(normalized.len(), 2, "aux rule + rewritten rule");
        // Second rule's negated premise is now 0-ary.
        let rewritten = &normalized.rules[1];
        let Premise::Neg(atom) = &rewritten.premises[0] else {
            panic!()
        };
        assert_eq!(atom.arity(), 0);
        // And grounding now accepts it.
        ground_program(&normalized, &Database::new(), 1000).unwrap();
    }

    #[test]
    fn normalization_keeps_outer_vars_as_parameters() {
        let mut syms = SymbolTable::new();
        // Y inner, X outer: aux(X) :- q(X, Y).
        let rb = parse_program("p(X) :- d(X), ~q(X, Y).", &mut syms).unwrap();
        let normalized = eliminate_inner_negation(&rb, &mut syms);
        let aux_rule = &normalized.rules[0];
        assert_eq!(aux_rule.head.arity(), 1);
        assert_eq!(aux_rule.premises.len(), 1);
        // Semantics preserved.
        cross_check(
            "d(a). d(b). q(a, z).
             p(X) :- d(X), ~q(X, Y).",
            &["?- p(a).", "?- p(b)."],
        );
    }

    #[test]
    fn grounding_rejects_unnormalized_programs() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("path(X) :- ~select(Y).", &mut syms).unwrap();
        let mut db = Database::new();
        let d = syms.intern("dconst");
        let p = syms.intern("seed");
        db.insert(hdl_base::GroundAtom::new(p, vec![d]));
        assert!(matches!(
            ground_program(&rb, &db, 1000),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn grounding_respects_the_instance_budget() {
        let mut syms = SymbolTable::new();
        let rb = parse_program(
            "p(V, W, X, Y, Z) :- q(V, W, X, Y, Z).
             q(a, b, c, d, e).",
            &mut syms,
        )
        .unwrap();
        let (rules, facts) = split_facts(rb);
        let db: Database = facts.into_iter().collect();
        // 5 constants, 5 vars → 3125 instances > 100.
        assert!(ground_program(&rules, &db, 100).is_err());
        let g = ground_program(&rules, &db, 10_000).unwrap();
        assert_eq!(g.len(), 3125);
    }

    #[test]
    fn empty_domain_grounds_to_fact_rules_only() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("p :- q.\nr(X) :- s(X).", &mut syms).unwrap();
        let g = ground_program(&rb, &Database::new(), 1000).unwrap();
        assert_eq!(g.len(), 1, "only the propositional rule survives");
    }
}
