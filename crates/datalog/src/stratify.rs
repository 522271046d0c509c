//! Stratification of Datalog programs with negation (\[1\] in the paper).
//!
//! A program is *stratified* if no cycle of the predicate dependency graph
//! passes through a negative edge. The stratification assigns each predicate
//! a stratum number such that positive dependencies stay within or below the
//! stratum and negative dependencies go strictly below; evaluation then
//! proceeds stratum by stratum, closing each under its rules before any
//! negation over it is tested.

use crate::ast::Rule;
use crate::depgraph::{DepGraph, EdgeKind};
use hdl_base::{Error, FxHashMap, Result, Symbol};

/// The result of stratifying a program.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Stratum of each predicate that occurs in the program.
    pub stratum_of: FxHashMap<Symbol, usize>,
    /// Number of strata (maximum stratum + 1; 0 for an empty program).
    pub num_strata: usize,
}

impl Stratification {
    /// The stratum of `p`, defaulting to 0 for predicates that never occur
    /// (pure EDB predicates mentioned only in the database).
    pub fn stratum(&self, p: Symbol) -> usize {
        self.stratum_of.get(&p).copied().unwrap_or(0)
    }

    /// Groups rule indices by the stratum of their head predicate.
    pub fn rules_by_stratum<'r>(&self, rules: &'r [Rule]) -> Vec<Vec<&'r Rule>> {
        let mut out: Vec<Vec<&Rule>> = vec![Vec::new(); self.num_strata.max(1)];
        for r in rules {
            out[self.stratum(r.head.pred)].push(r);
        }
        out
    }
}

/// Builds the dependency graph of `rules`.
pub fn dependency_graph(rules: &[Rule]) -> DepGraph {
    let mut g = DepGraph::new();
    for r in rules {
        g.add_node(r.head.pred);
        for p in r.positive_preds() {
            g.add_edge(r.head.pred, p, EdgeKind::Positive);
        }
        for p in r.negative_preds() {
            g.add_edge(r.head.pred, p, EdgeKind::Negative);
        }
    }
    g
}

/// Stratifies `rules`, or reports the negative cycle that prevents it.
pub fn stratify(rules: &[Rule]) -> Result<Stratification> {
    let g = dependency_graph(rules);
    if let Some((from, to)) = g.negative_cycle() {
        return Err(Error::NotStratified {
            cycle: format!("predicate #{} negates #{} inside a cycle", from.0, to.0),
        });
    }
    let (comp, ncomp) = g.sccs();
    // Component ids are in reverse topological order, so ascending id order
    // processes dependency targets before their sources.
    let mut comp_stratum = vec![0usize; ncomp];
    let mut nodes_by_comp: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for (node, &c) in comp.iter().enumerate() {
        nodes_by_comp[c].push(node);
    }
    for c in 0..ncomp {
        let mut stratum = 0usize;
        for &u in &nodes_by_comp[c] {
            for &(v, kind) in g.edges_of(u) {
                let cv = comp[v];
                if cv == c {
                    continue; // intra-component edges are positive (checked above)
                }
                let need = comp_stratum[cv] + usize::from(kind == EdgeKind::Negative);
                stratum = stratum.max(need);
            }
        }
        comp_stratum[c] = stratum;
    }
    let mut stratum_of = FxHashMap::default();
    let mut max = 0usize;
    for node in 0..g.len() {
        let st = comp_stratum[comp[node]];
        max = max.max(st);
        stratum_of.insert(g.pred(node), st);
    }
    let num_strata = if g.is_empty() { 0 } else { max + 1 };
    Ok(Stratification {
        stratum_of,
        num_strata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Literal;
    use hdl_base::{Atom, Term, Var};

    fn atom(p: u32, nargs: usize) -> Atom {
        Atom::new(
            Symbol(p),
            (0..nargs).map(|i| Term::Var(Var(i as u32))).collect(),
        )
    }

    #[test]
    fn positive_program_is_one_stratum() {
        // tc(X,Y) :- e(X,Y).  tc(X,Z) :- e(X,Y), tc(Y,Z).
        let rules = vec![
            Rule::new(atom(0, 2), vec![Literal::Pos(atom(1, 2))]),
            Rule::new(
                atom(0, 2),
                vec![Literal::Pos(atom(1, 2)), Literal::Pos(atom(0, 2))],
            ),
        ];
        let s = stratify(&rules).unwrap();
        assert_eq!(s.num_strata, 1);
        assert_eq!(s.stratum(Symbol(0)), 0);
        assert_eq!(s.stratum(Symbol(1)), 0);
    }

    #[test]
    fn negation_pushes_up_a_stratum() {
        // p(X) :- d(X), ~q(X).   q(X) :- e(X).
        let rules = vec![
            Rule::new(
                atom(0, 1),
                vec![Literal::Pos(atom(3, 1)), Literal::Neg(atom(1, 1))],
            ),
            Rule::new(atom(1, 1), vec![Literal::Pos(atom(2, 1))]),
        ];
        let s = stratify(&rules).unwrap();
        assert_eq!(s.stratum(Symbol(1)), 0);
        assert_eq!(s.stratum(Symbol(0)), 1);
        assert_eq!(s.num_strata, 2);
    }

    #[test]
    fn chained_negation_gives_three_strata() {
        // p :- ~q.  q :- ~r.  r :- base.
        let rules = vec![
            Rule::new(atom(0, 0), vec![Literal::Neg(atom(1, 0))]),
            Rule::new(atom(1, 0), vec![Literal::Neg(atom(2, 0))]),
            Rule::new(atom(2, 0), vec![Literal::Pos(atom(3, 0))]),
        ];
        let s = stratify(&rules).unwrap();
        assert_eq!(s.stratum(Symbol(2)), 0);
        assert_eq!(s.stratum(Symbol(1)), 1);
        assert_eq!(s.stratum(Symbol(0)), 2);
        assert_eq!(s.num_strata, 3);
    }

    #[test]
    fn recursion_through_negation_is_rejected() {
        // a :- ~b.  b :- ~a.   (the paper's ambiguous example, section 3.1)
        let rules = vec![
            Rule::new(atom(0, 0), vec![Literal::Neg(atom(1, 0))]),
            Rule::new(atom(1, 0), vec![Literal::Neg(atom(0, 0))]),
        ];
        assert!(matches!(stratify(&rules), Err(Error::NotStratified { .. })));
    }

    #[test]
    fn rules_by_stratum_groups_heads() {
        let rules = vec![
            Rule::new(atom(0, 0), vec![Literal::Neg(atom(1, 0))]),
            Rule::new(atom(1, 0), vec![Literal::Pos(atom(2, 0))]),
        ];
        let s = stratify(&rules).unwrap();
        let grouped = s.rules_by_stratum(&rules);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].len(), 1);
        assert_eq!(grouped[0][0].head.pred, Symbol(1));
        assert_eq!(grouped[1][0].head.pred, Symbol(0));
    }

    #[test]
    fn empty_program() {
        let s = stratify(&[]).unwrap();
        assert_eq!(s.num_strata, 0);
        assert_eq!(s.stratum(Symbol(42)), 0);
    }
}
