//! Dependency structure and mutual-recursion classes of a hypothetical
//! rulebase.
//!
//! The dependency graph has an edge `head → q` for every occurrence of `q`
//! in a rule premise, labelled by the occurrence kind of Definition 4
//! (positive, negative, or hypothetical — the goal of `q(x̄)[add: …]`).
//! Atoms inside `add`-lists are *not* occurrences: inserting facts for a
//! predicate does not depend on its definition.
//!
//! Two predicates are *mutually recursive* when they lie on a common cycle,
//! i.e. in the same strongly connected component that is actually cyclic.
//! These equivalence classes drive both the Lemma 1 decision procedure and
//! the goal-counting constants `kᵢ` of Theorem 3.

use crate::ast::Rulebase;
use hdl_base::{FxHashMap, Symbol};
use hdl_datalog::depgraph::{DepGraph, EdgeKind};

/// One labelled dependency of a rule head on a premise predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HypEdge {
    /// Positive occurrence `q(x̄)`.
    Positive,
    /// Negative occurrence `~q(x̄)`.
    Negative,
    /// Hypothetical occurrence `q(x̄)[add: …]`.
    Hypothetical,
}

/// One dependency of rule `rule`'s head `from` on a premise predicate
/// `to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// The head predicate.
    pub from: Symbol,
    /// The premise predicate.
    pub to: Symbol,
    /// The occurrence kind.
    pub kind: HypEdge,
    /// Index of the rule in the rulebase.
    pub rule: usize,
}

/// Mutual-recursion analysis of a rulebase.
#[derive(Debug, Clone)]
pub struct RecursionAnalysis {
    /// Dense predicate numbering (only predicates that occur in rules).
    pub preds: Vec<Symbol>,
    /// Equivalence-class id per predicate.
    pub class_of: FxHashMap<Symbol, usize>,
    /// Number of equivalence classes.
    pub num_classes: usize,
    /// Whether each class is genuinely recursive (a cycle exists through
    /// it: size > 1 or a self-edge).
    pub class_recursive: Vec<bool>,
    /// All labelled edges, in rule order.
    pub edges: Vec<DepEdge>,
}

impl RecursionAnalysis {
    /// Builds the analysis for `rb`.
    pub fn new(rb: &Rulebase) -> Self {
        let mut graph = DepGraph::new();
        let mut edges = Vec::new();
        for (i, rule) in rb.iter().enumerate() {
            let (from, start) = (rule.head.pred, edges.len());
            let mut edge = |to, kind| {
                edges.push(DepEdge {
                    from,
                    to,
                    kind,
                    rule: i,
                })
            };
            rule.positive_preds()
                .for_each(|q| edge(q, HypEdge::Positive));
            rule.negative_preds()
                .for_each(|q| edge(q, HypEdge::Negative));
            for premise in rule.premises.iter().filter(|p| p.is_hypothetical()) {
                edge(premise.goal().pred, HypEdge::Hypothetical);
                // A `del:` list makes the goal occurrence negation-like:
                // the premise's truth depends on facts of `q`'s database
                // being *absent*, so recursion through it is as unsafe as
                // recursion through `~q` and must cross a stratum.
                if !premise.dels().is_empty() {
                    edge(premise.goal().pred, HypEdge::Negative);
                }
            }
            graph.add_node(from);
            // Every kind of edge joins cycles alike; the labels matter only
            // for the stratification conditions, not for SCCs.
            for e in &edges[start..] {
                graph.add_edge(from, e.to, EdgeKind::Positive);
            }
            // Predicates that only appear inside add-lists or as premises
            // still need nodes so class lookups succeed.
            for p in rule.all_preds() {
                graph.add_node(p);
            }
        }
        let (comp, num_classes) = graph.sccs();
        let preds: Vec<Symbol> = (0..graph.len()).map(|i| graph.pred(i)).collect();
        let class_of: FxHashMap<Symbol, usize> = preds.iter().copied().zip(comp).collect();
        // An edge inside a class lies on a cycle through it.
        let mut class_recursive = vec![false; num_classes];
        for e in &edges {
            if class_of[&e.from] == class_of[&e.to] {
                class_recursive[class_of[&e.from]] = true;
            }
        }
        RecursionAnalysis {
            preds,
            class_of,
            num_classes,
            class_recursive,
            edges,
        }
    }

    /// Class id of `p` (predicates never occurring in rules get their own
    /// implicit non-recursive class, reported as `None`).
    pub fn class(&self, p: Symbol) -> Option<usize> {
        self.class_of.get(&p).copied()
    }

    /// Whether `a` and `b` are mutually recursive (Definition 16 of the
    /// appendix): same class *and* the class is cyclic. A predicate is
    /// mutually recursive with itself iff it lies on a cycle.
    pub fn mutually_recursive(&self, a: Symbol, b: Symbol) -> bool {
        match (self.class(a), self.class(b)) {
            (Some(ca), Some(cb)) => ca == cb && self.class_recursive[ca],
            _ => false,
        }
    }

    /// The number of mutual-recursion equivalence classes among the
    /// predicates in `preds` (the constant `kᵢ` of Theorem 3 when applied
    /// to a segment's predicates).
    pub fn classes_among(&self, preds: &[Symbol]) -> usize {
        let mut seen: Vec<usize> = preds.iter().filter_map(|&p| self.class(p)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::stratify::solve;
    use crate::parser::parse_program;
    use hdl_base::SymbolTable;

    fn analyze(src: &str) -> (RecursionAnalysis, SymbolTable) {
        let mut syms = SymbolTable::new();
        let rb = parse_program(src, &mut syms).unwrap();
        (RecursionAnalysis::new(&rb), syms)
    }

    /// Whether some cycle passes through a negative edge.
    fn negation_in_cycle(ra: &RecursionAnalysis) -> bool {
        solve(ra, &ra.edges, |e| e.kind == HypEdge::Negative).is_err()
    }

    #[test]
    fn even_odd_are_mutually_recursive() {
        // Example 6 of the paper.
        let (ra, syms) = analyze(
            "even :- select(X), odd[add: b(X)].
             odd :- select(X), even[add: b(X)].
             even :- ~select(X).
             select(X) :- a(X), ~b(X).",
        );
        let even = syms.lookup("even").unwrap();
        let odd = syms.lookup("odd").unwrap();
        let select = syms.lookup("select").unwrap();
        assert!(ra.mutually_recursive(even, odd));
        assert!(ra.mutually_recursive(even, even));
        assert!(!ra.mutually_recursive(even, select));
        assert!(
            !ra.mutually_recursive(select, select),
            "select is not on a cycle"
        );
        assert!(!negation_in_cycle(&ra));
    }

    #[test]
    fn self_loop_counts_as_recursive() {
        let (ra, syms) = analyze("p(X) :- e(X, Y), p(Y).");
        let p = syms.lookup("p").unwrap();
        let e = syms.lookup("e").unwrap();
        assert!(ra.mutually_recursive(p, p));
        assert!(!ra.mutually_recursive(e, e));
    }

    #[test]
    fn negation_in_cycle_detected_through_hypothetical_edges() {
        // p :- q[add: c].   q :- ~p.   — the cycle passes a negative edge.
        let (ra, _) = analyze("p :- q[add: c].\nq :- ~p.");
        assert!(negation_in_cycle(&ra));
    }

    #[test]
    fn add_atoms_are_not_dependencies() {
        // p :- q[add: p(a)] — wait, p is propositional here; use distinct:
        // p :- q[add: r].   r :- p.   If `r` inside add counted as an
        // occurrence, p and r would be mutually recursive through it; the
        // genuine cycle is p -> q? No: p depends on q (hyp); r depends on p
        // (pos). No cycle.
        let (ra, syms) = analyze("p :- q[add: r].\nr :- p.");
        let p = syms.lookup("p").unwrap();
        let r = syms.lookup("r").unwrap();
        assert!(!ra.mutually_recursive(p, r));
        assert!(!negation_in_cycle(&ra));
    }

    #[test]
    fn del_goals_are_negation_like_in_cycles() {
        // Recursion through a del-carrying hypothetical goal is recursion
        // through negation.
        let (ra, _) = analyze("p :- p[del: c].");
        assert!(negation_in_cycle(&ra));
        // Non-recursive del: use is fine.
        let (ra, _) = analyze("p :- q[del: c].\nq :- r.");
        assert!(!negation_in_cycle(&ra));
        // del-list *atoms* are still not occurrences.
        let (ra, syms) = analyze("p :- q[del: r].\nr :- p.");
        let p = syms.lookup("p").unwrap();
        let r = syms.lookup("r").unwrap();
        assert!(!ra.mutually_recursive(p, r));
        assert!(!negation_in_cycle(&ra));
    }

    #[test]
    fn classes_among_counts_distinct_classes() {
        let (ra, syms) = analyze(
            "a :- b.
             b :- a.
             c :- c.
             d :- a, c.",
        );
        let a = syms.lookup("a").unwrap();
        let b = syms.lookup("b").unwrap();
        let c = syms.lookup("c").unwrap();
        let d = syms.lookup("d").unwrap();
        assert_eq!(ra.classes_among(&[a, b]), 1);
        assert_eq!(ra.classes_among(&[a, b, c]), 2);
        assert_eq!(ra.classes_among(&[a, b, c, d]), 3);
    }
}
