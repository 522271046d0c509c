//! Program generators: the paper's example rulebases parameterized by
//! size, plus synthetic layered rulebases for the Lemma 1 benchmark.

use crate::workloads::graphs::Digraph;
use hdl_base::{Database, GroundAtom, SymbolTable};
use hdl_core::ast::Rulebase;
use hdl_core::parser::{parse_program, split_facts};
use hdl_datalog::{Literal, Rule};
use std::fmt::Write as _;

/// Example 6 (parity): the EVEN/ODD rulebase over a unary relation `a`
/// with `n` tuples. Returns `(rules, database, symbols)`.
pub fn parity_program(n: usize) -> (Rulebase, Database, SymbolTable) {
    let mut src = String::from(
        "even :- select(X), odd[add: b(X)].
         odd :- select(X), even[add: b(X)].
         even :- ~select(X).
         select(X) :- a(X), ~b(X).\n",
    );
    for i in 0..n {
        let _ = writeln!(src, "a(t{i}).");
    }
    build(&src)
}

/// Example 7 (Hamiltonian path) over `g`.
pub fn hamiltonian_program(g: &Digraph) -> (Rulebase, Database, SymbolTable) {
    let mut src = String::from(
        "yes :- node(X), path(X)[add: pnode(X)].
         path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
         path(X) :- ~select(Y).
         select(Y) :- node(Y), ~pnode(Y).\n",
    );
    for v in 0..g.n {
        let _ = writeln!(src, "node(v{v}).");
    }
    for &(a, b) in &g.edges {
        let _ = writeln!(src, "edge(v{a}, v{b}).");
    }
    build(&src)
}

/// Example 7 (Hamiltonian path) over `g`, augmented with the standard
/// search-pruning relation: reachability through *unvisited* nodes.
///
/// ```text
/// free(Y)     :- node(Y), ~pnode(Y).
/// reach(X, Y) :- edge(X, Y), free(Y).
/// reach(X, Z) :- reach(X, Y), edge(Y, Z), free(Z).
/// ```
///
/// `free` depends on the hypothetically-added `pnode` facts, so the
/// recursive `reach` fixpoint is recomputed inside every augmented
/// database the search explores — unlike the plain Example 7 rulebase,
/// whose only recursion tunnels through the hypothetical premise and
/// therefore converges in one productive round per database. This is
/// the fixpoint-benchmark variant: it exercises semi-naive evaluation
/// under `add:` branching. The `yes` verdict is unchanged.
pub fn hamiltonian_reach_program(g: &Digraph) -> (Rulebase, Database, SymbolTable) {
    let mut src = String::from(
        "yes :- node(X), path(X)[add: pnode(X)].
         path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
         path(X) :- ~select(Y).
         select(Y) :- node(Y), ~pnode(Y).
         free(Y) :- node(Y), ~pnode(Y).
         reach(X, Y) :- edge(X, Y), free(Y).
         reach(X, Z) :- reach(X, Y), edge(Y, Z), free(Z).\n",
    );
    for v in 0..g.n {
        let _ = writeln!(src, "node(v{v}).");
    }
    for &(a, b) in &g.edges {
        let _ = writeln!(src, "edge(v{a}, v{b}).");
    }
    build(&src)
}

/// `count` disjoint copies of the Example 7 Hamiltonian rulebase over
/// independently sampled random digraphs, every predicate suffixed
/// `_i`. The copies share no predicates or constants, so the queries
/// `?- yes_i.` are fully independent — the workload for the
/// `hdl-service` concurrent-throughput test, where disjointness means
/// workers cannot piggyback on each other's memo tables.
///
/// Returns the merged program plus `(query_text, expected)` pairs.
pub fn independent_hamiltonian_programs(
    count: usize,
    nodes: usize,
    density: f64,
    seed: u64,
) -> (Rulebase, Database, SymbolTable, Vec<(String, bool)>) {
    let mut src = String::new();
    let mut queries = Vec::new();
    for i in 0..count {
        let g = crate::workloads::random_digraph(nodes, density, seed + i as u64);
        let _ = writeln!(
            src,
            "yes_{i} :- node_{i}(X), path_{i}(X)[add: pnode_{i}(X)].
             path_{i}(X) :- select_{i}(Y), edge_{i}(X, Y), path_{i}(Y)[add: pnode_{i}(Y)].
             path_{i}(X) :- ~select_{i}(Y).
             select_{i}(Y) :- node_{i}(Y), ~pnode_{i}(Y)."
        );
        for v in 0..g.n {
            let _ = writeln!(src, "node_{i}(v{i}_{v}).");
        }
        for &(a, b) in &g.edges {
            let _ = writeln!(src, "edge_{i}(v{i}_{a}, v{i}_{b}).");
        }
        queries.push((format!("?- yes_{i}."), g.has_hamiltonian_path()));
    }
    let (rules, db, syms) = build(&src);
    (rules, db, syms, queries)
}

/// Example 4 (chained hypothetical adds) of length `n`: `a1` is provable
/// iff every `b_i` gets added along the chain.
pub fn chain_program(n: usize) -> (Rulebase, Database, SymbolTable) {
    let mut src = String::new();
    for i in 1..=n {
        let _ = writeln!(src, "a{i} :- a{next}[add: b{i}].", next = i + 1);
    }
    let _ = writeln!(src, "a{} :- dgoal.", n + 1);
    let mut dgoal = String::from("dgoal :- ");
    for i in 1..=n {
        if i > 1 {
            dgoal.push_str(", ");
        }
        let _ = write!(dgoal, "b{i}");
    }
    let _ = writeln!(src, "{dgoal}.");
    build(&src)
}

/// A synthetic Example-9-style rulebase with `k` strata × `w` parallel
/// predicate families per stratum, for the Lemma 1 benchmark (E5).
///
/// Stratum `i`, family `j` contains:
/// ```text
/// a_i_j :- base_i_j, a_i_j[add: c_i_j].
/// a_i_j :- d_i_j, ~a_{i-1}_j.          (i > 1)
/// a_1_j :- d_1_j.
/// ```
pub fn layered_rulebase(k: usize, w: usize) -> (Rulebase, SymbolTable) {
    let mut src = String::new();
    for i in (1..=k).rev() {
        for j in 0..w {
            let _ = writeln!(src, "a_{i}_{j} :- base_{i}_{j}, a_{i}_{j}[add: c_{i}_{j}].");
            if i > 1 {
                let _ = writeln!(src, "a_{i}_{j} :- d_{i}_{j}, ~a_{prev}_{j}.", prev = i - 1);
            } else {
                let _ = writeln!(src, "a_1_{j} :- d_1_{j}.");
            }
        }
    }
    let mut syms = SymbolTable::new();
    let rb = parse_program(&src, &mut syms).expect("generated program parses");
    (rb, syms)
}

/// Plain transitive closure over `g` in the hypothetical-Datalog
/// language — the core fixpoint-benchmark workload. No hypotheticals
/// and no negation, so the measurement isolates the semi-naive delta
/// machinery and the argument-index joins.
pub fn tc_program(g: &Digraph) -> (Rulebase, Database, SymbolTable) {
    let mut src = String::from(
        "tc(X, Y) :- edge(X, Y).
         tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
    );
    for &(a, b) in &g.edges {
        let _ = writeln!(src, "edge(v{a}, v{b}).");
    }
    build(&src)
}

/// Right-linear reachability over `g`: `reach(X, Y)` holds when a path
/// of one or more edges leads from `X` to `Y`. Under the demand rewrite
/// every magic fact of a point query carries the query's target, so a
/// rule instance that probes them by target alone tests all of them.
pub fn reach_program(g: &Digraph) -> (Rulebase, Database, SymbolTable) {
    let mut src = String::from(
        "reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), reach(Z, Y).\n",
    );
    for &(a, b) in &g.edges {
        let _ = writeln!(src, "edge(v{a}, v{b}).");
    }
    build(&src)
}

/// Same-generation over a complete binary tree with `depth` levels.
///
/// Nodes are heap-indexed (`n1` is the root; `n_i` has children
/// `n_{2i}` and `n_{2i+1}`), giving `2^depth - 1` nodes. The model
/// contains every pair of distinct same-level nodes, so the fixpoint
/// runs `depth` rounds with deltas that widen geometrically — the
/// classic non-linear recursion workload for the fixpoint benchmark.
pub fn same_generation_program(depth: usize) -> (Rulebase, Database, SymbolTable) {
    let mut src = String::from(
        "sg(X, Y) :- sibling(X, Y).
         sg(X, Y) :- up(X, XP), sg(XP, YP), down(YP, Y).\n",
    );
    let nodes = (1usize << depth) - 1;
    for i in 1..=nodes {
        for c in [2 * i, 2 * i + 1] {
            if c <= nodes {
                let _ = writeln!(src, "up(n{c}, n{i}). down(n{i}, n{c}).");
            }
        }
        if 2 * i < nodes {
            let (a, b) = (2 * i, 2 * i + 1);
            let _ = writeln!(src, "sibling(n{a}, n{b}). sibling(n{b}, n{a}).");
        }
    }
    build(&src)
}

/// Transitive-closure rules for the plain-Datalog baseline (E10):
/// `tc(X,Y) :- e(X,Y).  tc(X,Z) :- e(X,Y), tc(Y,Z).`
pub fn tc_rules(syms: &mut SymbolTable) -> Vec<Rule> {
    use hdl_base::{Atom, Term, Var};
    let tc = syms.intern("tc");
    let e = syms.intern("e");
    let v = |i: u32| Term::Var(Var(i));
    vec![
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
    ]
}

/// Edge facts for a chain of `n` nodes under predicate `e`.
pub fn tc_edb(syms: &mut SymbolTable, n: usize) -> Database {
    let e = syms.intern("e");
    let mut db = Database::new();
    let nodes: Vec<_> = (0..n).map(|i| syms.intern(&format!("v{i}"))).collect();
    for w in nodes.windows(2) {
        db.insert(GroundAtom::new(e, vec![w[0], w[1]]));
    }
    db
}

fn build(src: &str) -> (Rulebase, Database, SymbolTable) {
    let mut syms = SymbolTable::new();
    let program = parse_program(src, &mut syms).expect("generated program parses");
    let (rules, facts) = split_facts(program);
    (rules, facts.into_iter().collect(), syms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl_core::engine::TopDownEngine;
    use hdl_core::parser::parse_query;

    #[test]
    fn parity_program_is_correct_for_small_sizes() {
        for n in 0..5 {
            let (rb, db, mut syms) = parity_program(n);
            let q = parse_query("?- even.", &mut syms).unwrap();
            let mut eng = TopDownEngine::new(&rb, &db).unwrap();
            assert_eq!(eng.holds(&q).unwrap(), n % 2 == 0, "n = {n}");
        }
    }

    #[test]
    fn hamiltonian_program_matches_direct_check() {
        let mut graphs = vec![Digraph::chain(4), Digraph::star(4)];
        for seed in 0..6 {
            graphs.push(crate::workloads::random_digraph(5, 0.4, seed));
        }
        let mut verdicts = std::collections::HashSet::new();
        for g in graphs {
            let expected = g.has_hamiltonian_path();
            verdicts.insert(expected);
            let (rb, db, mut syms) = hamiltonian_program(&g);
            let q = parse_query("?- yes.", &mut syms).unwrap();
            let mut eng = TopDownEngine::new(&rb, &db).unwrap();
            assert_eq!(eng.holds(&q).unwrap(), expected, "graph {g:?}");
        }
        assert_eq!(verdicts.len(), 2, "corpus covers both outcomes");
    }

    #[test]
    fn chain_program_proves_a1() {
        let (rb, db, mut syms) = chain_program(6);
        let q = parse_query("?- a1.", &mut syms).unwrap();
        let mut eng = TopDownEngine::new(&rb, &db).unwrap();
        assert!(eng.holds(&q).unwrap());
        let q3 = parse_query("?- a3.", &mut syms).unwrap();
        assert!(!eng.holds(&q3).unwrap(), "a3 alone misses b1, b2");
    }

    #[test]
    fn same_generation_model_counts_same_level_pairs() {
        use hdl_core::engine::BottomUpEngine;
        let depth = 4;
        let (rb, db, syms) = same_generation_program(depth);
        let sg = syms.lookup("sg").unwrap();
        let model = BottomUpEngine::new(&rb, &db).unwrap().model().unwrap();
        // Every ordered pair of distinct nodes on the same level:
        // sum over levels k of 2^k * (2^k - 1).
        let expected: usize = (0..depth).map(|k| (1 << k) * ((1 << k) - 1)).sum();
        assert_eq!(model.count(sg), expected);
    }

    #[test]
    fn tc_program_matches_pair_count_on_a_chain() {
        use hdl_core::engine::BottomUpEngine;
        let n = 12;
        let (rb, db, syms) = tc_program(&Digraph::chain(n));
        let tc = syms.lookup("tc").unwrap();
        let model = BottomUpEngine::new(&rb, &db).unwrap().model().unwrap();
        assert_eq!(model.count(tc), n * (n - 1) / 2);
    }

    #[test]
    fn layered_rulebase_has_k_strata() {
        for k in 1..=4 {
            let (rb, _) = layered_rulebase(k, 2);
            let ls = hdl_core::analysis::stratify::linear_stratification(&rb)
                .expect("layered rulebase is linearly stratified");
            assert_eq!(ls.num_strata(), k);
        }
    }
}
