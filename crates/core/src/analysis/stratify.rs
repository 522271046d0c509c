//! Stratification: one stratum solver, and linear stratification
//! (Definitions 6–9) with the Lemma 1 algorithms.
//!
//! 1. `solve` — the least stratum map of a dependency edge list in
//!    which *strict* edges must climb a stratum, or the strict edge on a
//!    cycle that rules one out. Callers choose the strict edges: negation
//!    ([`global_strata`], checked on every load and by every engine), also
//!    hypothetical edges across recursion classes (the bottom-up engine's
//!    order), or negation inside one Δ segment (the `PROVE_Δᵢ` sub-strata).
//!
//! 2. [`linear_stratification`] — the paper's finer `(Δᵢ, Σᵢ)` structure:
//!    - *decision* (Lemma 1): fail if the global strata do not exist
//!      (recursion through negation); fail if a class has both
//!      hypothetical recursion and non-linear recursion;
//!    - *construction*: the relaxation algorithm — every predicate starts
//!      in partition 1 and partition numbers are incremented until the
//!      Definition 6 conditions hold. Odd partitions `R₂ᵢ₋₁` are the Horn
//!      segments `Δᵢ` (negation allowed, hypothetical goals must be
//!      defined strictly below); even partitions `R₂ᵢ` are the
//!      hypothetical segments `Σᵢ` (hypothetical recursion allowed,
//!      negated predicates must be defined strictly below).

use crate::analysis::linearity::{rule_recursion, RuleRecursion};
use crate::analysis::recursion::{DepEdge, HypEdge, RecursionAnalysis};
use crate::ast::{HypRule, Premise, Rulebase};
use crate::pretty;
use hdl_base::{Error, FxHashMap, Result, Symbol, SymbolTable};
use std::collections::{hash_map::Entry, VecDeque};

/// A least stratum map.
#[derive(Debug, Clone)]
pub struct Strata {
    /// Stratum per predicate of the rulebase.
    pub stratum_of: FxHashMap<Symbol, usize>,
    /// Number of strata (0 for an empty rulebase).
    pub num_strata: usize,
}

impl Strata {
    /// Stratum of `p` (0 for predicates no rule mentions).
    pub fn stratum(&self, p: Symbol) -> usize {
        self.stratum_of.get(&p).copied().unwrap_or(0)
    }
}

/// The error an unstratified program is refused with, for a `cycle` as
/// [`solve`] reports it. It names predicates and quotes rules by `syms`;
/// without one (engines hold none) it gives predicate ids and rule
/// indices.
pub(crate) fn unstratified(cycle: &[DepEdge], rb: &Rulebase, syms: Option<&SymbolTable>) -> Error {
    let rule = |i: usize| match syms {
        Some(syms) => format!("`{}`", pretty::rule(&rb.rules[i], syms)),
        None => format!("rule {i}"),
    };
    let steps: Vec<String> = cycle
        .iter()
        .enumerate()
        .map(|(k, e)| {
            let verb = if k == 0 { "negates" } else { "depends on" };
            let (from, to) = (name(e.from, syms), name(e.to, syms));
            format!("{from} {verb} {to} in {}", rule(e.rule))
        })
        .collect();
    Error::NotStratified {
        cycle: steps.join("; "),
    }
}

/// `p`'s name in `syms`, or `#id` without a table.
fn name(p: Symbol, syms: Option<&SymbolTable>) -> String {
    syms.map_or_else(|| format!("#{}", p.0), |syms| syms.name(p).to_owned())
}

/// The one stratum solver: the least map with `stratum(from) ≥
/// stratum(to)` for every edge of `edges` (a subset of `ra.edges`), `+ 1`
/// where `strict` holds; or, when the first strict edge that lies on a
/// cycle rules it out, that cycle: the strict edge, then the edges that
/// lead from its target back to its source (their `from`s are the
/// cycle's predicate path).
///
/// One pass over the condensation, whose components are `ra`'s classes:
/// a strict edge inside a class has no solution, and each class takes
/// the largest need of its edges into classes already settled. A cycle
/// of `ra` through an edge of a proper subset must stay in that subset.
pub(crate) fn solve(
    ra: &RecursionAnalysis,
    edges: &[DepEdge],
    strict: impl Fn(&DepEdge) -> bool,
) -> std::result::Result<Strata, Vec<DepEdge>> {
    let class = |p: Symbol| ra.class_of[&p];
    let on_cycle = |e: &&DepEdge| strict(e) && class(e.from) == class(e.to);
    if let Some(&e) = edges.iter().find(on_cycle) {
        return Err(cycle_through(e, edges));
    }
    // Class ids are in reverse topological order: an edge between two
    // classes points to the smaller id, so ascending order settles every
    // class after all it depends on.
    let mut by_class: Vec<&DepEdge> = edges.iter().collect();
    by_class.sort_by_key(|e| class(e.from));
    let mut level = vec![0usize; ra.num_classes];
    for e in by_class {
        let need = level[class(e.to)] + usize::from(strict(e));
        level[class(e.from)] = level[class(e.from)].max(need);
    }
    Ok(Strata {
        stratum_of: ra.preds.iter().map(|&p| (p, level[class(p)])).collect(),
        num_strata: level.iter().max().map_or(0, |m| m + 1),
    })
}

/// A shortest cycle through `strict`: the edge itself, then a
/// breadth-first path from its target back to its source (every node of
/// such a path lies in their class).
fn cycle_through(strict: DepEdge, edges: &[DepEdge]) -> Vec<DepEdge> {
    let mut reached_by: FxHashMap<Symbol, DepEdge> = FxHashMap::default();
    let mut queue = VecDeque::from([strict.to]);
    while let Some(p) = queue.pop_front() {
        for e in edges.iter().filter(|e| e.from == p && e.to != strict.to) {
            if let Entry::Vacant(slot) = reached_by.entry(e.to) {
                slot.insert(*e);
                queue.push_back(e.to);
            }
        }
    }
    let mut cycle = vec![strict];
    let mut p = strict.from;
    while p != strict.to {
        let e = reached_by[&p];
        cycle.insert(1, e);
        p = e.from;
    }
    cycle
}

/// The global strata: every negative edge strict. Every load is checked
/// against them, and an engine refuses a rulebase that has none.
pub fn global_strata(
    rb: &Rulebase,
    ra: &RecursionAnalysis,
    syms: Option<&SymbolTable>,
) -> Result<Strata> {
    solve(ra, &ra.edges, |e| e.kind == HypEdge::Negative).map_err(|c| unstratified(&c, rb, syms))
}

/// One stratum `Δᵢ ∪ Σᵢ` (Definition 7), holding rule indices into the
/// originating [`Rulebase`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stratum {
    /// Rules of the lower, Horn-with-negation part `Δᵢ = R₂ᵢ₋₁`.
    pub delta: Vec<usize>,
    /// Rules of the upper, hypothetical part `Σᵢ = R₂ᵢ`.
    pub sigma: Vec<usize>,
}

/// A linear stratification (Definition 9) of a rulebase.
#[derive(Debug, Clone)]
pub struct LinearStratification {
    /// Partition number per predicate (1-based, as in Definition 6).
    pub part_of: FxHashMap<Symbol, usize>,
    /// Strata in order; `strata[i]` is stratum `i+1`.
    pub strata: Vec<Stratum>,
    /// Iterations of the relaxation algorithm's outer loop (Lemma 1 claims
    /// `O(m²)`; experiment E5 measures this).
    pub relaxation_iterations: usize,
    /// The mutual-recursion analysis used.
    pub recursion: RecursionAnalysis,
}

impl LinearStratification {
    /// Number of strata `k` (each stratum is one `(Δᵢ, Σᵢ)` pair).
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Partition number of `p` (0 for predicates without rules; such
    /// predicates behave as EDB input and live below every stratum).
    pub fn part(&self, p: Symbol) -> usize {
        self.part_of.get(&p).copied().unwrap_or(0)
    }

    /// The stratum index (1-based) of `p`: `⌈part / 2⌉`.
    pub fn stratum(&self, p: Symbol) -> usize {
        self.part(p).div_ceil(2)
    }

    /// Whether `p` is defined in a `Σ` (even) partition.
    pub fn in_sigma(&self, p: Symbol) -> bool {
        let part = self.part(p);
        part > 0 && part.is_multiple_of(2)
    }
}

/// Occurrence conditions of Definition 6 for a predicate placed in
/// partition `part`, given the partitions of the predicates its definition
/// mentions. Returns the smallest partition `≥ part` at which all
/// conditions hold.
fn required_part(rules: &[&HypRule], part_of: &FxHashMap<Symbol, usize>, part: usize) -> usize {
    let mut p = part.max(1);
    loop {
        let even = p.is_multiple_of(2);
        let mut ok = true;
        'rules: for rule in rules {
            for premise in &rule.premises {
                let (q, strict) = match premise {
                    // Positive occurrences: defined at or below, always.
                    Premise::Atom(a) => (a.pred, false),
                    // Negative occurrences: strictly below when the rule
                    // sits in an even (Σ) segment; within a Δ segment the
                    // intra-Δ stratified-negation check handles ordering.
                    Premise::Neg(a) => (a.pred, even),
                    // Hypothetical occurrences: strictly below when the
                    // rule sits in an odd (Δ) segment; even segments allow
                    // hypothetical recursion — unless the premise carries a
                    // `del:` list, which is negation-like (the goal's facts
                    // must be *absent*) and is strict everywhere.
                    Premise::Hyp { goal, dels, .. } => (goal.pred, !even || !dels.is_empty()),
                };
                let qp = part_of.get(&q).copied().unwrap_or(0);
                if qp > p || (strict && qp == p) {
                    ok = false;
                    break 'rules;
                }
            }
        }
        if ok {
            return p;
        }
        p += 1;
    }
}

/// Decides linear stratifiability and constructs a stratification
/// (Lemma 1). Errors name predicates by id; see
/// [`linear_stratification_with`].
pub fn linear_stratification(rb: &Rulebase) -> Result<LinearStratification> {
    linear_stratification_with(rb, None)
}

/// [`linear_stratification`], naming predicates and quoting rules in its
/// errors by `syms`.
pub fn linear_stratification_with(
    rb: &Rulebase,
    syms: Option<&SymbolTable>,
) -> Result<LinearStratification> {
    let ra = RecursionAnalysis::new(rb);

    // Decision test 1: no equivalence class may have recursion through
    // negation.
    global_strata(rb, &ra, syms)?;

    // Decision test 2: no class may have both hypothetical recursion and
    // non-linear recursion.
    let hyp_recursive = |p| {
        ra.edges.iter().any(|e| {
            e.kind == HypEdge::Hypothetical
                && ra.class(e.from) == ra.class(p)
                && ra.mutually_recursive(e.from, e.to)
        })
    };
    let nonlinear = |r: &HypRule| matches!(rule_recursion(r, &ra), RuleRecursion::NonLinear(_));
    if let Some(rule) = rb
        .iter()
        .find(|r| nonlinear(r) && hyp_recursive(r.head.pred))
    {
        return Err(Error::NotLinearlyStratified {
            reason: format!(
                "the recursion class of predicate {} mixes hypothetical \
                 recursion with non-linear recursion (Definition 9)",
                name(rule.head.pred, syms)
            ),
        });
    }

    // Construction: the Definition 6 relaxation, shared with
    // h_stratification.
    let (part_of, strata, iterations) = relaxation(rb)?;

    // Mutually recursive predicates must share a partition (they are one
    // definition unit); the relaxation guarantees this, assert in debug.
    debug_assert!(rb.iter().all(|r| rb.iter().all(|q| {
        !ra.mutually_recursive(r.head.pred, q.head.pred)
            || part_of[&r.head.pred] == part_of[&q.head.pred]
    })));

    Ok(LinearStratification {
        part_of,
        strata,
        relaxation_iterations: iterations,
        recursion: ra,
    })
}

/// An H-stratification (Definition 6) without the Definition 9 linearity
/// and intra-Δ conditions — the weaker notion the paper contrasts with
/// linear stratification (Example 10 is H-stratified but not linearly
/// stratified).
#[derive(Debug, Clone)]
pub struct HStratification {
    /// Partition number per predicate (1-based).
    pub part_of: FxHashMap<Symbol, usize>,
    /// Strata `(Δᵢ, Σᵢ)` in order.
    pub strata: Vec<Stratum>,
    /// Relaxation sweeps used.
    pub relaxation_iterations: usize,
}

impl HStratification {
    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Partition of `p` (0 = no rules / EDB).
    pub fn part(&self, p: Symbol) -> usize {
        self.part_of.get(&p).copied().unwrap_or(0)
    }
}

/// Computes an H-stratification (Definition 6) by relaxation, without
/// requiring linearity or stratified negation inside Δ segments.
///
/// Not every rulebase is H-stratifiable: a mutual-recursion class that
/// combines a hypothetical occurrence with a negative one (e.g.
/// `a ← b[add:c]. b ← ~a.`) has no partition satisfying the conditions,
/// and the relaxation reports it.
pub fn h_stratification(rb: &Rulebase) -> Result<HStratification> {
    let (part_of, strata, relaxation_iterations) = relaxation(rb)?;
    Ok(HStratification {
        part_of,
        strata,
        relaxation_iterations,
    })
}

/// The Definition 6 relaxation: least partition assignment satisfying
/// the occurrence conditions. Fails (`NotLinearlyStratified` with an
/// H-stratification message) if no assignment exists.
#[allow(clippy::type_complexity)]
fn relaxation(rb: &Rulebase) -> Result<(FxHashMap<Symbol, usize>, Vec<Stratum>, usize)> {
    // Only predicates with definitions participate; rule-less predicates
    // stay in implicit partition 0 (EDB).
    let defined: Vec<Symbol> = {
        let mut v: Vec<Symbol> = rb.iter().map(|r| r.head.pred).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut defs: FxHashMap<Symbol, Vec<&HypRule>> = FxHashMap::default();
    for rule in rb.iter() {
        defs.entry(rule.head.pred).or_default().push(rule);
    }
    let mut part_of: FxHashMap<Symbol, usize> = defined.iter().map(|&p| (p, 1usize)).collect();
    let cap = 2 * defined.len() + 2;
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;
        for &p in &defined {
            let cur = part_of[&p];
            let need = required_part(&defs[&p], &part_of, cur);
            if need > cur {
                // The paper increments by 1 per pass; jumping straight to
                // the locally required partition computes the same least
                // fixpoint in fewer sweeps.
                part_of.insert(p, need.min(cap));
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if part_of.values().any(|&v| v >= cap) {
            return Err(Error::NotLinearlyStratified {
                reason: "no partition satisfies the Definition 6 conditions                          (not H-stratifiable)"
                    .into(),
            });
        }
    }

    // Assemble strata: stratum i holds Δᵢ = R₂ᵢ₋₁ and Σᵢ = R₂ᵢ.
    let max_part = part_of.values().copied().max().unwrap_or(0);
    let num_strata = max_part.div_ceil(2);
    let mut strata = vec![Stratum::default(); num_strata];
    for (idx, rule) in rb.iter().enumerate() {
        let part = part_of[&rule.head.pred];
        let stratum = part.div_ceil(2);
        if part % 2 == 1 {
            strata[stratum - 1].delta.push(idx);
        } else {
            strata[stratum - 1].sigma.push(idx);
        }
    }
    Ok((part_of, strata, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use hdl_base::SymbolTable;

    fn strat(src: &str) -> (Result<LinearStratification>, SymbolTable) {
        let mut syms = SymbolTable::new();
        let rb = parse_program(src, &mut syms).unwrap();
        (linear_stratification(&rb), syms)
    }

    #[test]
    fn example_9_has_three_strata() {
        let (ls, syms) = strat(
            "a3 :- b3, a3[add: c3].
             a3 :- d3, ~a2.
             a2 :- b2, a2[add: c2].
             a2 :- d2, ~a1.
             a1 :- b1, a1[add: c1].
             a1 :- d1.",
        );
        let ls = ls.expect("Example 9 is linearly stratified");
        assert_eq!(ls.num_strata(), 3);
        for (name, stratum) in [("a1", 1), ("a2", 2), ("a3", 3)] {
            let p = syms.lookup(name).unwrap();
            assert_eq!(ls.stratum(p), stratum, "{name}");
            assert!(ls.in_sigma(p), "{name} sits in a Σ segment");
        }
    }

    #[test]
    fn example_10_is_rejected() {
        // H-stratified but not linearly stratified: Σ₂ has a rule of form
        // (2) and Δ₂ has recursion through negation.
        let (ls, _) = strat(
            "a2 :- a2[add: e2], a2[add: f2].
             a2 :- ~b2.
             b2 :- ~c2, b2.
             c2 :- ~d2, c2.
             d2 :- a1[add: g1].
             a1 :- a1[add: e1].
             a1 :- a1[add: f1].
             a1 :- ~b1.",
        );
        assert!(ls.is_err());
    }

    #[test]
    fn parity_rulebase_is_one_stratum() {
        // Example 6: EVEN/ODD in Σ₁, SELECT in Δ₁.
        let (ls, syms) = strat(
            "even :- select(X), odd[add: b(X)].
             odd :- select(X), even[add: b(X)].
             even :- ~select(X).
             select(X) :- a(X), ~b(X).",
        );
        let ls = ls.unwrap();
        assert_eq!(ls.num_strata(), 1);
        let even = syms.lookup("even").unwrap();
        let select = syms.lookup("select").unwrap();
        assert!(ls.in_sigma(even));
        assert!(!ls.in_sigma(select));
        assert_eq!(ls.part(select), 1);
        assert_eq!(ls.part(even), 2);
    }

    #[test]
    fn hamiltonian_rulebase_is_one_stratum() {
        // Example 7.
        let (ls, syms) = strat(
            "yes :- node(X), path(X)[add: pnode(X)].
             path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
             path(X) :- ~select(Y).
             select(Y) :- node(Y), ~pnode(Y).",
        );
        let ls = ls.unwrap();
        assert_eq!(ls.num_strata(), 1);
        let path = syms.lookup("path").unwrap();
        assert!(ls.in_sigma(path));
    }

    #[test]
    fn example_8_negated_yes_forces_second_stratum() {
        // Adding `no :- ~yes.` to Example 7 lifts `no` above `yes`:
        // a Σ-definition may only be negated from a strictly higher part.
        let (ls, syms) = strat(
            "yes :- node(X), path(X)[add: pnode(X)].
             path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
             path(X) :- ~select(Y).
             select(Y) :- node(Y), ~pnode(Y).
             no :- ~yes.",
        );
        let ls = ls.unwrap();
        let yes = syms.lookup("yes").unwrap();
        let no = syms.lookup("no").unwrap();
        assert!(ls.part(no) > ls.part(yes));
        assert_eq!(ls.num_strata(), 2, "NO lands in Δ₂");
        assert!(!ls.in_sigma(no));
    }

    #[test]
    fn plain_horn_stays_in_delta_1() {
        let (ls, syms) = strat(
            "tc(X, Y) :- e(X, Y).
             tc(X, Z) :- tc(X, Y), tc(Y, Z).",
        );
        // Non-linear recursion is fine in Δ (Horn) segments.
        let ls = ls.unwrap();
        let tc = syms.lookup("tc").unwrap();
        assert_eq!(ls.part(tc), 1);
        assert_eq!(ls.num_strata(), 1);
        assert!(!ls.in_sigma(tc));
    }

    #[test]
    fn recursion_through_negation_rejected() {
        let (ls, _) = strat("a :- ~b.\nb :- ~a.");
        assert!(matches!(ls, Err(Error::NotStratified { .. })));
    }

    #[test]
    fn hyp_plus_nonlinear_in_one_class_rejected() {
        let (ls, _) = strat(
            "a :- b, d1, d2.
             d1 :- a[add: c1].
             d2 :- a[add: c2].",
        );
        assert!(matches!(ls, Err(Error::NotLinearlyStratified { .. })));
    }

    #[test]
    fn hyp_with_negation_can_share_the_sigma_segment() {
        // `d :- a1[add: g], ~other.` is the §5.1.3 oracle-invocation shape:
        // a hypothetical premise plus negation of something strictly below.
        // The minimal Definition-6 partition puts d in the same Σ segment
        // as a1 (negating part-1 `other` from part 2 is strictly below).
        let (ls, syms) = strat(
            "a1 :- a1[add: c1].
             a1 :- base.
             d :- a1[add: g], ~other.
             other :- base2.",
        );
        let ls = ls.unwrap();
        let a1 = syms.lookup("a1").unwrap();
        let d = syms.lookup("d").unwrap();
        let other = syms.lookup("other").unwrap();
        assert!(ls.in_sigma(a1));
        assert!(ls.in_sigma(d));
        assert_eq!(ls.stratum(d), ls.stratum(a1));
        assert!(
            ls.part(other) < ls.part(d),
            "negated predicate strictly below"
        );
        assert_eq!(ls.num_strata(), 1);
    }

    #[test]
    fn hyp_goal_in_delta_forces_next_stratum() {
        // A Δ-shaped rule (negation of a predicate in the *same* odd
        // segment would be fine, but) whose hypothetical goal is a Σ
        // predicate must sit strictly above that Σ: here `d` negates a
        // predicate that itself negates d's... simpler: force d odd by
        // making it the target of intra-Δ negation from a sibling.
        let (ls, syms) = strat(
            "a1 :- a1[add: c1].
             a1 :- base.
             d :- a1[add: g].
             e :- ~d, d2.
             d2 :- ~e2.
             e2 :- d[add: z].",
        );
        let ls = ls.unwrap();
        let a1 = syms.lookup("a1").unwrap();
        let e2 = syms.lookup("e2").unwrap();
        let d = syms.lookup("d").unwrap();
        // e2 queries d hypothetically; whatever segment e2 lands in, it is
        // at or above d's, and a1 stays at the bottom Σ.
        assert!(ls.part(e2) >= ls.part(d));
        assert!(ls.part(d) >= ls.part(a1));
        assert!(ls.in_sigma(a1));
    }

    #[test]
    fn del_recursion_is_rejected_like_negation() {
        let (ls, _) = strat("p :- p[del: c].");
        assert!(matches!(ls, Err(Error::NotStratified { .. })));
        let (ls, _) = strat("a :- b[del: c].\nb :- a.");
        assert!(matches!(ls, Err(Error::NotStratified { .. })));
    }

    #[test]
    fn del_goal_sits_strictly_below_even_in_sigma() {
        // A del-carrying premise is negation-like: its goal must be
        // defined strictly below, even inside a Σ segment where plain
        // hypothetical recursion would be allowed.
        let (ls, syms) = strat(
            "a1 :- a1[add: c1].
             a1 :- base.
             d :- a1[add: g, del: c1].",
        );
        let ls = ls.unwrap();
        let a1 = syms.lookup("a1").unwrap();
        let d = syms.lookup("d").unwrap();
        assert!(ls.part(d) > ls.part(a1), "del: goal strictly below");
        let ns = {
            let mut syms2 = SymbolTable::new();
            let rb = parse_program(
                "a1 :- a1[add: c1].
                 a1 :- base.
                 d :- a1[add: g, del: c1].",
                &mut syms2,
            )
            .unwrap();
            global_strata(&rb, &RecursionAnalysis::new(&rb), None).unwrap()
        };
        assert_eq!(ns.num_strata, 2, "global strata are strict across del:");
    }

    #[test]
    fn global_strata_order_negation() {
        let mut syms = SymbolTable::new();
        let rb = parse_program(
            "p :- ~q.
             q :- r[add: c].
             r :- base.",
            &mut syms,
        )
        .unwrap();
        let ns = global_strata(&rb, &RecursionAnalysis::new(&rb), None).unwrap();
        let p = syms.lookup("p").unwrap();
        let q = syms.lookup("q").unwrap();
        let r = syms.lookup("r").unwrap();
        assert!(ns.stratum(p) > ns.stratum(q));
        assert_eq!(ns.stratum(q), ns.stratum(r));
        assert_eq!(ns.num_strata, 2);
    }

    #[test]
    fn global_strata_reject_negative_cycles() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("a :- b[add: c].\nb :- ~a.", &mut syms).unwrap();
        assert!(global_strata(&rb, &RecursionAnalysis::new(&rb), None).is_err());
    }

    /// The global strata of `src`, or the cycle that prevents them as
    /// `(predicate path, rule of the strict edge)` by name.
    fn solved(src: &str) -> std::result::Result<Strata, (Vec<String>, usize)> {
        let mut syms = SymbolTable::new();
        let rb = parse_program(src, &mut syms).unwrap();
        let ra = RecursionAnalysis::new(&rb);
        solve(&ra, &ra.edges, |e| e.kind == HypEdge::Negative).map_err(|c| {
            let path = c.iter().map(|e| syms.name(e.from).to_owned());
            (path.collect(), c[0].rule)
        })
    }

    #[test]
    fn solver_accepts_a_positive_cycle() {
        let strata = solved("p(X) :- q(X).\nq(X) :- p(X).").unwrap();
        assert_eq!(strata.num_strata, 1);
    }

    #[test]
    fn solver_rejects_a_negative_cycle_with_its_path() {
        let src = "p(X) :- seed(X), ~q(X).\nq(X) :- seed(X), p(X).";
        assert_eq!(solved(src).unwrap_err(), (vec!["p".into(), "q".into()], 0));
    }

    #[test]
    fn solver_rejects_self_negation_with_a_one_predicate_path() {
        let src = "p(X) :- seed(X), ~p(X).";
        assert_eq!(solved(src).unwrap_err(), (vec!["p".into()], 0));
    }

    #[test]
    fn refusals_name_the_cycle_and_its_rules() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("p :- ~q.\nq :- r.\nr :- p.", &mut syms).unwrap();
        let ra = RecursionAnalysis::new(&rb);
        let named = global_strata(&rb, &ra, Some(&syms)).unwrap_err();
        assert_eq!(
            named.to_string(),
            "program is not stratified: recursion through negation (p negates q in \
             `p :- ~q.`; q depends on r in `q :- r.`; r depends on p in `r :- p.`)"
        );
        let by_id = global_strata(&rb, &ra, None).unwrap_err().to_string();
        assert!(by_id.contains("#0 negates #1 in rule 0; #1 depends on #2 in rule 1"));
    }

    #[test]
    fn relaxation_iteration_count_is_small() {
        let (ls, _) = strat(
            "a3 :- b3, a3[add: c3].
             a3 :- d3, ~a2.
             a2 :- b2, a2[add: c2].
             a2 :- d2, ~a1.
             a1 :- b1, a1[add: c1].
             a1 :- d1.",
        );
        let ls = ls.unwrap();
        // Lemma 1 bounds the outer loop by O(m²); with jump-relaxation the
        // count is far smaller, but certainly within the bound.
        let m = ls.part_of.len();
        assert!(ls.relaxation_iterations <= m * m + 2);
    }
}

#[cfg(test)]
mod h_tests {
    use super::*;
    use crate::parser::parse_program;
    use hdl_base::SymbolTable;

    #[test]
    fn example_10_is_h_stratified_but_not_linear() {
        let mut syms = SymbolTable::new();
        let rb = parse_program(
            "a2 :- a2[add: e2], a2[add: f2].
             a2 :- ~b2.
             b2 :- ~c2, b2.
             c2 :- ~d2, c2.
             d2 :- a1[add: g1].
             a1 :- a1[add: e1].
             a1 :- a1[add: f1].
             a1 :- ~b1.",
            &mut syms,
        )
        .unwrap();
        let h = h_stratification(&rb).expect("Example 10 is H-stratified");
        assert_eq!(h.num_strata(), 2, "the paper says two strata");
        let a1 = syms.lookup("a1").unwrap();
        let a2 = syms.lookup("a2").unwrap();
        let d2 = syms.lookup("d2").unwrap();
        assert!(h.part(a2) > h.part(a1));
        // The paper's displayed partition puts d2 in Δ₂; the *least*
        // Definition-6 partition may place it in Σ₁ (even segments do not
        // constrain hypothetical occurrences of lower predicates). Both
        // satisfy Definition 6.
        assert!(h.part(d2) >= h.part(a1));
        // …but linear stratification rejects it.
        assert!(linear_stratification(&rb).is_err());
    }

    #[test]
    fn hyp_neg_mutual_recursion_is_not_h_stratifiable() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("a :- b[add: c].\nb :- ~a.", &mut syms).unwrap();
        assert!(h_stratification(&rb).is_err());
    }

    #[test]
    fn h_stratification_matches_linear_when_linear_exists() {
        let mut syms = SymbolTable::new();
        let rb = parse_program(
            "a2 :- b2, a2[add: c2].
             a2 :- d2, ~a1.
             a1 :- a1[add: c1].
             a1 :- d1.",
            &mut syms,
        )
        .unwrap();
        let h = h_stratification(&rb).unwrap();
        let l = linear_stratification(&rb).unwrap();
        assert_eq!(h.part_of, l.part_of, "same least Definition-6 partition");
    }
}
