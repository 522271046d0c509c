//! The retained naive bottom-up closure — equivalence oracle and
//! benchmark baseline.
//!
//! [`NaiveEngine`] evaluates exactly like [`BottomUpEngine`] did before
//! the semi-naive rewrite (DESIGN.md §3.11): every fixpoint round
//! re-fires every rule of the stratum against the entire model, with no
//! delta-rotation. It exists for two reasons:
//!
//! - **Oracle.** The property suite (`tests/props.rs`) checks that the
//!   semi-naive closure derives exactly the same perfect model
//!   as this engine on randomized rulebases and databases, including
//!   under hypothetical `add:` branching.
//! - **Baseline.** The fixpoint benchmarks (`crates/bench`, emitting
//!   `BENCH_fixpoint.json`) report naive-versus-semi-naive work and wall
//!   time; both engines count premise-match attempts with the same
//!   accounting, so the ratio isolates what delta-rotation saves.
//!
//! Both evaluators run on the fixpoint kernel
//! ([`crate::engine::fixpoint`]) and share its premise walk — the
//! *scheduling* (which rules re-fire each round, and against which model
//! slice) is what differs, and that is the part the semi-naive rewrite
//! changed. Both therefore also walk premises in the same cost order,
//! not in written order, so this engine cannot check the walk.
//! Independent-implementation coverage of the walk itself comes from
//! the top-down engine, which the cross-engine tests compare against,
//! and from `hdl_datalog::naive` on hypothesis-free programs; the
//! property suite also permutes each rule's premises and requires the
//! same models and answers.

use crate::ast::{Premise, Rulebase};
use crate::engine::bottomup::BottomUpEngine;
use crate::engine::budget::Budget;
use crate::engine::stats::{EngineStats, Limits};
use hdl_base::{Atom, Database, Result, Symbol};

/// Naive bottom-up evaluation: full re-fire of every rule, every round.
pub struct NaiveEngine<'rb> {
    inner: BottomUpEngine<'rb>,
}

impl<'rb> NaiveEngine<'rb> {
    /// Builds a naive engine; fails if `rb` is not stratified.
    pub fn new(rb: &'rb Rulebase, db: &Database) -> Result<Self> {
        let mut inner = BottomUpEngine::new(rb, db)?;
        inner.set_semi_naive(false);
        Ok(NaiveEngine { inner })
    }

    /// Replaces the resource limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.inner = self.inner.with_limits(limits);
        self
    }

    /// Replaces the evaluation budget (deadline / cancellation token).
    pub fn set_budget(&mut self, budget: Budget) {
        self.inner.set_budget(budget);
    }

    /// A snapshot of the full perfect model of the base database.
    pub fn model(&mut self) -> Result<Database> {
        self.inner.model()
    }

    /// Evaluates a query premise against the base database.
    pub fn holds(&mut self, query: &Premise) -> Result<bool> {
        self.inner.holds(query)
    }

    /// All tuples of `pattern` in the perfect model of the base database.
    pub fn answers(&mut self, pattern: &Atom) -> Result<Vec<Vec<Symbol>>> {
        self.inner.answers(pattern)
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, split_facts};

    #[test]
    fn naive_matches_semi_naive_on_tc() {
        let src = "
            edge(a, b). edge(b, c). edge(c, d).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
        ";
        let mut syms = hdl_base::SymbolTable::new();
        let program = parse_program(src, &mut syms).unwrap();
        let (rb, facts) = split_facts(program);
        let db: Database = facts.into_iter().collect();
        let mut naive = NaiveEngine::new(&rb, &db).unwrap();
        let mut semi = BottomUpEngine::new(&rb, &db).unwrap();
        let m1 = naive.model().unwrap();
        let m2 = semi.model().unwrap();
        assert_eq!(m1, m2);
        assert!(
            naive.stats().goal_expansions > semi.stats().goal_expansions,
            "naive re-derivation must cost more match attempts ({} vs {})",
            naive.stats().goal_expansions,
            semi.stats().goal_expansions
        );
    }
}
