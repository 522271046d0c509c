//! The paper's `PROVE_Σᵢ` / `PROVE_Δᵢ` proof procedures (§5.2).
//!
//! The engine mirrors the paper's mutual recursion exactly:
//!
//! - **`PROVE_Σᵢ`** (§5.2.1) is the NP component: goals whose predicate is
//!   defined in an even partition `Σᵢ` are expanded top-down. Line 1 tests
//!   database membership, line 2 rewrites `B[add: Ā, del: C̄]` into
//!   `(B, (DB ∖ C̄) ∪ Ā)`,
//!   line 3 nondeterministically picks a defining rule and grounding, and
//!   line 4 hands every remaining goal to `PROVE_Δᵢ`. The paper's
//!   nondeterminism becomes deterministic backtracking over (rule,
//!   grounding) choices. Because ground goals in the goal set are mutually
//!   independent, the goal set is evaluated as a conjunction of
//!   independent recursive calls; the goal-sequence statistics of
//!   Theorem 3 are still recorded per expansion. The search is the
//!   tabled kernel in [`crate::engine::search`], shared with the
//!   top-down engine; this engine's `Prover` impl decides sub-goals
//!   by partition.
//! - **`PROVE_Δᵢ`** (§5.2.2) is the P component: the perfect model of the
//!   Horn-with-negation segment `Δᵢ` over a given database, computed
//!   bottom-up through its internal negation sub-strata (`LFPᵢ`/`Tᵢ`).
//!   `TESTᵢ⁰` resolves premises over predicates defined below the segment
//!   by invoking the next `PROVE_Σᵢ₋₁` as an oracle — including whole
//!   hypothetical premises, exactly as in the paper.
//!
//! Requires a *linearly stratified* rulebase (Definition 9); construction
//! fails otherwise. Provability dispatch is by partition number: even →
//! `Σ` top-down, odd → `Δ` model lookup, zero (no rules) → database
//! membership.

use crate::analysis::stratify::{linear_stratification, LinearStratification};
use crate::ast::{Premise, Rulebase};
use crate::engine::budget::Budget;
use crate::engine::context::Context;
use crate::engine::fixpoint::{self, classify, Fixpoint, Model, Resolver, RuleClass};
use crate::engine::search::{self, Parts, Prover, Tables, NO_CUT};
use crate::engine::stats::{EngineStats, Limits};
use hdl_base::{Atom, Bindings, Database, DbId, FactId, FxHashMap, Result, Symbol};
use std::sync::Arc;

/// Work counters of the PROVE procedures: the Theorem 3 quantities, plus
/// the [`EngineStats`] every engine reports (it derefs to them).
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct ProveStats {
    /// `Σ` goal expansions per stratum (index `i-1` for stratum `i`) — the
    /// quantity Theorem 3 bounds by `O(n^{2kᵢk₀})` per proof sequence.
    pub sigma_expansions: Vec<u64>,
    /// Oracle invocations (`TEST⁰` falling through to `PROVE_Σᵢ₋₁`).
    pub oracle_calls: u64,
    /// Δ perfect models computed (distinct `(stratum, db)` pairs).
    pub delta_models: u64,
    /// Everything else: match attempts plus Σ expansions
    /// (`goal_expansions`, the unit [`Limits::max_expansions`] bounds),
    /// the Σ search's calls, memo hits, maximum depth and hypothetical
    /// databases created, and the Δ fixpoint's rounds, index probes,
    /// worker rounds, delta trajectory and overlay snapshot.
    pub engine: EngineStats,
}

impl std::ops::Deref for ProveStats {
    type Target = EngineStats;

    fn deref(&self) -> &EngineStats {
        &self.engine
    }
}

/// The §5.2 proof-procedure engine.
pub struct ProveEngine<'rb> {
    ctx: Context<'rb>,
    ls: LinearStratification,
    /// Per stratum `i` (index `i-1`), the range of kernel groups holding
    /// its Δ sub-strata `Δᵢ₁,…,Δᵢₘ` (evaluation order): groups
    /// `segments[i-1]..segments[i]`.
    segments: Vec<usize>,
    /// The search kernel's goal tables (memo, in-progress set and the
    /// memory baselines).
    tables: Tables,
    /// Memoized Δ models, storing only the facts *derived* above the keyed
    /// database — the EDB layer stays in the overlay DAG and is consulted
    /// through a [`hdl_base::DbView`].
    delta_models: FxHashMap<(usize, DbId), Arc<Database>>,
    /// The kernel's share: one rule group per Δ sub-stratum.
    fx: Fixpoint,
    stats: ProveStats,
}

impl<'rb> ProveEngine<'rb> {
    /// Builds the engine; fails unless `rb` is linearly stratified.
    pub fn new(rb: &'rb Rulebase, db: &Database) -> Result<Self> {
        let ctx = Context::new(rb, db)?;
        let ls = linear_stratification(rb)?;
        let k = ls.num_strata();
        let mut groups: Vec<Arc<[usize]>> = Vec::new();
        let mut segments = vec![0];
        let mut classes = vec![RuleClass::default(); rb.rules.len()];
        for (i, stratum) in ls.strata.iter().enumerate() {
            let delta_part = 2 * (i + 1) - 1;
            for group in substrata(rb, &ls, &stratum.delta) {
                // Within a Δ sub-stratum the growing predicates are the
                // group's own heads; the segment's other predicates are
                // closed and EDB atoms fixed, while premises defined below
                // the segment go to the oracle.
                let heads: Vec<Symbol> = group.iter().map(|&r| rb.rules[r].head.pred).collect();
                for &r in &group {
                    classes[r] = classify(
                        &rb.rules[r],
                        |p| heads.contains(&p),
                        |p| [0, delta_part].contains(&ls.part(p)),
                    );
                }
                groups.push(Arc::from(group));
            }
            segments.push(groups.len());
        }
        Ok(ProveEngine {
            ctx,
            ls,
            segments,
            tables: Tables::default(),
            delta_models: FxHashMap::default(),
            fx: Fixpoint::new(groups, classes),
            stats: ProveStats {
                sigma_expansions: vec![0; k],
                ..Default::default()
            },
        })
    }

    /// Replaces the resource limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.fx.limits = limits;
        self
    }

    /// Sets the number of worker threads used for pure Δ-rule firings
    /// within a fixpoint round (clamped to at least 1). The computed
    /// models are identical for every setting; only wall-clock changes.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.fx.workers = workers.max(1);
    }

    /// Builder form of [`ProveEngine::set_parallelism`].
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.set_parallelism(workers);
        self
    }

    /// Replaces the evaluation budget (deadline / cancellation token).
    /// A tripped budget unwinds without recording in-flight verdicts, so
    /// memoized answers and Δ models stay sound for later queries.
    ///
    /// Memory limits carried by the budget bound growth from this
    /// moment: current store sizes become the measurement baseline.
    pub fn set_budget(&mut self, budget: Budget) {
        self.tables.rebase(&self.ctx);
        self.fx.set_budget(budget, &self.ctx);
    }

    /// Work counters.
    pub fn stats(&self) -> &ProveStats {
        &self.stats
    }

    /// The linear stratification in use.
    pub fn stratification(&self) -> &LinearStratification {
        &self.ls
    }

    /// The evaluation context.
    pub fn context(&self) -> &Context<'rb> {
        &self.ctx
    }

    /// Evaluates a query premise against the base database.
    pub fn holds(&mut self, query: &Premise) -> Result<bool> {
        let base = self.ctx.base_db;
        search::holds(self, query, base)
    }

    /// All domain tuples `x̄` such that `pattern(x̄)` is provable from the
    /// base database, sorted (mirrors the other engines' `answers`).
    pub fn answers(&mut self, pattern: &Atom) -> Result<Vec<Vec<Symbol>>> {
        match search::answers_partial(self, pattern) {
            (_, Some(e)) => Err(e),
            (rows, None) => Ok(rows),
        }
    }

    /// `PROVE_Δᵢ`: the perfect model of segment `Δᵢ` over `db`, memoized.
    ///
    /// Implements `LFPᵢ`/`Tᵢ` (§5.2.2) on the shared semi-naive kernel:
    /// the segment's sub-strata are closed in order, and `TESTᵢ⁰`
    /// resolves premises over lower-defined predicates through
    /// [`Prover::subgoal`] (the `PROVE_Σᵢ₋₁` oracle). Oracle premises
    /// are round-invariant, so rules carrying them still rotate on their
    /// layered premises; pure rules fan out across worker threads.
    fn delta_model(&mut self, stratum: usize, db: DbId) -> Result<Arc<Database>> {
        let key = (stratum, db);
        if let Some(m) = self.delta_models.get(&key) {
            return Ok(Arc::clone(m));
        }
        self.stats.delta_models += 1;
        // A trip of any kind drops the partial model (never memoized), so
        // Δ models stay sound.
        let mut model = Model {
            closed: self.segments[stratum - 1],
            derived: Database::new(),
        };
        fixpoint::saturate(self, db, self.segments[stratum], &mut model).map_err(|s| s.error)?;
        let arc = Arc::new(model.derived);
        self.delta_models.insert(key, Arc::clone(&arc));
        Ok(arc)
    }
}

impl<'rb> Resolver<'rb> for ProveEngine<'rb> {
    const ROUND_SITE: &'static str = "prove::delta_round";
    const FIRE_SITE: &'static str = "prove::delta_fire";

    fn split(&mut self) -> (&mut Context<'rb>, &mut Fixpoint, &mut EngineStats) {
        (&mut self.ctx, &mut self.fx, &mut self.stats.engine)
    }

    fn shared(&self) -> (&Context<'rb>, &Fixpoint) {
        (&self.ctx, &self.fx)
    }

    /// Same segment (the growing derived model) or EDB (the overlay
    /// view); anything defined below the segment goes to the oracle.
    fn layered(&self, head: Symbol, pred: Symbol) -> bool {
        let part = self.ls.part(pred);
        part == 0 || part == self.ls.part(head)
    }

    /// `TESTᵢ⁰` falling through to `PROVE_Σᵢ₋₁`.
    fn prove(&mut self, db: DbId, atom: &Atom, bindings: &Bindings) -> Result<bool> {
        let fid = self.ctx.ground_id(atom, bindings);
        let mut cut = NO_CUT;
        self.subgoal(fid, db, 0, &mut cut)
    }

    /// The goal tables' growth since the budget was set, plus the Δ model
    /// in flight.
    fn working_set(&self, derived: usize) -> u64 {
        self.tables.working_set(derived)
    }

    fn handed_below(&mut self) {
        self.stats.oracle_calls += 1;
    }
}

impl<'rb> Prover<'rb> for ProveEngine<'rb> {
    const SITE: &'static str = "prove::sigma";
    const LIMIT: &'static str = "sigma goal expansions";

    fn split(&mut self) -> Parts<'_, 'rb> {
        (
            &mut self.ctx,
            &mut self.tables,
            &mut self.stats.engine,
            &mut self.fx.budget,
            &self.fx.limits,
        )
    }

    /// Dispatches a ground goal by its predicate's partition: even →
    /// `PROVE_Σ` (the kernel's tabled goal, expanding the predicate's
    /// rules — all of them sit in that `Σᵢ`, since partitions are per
    /// predicate), odd → `PROVE_Δ` model, 0 → database membership.
    fn subgoal(&mut self, fact: FactId, db: DbId, depth: u64, cut: &mut u64) -> Result<bool> {
        if self.ctx.db_contains(db, fact) {
            return Ok(true); // line 1 of PROVE_Σ / first case of TEST⁰
        }
        let part = self.ls.part(self.ctx.dbs.facts().fact(fact).pred);
        if part == 0 {
            return Ok(false); // EDB predicate, not stored
        }
        if part % 2 == 1 {
            let model = self.delta_model(part.div_ceil(2), db)?;
            return Ok(model.contains(self.ctx.dbs.facts().fact(fact)));
        }
        search::goal(self, fact, db, depth, cut)
    }

    /// Theorem 3's per-stratum goal-sequence count.
    fn expanded(&mut self, goal: FactId) {
        let part = self.ls.part(self.ctx.dbs.facts().fact(goal).pred);
        self.stats.sigma_expansions[part / 2 - 1] += 1;
    }

    fn forget(&mut self) {
        self.delta_models.clear();
    }
}

/// Groups Δ-segment rules by internal negation sub-strata (§5.2.2's
/// `Δᵢ₁,…,Δᵢₘ`): a rule whose body negates a predicate defined in the same
/// segment must belong to a strictly later sub-stratum, so that the
/// negated predicate is saturated before the negation is tested.
fn substrata(rb: &Rulebase, ls: &LinearStratification, delta: &[usize]) -> Vec<Vec<usize>> {
    // Assign each Δ-defined predicate a sub-stratum: lfp of
    //   sub(p) ≥ sub(q)       for positive edges within the segment,
    //   sub(p) ≥ sub(q) + 1   for negative edges within the segment.
    let mut sub: FxHashMap<Symbol, usize> = FxHashMap::default();
    for &i in delta {
        sub.insert(rb.rules[i].head.pred, 0);
    }
    let mut changed = true;
    let mut guard = 0usize;
    while changed && guard <= 2 * delta.len() + 2 {
        changed = false;
        guard += 1;
        for &i in delta {
            let rule = &rb.rules[i];
            let head = rule.head.pred;
            let mut need = sub[&head];
            for premise in &rule.premises {
                match premise {
                    Premise::Atom(a) => {
                        if let Some(&s) = sub.get(&a.pred) {
                            need = need.max(s);
                        }
                    }
                    Premise::Neg(a) => {
                        if let Some(&s) = sub.get(&a.pred) {
                            if ls.part(a.pred) == ls.part(head) {
                                need = need.max(s + 1);
                            }
                        }
                    }
                    Premise::Hyp { .. } => {}
                }
            }
            if need > sub[&head] {
                sub.insert(head, need);
                changed = true;
            }
        }
    }
    let max_sub = delta
        .iter()
        .map(|&i| sub[&rb.rules[i].head.pred])
        .max()
        .unwrap_or(0);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); max_sub + 1];
    for &i in delta {
        groups[sub[&rb.rules[i].head.pred]].push(i);
    }
    groups.retain(|g| !g.is_empty());
    groups
}
