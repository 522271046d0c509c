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
//!   Theorem 3 are still recorded per expansion.
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
use crate::ast::{HypRule, Premise, Rulebase};
use crate::engine::budget::Budget;
use crate::engine::context::Context;
use crate::engine::fixpoint::{self, classify, Fixpoint, Model, Resolver, RuleClass};
use crate::engine::matching::collect_free;
use crate::engine::stats::{EngineStats, Limits};
use hdl_base::{
    Atom, Bindings, Database, DbId, Error, FactId, FxHashMap, GroundAtom, Result, Symbol, Var,
};
use std::sync::Arc;

const NO_CUT: u64 = u64::MAX;

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
    /// memo hits and maximum Σ depth, and the Δ fixpoint's rounds, index
    /// probes, worker rounds, delta trajectory and overlay snapshot.
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
    /// Σ rule indices per stratum, shared immutably so an expansion never
    /// copies its group.
    sigma_rules: Vec<Arc<[usize]>>,
    memo: FxHashMap<(FactId, DbId), bool>,
    in_progress: FxHashMap<(FactId, DbId), u64>,
    /// Memoized Δ models, storing only the facts *derived* above the keyed
    /// database — the EDB layer stays in the overlay DAG and is consulted
    /// through a [`hdl_base::DbView`].
    delta_models: FxHashMap<(usize, DbId), Arc<Database>>,
    /// The kernel's share: one rule group per Δ sub-stratum.
    fx: Fixpoint,
    stats: ProveStats,
    /// Goal-table size when the budget was installed; the goal cap bounds
    /// growth past it (engines are reused across queries).
    goals_baseline: u64,
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
        let sigma_rules = ls
            .strata
            .iter()
            .map(|stratum| Arc::from(stratum.sigma.clone()))
            .collect();
        Ok(ProveEngine {
            ctx,
            ls,
            segments,
            sigma_rules,
            memo: FxHashMap::default(),
            in_progress: FxHashMap::default(),
            delta_models: FxHashMap::default(),
            fx: Fixpoint::new(groups, classes),
            stats: ProveStats {
                sigma_expansions: vec![0; k],
                ..Default::default()
            },
            goals_baseline: 0,
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
        self.goals_baseline = (self.memo.len() + self.in_progress.len()) as u64;
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
        let num_vars = query.vars().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut bindings = Bindings::new(num_vars);
        let result = match query {
            Premise::Atom(atom) => {
                let free = bindings.free_vars_of(atom);
                self.exists_atomic(atom, &free, 0, &mut bindings, base)
            }
            Premise::Neg(atom) => {
                let free = bindings.free_vars_of(atom);
                self.exists_atomic(atom, &free, 0, &mut bindings, base)
                    .map(|found| !found)
            }
            Premise::Hyp { goal, adds, dels } => {
                // Definition 3: the goal is proved in `(DB ∖ C̄) ∪ B̄`,
                // whose domain includes the `add:` atoms' constants even
                // when fresh to this rulebase and database. Memoized
                // verdicts and Δ models were computed under the smaller
                // domain, so a growth invalidates them.
                let fresh = adds
                    .iter()
                    .flat_map(|a| a.args.iter().filter_map(|t| t.as_const()));
                if self.ctx.extend_domain(fresh) {
                    self.memo.clear();
                    self.delta_models.clear();
                }
                let free = collect_free(goal, adds, dels, &bindings);
                self.exists_hyp(goal, adds, dels, &free, 0, &mut bindings, base)
            }
        };
        self.stats
            .engine
            .record_overlay(self.ctx.dbs.overlay_stats());
        result
    }

    /// All domain tuples `x̄` such that `pattern(x̄)` is provable from the
    /// base database, sorted (mirrors the other engines' `answers`).
    pub fn answers(&mut self, pattern: &Atom) -> Result<Vec<Vec<Symbol>>> {
        let base = self.ctx.base_db;
        let num_vars = pattern.vars().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut bindings = Bindings::new(num_vars);
        let free = bindings.free_vars_of(pattern);
        let mut out = Vec::new();
        let walked = self.collect_answers(pattern, &free, 0, &mut bindings, base, &mut out);
        self.stats
            .engine
            .record_overlay(self.ctx.dbs.overlay_stats());
        walked?;
        out.sort();
        out.dedup();
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn collect_answers(
        &mut self,
        pattern: &Atom,
        free: &[Var],
        pos: usize,
        bindings: &mut Bindings,
        db: DbId,
        out: &mut Vec<Vec<Symbol>>,
    ) -> Result<()> {
        if pos == free.len() {
            let fact = pattern.ground(bindings).expect("grounded");
            let fid = self.ctx.fact_id(fact);
            let mut cut = NO_CUT;
            if self.prove_atomic(fid, db, 0, &mut cut)? {
                out.push(
                    pattern
                        .args
                        .iter()
                        .map(|t| match t {
                            hdl_base::Term::Const(c) => *c,
                            hdl_base::Term::Var(v) => bindings.get(*v).expect("bound"),
                        })
                        .collect(),
                );
            }
            return Ok(());
        }
        let v = free[pos];
        for i in 0..self.ctx.domain.len() {
            let c = self.ctx.domain[i];
            bindings.set(v, c);
            self.collect_answers(pattern, free, pos + 1, bindings, db, out)?;
        }
        bindings.unset(v);
        Ok(())
    }

    /// Dispatches a ground atomic goal by its predicate's partition:
    /// even → `PROVE_Σ`, odd → `PROVE_Δ` model, 0 → database membership.
    fn prove_atomic(&mut self, fact: FactId, db: DbId, depth: u64, cut: &mut u64) -> Result<bool> {
        self.fx.budget.check()?;
        if self.ctx.db_contains(db, fact) {
            return Ok(true); // line 1 of PROVE_Σ / first case of TEST⁰
        }
        let pred = self.ctx.dbs.facts().fact(fact).pred;
        let part = self.ls.part(pred);
        if part == 0 {
            return Ok(false); // EDB predicate, not stored
        }
        if part % 2 == 1 {
            // Δ-defined: consult the segment's perfect model.
            let stratum = part.div_ceil(2);
            let model = self.delta_model(stratum, db)?;
            let fact_atom = self.ctx.dbs.facts().fact(fact).clone();
            return Ok(model.contains(&fact_atom));
        }
        // Σ-defined: top-down with tabling.
        self.sigma_prove(part / 2, fact, db, depth, cut)
    }

    /// `PROVE_Σᵢ` for one atomic goal (lines 1 and 3 plus memoization).
    fn sigma_prove(
        &mut self,
        stratum: usize,
        goal: FactId,
        db: DbId,
        depth: u64,
        cut: &mut u64,
    ) -> Result<bool> {
        if self.fx.budget.has_memory_limits() {
            self.fx.check_memory(&self.ctx, self.working_set(0))?;
        }
        hdl_base::failpoint!("prove::sigma");
        let key = (goal, db);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.engine.memo_hits += 1;
            return Ok(r);
        }
        if let Some(&d0) = self.in_progress.get(&key) {
            *cut = (*cut).min(d0);
            return Ok(false);
        }
        let engine = &mut self.stats.engine;
        engine.max_depth = engine.max_depth.max(depth);
        engine.goal_expansions += 1;
        self.stats.sigma_expansions[stratum - 1] += 1;
        if engine.goal_expansions > self.fx.limits.max_expansions {
            return Err(Error::LimitExceeded {
                what: "sigma goal expansions".into(),
                limit: self.fx.limits.max_expansions,
            });
        }

        self.in_progress.insert(key, depth);
        let result = self.sigma_expand(stratum, goal, db, depth);
        self.in_progress.remove(&key);
        match result {
            Ok((true, _)) => {
                self.memo.insert(key, true);
                Ok(true)
            }
            Ok((false, my_cut)) => {
                if my_cut >= depth {
                    self.memo.insert(key, false);
                } else {
                    *cut = (*cut).min(my_cut);
                }
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Line 3: choose a defining rule in `Σᵢ` and a grounding.
    fn sigma_expand(
        &mut self,
        stratum: usize,
        goal: FactId,
        db: DbId,
        depth: u64,
    ) -> Result<(bool, u64)> {
        let rb: &'rb Rulebase = self.ctx.rb;
        let pred = self.ctx.dbs.facts().fact(goal).pred;
        let mut my_cut = NO_CUT;
        // O(1) shared handle; the group is never copied per expansion.
        let rule_ids = Arc::clone(&self.sigma_rules[stratum - 1]);
        for &rule_idx in rule_ids.iter() {
            let rule: &'rb HypRule = &rb.rules[rule_idx];
            if rule.head.pred != pred {
                continue;
            }
            let mut bindings = Bindings::new(rule.num_vars);
            let trail = {
                let fact = self.ctx.dbs.facts().fact(goal).clone();
                bindings.match_atom(&rule.head, &fact)
            };
            let Some(trail) = trail else { continue };
            // Definition 3: substitutions range over dom(R, DB).
            if trail
                .iter()
                .any(|&v| !self.ctx.in_domain(bindings.get(v).expect("bound")))
            {
                continue;
            }
            if self.sigma_goals(
                stratum,
                rule,
                rule_idx,
                0,
                &mut bindings,
                db,
                depth,
                &mut my_cut,
            )? {
                return Ok((true, NO_CUT));
            }
        }
        Ok((false, my_cut))
    }

    /// Processes the goal set produced by a rule expansion: premises are
    /// ground and independent, so they are proved left to right with
    /// backtracking over grounding choices.
    #[allow(clippy::too_many_arguments)]
    fn sigma_goals(
        &mut self,
        stratum: usize,
        rule: &'rb HypRule,
        rule_idx: usize,
        idx: usize,
        bindings: &mut Bindings,
        db: DbId,
        depth: u64,
        cut: &mut u64,
    ) -> Result<bool> {
        if idx == rule.premises.len() {
            return Ok(true);
        }
        match &rule.premises[idx] {
            Premise::Atom(atom) => {
                if !self.ctx.has_rules(atom.pred) {
                    // Membership-only goals: drive bindings from the
                    // overlay view (shared flat index + this DB's delta).
                    let candidates: Vec<FactId> =
                        self.ctx.dbs.view(db).facts_of(atom.pred).collect();
                    for fid in candidates {
                        let trail = {
                            let fact = self.ctx.dbs.facts().fact(fid);
                            bindings.match_atom(atom, fact)
                        };
                        if let Some(trail) = trail {
                            let ok = self.sigma_goals(
                                stratum,
                                rule,
                                rule_idx,
                                idx + 1,
                                bindings,
                                db,
                                depth,
                                cut,
                            )?;
                            bindings.undo(&trail);
                            if ok {
                                return Ok(true);
                            }
                        }
                    }
                    return Ok(false);
                }
                let free = bindings.free_vars_of(atom);
                self.sigma_atom_groundings(
                    stratum, rule, rule_idx, idx, atom, &free, 0, bindings, db, depth, cut,
                )
            }
            Premise::Neg(atom) => {
                // Line 4: negated goals go to PROVE_Δᵢ / the oracle chain.
                let inner = self.ctx.plans[rule_idx].inner_neg_vars[idx].clone();
                let free = bindings.free_vars_of(atom);
                let outer: Vec<Var> = free.into_iter().filter(|v| !inner.contains(v)).collect();
                self.sigma_neg_outer(
                    stratum, rule, rule_idx, idx, atom, &inner, &outer, 0, bindings, db, depth, cut,
                )
            }
            Premise::Hyp { goal, adds, dels } => {
                // Line 2: (B[add: Ā, del: C̄], DB) → (B, (DB ∖ C̄) ∪ Ā).
                let free = collect_free(goal, adds, dels, bindings);
                self.sigma_hyp_groundings(
                    stratum, rule, rule_idx, idx, goal, adds, dels, &free, 0, bindings, db, depth,
                    cut,
                )
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sigma_atom_groundings(
        &mut self,
        stratum: usize,
        rule: &'rb HypRule,
        rule_idx: usize,
        idx: usize,
        atom: &'rb Atom,
        free: &[Var],
        fpos: usize,
        bindings: &mut Bindings,
        db: DbId,
        depth: u64,
        cut: &mut u64,
    ) -> Result<bool> {
        if fpos == free.len() {
            let fact = atom.ground(bindings).expect("grounded");
            let fid = self.ctx.fact_id(fact);
            if self.prove_atomic(fid, db, depth + 1, cut)? {
                return self.sigma_goals(
                    stratum,
                    rule,
                    rule_idx,
                    idx + 1,
                    bindings,
                    db,
                    depth,
                    cut,
                );
            }
            return Ok(false);
        }
        let v = free[fpos];
        for i in 0..self.ctx.domain.len() {
            let c = self.ctx.domain[i];
            bindings.set(v, c);
            if self.sigma_atom_groundings(
                stratum,
                rule,
                rule_idx,
                idx,
                atom,
                free,
                fpos + 1,
                bindings,
                db,
                depth,
                cut,
            )? {
                bindings.unset(v);
                return Ok(true);
            }
        }
        bindings.unset(v);
        Ok(false)
    }

    #[allow(clippy::too_many_arguments)]
    fn sigma_neg_outer(
        &mut self,
        stratum: usize,
        rule: &'rb HypRule,
        rule_idx: usize,
        idx: usize,
        atom: &'rb Atom,
        inner: &[Var],
        outer: &[Var],
        opos: usize,
        bindings: &mut Bindings,
        db: DbId,
        depth: u64,
        cut: &mut u64,
    ) -> Result<bool> {
        if opos == outer.len() {
            let witnessed = self.exists_atomic(atom, inner, 0, bindings, db)?;
            if !witnessed {
                return self.sigma_goals(
                    stratum,
                    rule,
                    rule_idx,
                    idx + 1,
                    bindings,
                    db,
                    depth,
                    cut,
                );
            }
            return Ok(false);
        }
        let v = outer[opos];
        for i in 0..self.ctx.domain.len() {
            let c = self.ctx.domain[i];
            bindings.set(v, c);
            if self.sigma_neg_outer(
                stratum,
                rule,
                rule_idx,
                idx,
                atom,
                inner,
                outer,
                opos + 1,
                bindings,
                db,
                depth,
                cut,
            )? {
                bindings.unset(v);
                return Ok(true);
            }
        }
        bindings.unset(v);
        Ok(false)
    }

    #[allow(clippy::too_many_arguments)]
    fn sigma_hyp_groundings(
        &mut self,
        stratum: usize,
        rule: &'rb HypRule,
        rule_idx: usize,
        idx: usize,
        goal: &'rb Atom,
        adds: &'rb [Atom],
        dels: &'rb [Atom],
        free: &[Var],
        fpos: usize,
        bindings: &mut Bindings,
        db: DbId,
        depth: u64,
        cut: &mut u64,
    ) -> Result<bool> {
        if fpos == free.len() {
            let db2 = self.ctx.hypothetical_db(db, adds, dels, bindings);
            let gfact = goal.ground(bindings).expect("grounded");
            let gid = self.ctx.fact_id(gfact);
            if self.prove_atomic(gid, db2, depth + 1, cut)? {
                return self.sigma_goals(
                    stratum,
                    rule,
                    rule_idx,
                    idx + 1,
                    bindings,
                    db,
                    depth,
                    cut,
                );
            }
            return Ok(false);
        }
        let v = free[fpos];
        for i in 0..self.ctx.domain.len() {
            let c = self.ctx.domain[i];
            bindings.set(v, c);
            if self.sigma_hyp_groundings(
                stratum,
                rule,
                rule_idx,
                idx,
                goal,
                adds,
                dels,
                free,
                fpos + 1,
                bindings,
                db,
                depth,
                cut,
            )? {
                bindings.unset(v);
                return Ok(true);
            }
        }
        bindings.unset(v);
        Ok(false)
    }

    /// `∃`-grounding of `vars` making `atom` provable (used for negation
    /// and top-level queries; stratification keeps these untainted).
    fn exists_atomic(
        &mut self,
        atom: &Atom,
        vars: &[Var],
        pos: usize,
        bindings: &mut Bindings,
        db: DbId,
    ) -> Result<bool> {
        if pos == vars.len() {
            let fact = atom.ground(bindings).expect("grounded");
            let fid = self.ctx.fact_id(fact);
            let mut cut = NO_CUT;
            let r = self.prove_atomic(fid, db, 0, &mut cut)?;
            debug_assert_eq!(cut, NO_CUT, "negation sub-search must be untainted");
            return Ok(r);
        }
        let v = vars[pos];
        for i in 0..self.ctx.domain.len() {
            let c = self.ctx.domain[i];
            bindings.set(v, c);
            if self.exists_atomic(atom, vars, pos + 1, bindings, db)? {
                bindings.unset(v);
                return Ok(true);
            }
        }
        bindings.unset(v);
        Ok(false)
    }

    #[allow(clippy::too_many_arguments)]
    fn exists_hyp(
        &mut self,
        goal: &Atom,
        adds: &[Atom],
        dels: &[Atom],
        free: &[Var],
        fpos: usize,
        bindings: &mut Bindings,
        db: DbId,
    ) -> Result<bool> {
        if fpos == free.len() {
            let db2 = self.ctx.hypothetical_db(db, adds, dels, bindings);
            let gfact = goal.ground(bindings).expect("grounded");
            let gid = self.ctx.fact_id(gfact);
            let mut cut = NO_CUT;
            return self.prove_atomic(gid, db2, 0, &mut cut);
        }
        let v = free[fpos];
        for i in 0..self.ctx.domain.len() {
            let c = self.ctx.domain[i];
            bindings.set(v, c);
            if self.exists_hyp(goal, adds, dels, free, fpos + 1, bindings, db)? {
                bindings.unset(v);
                return Ok(true);
            }
        }
        bindings.unset(v);
        Ok(false)
    }

    /// `PROVE_Δᵢ`: the perfect model of segment `Δᵢ` over `db`, memoized.
    ///
    /// Implements `LFPᵢ`/`Tᵢ` (§5.2.2) on the shared semi-naive kernel:
    /// the segment's sub-strata are closed in order, and `TESTᵢ⁰`
    /// resolves premises over lower-defined predicates through
    /// [`Self::prove_atomic`] (the `PROVE_Σᵢ₋₁` oracle). Oracle premises
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
    fn prove(&mut self, db: DbId, fact: GroundAtom) -> Result<bool> {
        let fid = self.ctx.fact_id(fact);
        let mut cut = NO_CUT;
        self.prove_atomic(fid, db, 0, &mut cut)
    }

    /// The goal tables' growth since the budget was set, plus the Δ model
    /// in flight.
    fn working_set(&self, derived: usize) -> u64 {
        ((self.memo.len() + self.in_progress.len() + derived) as u64)
            .saturating_sub(self.goals_baseline)
    }

    fn handed_below(&mut self) {
        self.stats.oracle_calls += 1;
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
