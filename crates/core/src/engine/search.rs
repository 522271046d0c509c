//! The one tabled goal-directed search behind every top-down proof.
//!
//! `TopDownEngine` runs Definition 3 plus negation-as-failure over the
//! whole rulebase; `PROVE_Σᵢ` (§5.2.1) is the same inference restricted
//! to the `Σᵢ` rules: line 1 is membership, line 2 rewrites
//! `B[add: Ā, del: C̄]` into `(B, (DB ∖ C̄) ∪ Ā)`, line 3 picks a rule
//! and grounding, and line 4 hands every other goal to `PROVE_Δᵢ`. This
//! module holds the only copy of that search:
//!
//! - the tabled goal: budget, memory and failpoint probes, the memo
//!   lookup, membership, the in-progress cut, the expansion count and
//!   its limit, and the rule that only untainted failures are memoized;
//! - the rule expansion: head match plus the Definition 3 domain check;
//! - the premise walk: EDB candidates from the overlay view, IDB
//!   groundings, negation over its outer and inner variables with its
//!   `∃` sub-search, and hypothetical groundings through one database
//!   helper that counts and bounds the databases created;
//! - the query entry points — `first_proof` (and through it `holds`)
//!   with the domain growth for fresh `add:` constants, and
//!   `answers_partial` — and the grounding enumerator.
//!
//! Ground goals are pairs `(fact, database)`. Function-free proofs never
//! need to repeat a pair along a branch, so a branch that revisits an
//! in-progress pair fails. Successes are always memoized; failures only
//! when the failed search never touched an in-progress ancestor *above*
//! the goal (untainted failures), which keeps the memo sound in cyclic
//! programs.
//!
//! The engines differ only in how a ground sub-goal is decided: the
//! top-down engine hands every one to the tabled `goal`, while PROVE
//! first answers membership, EDB and `Δ`-defined goals itself and hands
//! only `Σ`-defined ones to it. The `Prover` trait carries that
//! difference, plus the engine's failpoint and limit names, its
//! per-expansion and success hooks and the tables it drops when the
//! domain grows. The walk is generic over it, so the calls dispatch
//! statically.
//!
//! The search recurses on the host stack, so the required stack is
//! proportional to proof depth. [`Session`](crate::session::Session) and
//! the `hdl-service` worker pool already run every evaluation on a
//! thread with an enlarged stack
//! ([`call_with_deep_stack`](crate::stack::call_with_deep_stack)); only
//! code driving an engine directly on a shallow thread needs to do the
//! same for programs with proofs thousands of steps deep.

use crate::ast::{HypRule, Premise, Rulebase};
use crate::engine::budget::Budget;
use crate::engine::context::Context;
use crate::engine::matching::collect_free;
use crate::engine::stats::{EngineStats, Limits};
use hdl_base::{
    Atom, Bindings, DbId, Error, FactId, FxHashMap, Result, Symbol, Term, Var, VarList,
};
use std::sync::Arc;

/// Sentinel: no in-progress ancestor was hit.
pub(crate) const NO_CUT: u64 = u64::MAX;

/// The kernel's share of an engine: the goal tables, the candidate
/// stack and the store sizes the memory caps are measured from.
#[derive(Default)]
pub(crate) struct Tables {
    memo: FxHashMap<(FactId, DbId), bool>,
    in_progress: FxHashMap<(FactId, DbId), u64>,
    /// EDB premise candidates of every walk on the current branch, each
    /// walk's above the one that called it (see [`walk`]).
    candidates: Vec<FactId>,
    /// Store sizes when the budget was installed; memory caps bound
    /// growth past these, not absolute size (engines are reused).
    facts_baseline: u64,
    goals_baseline: u64,
}

impl Tables {
    /// Makes the current store sizes the baseline of the memory caps.
    pub fn rebase(&mut self, ctx: &Context<'_>) {
        self.facts_baseline = ctx.fact_footprint();
        self.goals_baseline = (self.memo.len() + self.in_progress.len()) as u64;
    }

    /// The goal tables' growth since the budget was set, plus `extra`.
    pub fn working_set(&self, extra: usize) -> u64 {
        ((self.memo.len() + self.in_progress.len() + extra) as u64)
            .saturating_sub(self.goals_baseline)
    }
}

/// An engine's state borrowed apart for the kernel: its context, goal
/// tables, counters, budget and limits.
pub(crate) type Parts<'a, 'rb> = (
    &'a mut Context<'rb>,
    &'a mut Tables,
    &'a mut EngineStats,
    &'a mut Budget,
    &'a Limits,
);

/// What an engine tells the kernel — the only questions the top-down
/// engine and `PROVE_Σᵢ` answer differently.
pub(crate) trait Prover<'rb>: Sized {
    /// Failpoint probed by every tabled goal.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    const SITE: &'static str;
    /// What the expansion limit error names.
    const LIMIT: &'static str;
    /// The engine's state, borrowed apart.
    fn split(&mut self) -> Parts<'_, 'rb>;
    /// Decides ground goal `(fact, db)` at `depth`, lowering `cut` as
    /// [`goal`] does. The top-down engine hands every goal to [`goal`].
    fn subgoal(&mut self, fact: FactId, db: DbId, depth: u64, cut: &mut u64) -> Result<bool> {
        goal(self, fact, db, depth, cut)
    }
    /// Called once per goal expansion, before the limit is checked.
    fn expanded(&mut self, _goal: FactId) {}
    /// Called when `(goal, db)` is proven: by membership (`by = None`),
    /// or by the instance of rule `by.0` under bindings `by.1`.
    fn proved(&mut self, _goal: FactId, _db: DbId, _by: Option<(usize, &Bindings)>) {}
    /// Drops the engine's own tables computed under a smaller domain.
    fn forget(&mut self) {}
}

/// The tabled goal: proves ground goal `(fact, db)` by its defining
/// rules.
///
/// Returns the verdict; `cut` is lowered to the depth of the shallowest
/// in-progress ancestor this (failing) search touched.
pub(crate) fn goal<'rb, R: Prover<'rb>>(
    r: &mut R,
    fact: FactId,
    db: DbId,
    depth: u64,
    cut: &mut u64,
) -> Result<bool> {
    let (ctx, t, stats, budget, limits) = r.split();
    budget.check()?;
    if budget.has_memory_limits() {
        let facts = ctx.fact_footprint().saturating_sub(t.facts_baseline);
        budget.check_memory(facts, t.working_set(0), ctx.dbs.max_depth() as u64)?;
    }
    hdl_base::failpoint!(R::SITE);
    stats.calls += 1;
    stats.max_depth = stats.max_depth.max(depth);
    let key = (fact, db);
    if let Some(&verdict) = t.memo.get(&key) {
        stats.memo_hits += 1;
        return Ok(verdict);
    }
    // Inference rule 1: database membership.
    if ctx.db_contains(db, fact) {
        t.memo.insert(key, true);
        r.proved(fact, db, None);
        return Ok(true);
    }
    if let Some(&d0) = t.in_progress.get(&key) {
        *cut = (*cut).min(d0);
        return Ok(false);
    }
    stats.goal_expansions += 1;
    let (expansions, limit) = (stats.goal_expansions, limits.max_expansions);
    r.expanded(fact);
    if expansions > limit {
        return Err(Error::LimitExceeded {
            what: R::LIMIT.into(),
            limit,
        });
    }

    r.split().1.in_progress.insert(key, depth);
    let result = expand(r, fact, db, depth);
    let t = r.split().1;
    t.in_progress.remove(&key);
    let (proved, my_cut) = result?;
    if proved || my_cut >= depth {
        // A failure whose cycles were all internal to this goal's search
        // is definitive.
        t.memo.insert(key, proved);
    } else {
        *cut = (*cut).min(my_cut);
    }
    Ok(proved)
}

/// One rule instance being walked: the rule, and the goal it expands.
struct Frame<'rb> {
    rule: &'rb HypRule,
    rule_idx: usize,
    goal: FactId,
    db: DbId,
    depth: u64,
}

/// Inference rule 3: try every defining rule of the goal's predicate.
fn expand<'rb, R: Prover<'rb>>(
    r: &mut R,
    goal: FactId,
    db: DbId,
    depth: u64,
) -> Result<(bool, u64)> {
    let ctx = r.split().0;
    let rb: &'rb Rulebase = ctx.rb;
    let pred = ctx.dbs.facts().fact(goal).pred;
    // O(1) shared handle — the group is never copied, even though the
    // walks below re-borrow the engine mutably.
    let Some(rule_ids) = ctx.defs.get(&pred).map(Arc::clone) else {
        return Ok((false, NO_CUT));
    };
    let mut my_cut = NO_CUT;
    for &rule_idx in rule_ids.iter() {
        let rule: &'rb HypRule = &rb.rules[rule_idx];
        let mut bindings = Bindings::new(rule.num_vars);
        let ctx = r.split().0;
        let Some(trail) = bindings.match_atom(&rule.head, ctx.dbs.facts().fact(goal)) else {
            continue;
        };
        // Definition 3: substitutions range over dom(R, DB); a goal
        // mentioning foreign constants cannot instantiate a rule.
        if trail
            .iter()
            .any(|v| !ctx.in_domain(bindings.get(v).expect("bound")))
        {
            continue;
        }
        let frame = Frame {
            rule,
            rule_idx,
            goal,
            db,
            depth,
        };
        if walk(r, &frame, 0, &mut bindings, &mut my_cut)? {
            return Ok((true, NO_CUT));
        }
    }
    Ok((false, my_cut))
}

/// Proves premises `idx..` of the frame's rule under `bindings`; returns
/// whether a full match of the remaining premises was found.
fn walk<'rb, R: Prover<'rb>>(
    r: &mut R,
    f: &Frame<'rb>,
    idx: usize,
    bindings: &mut Bindings,
    cut: &mut u64,
) -> Result<bool> {
    if idx == f.rule.premises.len() {
        // Body closed: the goal is proven by this instance.
        r.proved(f.goal, f.db, Some((f.rule_idx, bindings)));
        return Ok(true);
    }
    let (ctx, t, ..) = r.split();
    match &f.rule.premises[idx] {
        Premise::Atom(atom) if !ctx.has_rules(atom.pred) => {
            // Pure EDB predicate: drive bindings from the overlay view
            // (the flat root's shared indexes plus this database's own
            // additions), probing the argument index when a position is
            // bound. The candidates go on the kernel's stack so the walk
            // below can re-borrow the engine; deeper walks push above
            // them and truncate back before returning.
            let base = t.candidates.len();
            let (_, found) = ctx.dbs.view(f.db).candidates(atom, bindings);
            t.candidates.extend(found);
            let end = t.candidates.len();
            let mut result = Ok(false);
            for i in base..end {
                let (ctx, t, ..) = r.split();
                let fact = ctx.dbs.facts().fact(t.candidates[i]);
                let Some(trail) = bindings.match_atom(atom, fact) else {
                    continue;
                };
                result = walk(r, f, idx + 1, bindings, cut);
                bindings.undo(&trail);
                if !matches!(result, Ok(false)) {
                    break;
                }
            }
            r.split().1.candidates.truncate(base);
            result
        }
        Premise::Atom(atom) => {
            let free = bindings.free_vars_of(atom);
            for_each_grounding(r, &free, bindings, &mut |r, b| {
                let fid = r.split().0.ground_id(atom, b);
                Ok(r.subgoal(fid, f.db, f.depth + 1, cut)? && walk(r, f, idx + 1, b, cut)?)
            })
        }
        Premise::Neg(atom) => {
            let inner = ctx.plans[f.rule_idx].inner_neg_vars[idx].clone();
            let outer: VarList = bindings
                .free_vars_of(atom)
                .iter()
                .filter(|v| !inner.contains(v))
                .collect();
            for_each_grounding(r, &outer, bindings, &mut |r, b| {
                // ¬∃ inner assignment with a proof; stratification keeps
                // the sub-search untainted, so its verdict is definitive.
                Ok(
                    first_instance(r, atom, &inner, b, f.db, f.depth + 1)?.is_none()
                        && walk(r, f, idx + 1, b, cut)?,
                )
            })
        }
        Premise::Hyp { goal, adds, dels } => {
            let free = collect_free(goal, adds, dels, bindings);
            for_each_grounding(r, &free, bindings, &mut |r, b| {
                let db2 = hypothetical_db(r, f.db, adds, dels, b)?;
                let gid = r.split().0.ground_id(goal, b);
                Ok(r.subgoal(gid, db2, f.depth + 1, cut)? && walk(r, f, idx + 1, b, cut)?)
            })
        }
    }
}

/// The first grounding of `vars` (domain order) under which `atom` is
/// provable in `db`, as the proven fact.
fn first_instance<'rb, R: Prover<'rb>>(
    r: &mut R,
    atom: &Atom,
    vars: &[Var],
    bindings: &mut Bindings,
    db: DbId,
    depth: u64,
) -> Result<Option<FactId>> {
    let mut found = None;
    for_each_grounding(r, vars, bindings, &mut |r, b| {
        let fid = r.split().0.ground_id(atom, b);
        let mut cut = NO_CUT;
        let ok = r.subgoal(fid, db, depth, &mut cut)?;
        debug_assert_eq!(
            cut, NO_CUT,
            "stratification must keep existential sub-searches untainted"
        );
        found = ok.then_some(fid);
        Ok(ok)
    })?;
    Ok(found)
}

/// `(db ∖ C̄θ) ∪ Āθ` for a hypothetical premise grounded by `bindings`,
/// counting each database it creates against `max_databases`.
fn hypothetical_db<'rb, R: Prover<'rb>>(
    r: &mut R,
    db: DbId,
    adds: &[Atom],
    dels: &[Atom],
    bindings: &Bindings,
) -> Result<DbId> {
    let (ctx, _, stats, _, limits) = r.split();
    let before = ctx.dbs.len();
    let db2 = ctx.hypothetical_db(db, adds, dels, bindings);
    if ctx.dbs.len() > before {
        stats.databases_created += 1;
        if stats.databases_created > limits.max_databases {
            return Err(Error::LimitExceeded {
                what: "databases".into(),
                limit: limits.max_databases,
            });
        }
    }
    Ok(db2)
}

/// Enumerates groundings of `vars` over the domain, calling `f` until it
/// returns `Ok(true)`; returns whether it did. Restores `bindings`.
fn for_each_grounding<'rb, R: Prover<'rb>>(
    r: &mut R,
    vars: &[Var],
    bindings: &mut Bindings,
    f: &mut impl FnMut(&mut R, &mut Bindings) -> Result<bool>,
) -> Result<bool> {
    let Some((&v, rest)) = vars.split_first() else {
        return f(r, bindings);
    };
    for i in 0..r.split().0.domain.len() {
        bindings.set(v, r.split().0.domain[i]);
        if for_each_grounding(r, rest, bindings, f)? {
            bindings.unset(v);
            return Ok(true);
        }
    }
    bindings.unset(v);
    Ok(false)
}

/// The first proven ground instance of a query premise in `db` (domain
/// order), with the database it holds in. Free variables are quantified
/// existentially; a `Neg` query looks for an instance of its atom, so
/// `~select(Y)` reads "no `Y` is selectable".
///
/// Definition 3 proves `A[add: B̄, del: C̄]` in `(DB ∖ C̄) ∪ B̄`, whose
/// domain includes `B̄`'s constants even when they are fresh. Memoized
/// verdicts were computed under the smaller domain — a negation judged
/// true because no witness existed may gain one — so a growth drops them
/// along with the engine's own tables.
pub(crate) fn first_proof<'rb, R: Prover<'rb>>(
    r: &mut R,
    query: &Premise,
    db: DbId,
) -> Result<Option<(FactId, DbId)>> {
    let num_vars = query.vars().map(|v| v.index() + 1).max().unwrap_or(0);
    let mut bindings = Bindings::new(num_vars);
    let found = match query {
        Premise::Atom(atom) | Premise::Neg(atom) => {
            let free = bindings.free_vars_of(atom);
            first_instance(r, atom, &free, &mut bindings, db, 0).map(|f| f.map(|f| (f, db)))
        }
        Premise::Hyp { goal, adds, dels } => {
            let fresh = adds
                .iter()
                .flat_map(|a| a.args.iter().filter_map(|t| t.as_const()));
            if r.split().0.extend_domain(fresh) {
                r.split().1.memo.clear();
                r.forget();
            }
            let free = collect_free(goal, adds, dels, &bindings);
            let mut found = None;
            let walked = for_each_grounding(r, &free, &mut bindings, &mut |r, b| {
                let db2 = hypothetical_db(r, db, adds, dels, b)?;
                let gid = r.split().0.ground_id(goal, b);
                let mut cut = NO_CUT;
                let ok = r.subgoal(gid, db2, 0, &mut cut)?;
                found = ok.then_some((gid, db2));
                Ok(ok)
            });
            walked.map(|_| found)
        }
    };
    let (ctx, _, stats, _, _) = r.split();
    stats.record_overlay(ctx.dbs.overlay_stats());
    found
}

/// Whether a query premise holds in `db` (see [`first_proof`]).
pub(crate) fn holds<'rb, R: Prover<'rb>>(r: &mut R, query: &Premise, db: DbId) -> Result<bool> {
    let found = first_proof(r, query, db)?.is_some();
    Ok(found != matches!(query, Premise::Neg(_)))
}

/// All domain tuples `x̄` such that `pattern(x̄)` is provable from the
/// base database, sorted. If the budget trips mid-scan, the tuples
/// proven so far come back alongside the error: sound (each was fully
/// proven) but not complete.
pub(crate) fn answers_partial<'rb, R: Prover<'rb>>(
    r: &mut R,
    pattern: &Atom,
) -> (Vec<Vec<Symbol>>, Option<Error>) {
    let num_vars = pattern.vars().map(|v| v.index() + 1).max().unwrap_or(0);
    let mut bindings = Bindings::new(num_vars);
    let free = bindings.free_vars_of(pattern);
    let base = r.split().0.base_db;
    let mut out = Vec::new();
    let walked = for_each_grounding(r, &free, &mut bindings, &mut |r, b| {
        let fid = r.split().0.ground_id(pattern, b);
        let mut cut = NO_CUT;
        if r.subgoal(fid, base, 0, &mut cut)? {
            out.push(
                pattern
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => *c,
                        Term::Var(v) => b.get(*v).expect("bound"),
                    })
                    .collect(),
            );
        }
        Ok(false)
    });
    let (ctx, _, stats, _, _) = r.split();
    stats.record_overlay(ctx.dbs.overlay_stats());
    out.sort();
    out.dedup();
    (out, walked.err())
}
