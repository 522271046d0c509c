//! Demand-driven evaluation: magic sets for hypothetical rules and
//! stratified negation (DESIGN.md §3.16).
//!
//! [`MagicEngine`] rewrites each query into a demand-restricted program
//! and hands that program to a fresh semi-naive [`BottomUpEngine`], so a
//! point query costs O(relevant facts) instead of O(perfect model). The
//! rewrite is the classic magic-sets transformation (Bancilhon &
//! Ramakrishnan) ported onto the hypothetical AST with three extensions:
//!
//! - **Left-to-right SIPS over positive premises only.** A variable
//!   counts as bound at premise `j` iff it is a bound head argument or
//!   occurs in a *positive* premise before `j`. Negated and hypothetical
//!   premises contribute nothing, so every magic rule — whose body is the
//!   positive prefix — stays range-restricted, and "fully bound" is a
//!   sound under-approximation of runtime boundness.
//! - **Extended magic for negation** (Tekle & Liu): a negated IDB
//!   subgoal is demanded only with the all-bound adornment; when some
//!   argument cannot be bound, its predicate is evaluated *unrestricted*
//!   (original rules, no demand filter), never dropped. After the
//!   rewrite the program is re-checked for stratification — magic rules
//!   can manufacture negative cycles absent from the source program — and
//!   on failure the rewrite retries pessimistically with every negated
//!   predicate and every `del:`-carrying hypothetical goal unrestricted,
//!   which provably restores stratification (all negative edges then
//!   point into the self-contained original-rule subprogram).
//! - **Overlay-scoped demand for hypothetical premises.** A premise
//!   `g(t̄)[add: Ā, del: C̄]` becomes `g^a(t̄)[add: Ā ∪ {m_g^a(bound t̄)},
//!   del: C̄]`: the magic seed rides the `add:` list, so it lives in the
//!   child overlay's delta and demand from one hypothetical branch never
//!   leaks into a sibling. No parent-level magic rule is emitted — the
//!   guard predicate is EDB in the rewritten program, populated only
//!   through overlays (and, for the top-level query, the one seed fact).
//!
//! Demanded original predicates keep a *copy rule*
//! `p^a(x̄) ← m_p^a(x̄ᵇ), p(x̄)` so EDB facts — including facts injected by
//! `add:` overlays — remain visible under their adorned name. Any
//! rewrite failure (including the `magic::rewrite` failpoint) degrades
//! the whole query to plain semi-naive evaluation: slower, never wrong.

use crate::analysis::stratify::global_negation_strata;
use crate::ast::{HypRule, Premise, Rulebase};
use crate::engine::bottomup::BottomUpEngine;
use crate::engine::budget::Budget;
use crate::engine::context::Context;
use crate::engine::stats::{EngineStats, Limits};
use hdl_base::{
    Atom, Database, Error, FxHashMap, FxHashSet, GroundAtom, Result, Symbol, Term, Var,
};

/// One boolean per argument position: `true` = bound.
type Adornment = Vec<bool>;

/// Allocator for invented predicate symbols (adorned and magic names),
/// starting above every symbol the rulebase, database, and query use.
struct SymGen {
    next: u32,
}

impl SymGen {
    fn fresh(&mut self) -> Symbol {
        let s = Symbol(self.next);
        self.next += 1;
        s
    }
}

fn name_for(
    map: &mut FxHashMap<(Symbol, Adornment), Symbol>,
    key: (Symbol, Adornment),
    gen: &mut SymGen,
) -> Symbol {
    *map.entry(key).or_insert_with(|| gen.fresh())
}

/// The adornment of `atom` under the current bound-variable set: a
/// position is bound iff it holds a constant or a positively-bound var.
fn adornment_of(atom: &Atom, bound: &FxHashSet<Var>) -> Adornment {
    atom.args
        .iter()
        .map(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        })
        .collect()
}

/// The terms of `atom` at the bound positions of `ad`, in order.
fn bound_args(atom: &Atom, ad: &Adornment) -> Vec<Term> {
    atom.args
        .iter()
        .zip(ad)
        .filter(|(_, b)| **b)
        .map(|(t, _)| *t)
        .collect()
}

/// One attempted rewrite pass (the driver may run several: the
/// unrestricted set grows to a fixpoint, and an unstratifiable result
/// triggers a pessimistic retry).
struct Attempt {
    rules: Vec<HypRule>,
    /// Adorned name of the synthetic query predicate.
    answer_pred: Symbol,
    /// Magic name of the synthetic query predicate (the seed's pred).
    seed_pred: Symbol,
    /// All invented magic predicates.
    magic_preds: FxHashSet<Symbol>,
    magic_rules: u64,
    /// Predicates this pass discovered it cannot bound soundly; when
    /// non-empty the pass result is discarded and the driver retries
    /// with these unrestricted.
    new_unrestricted: FxHashSet<Symbol>,
}

/// A query rewritten for demand-driven evaluation.
pub(crate) struct RewriteOutput {
    pub rb: Rulebase,
    /// The zero-ary demand seed for the query, to be inserted into the
    /// base database before evaluation.
    pub seed: GroundAtom,
    /// Adorned predicate whose facts answer the query.
    pub answer_pred: Symbol,
    pub magic_preds: FxHashSet<Symbol>,
    pub magic_rules: u64,
    pub adorned_strata: u64,
    /// Predicates left unrestricted (counted once per predicate).
    pub unbound: u64,
}

#[allow(clippy::too_many_arguments)]
fn attempt_rewrite(
    rules: &[HypRule],
    defs: &FxHashMap<Symbol, Vec<usize>>,
    q_sym: Symbol,
    q_arity: usize,
    u: &FxHashSet<Symbol>,
    pessimistic: bool,
    gen: &mut SymGen,
) -> Attempt {
    let mut adorned: FxHashMap<(Symbol, Adornment), Symbol> = FxHashMap::default();
    let mut magic: FxHashMap<(Symbol, Adornment), Symbol> = FxHashMap::default();
    let mut out: Vec<HypRule> = Vec::new();
    let mut magic_rules = 0u64;
    let mut new_u: FxHashSet<Symbol> = FxHashSet::default();
    // IDB predicates referenced by original name in a rewritten body —
    // their original rule cones must ride along unrewritten.
    let mut need_original: FxHashSet<Symbol> = FxHashSet::default();
    let mut worklist: Vec<(Symbol, Adornment)> = vec![(q_sym, vec![false; q_arity])];
    let mut done: FxHashSet<(Symbol, Adornment)> = FxHashSet::default();

    while let Some((p, ad)) = worklist.pop() {
        if !done.insert((p, ad.clone())) {
            continue;
        }
        let p_adorned = name_for(&mut adorned, (p, ad.clone()), gen);
        let p_magic = name_for(&mut magic, (p, ad.clone()), gen);

        // Copy rule: EDB (and overlay-added) facts of an original
        // predicate stay visible under the adorned name wherever there
        // is demand. The synthetic query predicate has no EDB facts.
        if p != q_sym {
            let all: Vec<Term> = (0..ad.len()).map(|i| Term::Var(Var(i as u32))).collect();
            let bound: Vec<Term> = all
                .iter()
                .zip(&ad)
                .filter(|(_, b)| **b)
                .map(|(t, _)| *t)
                .collect();
            out.push(HypRule::new(
                Atom::new(p_adorned, all.clone()),
                vec![
                    Premise::Atom(Atom::new(p_magic, bound)),
                    Premise::Atom(Atom::new(p, all)),
                ],
            ));
        }

        for &ri in &defs[&p] {
            let rule = &rules[ri];
            let guard = Atom::new(p_magic, bound_args(&rule.head, &ad));
            let mut bound_vars: FxHashSet<Var> = rule
                .head
                .args
                .iter()
                .zip(&ad)
                .filter(|(_, b)| **b)
                .filter_map(|(t, _)| t.as_var())
                .collect();
            let mut body: Vec<Premise> = vec![Premise::Atom(guard.clone())];
            // Positive prefix so far (rewritten form) — magic-rule bodies.
            let mut prefix: Vec<Atom> = vec![guard];
            for prem in &rule.premises {
                match prem {
                    Premise::Atom(a) => {
                        if defs.contains_key(&a.pred) && !u.contains(&a.pred) {
                            let sub = adornment_of(a, &bound_vars);
                            let sub_magic = name_for(&mut magic, (a.pred, sub.clone()), gen);
                            out.push(HypRule::new(
                                Atom::new(sub_magic, bound_args(a, &sub)),
                                prefix.iter().cloned().map(Premise::Atom).collect(),
                            ));
                            magic_rules += 1;
                            let sub_sym = name_for(&mut adorned, (a.pred, sub.clone()), gen);
                            worklist.push((a.pred, sub));
                            let rewritten = Atom::new(sub_sym, a.args.clone());
                            prefix.push(rewritten.clone());
                            body.push(Premise::Atom(rewritten));
                        } else {
                            if defs.contains_key(&a.pred) {
                                need_original.insert(a.pred);
                            }
                            prefix.push(a.clone());
                            body.push(prem.clone());
                        }
                        bound_vars.extend(a.vars());
                    }
                    Premise::Neg(a) => {
                        let fully_bound = a.args.iter().all(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound_vars.contains(v),
                        });
                        if defs.contains_key(&a.pred)
                            && !u.contains(&a.pred)
                            && fully_bound
                            && !pessimistic
                        {
                            let sub = vec![true; a.arity()];
                            let sub_magic = name_for(&mut magic, (a.pred, sub.clone()), gen);
                            out.push(HypRule::new(
                                Atom::new(sub_magic, a.args.clone()),
                                prefix.iter().cloned().map(Premise::Atom).collect(),
                            ));
                            magic_rules += 1;
                            let sub_sym = name_for(&mut adorned, (a.pred, sub.clone()), gen);
                            worklist.push((a.pred, sub));
                            body.push(Premise::Neg(Atom::new(sub_sym, a.args.clone())));
                        } else {
                            if defs.contains_key(&a.pred) {
                                if !u.contains(&a.pred) {
                                    new_u.insert(a.pred);
                                }
                                need_original.insert(a.pred);
                            }
                            body.push(prem.clone());
                        }
                        // Negation binds nothing.
                    }
                    Premise::Hyp { goal, adds, dels } => {
                        let demandable = defs.contains_key(&goal.pred)
                            && !u.contains(&goal.pred)
                            && (!pessimistic || dels.is_empty());
                        if demandable {
                            let sub = adornment_of(goal, &bound_vars);
                            let sub_magic = name_for(&mut magic, (goal.pred, sub.clone()), gen);
                            let seed = Atom::new(sub_magic, bound_args(goal, &sub));
                            let sub_sym = name_for(&mut adorned, (goal.pred, sub.clone()), gen);
                            worklist.push((goal.pred, sub));
                            let mut adds2 = adds.clone();
                            adds2.push(seed);
                            body.push(Premise::Hyp {
                                goal: Atom::new(sub_sym, goal.args.clone()),
                                adds: adds2,
                                dels: dels.clone(),
                            });
                        } else {
                            if defs.contains_key(&goal.pred) {
                                if !u.contains(&goal.pred) && pessimistic && !dels.is_empty() {
                                    new_u.insert(goal.pred);
                                }
                                need_original.insert(goal.pred);
                            }
                            body.push(prem.clone());
                        }
                        // Hypothetical premises bind nothing: their vars
                        // must not leak into magic-rule heads, whose
                        // bodies are the positive prefix only.
                    }
                }
            }
            out.push(HypRule::new(
                Atom::new(p_adorned, rule.head.args.clone()),
                body,
            ));
        }
    }

    // Pull in the original rule cones of every predicate still read by
    // its original name (unrestricted evaluation — slower, never wrong).
    let mut keep: FxHashSet<Symbol> = FxHashSet::default();
    let mut stack: Vec<Symbol> = need_original.into_iter().collect();
    while let Some(p) = stack.pop() {
        if !keep.insert(p) {
            continue;
        }
        for &ri in defs.get(&p).into_iter().flatten() {
            for prem in &rules[ri].premises {
                let dep = match prem {
                    Premise::Atom(a) | Premise::Neg(a) => a.pred,
                    Premise::Hyp { goal, .. } => goal.pred,
                };
                if defs.contains_key(&dep) && !keep.contains(&dep) {
                    stack.push(dep);
                }
            }
        }
    }
    for rule in rules {
        if keep.contains(&rule.head.pred) {
            out.push(rule.clone());
        }
    }

    Attempt {
        rules: out,
        answer_pred: adorned[&(q_sym, vec![false; q_arity])],
        seed_pred: magic[&(q_sym, vec![false; q_arity])],
        magic_preds: magic.values().copied().collect(),
        magic_rules,
        new_unrestricted: new_u,
    }
}

/// Rewrites `body` (as the body of a synthetic query rule with head
/// arguments `head_args`) into a demand-restricted program. Invented
/// symbols start at `first_fresh`. Fails only at the `magic::rewrite`
/// failpoint or if even the pessimistic pass is unstratifiable; the
/// caller degrades to plain semi-naive evaluation on any error.
fn rewrite(
    rb: &Rulebase,
    head_args: &[Term],
    body: Vec<Premise>,
    first_fresh: u32,
) -> Result<RewriteOutput> {
    hdl_base::failpoint!("magic::rewrite");
    let mut gen = SymGen { next: first_fresh };
    let q_sym = gen.fresh();
    let mut rules: Vec<HypRule> = rb.iter().cloned().collect();
    rules.push(HypRule::new(Atom::new(q_sym, head_args.to_vec()), body));
    let mut defs: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
    for (i, r) in rules.iter().enumerate() {
        defs.entry(r.head.pred).or_default().push(i);
    }

    let mut u: FxHashSet<Symbol> = FxHashSet::default();
    let mut pessimistic = false;
    loop {
        let attempt = attempt_rewrite(
            &rules,
            &defs,
            q_sym,
            head_args.len(),
            &u,
            pessimistic,
            &mut gen,
        );
        if !attempt.new_unrestricted.is_empty() {
            u.extend(attempt.new_unrestricted);
            continue;
        }
        let rb2: Rulebase = attempt.rules.iter().cloned().collect();
        match global_negation_strata(&rb2) {
            Ok(strata) => {
                return Ok(RewriteOutput {
                    rb: rb2,
                    seed: GroundAtom::new(attempt.seed_pred, Vec::new()),
                    answer_pred: attempt.answer_pred,
                    magic_preds: attempt.magic_preds,
                    magic_rules: attempt.magic_rules,
                    adorned_strata: strata.num_strata as u64,
                    unbound: u.len() as u64,
                });
            }
            // Magic rules introduced a negative cycle the source program
            // did not have. Retry pessimistically: every negated IDB
            // predicate and every del-carrying hypothetical goal keeps
            // its original, unrewritten evaluation.
            Err(_) if !pessimistic => {
                pessimistic = true;
                u.clear();
            }
            Err(e) => return Err(e),
        }
    }
}

/// The demand-driven (magic-sets) engine: same answers as
/// [`BottomUpEngine`] and [`crate::engine::reference::NaiveEngine`],
/// goal-directed work profile. Each query is rewritten and evaluated by
/// a fresh inner semi-naive engine; the outer [`Context`] persists only
/// the grounding domain (which grows when queries introduce fresh
/// constants, exactly like the other engines' Definition-3 handling).
pub struct MagicEngine<'rb> {
    rb: &'rb Rulebase,
    ctx: Context<'rb>,
    limits: Limits,
    budget: Budget,
    workers: usize,
    /// One past the largest symbol id in the rulebase/database — the
    /// floor for invented predicate names.
    sym_base: u32,
    stats: EngineStats,
}

impl<'rb> MagicEngine<'rb> {
    /// Builds an engine; fails if `rb` is not stratified.
    pub fn new(rb: &'rb Rulebase, db: &Database) -> Result<Self> {
        Self::new_with_constants(rb, db, &[])
    }

    /// Like [`MagicEngine::new`], with `extra` constants joined into the
    /// grounding domain.
    pub fn new_with_constants(rb: &'rb Rulebase, db: &Database, extra: &[Symbol]) -> Result<Self> {
        let ctx = Context::new_with_constants(rb, db, extra)?;
        let mut max = 0u32;
        let mut see = |s: Symbol| {
            if s.0 + 1 > max {
                max = s.0 + 1;
            }
        };
        for rule in rb.iter() {
            see(rule.head.pred);
            for prem in &rule.premises {
                for a in prem.atoms() {
                    see(a.pred);
                }
            }
        }
        for p in db.predicates() {
            see(p);
        }
        for &c in &ctx.domain {
            see(c);
        }
        Ok(MagicEngine {
            rb,
            ctx,
            limits: Limits::default(),
            budget: Budget::default(),
            workers: 1,
            sym_base: max,
            stats: EngineStats::default(),
        })
    }

    /// Replaces the resource limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets worker threads for the inner engine's pure-rule firings.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Builder form of [`MagicEngine::set_parallelism`].
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.set_parallelism(workers);
        self
    }

    /// Replaces the evaluation budget (cloned into each inner run).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Work counters, accumulated across queries.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The evaluation context (base database, domain, overlay store).
    pub fn context(&self) -> &Context<'rb> {
        &self.ctx
    }

    /// True if any constant of `atom` is outside `dom(R, DB)` — no fact
    /// can match it, so positive goals fail and negated goals hold
    /// without touching the engine.
    fn atom_foreign(&self, atom: &Atom) -> bool {
        atom.args
            .iter()
            .any(|t| t.as_const().is_some_and(|c| !self.ctx.in_domain(c)))
    }

    /// First symbol id safely above the rulebase, database, accumulated
    /// domain, and this query.
    fn first_fresh<'a>(&self, query_atoms: impl Iterator<Item = &'a Atom>) -> u32 {
        let mut max = self.sym_base;
        for a in query_atoms {
            max = max.max(a.pred.0 + 1);
            for t in &a.args {
                if let Some(c) = t.as_const() {
                    max = max.max(c.0 + 1);
                }
            }
        }
        for &c in &self.ctx.domain {
            max = max.max(c.0 + 1);
        }
        max
    }

    /// Folds an inner run plus the rewrite's own counters into stats.
    fn finish(&mut self, out: &RewriteOutput, inner: &BottomUpEngine<'_>) {
        self.stats.demand_facts += 1 + inner.derived_fact_count(|p| out.magic_preds.contains(&p));
        self.stats.merge_run(inner.stats());
        self.stats.magic_rules += out.magic_rules;
        self.stats.adorned_strata = out.adorned_strata;
        self.stats.unbound_fallbacks += out.unbound;
    }

    /// Evaluates a query premise against the base database (same free-
    /// variable conventions as the other engines).
    pub fn holds(&mut self, query: &Premise) -> Result<bool> {
        let query = match query {
            Premise::Atom(a) => {
                if self.atom_foreign(a) {
                    return Ok(false);
                }
                query.clone()
            }
            Premise::Neg(a) => {
                if self.atom_foreign(a) {
                    return Ok(true);
                }
                query.clone()
            }
            Premise::Hyp { goal, adds, dels } => {
                // Definition 3: fresh constants introduced by `add:`
                // join the grounding domain for this and later queries.
                self.ctx.extend_domain(
                    adds.iter()
                        .flat_map(|a| a.args.iter().filter_map(|t| t.as_const())),
                );
                if self.atom_foreign(goal) {
                    return Ok(false);
                }
                // A `del:` atom naming a foreign constant can match no
                // fact — drop it rather than let its constant leak into
                // the rewritten program's domain (it would change how
                // negation grounds).
                let dels: Vec<Atom> = dels
                    .iter()
                    .filter(|d| !self.atom_foreign(d))
                    .cloned()
                    .collect();
                Premise::Hyp {
                    goal: goal.clone(),
                    adds: adds.clone(),
                    dels,
                }
            }
        };
        match self.run_rewritten(&[], &query, |inner, answer| {
            inner.holds(&Premise::Atom(answer))
        }) {
            Some(r) => r,
            None => self.fallback(|eng| eng.holds(&query))?,
        }
    }

    /// All derivable instances of `pattern`, sorted and deduplicated —
    /// same row conventions as [`BottomUpEngine::answers_partial`].
    pub fn answers_partial(&mut self, pattern: &Atom) -> (Vec<Vec<Symbol>>, Option<Error>) {
        if self.atom_foreign(pattern) {
            return (Vec::new(), None);
        }
        let query = Premise::Atom(pattern.clone());
        match self.run_rewritten(&pattern.args, &query, |inner, answer| {
            inner.answers_partial(&answer)
        }) {
            Some(r) => r,
            None => self
                .fallback(|eng| eng.answers_partial(pattern))
                .unwrap_or_else(|e| (Vec::new(), Some(e))),
        }
    }

    /// All derivable instances of `pattern`, or the first error.
    pub fn answers(&mut self, pattern: &Atom) -> Result<Vec<Vec<Symbol>>> {
        match self.answers_partial(pattern) {
            (rows, None) => Ok(rows),
            (_, Some(e)) => Err(e),
        }
    }

    /// A fresh inner semi-naive engine over `rb` and `db`, grounding
    /// over the accumulated domain, with this engine's limits,
    /// parallelism and budget.
    fn inner_engine<'a>(&self, rb: &'a Rulebase, db: &Database) -> Result<BottomUpEngine<'a>> {
        let mut eng = BottomUpEngine::new_with_constants(rb, db, &self.ctx.domain)?
            .with_limits(self.limits)
            .with_parallelism(self.workers);
        eng.set_budget(self.budget.clone());
        Ok(eng)
    }

    /// Rewrites `query` (the body of a synthetic query rule with head
    /// arguments `head_args`) for demand, seeds the base database, and
    /// runs `eval` on the answer atom in a fresh inner engine. `None`
    /// when the rewrite or the inner engine's construction fails: the
    /// caller degrades to [`MagicEngine::fallback`].
    fn run_rewritten<T>(
        &mut self,
        head_args: &[Term],
        query: &Premise,
        eval: impl FnOnce(&mut BottomUpEngine<'_>, Atom) -> T,
    ) -> Option<T> {
        let mut db = self.ctx.dbs.to_database(self.ctx.base_db);
        let fresh0 = self.first_fresh(query.atoms());
        let out = rewrite(self.rb, head_args, vec![query.clone()], fresh0).ok()?;
        db.insert(out.seed.clone());
        let mut inner = self.inner_engine(&out.rb, &db).ok()?;
        let r = eval(&mut inner, Atom::new(out.answer_pred, head_args.to_vec()));
        self.finish(&out, &inner);
        Some(r)
    }

    /// Whole-query degradation to plain semi-naive evaluation of the
    /// original rulebase; counted as one fallback per rulebase predicate.
    fn fallback<T>(&mut self, eval: impl FnOnce(&mut BottomUpEngine<'rb>) -> T) -> Result<T> {
        let base = self.ctx.dbs.to_database(self.ctx.base_db);
        let mut eng = self.inner_engine(self.rb, &base)?;
        let r = eval(&mut eng);
        self.stats.merge_run(eng.stats());
        self.stats.unbound_fallbacks += self.ctx.defs.len() as u64;
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query, split_facts};
    use hdl_base::SymbolTable;

    fn setup(src: &str) -> (Rulebase, Database, SymbolTable) {
        let mut syms = SymbolTable::new();
        let program = parse_program(src, &mut syms).unwrap();
        let (rb, facts) = split_facts(program);
        let db: Database = facts.into_iter().collect();
        (rb, db, syms)
    }

    /// `holds` agrees with the bottom-up engine on every listed query.
    fn check_holds(src: &str, queries: &[&str]) {
        let (rb, db, mut syms) = setup(src);
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        let mut bu = BottomUpEngine::new(&rb, &db).unwrap();
        for q in queries {
            let query = parse_query(&format!("?- {q}."), &mut syms).unwrap();
            let want = bu.holds(&query).unwrap();
            let got = magic.holds(&query).unwrap();
            assert_eq!(got, want, "query {q}");
        }
    }

    const TC: &str = "
        edge(a, b). edge(b, c). edge(c, d). edge(e, f).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
    ";

    #[test]
    fn point_queries_match_bottom_up() {
        check_holds(
            TC,
            &[
                "tc(a, d)",
                "tc(a, a)",
                "tc(d, a)",
                "tc(e, f)",
                "tc(a, X)",
                "tc(X, Y)",
                "edge(a, b)",
            ],
        );
    }

    #[test]
    fn point_query_derives_fewer_facts_than_full_model() {
        // A 40-node chain: the full model holds O(n²) tc pairs, demand
        // from the query's source only O(n).
        let mut src = String::new();
        for i in 0..39 {
            src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
        }
        src.push_str("tc(X, Y) :- edge(X, Y).\n");
        src.push_str("tc(X, Z) :- tc(X, Y), edge(Y, Z).\n");
        let (rb, db, mut syms) = setup(&src);
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        let q = parse_query("?- tc(n0, n39).", &mut syms).unwrap();
        assert!(magic.holds(&q).unwrap());
        let s = magic.stats();
        assert!(s.magic_rules > 0, "rewrite emitted no magic rules");
        assert!(s.demand_facts > 0, "no demand facts recorded");
        assert_eq!(s.unbound_fallbacks, 0, "tc should be fully boundable");
        let mut bu = BottomUpEngine::new(&rb, &db).unwrap();
        assert!(bu.holds(&q).unwrap());
        assert!(
            magic.stats().goal_expansions * 2 < bu.stats().goal_expansions,
            "magic ({}) should attempt far fewer matches than semi-naive ({})",
            magic.stats().goal_expansions,
            bu.stats().goal_expansions
        );
    }

    #[test]
    fn answers_match_bottom_up() {
        let (rb, db, mut syms) = setup(TC);
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        let mut bu = BottomUpEngine::new(&rb, &db).unwrap();
        for q in ["tc(a, X)", "tc(X, Y)", "tc(X, d)"] {
            let query = parse_query(&format!("?- {q}."), &mut syms).unwrap();
            let Premise::Atom(pat) = &query else { panic!() };
            assert_eq!(
                magic.answers(pat).unwrap(),
                bu.answers(pat).unwrap(),
                "query {q}"
            );
        }
    }

    #[test]
    fn bound_negation_is_demanded_and_agrees() {
        let src = "
            node(a). node(b). node(c).
            edge(a, b).
            source(X) :- node(X), ~hit(X).
            hit(Y) :- edge(X, Y).
        ";
        check_holds(src, &["source(a)", "source(b)", "source(X)", "~source(b)"]);
        let (rb, db, mut syms) = setup(src);
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        let q = parse_query("?- source(a).", &mut syms).unwrap();
        assert!(magic.holds(&q).unwrap());
        assert_eq!(
            magic.stats().unbound_fallbacks,
            0,
            "hit(X) is bound by node(X); no fallback expected"
        );
    }

    #[test]
    fn unbound_negation_falls_back_without_dropping_answers() {
        // `~picked(Y)` with inner-existential Y cannot be bound — the
        // rewrite must evaluate `picked` unrestricted, not drop answers.
        let src = "
            item(a). item(b).
            sel(b).
            picked(X) :- sel(X).
            open(X) :- item(X), ~picked(Y).
        ";
        let (rb, db, mut syms) = setup(src);
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        let mut bu = BottomUpEngine::new(&rb, &db).unwrap();
        let q = parse_query("?- open(a).", &mut syms).unwrap();
        assert_eq!(magic.holds(&q).unwrap(), bu.holds(&q).unwrap());
        assert!(
            magic.stats().unbound_fallbacks > 0,
            "inner-existential negation must be counted as a fallback"
        );
    }

    #[test]
    fn hypothetical_premises_agree() {
        let src = "
            take(sue, cs1).
            req(cs1). req(cs2).
            done(S) :- take(S, cs1), take(S, cs2).
            canfinish(S) :- done(S)[add: take(S, cs2)].
        ";
        check_holds(
            src,
            &[
                "canfinish(sue)",
                "canfinish(X)",
                "done(sue)",
                "done(sue)[add: take(sue, cs2)]",
                "done(sue)[add: take(sue, cs2), del: take(sue, cs1)]",
            ],
        );
    }

    #[test]
    fn hypothetical_deletion_agrees() {
        let src = "
            edge(a, b). edge(b, c).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            cut(X, Y) :- tc(X, Y)[del: edge(b, c)].
        ";
        check_holds(
            src,
            &["cut(a, c)", "cut(a, b)", "tc(a, c)[del: edge(a, b)]"],
        );
    }

    #[test]
    fn fresh_query_constants_grow_the_domain() {
        // PR-8 Definition-3 regression shape: the query adds a fact
        // about a constant the program has never seen.
        let src = "
            r(a).
            p(X) :- r(X), ~q(X).
            q(b).
        ";
        let (rb, db, mut syms) = setup(src);
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        let mut bu = BottomUpEngine::new(&rb, &db).unwrap();
        for q in [
            "p(zzz)[add: r(zzz)]",
            "p(zzz)",
            "p(a)[del: q(zzz)]",
            "~p(zzz)",
        ] {
            let query = parse_query(&format!("?- {q}."), &mut syms).unwrap();
            assert_eq!(
                magic.holds(&query).unwrap(),
                bu.holds(&query).unwrap(),
                "query {q}"
            );
        }
    }

    #[test]
    fn magic_seed_stays_in_its_overlay_branch() {
        // Two sibling hypothetical branches demand the same goal with
        // different seeds; answers must not bleed across.
        let src = "
            edge(a, b).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            both(X) :- tc(a, X)[add: edge(b, X)], tc(b, X)[add: edge(a, X)].
        ";
        check_holds(src, &["both(c)", "both(a)", "both(X)"]);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn rewrite_failpoint_degrades_to_semi_naive() {
        use hdl_base::failpoint::{self, FaultSpec};
        failpoint::clear();
        let (rb, db, mut syms) = setup(TC);
        let mut magic = MagicEngine::new(&rb, &db).unwrap();
        failpoint::configure("magic::rewrite", FaultSpec::erroring(1).fires(1), 7);
        let q = parse_query("?- tc(a, d).", &mut syms).unwrap();
        let got = magic.holds(&q).unwrap();
        failpoint::clear();
        assert!(got, "degraded query must still answer correctly");
        assert!(
            magic.stats().unbound_fallbacks > 0,
            "failed rewrite must be recorded as a fallback"
        );
    }
}
