//! Bottom-up (perfect-model) hypothetical inference — the reference engine.
//!
//! For a stratified hypothetical rulebase `R` and database `DB`, the
//! *perfect model* `M(DB)` is computed stratum by stratum exactly as for
//! stratified Horn programs (\[1\], \[20\] in the paper), with one addition: a
//! hypothetical premise `B[add: Āθ, del: C̄θ]` holds iff
//! `Bθ ∈ M((DB ∖ C̄θ) ∪ Āθ)` — the perfect model of the *modified*
//! database, computed recursively (deletions apply first, so a fact in
//! both lists ends up present).
//!
//! Termination: grounding substitutions range over the fixed domain
//! `dom(R, DB)`, so the Herbrand base is finite and augmented databases
//! grow strictly; the recursion over databases bottoms out at the full
//! base. When `C̄θ ⊆ DB` the premise degenerates to a plain positive
//! premise evaluated inside the current fixpoint (monotone, so iteration
//! order is irrelevant).
//!
//! Each stratum is closed by the shared semi-naive kernel
//! ([`crate::engine::fixpoint`], DESIGN.md §3.11): delta rotation after
//! round 0, full re-fire of rules whose hypothetical premise can read the
//! growing model (the degenerate `add ⊆ DB` case over a same-stratum
//! goal), and pure firings fanned out across scoped worker threads (see
//! [`BottomUpEngine::set_parallelism`]). This engine's part is the
//! resolver: every premise reads the layered model, and a hypothetical
//! premise recurses into the model of the modified database.
//!
//! Models are *stratum-lazy*: for an augmented database the engine only
//! closes the strata up to the hypothetical goal's stratum. Without this,
//! a rule like `within1(S,D) ← grad(S,D)[add: take(S,C)]` would re-fire
//! itself inside every augmented database and walk the exponential lattice
//! of `take`-subsets even when the query never needs those facts. With it,
//! hypothetical recursion *within* one mutual-recursion class still
//! explores the lattice — that cost is the NP-hardness of §3.1, not an
//! implementation artifact.
//!
//! Partial models are memoized per [`hdl_base::DbId`] and extended in
//! place when later queries need higher strata. This engine accepts *any*
//! rulebase with stratified negation (linearly stratified or not) and
//! serves as ground truth for the top-down engine and the `PROVE`
//! procedures.

use crate::analysis::stratify::{evaluation_strata, NegationStrata};
use crate::ast::{Premise, Rulebase};
use crate::engine::budget::Budget;
use crate::engine::context::Context;
use crate::engine::fixpoint::{self, classify, Fixpoint, Model, Resolver};
use crate::engine::matching::{collect_free, empty_layer, ModelLayers, Part};
use crate::engine::stats::{EngineStats, Limits};
use hdl_base::{
    Atom, Bindings, Database, DbId, Error, FxHashMap, MatchCounters, Result, Symbol, Var,
};
use std::sync::Arc;

/// The bottom-up engine, bound to one rulebase and one base database.
pub struct BottomUpEngine<'rb> {
    ctx: Context<'rb>,
    /// Partial perfect models per database; a model's closed groups are
    /// its closed evaluation strata.
    models: FxHashMap<DbId, Model>,
    /// Evaluation strata (hypothetical edges across recursion classes are
    /// strict — see [`evaluation_strata`]).
    eval_strata: NegationStrata,
    /// The kernel's share: one rule group per evaluation stratum.
    fx: Fixpoint,
    stats: EngineStats,
}

impl<'rb> BottomUpEngine<'rb> {
    /// Builds an engine; fails if `rb` is not stratified.
    pub fn new(rb: &'rb Rulebase, db: &Database) -> Result<Self> {
        Self::new_with_constants(rb, db, &[])
    }

    /// Like [`BottomUpEngine::new`], but with `extra` constants joined
    /// into the grounding domain — used by incremental maintenance,
    /// which runs reduced rulebases that must ground negation and
    /// hypothetical premises over the full program's `dom(R, DB)`.
    pub fn new_with_constants(rb: &'rb Rulebase, db: &Database, extra: &[Symbol]) -> Result<Self> {
        let ctx = Context::new_with_constants(rb, db, extra)?;
        let eval_strata = evaluation_strata(rb)?;
        let n = eval_strata.num_strata.max(1);
        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, rule) in rb.iter().enumerate() {
            grouped[eval_strata.stratum(rule.head.pred)].push(i);
        }
        let classes = rb
            .iter()
            .map(|rule| {
                let s = eval_strata.stratum(rule.head.pred);
                classify(rule, |p| eval_strata.stratum(p) == s, |_| true)
            })
            .collect();
        let fx = Fixpoint::new(grouped.into_iter().map(Arc::from).collect(), classes);
        Ok(BottomUpEngine {
            ctx,
            models: FxHashMap::default(),
            eval_strata,
            fx,
            stats: EngineStats::default(),
        })
    }

    /// Replaces the resource limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.fx.limits = limits;
        self
    }

    /// Sets the number of worker threads used for pure-rule firings
    /// within a fixpoint round (clamped to at least 1). The computed
    /// model is identical for every setting; only wall-clock changes.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.fx.workers = workers.max(1);
    }

    /// Builder form of [`BottomUpEngine::set_parallelism`].
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.set_parallelism(workers);
        self
    }

    /// Toggles semi-naive delta-rotation (on by default). With it off,
    /// every round re-fires every rule against the full model — the
    /// pre-optimization naive closure, retained as an equivalence oracle
    /// and benchmark baseline.
    pub fn set_semi_naive(&mut self, on: bool) {
        self.fx.semi_naive = on;
    }

    /// Replaces the evaluation budget (deadline / cancellation token).
    ///
    /// A tripped budget abandons the fixpoint mid-flight; the partial
    /// model of the interrupted database is discarded (its stratum was
    /// never marked closed), so later queries recompute it from scratch
    /// and memoized models stay sound.
    ///
    /// The fact cap of any memory limits bounds growth from this moment;
    /// the goal-set cap bounds the derived-fact count of the model being
    /// closed (absolute — the natural "working set" of this engine).
    pub fn set_budget(&mut self, budget: Budget) {
        self.fx.set_budget(budget, &self.ctx);
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The evaluation context.
    pub fn context(&self) -> &Context<'rb> {
        &self.ctx
    }

    /// The number of strata of the global stratification.
    pub fn num_strata(&self) -> usize {
        self.fx.groups.len()
    }

    /// Counts derived facts whose predicate satisfies `pred_in`, summed
    /// over every memoized model. The magic engine uses this to report
    /// how many demand facts a rewritten query materialized.
    pub fn derived_fact_count(&self, mut pred_in: impl FnMut(Symbol) -> bool) -> u64 {
        self.models
            .values()
            .map(|e| {
                e.derived
                    .predicates()
                    .filter(|&p| pred_in(p))
                    .map(|p| e.derived.count(p) as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// A snapshot of the full perfect model of the base database.
    pub fn model(&mut self) -> Result<Database> {
        let base = self.ctx.base_db;
        let all = self.num_strata();
        self.ensure_model(base, all)?;
        let mut model = self.ctx.dbs.to_database(base);
        model.absorb(&self.models[&base].derived);
        self.stats.record_overlay(self.ctx.dbs.overlay_stats());
        Ok(model)
    }

    /// Evaluates a query premise against the base database (same free-
    /// variable conventions as the top-down engine).
    pub fn holds(&mut self, query: &Premise) -> Result<bool> {
        let base = self.ctx.base_db;
        let num_vars = query.vars().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut bindings = Bindings::new(num_vars);
        let result = match query {
            Premise::Atom(atom) => {
                self.ensure_for_pred(base, atom.pred)?;
                Ok(self.exists_in_model(base, atom, &mut bindings))
            }
            Premise::Neg(atom) => {
                self.ensure_for_pred(base, atom.pred)?;
                Ok(!self.exists_in_model(base, atom, &mut bindings))
            }
            Premise::Hyp { goal, adds, dels } => {
                // Definition 3: the goal is proved in `(DB ∖ C̄) ∪ B̄`, so
                // constants the query's `add:` atoms introduce belong to
                // that world's domain. Memoized models were closed under
                // the smaller domain (their negation and hypothetical
                // groundings never ranged over the fresh constants), so
                // they are stale the moment the domain grows.
                let fresh = adds
                    .iter()
                    .flat_map(|a| a.args.iter().filter_map(|t| t.as_const()));
                if self.ctx.extend_domain(fresh) {
                    self.models.clear();
                }
                let free = collect_free(goal, adds, dels, &bindings);
                self.exists_hyp(goal, adds, dels, &free, 0, &mut bindings, base)
            }
        };
        self.stats.record_overlay(self.ctx.dbs.overlay_stats());
        result
    }

    /// Whether `atom` matches anywhere in the (closed) model of `db`.
    fn exists_in_model(&mut self, db: DbId, atom: &Atom, bindings: &mut Bindings) -> bool {
        let empty = Database::new();
        let derived = self.models.get(&db).map_or(&empty, |e| &e.derived);
        let mut c = MatchCounters::default();
        let layers = ModelLayers::new(self.ctx.dbs.view(db), derived, empty_layer());
        let found = layers.exists(Part::Full, atom, bindings, &mut c);
        self.stats.absorb_matches(c);
        found
    }

    /// All tuples of `pattern` in the perfect model of the base database.
    pub fn answers(&mut self, pattern: &Atom) -> Result<Vec<Vec<Symbol>>> {
        let (rows, trip) = self.answers_partial(pattern);
        match trip {
            Some(e) => Err(e),
            None => Ok(rows),
        }
    }

    /// Like [`answers`](Self::answers), but if the budget trips while
    /// closing the model the tuples already derived are returned alongside
    /// the trip error instead of being discarded. The rows are sound
    /// (stratified fixpoints only ever add true facts) but not complete
    /// when the error is `Some`.
    pub fn answers_partial(&mut self, pattern: &Atom) -> (Vec<Vec<Symbol>>, Option<Error>) {
        let base = self.ctx.base_db;
        let trip = self.ensure_for_pred(base, pattern.pred).err();
        let empty = Database::new();
        let derived = self.models.get(&base).map_or(&empty, |e| &e.derived);
        let mut bindings = Bindings::new(pattern.vars().map(|v| v.index() + 1).max().unwrap_or(0));
        let mut out = Vec::new();
        let mut c = MatchCounters::default();
        let layers = ModelLayers::new(self.ctx.dbs.view(base), derived, empty_layer());
        layers.for_each_match(Part::Full, pattern, &mut bindings, &mut c, |b| {
            out.push(
                pattern
                    .args
                    .iter()
                    .map(|t| match t {
                        hdl_base::Term::Const(c) => *c,
                        hdl_base::Term::Var(v) => b.get(*v).expect("bound by match"),
                    })
                    .collect(),
            );
            false
        });
        self.stats.absorb_matches(c);
        self.stats.record_overlay(self.ctx.dbs.overlay_stats());
        out.sort();
        out.dedup();
        (out, trip)
    }

    /// Whether the ground fact `pred(args)` is in the perfect model of
    /// `db` (closing only the strata the fact's predicate needs).
    pub fn proves(&mut self, db: DbId, pred: Symbol, args: &[Symbol]) -> Result<bool> {
        self.ensure_for_pred(db, pred)?;
        let found = self.models[&db].derived.contains_tuple(pred, args)
            || self.ctx.dbs.view(db).contains_tuple(pred, args);
        self.stats.record_overlay(self.ctx.dbs.overlay_stats());
        Ok(found)
    }

    fn ensure_for_pred(&mut self, db: DbId, pred: Symbol) -> Result<()> {
        let upto = self.eval_strata.stratum(pred) + 1;
        self.ensure_model(db, upto)
    }

    /// Ensures strata `0..upto` of `db`'s model are closed.
    fn ensure_model(&mut self, db: DbId, upto: usize) -> Result<()> {
        let upto = upto.min(self.num_strata());
        let mut entry = match self.models.remove(&db) {
            Some(e) => e,
            None => {
                self.stats.calls += 1;
                if self.models.len() as u64 >= self.fx.limits.max_databases {
                    return Err(Error::LimitExceeded {
                        what: "databases".into(),
                        limit: self.fx.limits.max_databases,
                    });
                }
                // O(1): the EDB layer stays in the overlay DAG; only
                // facts the rules derive are stored here.
                Model::default()
            }
        };
        match fixpoint::saturate(self, db, upto, &mut entry) {
            Ok(()) => {
                self.models.insert(db, entry);
                Ok(())
            }
            Err(stop) => {
                // A tripped match-attempt limit keeps the partial model
                // for `answers_partial`; any other trip drops it (its
                // stratum was never marked closed), so later queries
                // recompute it and the memo stays sound.
                if stop.kept {
                    self.models.insert(db, entry);
                }
                Err(stop.error)
            }
        }
    }

    /// `∃`-grounding of a top-level hypothetical query.
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
            return Resolver::prove(self, db2, goal, bindings);
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
}

impl<'rb> Resolver<'rb> for BottomUpEngine<'rb> {
    const ROUND_SITE: &'static str = "bottomup::round";
    const FIRE_SITE: &'static str = "bottomup::fire";

    fn split(&mut self) -> (&mut Context<'rb>, &mut Fixpoint, &mut EngineStats) {
        (&mut self.ctx, &mut self.fx, &mut self.stats)
    }

    fn shared(&self) -> (&Context<'rb>, &Fixpoint) {
        (&self.ctx, &self.fx)
    }

    /// Every premise reads the layered model: same-stratum predicates are
    /// growing, lower ones closed.
    fn layered(&self, _: Symbol, _: Symbol) -> bool {
        true
    }

    /// A hypothetical premise's goal, in the (recursively computed,
    /// stratum-bounded) model of the modified database.
    fn prove(&mut self, db: DbId, atom: &Atom, bindings: &Bindings) -> Result<bool> {
        let args = atom.ground_args(bindings).expect("grounded");
        self.proves(db, atom.pred, &args)
    }

    fn working_set(&self, derived: usize) -> u64 {
        derived as u64
    }
}
