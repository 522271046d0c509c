//! Goal-directed (top-down) hypothetical inference.
//!
//! This engine implements Definition 3 plus negation-as-failure directly:
//!
//! 1. `R, DB ⊢ A` if `A ∈ DB`;
//! 2. `R, DB ⊢ A[add: B̄, del: C̄]` if `R, (DB ∖ C̄) ∪ B̄ ⊢ A` (deletions
//!    apply first, so a fact named in both lists ends up present);
//! 3. `R, DB ⊢ A` if some rule instance `A ← φ₁,…,φₖ` (ground substitution
//!    over `dom(R, DB)`) has all premises provable;
//! 4. `R, DB ⊢ ~A` if `R, DB ⊬ A` (requires stratified negation).
//!
//! The search itself — tabling, rule expansion and the premise walk —
//! is the kernel in [`crate::engine::search`], shared with `PROVE_Σᵢ`;
//! this engine hands every ground sub-goal straight to the kernel's
//! tabled goal. While it serves [`explain`], it records how each goal
//! was proven, so [`explain`] can rebuild the proof tree; other queries
//! record nothing.
//!
//! [`explain`]: TopDownEngine::explain

use crate::ast::{HypRule, Premise, Rulebase};
use crate::engine::budget::Budget;
use crate::engine::context::Context;
use crate::engine::proof::{ProofChild, ProofNode};
use crate::engine::search::{self, Parts, Prover, Tables};
use crate::engine::stats::{EngineStats, Limits, QueryStart};
use hdl_base::{Atom, Bindings, Database, DbId, Error, FactId, FxHashMap, Result, Symbol};

/// How a proven goal was established (for proof reconstruction).
#[derive(Clone, Debug)]
enum ProofStep {
    /// Inference rule 1: present in the database.
    Membership,
    /// Inference rule 3: a rule instance, with the leaf-time bindings
    /// (inline, so recording a step stays allocation-free).
    Rule { rule_idx: usize, bindings: Bindings },
}

/// The top-down engine, bound to one rulebase and one base database.
pub struct TopDownEngine<'rb> {
    ctx: Context<'rb>,
    tables: Tables,
    /// How each goal was first proven while [`Self::explain`] ran.
    proof_steps: FxHashMap<(FactId, DbId), ProofStep>,
    /// Whether proven goals are recorded in `proof_steps`: only while
    /// [`Self::explain`] runs.
    explaining: bool,
    stats: EngineStats,
    limits: Limits,
    /// The counters when the current query began.
    start: QueryStart,
    budget: Budget,
}

impl<'rb> TopDownEngine<'rb> {
    /// Builds an engine; fails if `rb` is not stratified.
    pub fn new(rb: &'rb Rulebase, db: &Database) -> Result<Self> {
        Ok(TopDownEngine {
            ctx: Context::new(rb, db)?,
            tables: Tables::default(),
            proof_steps: FxHashMap::default(),
            explaining: false,
            stats: EngineStats::default(),
            limits: Limits::default(),
            start: QueryStart::default(),
            budget: Budget::default(),
        })
    }

    /// Replaces the resource limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Replaces the evaluation budget (deadline / cancellation token).
    ///
    /// A tripped budget unwinds the search with
    /// [`Error::Cancelled`] / [`Error::DeadlineExceeded`] without
    /// recording verdicts for in-flight goals, so the engine stays
    /// usable — and its memo table correct — for later queries.
    ///
    /// Memory limits carried by the budget bound *growth* from this
    /// moment: the current fact-store and memo sizes become the baseline
    /// the caps are measured against.
    pub fn set_budget(&mut self, budget: Budget) {
        self.tables.rebase(&self.ctx);
        self.budget = budget;
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The evaluation context (domain, lattice, stratification).
    pub fn context(&self) -> &Context<'rb> {
        &self.ctx
    }

    /// Evaluates a query premise against the base database.
    ///
    /// Free variables are quantified existentially over the domain
    /// (`∃c grad(s)[add: take(s,c)]`, Example 2) — except in a negated
    /// query, where they are quantified inside the negation (`~select(Y)`
    /// reads "no `Y` is selectable").
    pub fn holds(&mut self, query: &Premise) -> Result<bool> {
        let base = self.ctx.base_db;
        self.holds_in(query, base)
    }

    /// Like [`holds`](Self::holds) against an explicit database of the
    /// lattice.
    pub fn holds_in(&mut self, query: &Premise, db: DbId) -> Result<bool> {
        search::holds(self, query, db)
    }

    /// Produces a proof tree for `query`, if it is provable.
    ///
    /// For queries with free variables the proof covers the first witness
    /// found (domain order). Negated queries have no proof object — their
    /// evidence is an absence — so they return `Ok(None)`.
    pub fn explain(&mut self, query: &Premise) -> Result<Option<ProofNode>> {
        if matches!(query, Premise::Neg(_)) {
            return Ok(None);
        }
        // Goals other queries proved are memoized without a step: prove
        // them again, recording this time.
        self.tables.forget_verdicts();
        let base = self.ctx.base_db;
        self.explaining = true;
        search::in_query_domain(self, query, |s| {
            let found = search::first_proof(s, query, base);
            s.explaining = false;
            Ok(found?.and_then(|(f, d)| s.reconstruct(f, d)))
        })
    }

    /// Rebuilds the proof tree for a proven `(fact, db)` goal from the
    /// recorded steps.
    fn reconstruct(&mut self, fact: FactId, db: DbId) -> Option<ProofNode> {
        let fact_atom = self.ctx.dbs.facts().fact(fact).clone();
        let Some(step) = self.proof_steps.get(&(fact, db)).cloned() else {
            // EDB premises are matched against the database directly and
            // never pass through `prove`, so they carry no recorded step.
            if self.ctx.db_contains(db, fact) {
                return Some(ProofNode::Membership {
                    fact: fact_atom,
                    db,
                });
            }
            return None;
        };
        match step {
            ProofStep::Membership => Some(ProofNode::Membership {
                fact: fact_atom,
                db,
            }),
            ProofStep::Rule { rule_idx, bindings } => {
                let rb: &'rb Rulebase = self.ctx.rb;
                let rule: &'rb HypRule = &rb.rules[rule_idx];
                let subst = |atom: &Atom| -> Atom {
                    Atom::new(
                        atom.pred,
                        atom.args
                            .iter()
                            .map(|t| match t {
                                hdl_base::Term::Var(v) => {
                                    bindings.get(*v).map_or(*t, hdl_base::Term::Const)
                                }
                                c => *c,
                            })
                            .collect(),
                    )
                };
                let mut children = Vec::with_capacity(rule.premises.len());
                for premise in &rule.premises {
                    match premise {
                        Premise::Atom(a) => {
                            let inst = subst(a).to_ground().expect("positive premise ground");
                            let fid = self.ctx.fact_id(inst);
                            let sub = self.reconstruct(fid, db)?;
                            children.push(ProofChild::Positive(Box::new(sub)));
                        }
                        Premise::Neg(a) => {
                            children.push(ProofChild::NegationHolds { atom: subst(a), db });
                        }
                        Premise::Hyp { goal, adds, dels } => {
                            let ground_adds: Vec<hdl_base::GroundAtom> = adds
                                .iter()
                                .map(|a| subst(a).to_ground().expect("add atom ground"))
                                .collect();
                            let ground_dels: Vec<hdl_base::GroundAtom> = dels
                                .iter()
                                .map(|a| subst(a).to_ground().expect("del atom ground"))
                                .collect();
                            let add_ids: Vec<FactId> = ground_adds
                                .iter()
                                .map(|g| self.ctx.fact_id(g.clone()))
                                .collect();
                            let del_ids: Vec<FactId> = ground_dels
                                .iter()
                                .map(|g| self.ctx.fact_id(g.clone()))
                                .collect();
                            let db2 = self.ctx.dbs.apply(db, &add_ids, &del_ids);
                            let gfact = subst(goal).to_ground().expect("hyp goal ground");
                            let gid = self.ctx.fact_id(gfact);
                            let sub = self.reconstruct(gid, db2)?;
                            children.push(ProofChild::Hypothetical {
                                adds: ground_adds,
                                dels: ground_dels,
                                db: db2,
                                sub: Box::new(sub),
                            });
                        }
                    }
                }
                Some(ProofNode::Derived {
                    fact: fact_atom,
                    db,
                    rule_idx,
                    children,
                })
            }
        }
    }

    /// All domain tuples `x̄` such that `pattern(x̄)` is provable from the
    /// base database, sorted.
    pub fn answers(&mut self, pattern: &Atom) -> Result<Vec<Vec<Symbol>>> {
        let (rows, trip) = self.answers_partial(pattern);
        match trip {
            Some(e) => Err(e),
            None => Ok(rows),
        }
    }

    /// Like [`answers`](Self::answers), but if the budget trips mid-scan
    /// the tuples proven so far are returned alongside the trip error
    /// instead of being discarded — callers can degrade to a partial
    /// answer set. The rows are sound (each was fully proven) but not
    /// complete when the error is `Some`.
    pub fn answers_partial(&mut self, pattern: &Atom) -> (Vec<Vec<Symbol>>, Option<Error>) {
        search::answers_partial(self, pattern)
    }
}

impl<'rb> Prover<'rb> for TopDownEngine<'rb> {
    const SITE: &'static str = "topdown::prove";
    const LIMIT: &'static str = "goal expansions";

    fn split(&mut self) -> Parts<'_, 'rb> {
        (
            &mut self.ctx,
            &mut self.tables,
            &mut self.stats,
            &mut self.budget,
            &self.limits,
            &mut self.start,
        )
    }

    /// Records the first way each goal was proven, while
    /// [`Self::explain`] runs.
    fn proved(&mut self, goal: FactId, db: DbId, by: Option<(usize, &Bindings)>) {
        if !self.explaining {
            return;
        }
        self.proof_steps
            .entry((goal, db))
            .or_insert_with(|| match by {
                None => ProofStep::Membership,
                Some((rule_idx, bindings)) => ProofStep::Rule {
                    rule_idx,
                    bindings: bindings.clone(),
                },
            });
    }

    fn forget(&mut self) {
        self.proof_steps.clear();
    }
}
