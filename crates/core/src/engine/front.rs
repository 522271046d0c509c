//! The one place callers meet the query engines.
//!
//! A query `?- φ` means provability from `(R, DB)` (Definitions 1–3),
//! whichever evaluator computes it. [`Engine`] wraps the three query
//! engines behind one set of methods, chosen by [`EngineKind`];
//! [`model_holds`] and [`model_answers`] answer from a materialized
//! perfect model instead, without any engine; [`render_rows`] turns
//! answer rows into names. `Session` and the `hdl-service` workers both
//! go through here.

use crate::ast::{Premise, Rulebase};
use crate::engine::{BottomUpEngine, Budget, Context, EngineStats, MagicEngine, TopDownEngine};
use hdl_base::{Atom, Bindings, Database, Error, Result, Symbol, SymbolTable, Term};

/// Which engine evaluates a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum EngineKind {
    /// Goal-directed with tabling (default; best for search workloads).
    #[default]
    TopDown,
    /// Perfect-model reference engine.
    BottomUp,
    /// Demand-driven: magic-sets rewrite in front of a semi-naive
    /// bottom-up run (best for point queries with bound arguments).
    Magic,
}

impl std::str::FromStr for EngineKind {
    type Err = Error;

    /// Accepts the CLI spellings `top-down` / `topdown` / `td`,
    /// `bottom-up` / `bottomup` / `bu`, and `magic` / `demand`.
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "top-down" | "topdown" | "td" => Ok(EngineKind::TopDown),
            "bottom-up" | "bottomup" | "bu" => Ok(EngineKind::BottomUp),
            "magic" | "demand" => Ok(EngineKind::Magic),
            other => Err(Error::Invalid(format!(
                "unknown engine `{other}` (expected top-down, bottom-up, or magic)"
            ))),
        }
    }
}

/// One of the three query engines, as selected by an [`EngineKind`].
///
/// Every method forwards to the engine of the same name; the engines
/// agree on every verdict and answer row and differ only in the work
/// they do to reach it.
pub enum Engine<'rb> {
    /// [`TopDownEngine`].
    TopDown(TopDownEngine<'rb>),
    /// [`BottomUpEngine`].
    BottomUp(BottomUpEngine<'rb>),
    /// [`MagicEngine`].
    Magic(MagicEngine<'rb>),
}

impl<'rb> Engine<'rb> {
    /// Builds an engine of `kind`; fails if `rb` is not stratified.
    pub fn new(kind: EngineKind, rb: &'rb Rulebase, db: &Database) -> Result<Self> {
        Ok(match kind {
            EngineKind::TopDown => Engine::TopDown(TopDownEngine::new(rb, db)?),
            EngineKind::BottomUp => Engine::BottomUp(BottomUpEngine::new(rb, db)?),
            EngineKind::Magic => Engine::Magic(MagicEngine::new(rb, db)?),
        })
    }

    /// Replaces the evaluation budget.
    pub fn set_budget(&mut self, budget: Budget) {
        match self {
            Engine::TopDown(e) => e.set_budget(budget),
            Engine::BottomUp(e) => e.set_budget(budget),
            Engine::Magic(e) => e.set_budget(budget),
        }
    }

    /// Sets worker threads for pure-rule firings in a fixpoint round
    /// (see DESIGN.md §3.11); the top-down engine ignores it.
    pub fn set_parallelism(&mut self, workers: usize) {
        match self {
            Engine::TopDown(_) => {}
            Engine::BottomUp(e) => e.set_parallelism(workers),
            Engine::Magic(e) => e.set_parallelism(workers),
        }
    }

    /// Evaluates a query premise against the base database.
    pub fn holds(&mut self, query: &Premise) -> Result<bool> {
        match self {
            Engine::TopDown(e) => e.holds(query),
            Engine::BottomUp(e) => e.holds(query),
            Engine::Magic(e) => e.holds(query),
        }
    }

    /// All derivable instances of `pattern`, sorted and deduplicated;
    /// if the budget trips, the rows proven so far come back with the
    /// trip error.
    pub fn answers_partial(&mut self, pattern: &Atom) -> (Vec<Vec<Symbol>>, Option<Error>) {
        match self {
            Engine::TopDown(e) => e.answers_partial(pattern),
            Engine::BottomUp(e) => e.answers_partial(pattern),
            Engine::Magic(e) => e.answers_partial(pattern),
        }
    }

    /// All derivable instances of `pattern`, or the trip error.
    pub fn answers(&mut self, pattern: &Atom) -> Result<Vec<Vec<Symbol>>> {
        match self.answers_partial(pattern) {
            (rows, None) => Ok(rows),
            (_, Some(e)) => Err(e),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        match self {
            Engine::TopDown(e) => e.stats(),
            Engine::BottomUp(e) => e.stats(),
            Engine::Magic(e) => e.stats(),
        }
    }

    /// The evaluation context (base database, domain, overlay store).
    pub fn context(&self) -> &Context<'rb> {
        match self {
            Engine::TopDown(e) => e.context(),
            Engine::BottomUp(e) => e.context(),
            Engine::Magic(e) => e.context(),
        }
    }
}

/// Answers `query` by membership in the materialized perfect `model`:
/// an atom holds iff it matches some fact (existentially over its free
/// variables), a negated atom iff it matches none. Every engine agrees
/// with the perfect model on these by construction. A hypothetical
/// premise needs overlay evaluation, so it returns `None` and falls
/// through to an engine.
pub fn model_holds(model: &Database, query: &Premise) -> Option<bool> {
    match query {
        Premise::Atom(atom) => Some(model_matches(model, atom)),
        Premise::Neg(atom) => Some(!model_matches(model, atom)),
        Premise::Hyp { .. } => None,
    }
}

fn model_matches(model: &Database, atom: &Atom) -> bool {
    let mut bindings = Bindings::new(atom.vars().map(|v| v.index() + 1).max().unwrap_or(0));
    model.for_each_match(atom, &mut bindings, |_| true)
}

/// All tuples of `pattern` in the materialized perfect `model`, sorted
/// and deduplicated exactly like [`Engine::answers`].
pub fn model_answers(model: &Database, pattern: &Atom) -> Vec<Vec<Symbol>> {
    let mut bindings = Bindings::new(pattern.vars().map(|v| v.index() + 1).max().unwrap_or(0));
    let mut rows: Vec<Vec<Symbol>> = Vec::new();
    model.for_each_match(pattern, &mut bindings, |b| {
        rows.push(
            pattern
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => b.get(*v).expect("bound by match"),
                })
                .collect(),
        );
        false
    });
    rows.sort();
    rows.dedup();
    rows
}

/// Renders answer rows as constant names.
pub fn render_rows(rows: &[Vec<Symbol>], symbols: &SymbolTable) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| row.iter().map(|&s| symbols.name(s).to_owned()).collect())
        .collect()
}
