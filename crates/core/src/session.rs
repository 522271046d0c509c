//! A convenience façade: load programs and ask queries as text.
//!
//! [`Session`] owns the symbol table, rulebase, and database, and answers
//! textual queries with a fresh [`Engine`] per call (engine construction
//! is cheap — a linear stratification pass; memo tables are per-call).
//! Every evaluation runs on a dedicated thread with an enlarged stack,
//! so deep proofs cannot overflow the caller. For long query sequences
//! against one database, construct an [`Engine`] directly and reuse it,
//! or publish a [`Session::snapshot`] and drive it through the
//! `hdl-service` concurrent query service.
//!
//! Every mutation is one [`Op`]: a front door parses its [`OpText`]
//! with [`Session::parse_op`], which refuses a load that would leave the
//! rulebase unstratified, and [`Session::apply`] checks arities, offers
//! the op to the write-ahead [`SessionObserver`] and commits it
//! ([`Session::apply_text`] does both). WAL replay calls `apply` on the
//! logged op directly.
//!
//! On the write path, a [`Session::retract_fact`] costs amortised
//! O(arity) however large its relation is (the row becomes a tombstone;
//! see [`Database::remove`]), and a snapshot shares the symbol table
//! instead of copying it. The snapshot still copies the rulebase and the
//! database.
//!
//! ```
//! use hdl_core::session::Session;
//!
//! let mut s = Session::new();
//! s.load("
//!     take(tony, his101).
//!     grad(S) :- take(S, his101), take(S, eng201).
//! ").unwrap();
//! assert!(s.ask("?- grad(tony)[add: take(tony, eng201)].").unwrap());
//! assert!(!s.ask("?- grad(tony).").unwrap());
//! ```

use crate::analysis::recursion::RecursionAnalysis;
use crate::analysis::stratify::global_strata;
use crate::ast::{HypRule, Premise, Rulebase};
use crate::engine::{
    model_answers, model_holds, render_rows, Budget, Engine, EngineStats, TopDownEngine,
};
use crate::maintain::{MaintenanceStats, MaterializedModel};
use crate::op::{Applied, Op, OpText};
use crate::parser::parse_query;
use crate::snapshot::Snapshot;
use crate::stack::call_with_deep_stack;
use hdl_base::{Atom, Database, GroundAtom, Result, Symbol, SymbolTable};
use std::sync::Arc;
use std::time::Duration;

pub use crate::engine::EngineKind;

/// Write-ahead hook for session mutations (implemented by the durability
/// layer in `hdl-persist`).
///
/// The observer runs after validation but before the op is applied, so
/// a durable log can guarantee: anything the in-memory session holds has
/// been offered to the log first. If the observer errors, the session is
/// left unchanged and [`Session::apply`] returns the error. `symbols` is
/// the table *after* parsing (new names are already interned — a replay
/// that re-interns in the same order reproduces identical ids).
pub trait SessionObserver: Send {
    /// Called once per op; an `Err` aborts it.
    fn on_mutation(&mut self, symbols: &SymbolTable, op: &Op) -> Result<()>;
}

/// An owned program + database with a textual query interface.
#[derive(Default)]
pub struct Session {
    symbols: SymbolTable,
    rulebase: Rulebase,
    database: Database,
    /// DES-style assumption frames: each `:assume` pushes a set of ground
    /// facts; queries run against base ∪ frames. Frames are popped LIFO.
    assumptions: Vec<Vec<GroundAtom>>,
    /// Write-ahead observer; offered every op before commit.
    observer: Option<Box<dyn SessionObserver>>,
    engine: EngineKind,
    deadline: Option<Duration>,
    last_stats: Option<EngineStats>,
    arities: hdl_base::FxHashMap<Symbol, usize>,
    /// Materialized perfect model of the effective database, built on
    /// demand by [`Session::model`] and then kept current across
    /// facts-only loads and retractions by delta continuation and
    /// delete-and-rederive instead of full recomputation. Structural
    /// mutations (rule loads, assumption frames) drop it; the next
    /// [`Session::model`] call rebuilds.
    materialized: Option<MaterializedModel>,
}

impl Session {
    /// Creates an empty session using the top-down engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a session from restored parts (checkpoint + WAL replay).
    ///
    /// The arity registry is recomputed from the rulebase, database, and
    /// assumption frames, so later loads keep enforcing consistency.
    pub fn from_parts(
        symbols: SymbolTable,
        rulebase: Rulebase,
        database: Database,
        assumptions: Vec<Vec<GroundAtom>>,
    ) -> Self {
        let mut session = Session {
            symbols,
            ..Session::default()
        };
        let atoms = rulebase.iter().flat_map(rule_atoms);
        let facts = database
            .iter_facts()
            .chain(assumptions.iter().flatten().cloned());
        for (pred, arity) in atoms
            .map(|a| (a.pred, a.arity()))
            .chain(facts.map(|f| (f.pred, f.arity())))
        {
            // The parts were arity-checked when first committed; the
            // first arity seen stands.
            let _ = session.check_arity(pred, arity);
        }
        Session {
            rulebase,
            database,
            assumptions,
            ..session
        }
    }

    /// Installs (or clears) the write-ahead mutation observer.
    pub fn set_observer(&mut self, observer: Option<Box<dyn SessionObserver>>) {
        self.observer = observer;
    }

    /// Selects the evaluation engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the evaluation engine on an existing session.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// The currently selected evaluation engine.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Sets (or clears) a per-query wall-clock deadline. Queries that
    /// run past it fail with [`hdl_base::Error::DeadlineExceeded`].
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The budget applied to each query of this session.
    fn budget(&self) -> Budget {
        match self.deadline {
            Some(d) => Budget::unlimited().with_deadline(d),
            None => Budget::unlimited(),
        }
    }

    /// Publishes the current program + database as an immutable,
    /// epoch-stamped [`Snapshot`] that worker threads can share. Later
    /// `load`s do not affect already-published snapshots.
    ///
    /// The snapshot shares the symbol table (a clone copies no name, see
    /// [`SymbolTable`]) and copies the rulebase, the effective database
    /// and a materialized model.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Snapshot::with_model(
            self.symbols.clone(),
            self.rulebase.clone(),
            self.effective_database().into_owned(),
            self.materialized.as_ref().map(|m| m.model().clone()),
        )
    }

    /// Parses `src`; rules join the rulebase, ground facts the database
    /// (see [`Session::apply_text`]).
    pub fn load(&mut self, src: &str) -> Result<()> {
        self.apply_text(OpText::Load(src)).map(drop)
    }

    /// Parses `text` and applies it: the text entry every front door
    /// uses. See [`Session::parse_op`] and [`Session::apply`].
    pub fn apply_text(&mut self, text: OpText<'_>) -> Result<Applied> {
        let op = self.parse_op(text)?;
        self.apply(op)
    }

    /// Parses `text` into this session's symbol space. A load that adds
    /// rules is refused unless the rulebase it would produce is
    /// stratified: every engine makes that check before it evaluates,
    /// so this logs no program that no engine can evaluate.
    pub fn parse_op(&mut self, text: OpText<'_>) -> Result<Op> {
        let op = text.parse(&mut self.symbols)?;
        if let Op::Program { rules, .. } = &op {
            if !rules.is_empty() {
                let len = self.rulebase.len();
                self.rulebase.rules.extend(rules.iter().cloned());
                let ra = RecursionAnalysis::new(&self.rulebase);
                let strata = global_strata(&self.rulebase, &ra, Some(&self.symbols));
                self.rulebase.rules.truncate(len);
                strata?;
            }
        }
        Ok(op)
    }

    /// Applies one op: checks it against the session (arities across
    /// every op, facts included; a frame to pop), offers it to the
    /// observer, then commits it. A live materialized model
    /// ([`Session::model`]) is kept current fact by fact across
    /// facts-only loads and retractions; rules and assumption frames
    /// drop it, and the next [`Session::model`] call rebuilds.
    ///
    /// WAL replay calls this directly, so it makes no stratification
    /// check: a log that already holds such a program still opens.
    pub fn apply(&mut self, op: Op) -> Result<Applied> {
        let (rules, facts): (&[HypRule], &[GroundAtom]) = match &op {
            Op::Program { rules, facts } => (rules, facts),
            Op::Assume(facts) => (&[], facts),
            Op::Pop if self.assumptions.is_empty() => {
                return Err(hdl_base::Error::Protocol(
                    "no assumption frame to pop".into(),
                ))
            }
            Op::Retract(_) | Op::Pop => (&[], &[]),
        };
        let atoms = rules
            .iter()
            .flat_map(rule_atoms)
            .map(|a| (a.pred, a.arity()));
        for (pred, arity) in atoms.chain(facts.iter().map(|f| (f.pred, f.arity()))) {
            self.check_arity(pred, arity)?;
        }
        if let Some(obs) = self.observer.as_mut() {
            obs.on_mutation(&self.symbols, &op)?;
        }
        Ok(match op {
            Op::Program { rules, facts } => {
                if !rules.is_empty() {
                    self.rulebase.rules.extend(rules);
                    self.materialized = None;
                }
                for f in &facts {
                    self.database.insert_tuple(f.pred, &f.args);
                    self.maintain_model(f, true);
                }
                Applied::Loaded
            }
            Op::Assume(facts) => {
                self.assumptions.push(facts);
                self.materialized = None;
                Applied::Assumed {
                    frames: self.assumptions.len(),
                }
            }
            Op::Retract(fact) => {
                let removed = self.database.remove(&fact);
                if removed {
                    self.maintain_model(&fact, false);
                }
                Applied::Retracted { removed }
            }
            Op::Pop => {
                let popped = self.assumptions.pop().map_or(0, |frame| frame.len());
                self.materialized = None;
                Applied::Popped {
                    popped,
                    frames: self.assumptions.len(),
                }
            }
        })
    }

    /// Interns `names` in order, for write-ahead-log symbol replay.
    ///
    /// Replaying the names in their original interning order reproduces
    /// the dense ids every logged atom refers to.
    pub fn sync_symbols(&mut self, names: &[String]) {
        for n in names {
            self.symbols.intern(n);
        }
    }

    /// Registers the arity of `pred` on first use; every later use must
    /// agree with it.
    fn check_arity(&mut self, pred: Symbol, arity: usize) -> Result<()> {
        match self.arities.get(&pred) {
            Some(&a) if a != arity => Err(hdl_base::Error::ArityMismatch {
                predicate: self.symbols.name(pred).to_owned(),
                expected: a,
                found: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.arities.insert(pred, arity);
                Ok(())
            }
        }
    }

    /// Retracts one base fact; returns whether it was present. Only the
    /// base database is affected — an assumed fact goes when its frame
    /// is popped.
    pub fn retract_fact(&mut self, fact: &GroundAtom) -> Result<bool> {
        Ok(self.apply(Op::Retract(fact.clone()))? == Applied::Retracted { removed: true })
    }

    /// Carries one committed fact insertion or removal into the live
    /// materialized model, if any: semi-naive delta continuation for an
    /// insertion, delete-and-rederive over the affected cone for a
    /// removal. If maintenance fails the model is dropped (it may be
    /// stale), so a later [`Session::model`] rebuilds from scratch.
    fn maintain_model(&mut self, fact: &GroundAtom, inserted: bool) {
        let Some(mut m) = self.materialized.take() else {
            return;
        };
        let database = self.effective_database();
        let (rulebase, db) = (&self.rulebase, database.as_ref());
        let maintained = call_with_deep_stack(move || {
            if inserted {
                m.assert_fact(rulebase, db, fact)?;
            } else {
                m.retract_fact(rulebase, db, fact)?;
            }
            Ok::<_, hdl_base::Error>(m)
        });
        self.materialized = maintained.ok();
    }

    /// The perfect model of the rulebase over the effective database,
    /// materialized on first call and maintained incrementally across
    /// facts-only loads and retractions (see [`Session::apply`] and
    /// `maintain`). While a model is live, plain-atom queries are
    /// answered from it directly.
    pub fn model(&mut self) -> Result<&Database> {
        if self.materialized.is_none() {
            let database = self.effective_database();
            let (rulebase, db) = (&self.rulebase, database.as_ref());
            let m = call_with_deep_stack(move || MaterializedModel::build(rulebase, db))?;
            self.materialized = Some(m);
        }
        Ok(self.materialized.as_ref().expect("just built").model())
    }

    /// Whether a materialized model is currently live.
    pub fn is_materialized(&self) -> bool {
        self.materialized.is_some()
    }

    /// Counters of the materialized model's maintenance, if one is live.
    pub fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.materialized.as_ref().map(|m| m.stats())
    }

    /// The active assumption frames, oldest first.
    pub fn assumptions(&self) -> &[Vec<GroundAtom>] {
        &self.assumptions
    }

    /// The database queries actually run against: the base plus every
    /// active assumption frame. Borrows the base when no assumptions are
    /// active; merges into a fresh copy otherwise.
    fn effective_database(&self) -> std::borrow::Cow<'_, Database> {
        if self.assumptions.is_empty() {
            return std::borrow::Cow::Borrowed(&self.database);
        }
        let mut merged = self.database.clone();
        for frame in &self.assumptions {
            for f in frame {
                merged.insert(f.clone());
            }
        }
        std::borrow::Cow::Owned(merged)
    }

    /// Evaluates a textual query (`?- premise.`).
    ///
    /// Evaluation runs on a dedicated thread with an enlarged stack
    /// ([`call_with_deep_stack`]), so deep linear-recursion proofs never
    /// overflow the caller's stack.
    pub fn ask(&mut self, query: &str) -> Result<bool> {
        let q = parse_query(query, &mut self.symbols)?;
        // A live materialized model answers plain and negated atoms by
        // membership; hypothetical queries fall through to an engine.
        if let Some(found) = self
            .materialized
            .as_ref()
            .and_then(|m| model_holds(m.model(), &q))
        {
            self.last_stats = Some(EngineStats::default());
            return Ok(found);
        }
        self.run(move |eng| eng.holds(&q))
    }

    /// All tuples satisfying a non-ground atom pattern, e.g.
    /// `answers("tc(X, Y)")`.
    pub fn answers(&mut self, pattern: &str) -> Result<Vec<Vec<String>>> {
        let q = parse_query(&format!("?- {pattern}."), &mut self.symbols)?;
        let Premise::Atom(atom) = q else {
            return Err(hdl_base::Error::Invalid(
                "answers() takes a plain atom pattern".into(),
            ));
        };
        let rows = match &self.materialized {
            Some(m) => {
                self.last_stats = Some(EngineStats::default());
                model_answers(m.model(), &atom)
            }
            None => self.run(move |eng| eng.answers(&atom))?,
        };
        Ok(render_rows(&rows, &self.symbols))
    }

    /// Runs `query` on a fresh engine of the selected kind over the
    /// effective database, on a deep-stack thread, and records the
    /// engine's counters as [`Session::last_stats`].
    fn run<T: Send>(
        &mut self,
        query: impl FnOnce(&mut Engine<'_>) -> Result<T> + Send,
    ) -> Result<T> {
        let database = self.effective_database();
        let (rulebase, database) = (&self.rulebase, database.as_ref());
        let (kind, budget) = (self.engine, self.budget());
        let (r, stats) = call_with_deep_stack(move || -> Result<(T, EngineStats)> {
            let mut eng = Engine::new(kind, rulebase, database)?;
            eng.set_budget(budget);
            let r = query(&mut eng)?;
            Ok((r, eng.stats().clone()))
        })?;
        self.last_stats = Some(stats);
        Ok(r)
    }

    /// Evaluates a textual query and, if provable, renders a proof tree
    /// (top-down engine only; see
    /// [`TopDownEngine::explain`](crate::engine::TopDownEngine::explain)).
    pub fn explain(&mut self, query: &str) -> Result<Option<String>> {
        let q = parse_query(query, &mut self.symbols)?;
        let database = self.effective_database();
        let (rulebase, database) = (&self.rulebase, database.as_ref());
        let budget = self.budget();
        let (proof, stats) = call_with_deep_stack(move || {
            let mut eng = TopDownEngine::new(rulebase, database)?;
            eng.set_budget(budget);
            let proof = eng.explain(&q)?;
            Ok::<_, hdl_base::Error>((proof, eng.stats().clone()))
        })?;
        self.last_stats = Some(stats);
        Ok(proof.map(|p| crate::engine::proof::render(&p, &self.symbols)))
    }

    /// The counters of the most recent successful [`ask`](Self::ask),
    /// [`answers`](Self::answers) or [`explain`](Self::explain) — all
    /// zero when a materialized model answered it.
    pub fn last_stats(&self) -> Option<&EngineStats> {
        self.last_stats.as_ref()
    }

    /// Read access to the loaded rulebase.
    pub fn rulebase(&self) -> &Rulebase {
        &self.rulebase
    }

    /// Read access to the database.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Read access to the symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table, for callers that parse
    /// session-external text (`:assume`/`:retract` fact arguments) whose
    /// constants must intern into *this* session's id space. Interning
    /// alone is not a mutation — the durability observer picks up any
    /// new names with the next logged mutation.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Renders the current rulebase back to source text.
    pub fn show_rules(&self) -> String {
        crate::pretty::rulebase(&self.rulebase, &self.symbols)
    }

    /// Serializes the whole session (rules then facts) as a program that
    /// [`Session::load`] accepts — a save file.
    pub fn dump(&self) -> String {
        let mut out = crate::pretty::rulebase(&self.rulebase, &self.symbols);
        out.push_str(&crate::pretty::database(&self.database, &self.symbols));
        out
    }
}

/// Every atom of `rule`: its head, then its premises' atoms.
fn rule_atoms(rule: &HypRule) -> impl Iterator<Item = &Atom> {
    std::iter::once(&rule.head).chain(rule.premises.iter().flat_map(|p| p.atoms()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_ask_roundtrip() {
        let mut s = Session::new();
        s.load(
            "edge(a, b). edge(b, c).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        )
        .unwrap();
        assert!(s.ask("?- tc(a, c).").unwrap());
        assert!(!s.ask("?- tc(c, a).").unwrap());
        assert!(s.last_stats().is_some());
    }

    #[test]
    fn last_stats_surface_overlay_counters() {
        let mut s = Session::new();
        s.load(
            "wet :- rain.
             wet_if_rains :- wet [add: rain].",
        )
        .unwrap();
        assert!(s.ask("?- wet_if_rains.").unwrap());
        let overlay = s.last_stats().unwrap().overlay;
        // The hypothetical premise interned base+{rain}, so the DAG holds
        // at least two nodes, and the added fact is stored as a delta.
        assert!(overlay.nodes >= 2, "{overlay:?}");
        assert!(overlay.delta_facts > 0, "{overlay:?}");
    }

    #[test]
    fn incremental_loads_accumulate() {
        let mut s = Session::new();
        s.load("p :- q.").unwrap();
        assert!(!s.ask("?- p.").unwrap());
        s.load("q.").unwrap();
        assert!(s.ask("?- p.").unwrap());
    }

    #[test]
    fn answers_renders_names() {
        let mut s = Session::new();
        s.load("likes(ann, bo). likes(bo, cy). popular(X) :- likes(Y, X).")
            .unwrap();
        let rows = s.answers("popular(X)").unwrap();
        assert_eq!(rows, vec![vec!["bo".to_string()], vec!["cy".to_string()]]);
    }

    #[test]
    fn answers_records_its_own_stats() {
        let mut s = Session::new();
        s.load(
            "edge(a, b). edge(b, c).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        )
        .unwrap();
        assert!(s.ask("?- edge(a, b).").unwrap());
        s.answers("tc(a, X)").unwrap();
        let mut syms = s.symbols.clone();
        let crate::ast::Premise::Atom(pattern) = parse_query("?- tc(a, X).", &mut syms).unwrap()
        else {
            unreachable!()
        };
        let mut eng = TopDownEngine::new(&s.rulebase, &s.database).unwrap();
        eng.answers(&pattern).unwrap();
        assert_eq!(
            s.last_stats(),
            Some(eng.stats()),
            "stats of the answers run"
        );
        // A materialized model answers without an engine: zero counters.
        s.model().unwrap();
        s.answers("tc(a, X)").unwrap();
        assert_eq!(s.last_stats(), Some(&EngineStats::default()));
    }

    #[test]
    fn arity_errors_surface_on_load() {
        let mut s = Session::new();
        s.load("p(a).").unwrap();
        assert!(s.load("p(a, b).").is_err());
    }

    #[test]
    fn bottom_up_engine_selectable() {
        let mut s = Session::new().with_engine(EngineKind::BottomUp);
        s.load("even :- ~odd.\nodd :- marker.").unwrap();
        assert!(s.ask("?- even.").unwrap());
        s.load("marker.").unwrap();
        assert!(!s.ask("?- even.").unwrap());
    }

    #[test]
    fn bottom_up_session_reports_seminaive_counters() {
        let mut s = Session::new().with_engine(EngineKind::BottomUp);
        s.load(
            "edge(a, b). edge(b, c). edge(c, d).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- tc(X, Y), edge(Y, Z).",
        )
        .unwrap();
        assert!(s.ask("?- tc(a, d).").unwrap());
        let stats = s.last_stats().unwrap();
        assert!(stats.index_probes > 0, "{stats:?}");
        assert!(stats.index_hits <= stats.index_probes, "{stats:?}");
        assert!(!stats.delta_facts_per_round.is_empty(), "{stats:?}");
    }

    #[test]
    fn dump_roundtrips_through_load() {
        let mut s = Session::new();
        s.load(
            "edge(a, b).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).
             island(X) :- node(X), ~touched(X).
             touched(X) :- edge(X, Y).",
        )
        .unwrap();
        let saved = s.dump();
        let mut s2 = Session::new();
        s2.load(&saved).expect("dump re-loads");
        assert_eq!(
            s.ask("?- tc(a, b).").unwrap(),
            s2.ask("?- tc(a, b).").unwrap()
        );
        assert_eq!(saved, s2.dump(), "dump is a fixpoint");
    }

    #[test]
    fn deep_linear_recursion_does_not_overflow() {
        // A hypothetical chain of length n proves through n nested
        // engine frames; 3000 steps of host-stack recursion (with
        // multiple frames per step) was the territory the old caveat
        // warned about — the deep-stack evaluation thread absorbs it.
        let n = 3000;
        let mut src = String::new();
        for i in 1..=n {
            src.push_str(&format!("a{i} :- a{next}[add: b{i}].\n", next = i + 1));
        }
        src.push_str(&format!("a{}.\n", n + 1));
        let mut s = Session::new();
        s.load(&src).unwrap();
        assert!(s.ask("?- a1.").unwrap());
    }

    #[test]
    fn deadline_trips_and_clears() {
        let mut s = Session::new();
        // Parity over a moderate set is slow enough to hit a zero
        // deadline but completes quickly without one.
        s.load(
            "even :- select(X), odd[add: b(X)].
             odd :- select(X), even[add: b(X)].
             even :- ~select(X).
             select(X) :- a(X), ~b(X).
             a(t1). a(t2). a(t3). a(t4).",
        )
        .unwrap();
        s.set_deadline(Some(std::time::Duration::ZERO));
        assert_eq!(
            s.ask("?- even.").unwrap_err(),
            hdl_base::Error::DeadlineExceeded
        );
        s.set_deadline(None);
        assert!(s.ask("?- even.").unwrap(), "deadline cleared");
    }

    #[test]
    fn snapshots_are_isolated_from_later_loads() {
        let mut s = Session::new();
        s.load("p :- q.").unwrap();
        let snap1 = s.snapshot();
        s.load("q.").unwrap();
        let snap2 = s.snapshot();
        assert!(snap2.epoch() > snap1.epoch());
        assert_eq!(snap1.database().len(), 0, "snapshot 1 predates `q.`");
        assert_eq!(snap2.database().len(), 1);
        assert!(s.ask("?- p.").unwrap());
    }

    #[test]
    fn engine_kind_parses_cli_spellings() {
        use std::str::FromStr as _;
        assert_eq!(
            EngineKind::from_str("top-down").unwrap(),
            EngineKind::TopDown
        );
        assert_eq!(EngineKind::from_str("bu").unwrap(), EngineKind::BottomUp);
        assert_eq!(EngineKind::from_str("magic").unwrap(), EngineKind::Magic);
        assert_eq!(EngineKind::from_str("demand").unwrap(), EngineKind::Magic);
        assert!(EngineKind::from_str("sideways").is_err());
    }

    #[test]
    fn magic_engine_is_selectable() {
        let mut s = Session::new();
        s.load(
            "edge(a, b). edge(b, c).\n\
             tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- tc(X, Y), edge(Y, Z).",
        )
        .unwrap();
        s.set_engine(EngineKind::Magic);
        assert!(s.ask("?- tc(a, c).").unwrap());
        assert!(!s.ask("?- tc(c, a).").unwrap());
        assert_eq!(
            s.answers("tc(a, X)").unwrap(),
            vec![
                vec!["a".to_owned(), "b".to_owned()],
                vec!["a".into(), "c".into()]
            ]
        );
        let stats = s.last_stats().expect("stats recorded");
        assert!(stats.magic_rules > 0, "magic path was not taken");
    }

    #[test]
    fn assumption_frames_extend_and_pop() {
        let mut s = Session::new();
        s.load("grad(S) :- take(S, his101), take(S, eng201).\ntake(tony, his101).")
            .unwrap();
        assert!(!s.ask("?- grad(tony).").unwrap());
        let assumed = s.apply_text(OpText::Assume("take(tony, eng201)"));
        assert_eq!(assumed, Ok(Applied::Assumed { frames: 1 }));
        assert!(s.ask("?- grad(tony).").unwrap(), "assumed fact visible");
        // Snapshots see the merged view.
        assert_eq!(s.snapshot().database().len(), 2);
        let popped = s.apply(Op::Pop);
        assert!(matches!(
            popped,
            Ok(Applied::Popped {
                popped: 1,
                frames: 0
            })
        ));
        assert!(!s.ask("?- grad(tony).").unwrap(), "assumption gone");
        assert!(s.apply(Op::Pop).is_err(), "no frame left to pop");
    }

    #[test]
    fn retract_removes_base_facts_only() {
        let mut s = Session::new();
        s.load("p(a). p(b).").unwrap();
        let p = s.symbols.intern("p");
        let a = s.symbols.intern("a");
        let fact = GroundAtom::new(p, vec![a]);
        assert!(s.retract_fact(&fact).unwrap());
        assert!(!s.retract_fact(&fact).unwrap(), "already gone");
        assert!(!s.ask("?- p(a).").unwrap());
        assert!(s.ask("?- p(b).").unwrap());
    }

    #[test]
    fn apply_checks_arity() {
        let mut s = Session::new();
        s.load("p(a).").unwrap();
        let p = s.symbols.intern("p");
        let a = s.symbols.intern("a");
        let (rules, facts) = (Vec::new(), vec![GroundAtom::new(p, vec![a, a])]);
        assert!(s.apply(Op::Assume(facts.clone())).is_err());
        assert!(s.apply(Op::Program { rules, facts }).is_err());
        assert!(s.retract_fact(&GroundAtom::new(p, vec![a])).unwrap());
    }

    #[test]
    fn observer_sees_mutations_before_commit_and_can_abort() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct Counting {
            seen: Arc<AtomicUsize>,
            fail: bool,
        }
        impl SessionObserver for Counting {
            fn on_mutation(&mut self, _: &SymbolTable, _: &Op) -> Result<()> {
                self.seen.fetch_add(1, Ordering::Relaxed);
                if self.fail {
                    Err(hdl_base::Error::Invalid("log full".into()))
                } else {
                    Ok(())
                }
            }
        }
        let seen = Arc::new(AtomicUsize::new(0));
        let mut s = Session::new();
        s.set_observer(Some(Box::new(Counting {
            seen: seen.clone(),
            fail: false,
        })));
        s.load("p(a). q :- p(X).").unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 1, "one record per load");
        // A failing observer aborts the mutation: memory unchanged.
        s.set_observer(Some(Box::new(Counting {
            seen: seen.clone(),
            fail: true,
        })));
        assert!(s.load("r(c).").is_err());
        assert_eq!(s.database().len(), 1, "aborted load not committed");
        assert_eq!(s.rulebase().len(), 1);
        assert!(s.apply_text(OpText::Assume("p(b)")).is_err());
        assert!(s.assumptions().is_empty(), "aborted assume not committed");
    }

    #[test]
    fn from_parts_restores_arity_registry() {
        let mut s = Session::new();
        s.load("p(a). q(X) :- p(X).").unwrap();
        let mut restored = Session::from_parts(
            s.symbols.clone(),
            s.rulebase.clone(),
            s.database.clone(),
            Vec::new(),
        );
        assert!(restored.load("p(a, b).").is_err(), "arity still enforced");
        assert!(restored.ask("?- q(a).").unwrap());
    }

    #[test]
    fn materialized_model_answers_and_tracks_retractions() {
        let mut s = Session::new();
        s.load(
            "edge(a, b). edge(b, c). edge(a, c).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        )
        .unwrap();
        assert!(!s.is_materialized());
        let tc = s.symbols.lookup("tc").unwrap();
        let (a0, c0) = (
            s.symbols.lookup("a").unwrap(),
            s.symbols.lookup("c").unwrap(),
        );
        assert!(s.model().unwrap().contains_tuple(tc, &[a0, c0]));
        assert!(s.is_materialized());
        // Queries are now answered from the model.
        assert!(s.ask("?- tc(a, c).").unwrap());
        assert!(s.ask("?- ~tc(c, a).").unwrap());
        assert_eq!(s.answers("tc(a, X)").unwrap().len(), 2);
        // Retraction maintains the model incrementally: the direct edge
        // goes, but tc(a, c) survives via b.
        let edge = s.symbols.intern("edge");
        let (a, c) = (s.symbols.intern("a"), s.symbols.intern("c"));
        assert!(s.retract_fact(&GroundAtom::new(edge, vec![a, c])).unwrap());
        assert!(s.ask("?- tc(a, c).").unwrap(), "rederived via b");
        assert!(!s.ask("?- edge(a, c).").unwrap());
        let stats = s.maintenance_stats().unwrap();
        assert_eq!(stats.full_builds, 1, "retraction did not rebuild");
        assert_eq!(stats.incremental_retractions, 1);
        // A facts-only load also maintains incrementally.
        s.load("edge(c, a).").unwrap();
        assert!(s.ask("?- tc(b, a).").unwrap());
        assert_eq!(s.maintenance_stats().unwrap().full_builds, 1);
        // Loading rules drops the model; queries fall back to engines.
        s.load("q(X) :- tc(X, X).").unwrap();
        assert!(!s.is_materialized());
        assert!(s.ask("?- q(a).").unwrap());
    }

    #[test]
    fn materialized_model_agrees_under_assumption_frames() {
        let mut s = Session::new();
        s.load("grad(S) :- take(S, his101), take(S, eng201).\ntake(tony, his101).")
            .unwrap();
        s.model().unwrap();
        s.apply_text(OpText::Assume("take(tony, eng201)")).unwrap();
        assert!(!s.is_materialized(), "frames invalidate the model");
        s.model().unwrap();
        assert!(s.ask("?- grad(tony).").unwrap());
        // Retracting a base fact shadowed by a frame keeps it effective.
        s.apply_text(OpText::Assume("take(tony, his101)")).unwrap();
        let take = s.symbols.intern("take");
        let (tony, his) = (s.symbols.intern("tony"), s.symbols.intern("his101"));
        s.model().unwrap();
        assert!(s
            .retract_fact(&GroundAtom::new(take, vec![tony, his]))
            .unwrap());
        assert!(s.ask("?- grad(tony).").unwrap(), "frame still supplies it");
        s.apply(Op::Pop).unwrap();
        assert!(!s.is_materialized());
    }

    #[test]
    fn facts_only_loads_keep_the_model_live() {
        let mut s = Session::new();
        s.load(
            "edge(a, b). edge(b, c). edge(c, d).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        )
        .unwrap();
        s.model().unwrap();
        // Known constants only: a new one would change the domain and
        // force a full rebuild.
        let loads = ["edge(a, c).", "edge(b, d).", "edge(d, a)."];
        for text in loads {
            s.load(text).unwrap();
        }
        assert!(s.is_materialized(), "a facts-only load keeps the model");
        let stats = s.maintenance_stats().unwrap();
        assert_eq!(stats.full_builds, 1);
        assert_eq!(stats.incremental_assertions, loads.len() as u64);
        assert!(s.ask("?- tc(d, c).").unwrap());
    }

    #[test]
    fn snapshots_carry_the_materialized_model() {
        let mut s = Session::new();
        s.load("edge(a, b). tc(X, Y) :- edge(X, Y).").unwrap();
        assert!(s.snapshot().model().is_none());
        s.model().unwrap();
        let snap = s.snapshot();
        let tc = s.symbols.lookup("tc").unwrap();
        let (a, b) = (
            s.symbols.lookup("a").unwrap(),
            s.symbols.lookup("b").unwrap(),
        );
        assert!(snap
            .model()
            .expect("model propagated")
            .contains_tuple(tc, &[a, b]));
    }

    #[test]
    fn hypothetical_queries_via_session() {
        let mut s = Session::new();
        s.load("goal :- f1, f2.").unwrap();
        assert!(s.ask("?- goal[add: f1, f2].").unwrap());
        assert!(!s.ask("?- goal[add: f1].").unwrap());
    }
}
