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

use crate::ast::{HypRule, Premise, Rulebase};
use crate::engine::{
    model_answers, model_holds, render_rows, Budget, Engine, EngineStats, TopDownEngine,
};
use crate::maintain::{MaintenanceStats, MaterializedModel};
use crate::parser::{parse_program, parse_query, split_facts};
use crate::snapshot::Snapshot;
use crate::stack::call_with_deep_stack;
use hdl_base::{Atom, Database, GroundAtom, Result, Symbol, SymbolTable};
use std::sync::Arc;
use std::time::Duration;

pub use crate::engine::EngineKind;

/// A state change about to be committed to a [`Session`].
///
/// Observers see the mutation *before* it takes effect (write-ahead): if
/// the observer errors, the session is left unchanged and the error is
/// returned to the caller.
#[derive(Debug)]
pub enum Mutation<'a> {
    /// Rules and base facts from one [`Session::load`] (or a single
    /// [`Session::assert_fact`]), committed atomically.
    Program {
        /// Rules joining the rulebase.
        rules: &'a [HypRule],
        /// Ground facts joining the base database.
        facts: &'a [GroundAtom],
    },
    /// One base fact retracted.
    Retract(&'a GroundAtom),
    /// A new assumption frame pushed ([`Session::assume`]).
    Assume(&'a [GroundAtom]),
    /// The top assumption frame popped.
    PopAssumption,
}

/// Write-ahead hook for session mutations (implemented by the durability
/// layer in `hdl-persist`).
///
/// The observer runs after validation but before the mutation is applied,
/// so a durable log can guarantee: anything the in-memory session holds
/// has been offered to the log first. `symbols` is the table *after*
/// parsing (new names are already interned — a replay that re-interns in
/// the same order reproduces identical ids).
pub trait SessionObserver: Send {
    /// Called once per mutation; an `Err` aborts the mutation.
    fn on_mutation(&mut self, symbols: &SymbolTable, mutation: &Mutation<'_>) -> Result<()>;
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
    /// Write-ahead observer; offered every mutation before commit.
    observer: Option<Box<dyn SessionObserver>>,
    engine: EngineKind,
    parallelism: usize,
    deadline: Option<Duration>,
    last_stats: Option<EngineStats>,
    arities: hdl_base::FxHashMap<Symbol, usize>,
    /// Materialized perfect model of the effective database, built on
    /// demand by [`Session::model`] and then kept current across
    /// [`Session::assert_fact`] / [`Session::retract_fact`] by
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

    /// Offers a mutation to the observer; `Err` means "do not commit".
    fn observe(&mut self, mutation: &Mutation<'_>) -> Result<()> {
        if let Some(obs) = self.observer.as_mut() {
            obs.on_mutation(&self.symbols, mutation)?;
        }
        Ok(())
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

    /// Sets the worker count for intra-round parallel rule firing in
    /// the bottom-up engine (see DESIGN.md §3.11). `0` and `1` both
    /// mean single-threaded; the top-down engine ignores this.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers;
    }

    /// Builder-style [`Session::set_parallelism`].
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.set_parallelism(workers);
        self
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
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Snapshot::with_model(
            self.symbols.clone(),
            self.rulebase.clone(),
            self.effective_database().into_owned(),
            self.materialized.as_ref().map(|m| m.model().clone()),
        )
    }

    /// Parses `src`; rules join the rulebase, ground facts the database.
    ///
    /// Arity consistency is enforced across *all* loads, facts included.
    pub fn load(&mut self, src: &str) -> Result<()> {
        let parsed = parse_program(src, &mut self.symbols)?;
        // Check new atoms against the session-wide arity registry before
        // committing anything.
        for atom in parsed.iter().flat_map(rule_atoms) {
            self.check_arity(atom.pred, atom.arity())?;
        }
        let (rules, facts) = split_facts(parsed);
        // Write-ahead: one atomic record for the whole load, offered
        // before anything is committed (cross-load arity consistency was
        // already validated above, so a replay cannot fail validation).
        self.observe(&Mutation::Program {
            rules: &rules.rules,
            facts: &facts,
        })?;
        for r in rules.rules {
            self.rulebase.push(r);
        }
        for f in facts {
            self.database.insert(f);
        }
        self.materialized = None;
        Ok(())
    }

    /// Applies a structured program mutation (rules + facts), as decoded
    /// from a write-ahead log during recovery. Arity-checked against the
    /// session registry and offered to the observer like [`Session::load`].
    pub fn apply_program(&mut self, rules: Vec<HypRule>, facts: Vec<GroundAtom>) -> Result<()> {
        for atom in rules.iter().flat_map(rule_atoms) {
            self.check_arity(atom.pred, atom.arity())?;
        }
        for f in &facts {
            self.check_arity(f.pred, f.arity())?;
        }
        self.observe(&Mutation::Program {
            rules: &rules,
            facts: &facts,
        })?;
        for r in rules {
            self.rulebase.push(r);
        }
        for f in facts {
            self.database.insert(f);
        }
        self.materialized = None;
        Ok(())
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

    /// Inserts one ground fact directly (arity-checked, observed).
    ///
    /// A materialized model ([`Session::model`]) is maintained
    /// incrementally: the new fact extends the model by semi-naive delta
    /// continuation rather than a full fixpoint.
    pub fn assert_fact(&mut self, fact: GroundAtom) -> Result<()> {
        self.check_arity(fact.pred, fact.arity())?;
        self.observe(&Mutation::Program {
            rules: &[],
            facts: std::slice::from_ref(&fact),
        })?;
        self.database.insert(fact.clone());
        self.maintain_model(&fact, true)
    }

    /// Retracts one base fact; returns whether it was present.
    ///
    /// Only the base database is affected — facts assumed via
    /// [`Session::assume`] are retracted by popping their frame.
    ///
    /// A materialized model ([`Session::model`]) is maintained by
    /// delete-and-rederive over the affected derivation cone instead of
    /// recomputing the fixpoint from scratch.
    pub fn retract_fact(&mut self, fact: &GroundAtom) -> Result<bool> {
        self.observe(&Mutation::Retract(fact))?;
        let removed = self.database.remove(fact);
        if removed {
            self.maintain_model(fact, false)?;
        }
        Ok(removed)
    }

    /// Applies one committed single-fact mutation to the materialized
    /// model, if one is live. On error the model is dropped (it may be
    /// stale), so a later [`Session::model`] rebuilds from scratch.
    fn maintain_model(&mut self, fact: &GroundAtom, inserted: bool) -> Result<()> {
        let Some(mut m) = self.materialized.take() else {
            return Ok(());
        };
        let database = self.effective_database();
        let (rulebase, db) = (&self.rulebase, database.as_ref());
        let m = call_with_deep_stack(move || {
            if inserted {
                m.assert_fact(rulebase, db, fact)?;
            } else {
                m.retract_fact(rulebase, db, fact)?;
            }
            Ok(m)
        })?;
        self.materialized = Some(m);
        Ok(())
    }

    /// The perfect model of the rulebase over the effective database,
    /// materialized on first call and maintained incrementally across
    /// [`Session::assert_fact`] / [`Session::retract_fact`] (see
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

    /// Pushes an assumption frame: queries see base ∪ all frames until
    /// the frame is popped (DES-style interactive hypotheses, the
    /// session-level analogue of the paper's `[add: …]` premise).
    pub fn assume(&mut self, facts: Vec<GroundAtom>) -> Result<()> {
        for f in &facts {
            self.check_arity(f.pred, f.arity())?;
        }
        self.observe(&Mutation::Assume(&facts))?;
        self.assumptions.push(facts);
        // Frames change the effective database wholesale; the next
        // `model()` call rebuilds against the new merged view.
        self.materialized = None;
        Ok(())
    }

    /// Pops the most recent assumption frame, returning it (or `None` if
    /// no assumptions are active).
    pub fn pop_assumption(&mut self) -> Result<Option<Vec<GroundAtom>>> {
        if self.assumptions.is_empty() {
            return Ok(None);
        }
        self.observe(&Mutation::PopAssumption)?;
        self.materialized = None;
        Ok(self.assumptions.pop())
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
        let (kind, budget, workers) = (self.engine, self.budget(), self.parallelism);
        let (r, stats) = call_with_deep_stack(move || -> Result<(T, EngineStats)> {
            let mut eng = Engine::new(kind, rulebase, database)?;
            eng.set_budget(budget);
            eng.set_parallelism(workers);
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
    fn parallel_bottom_up_session_reports_seminaive_counters() {
        let mut s = Session::new()
            .with_engine(EngineKind::BottomUp)
            .with_parallelism(4);
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
        let take = s.symbols.intern("take");
        let (tony, eng) = (s.symbols.intern("tony"), s.symbols.intern("eng201"));
        s.assume(vec![GroundAtom::new(take, vec![tony, eng])])
            .unwrap();
        assert!(s.ask("?- grad(tony).").unwrap(), "assumed fact visible");
        assert_eq!(s.assumptions().len(), 1);
        // Snapshots see the merged view.
        assert_eq!(s.snapshot().database().len(), 2);
        let frame = s.pop_assumption().unwrap().expect("one frame");
        assert_eq!(frame.len(), 1);
        assert!(!s.ask("?- grad(tony).").unwrap(), "assumption gone");
        assert!(s.pop_assumption().unwrap().is_none());
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
    fn assert_fact_checks_arity() {
        let mut s = Session::new();
        s.load("p(a).").unwrap();
        let p = s.symbols.intern("p");
        let a = s.symbols.intern("a");
        assert!(s.assert_fact(GroundAtom::new(p, vec![a, a])).is_err());
        assert!(s.assert_fact(GroundAtom::new(p, vec![a])).is_ok());
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
            fn on_mutation(&mut self, _: &SymbolTable, _: &Mutation<'_>) -> Result<()> {
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
        let p = s.symbols.intern("p");
        let b = s.symbols.intern("b");
        assert!(s.assume(vec![GroundAtom::new(p, vec![b])]).is_err());
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
        // Assertion also maintains incrementally.
        s.assert_fact(GroundAtom::new(edge, vec![c, a])).unwrap();
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
        let take = s.symbols.intern("take");
        let (tony, eng) = (s.symbols.intern("tony"), s.symbols.intern("eng201"));
        s.assume(vec![GroundAtom::new(take, vec![tony, eng])])
            .unwrap();
        assert!(!s.is_materialized(), "frames invalidate the model");
        s.model().unwrap();
        assert!(s.ask("?- grad(tony).").unwrap());
        // Retracting a base fact shadowed by a frame keeps it effective.
        let his = s.symbols.intern("his101");
        s.assume(vec![GroundAtom::new(take, vec![tony, his])])
            .unwrap();
        s.model().unwrap();
        assert!(s
            .retract_fact(&GroundAtom::new(take, vec![tony, his]))
            .unwrap());
        assert!(s.ask("?- grad(tony).").unwrap(), "frame still supplies it");
        s.pop_assumption().unwrap();
        assert!(!s.is_materialized());
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
