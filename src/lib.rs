//! # hypothetical-datalog
//!
//! A production-quality reproduction of **Anthony J. Bonner,
//! "Hypothetical Datalog: Negation and Linear Recursion", PODS 1989**.
//!
//! Hypothetical Datalog extends function-free Horn logic with premises
//! `A[add: B]` — *"infer `A` if inserting `B` into the database allows the
//! inference of `A`"* — plus negation-as-failure. The paper shows that
//! with **linear stratification** (linear hypothetical recursion
//! alternating with stratified negation), rulebases with `k` strata are
//! data-complete for `Σₖᴾ` and express exactly the generic queries in
//! `Σₖᴾ`, without assuming ordered domains.
//!
//! ## Quick start
//!
//! ```
//! use hypothetical_datalog::prelude::*;
//!
//! let mut syms = SymbolTable::new();
//! let program = parse_program(
//!     "take(tony, his101).
//!      grad(S) :- take(S, his101), take(S, eng201).",
//!     &mut syms,
//! ).unwrap();
//! let (rules, facts) = split_facts(program);
//! let db: Database = facts.into_iter().collect();
//!
//! // 'If Tony took eng201, would he graduate?' (paper, Example 1)
//! let query = parse_query(
//!     "?- grad(tony)[add: take(tony, eng201)].",
//!     &mut syms,
//! ).unwrap();
//! let mut engine = TopDownEngine::new(&rules, &db).unwrap();
//! assert!(engine.holds(&query).unwrap());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`hdl_base`] | Symbols, terms, atoms, indexed databases, interners |
//! | [`hdl_datalog`] | Plain Datalog with stratified negation: dependency analysis and a naive evaluator, the oracle independent of `hdl_core` |
//! | [`hdl_core`] | Hypothetical rules, parser, linear stratification (Lemma 1), engines: bottom-up reference (with its naive baseline and the magic-sets rewrite) and the §5.2 `PROVE` procedures on one semi-naive fixpoint kernel, plus top-down tabled |
//! | [`hdl_service`] | Concurrent query service: snapshots, worker pool, answer cache |
//! | [`hdl_persist`] | Durable sessions: write-ahead log, checkpoints, crash recovery |
//! | [`hdl_turing`] | Nondeterministic oracle Turing machines and cascade simulation |
//! | [`hdl_encodings`] | §5.1 machine→rulebase compiler; §6 order assertion, ℓ-counters, bitmaps, Lemma 2 pipeline |
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduced results.

pub use hdl_base;
pub use hdl_core;
pub use hdl_datalog;
pub use hdl_encodings;
pub use hdl_persist;
pub use hdl_service;
pub use hdl_turing;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use hdl_base::{Atom, Database, GroundAtom, Symbol, SymbolTable, Term, Var};
    pub use hdl_core::analysis::stratify::{linear_stratification, LinearStratification};
    pub use hdl_core::ast::{HypRule, Premise, Rulebase};
    pub use hdl_core::engine::{BottomUpEngine, EngineStats, Limits, ProveEngine, TopDownEngine};
    pub use hdl_core::engine::{Budget, CancelToken};
    pub use hdl_core::parser::{parse_program, parse_query, split_facts};
    pub use hdl_core::pretty;
    pub use hdl_core::session::{EngineKind, Session};
    pub use hdl_core::snapshot::Snapshot;
    pub use hdl_persist::{DurableSession, FsyncPolicy, RecoveryReport};
    pub use hdl_service::{Outcome, QueryRequest, QueryService, ServiceStats, Ticket};
}
