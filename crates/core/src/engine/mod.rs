//! Evaluation engines for hypothetical Datalog.
//!
//! Four engines implement the same semantics and are cross-checked
//! against each other in the test suite:
//!
//! - [`bottomup::BottomUpEngine`] — the reference engine: perfect models
//!   per database, memoized over the database lattice. Handles any
//!   stratified rulebase.
//! - [`topdown::TopDownEngine`] — goal-directed search with taint-aware
//!   tabling; the practical engine for search-heavy programs (Hamiltonian
//!   path, Turing-machine encodings).
//! - [`demand::MagicEngine`] — a demand rewrite (magic sets extended to
//!   hypothetical premises and stratified negation) in front of a fresh
//!   semi-naive bottom-up run per query; the fast engine for point
//!   queries with bound arguments.
//! - [`prove::ProveEngine`] — the paper's own `PROVE_Σᵢ`/`PROVE_Δᵢ`
//!   procedures (§5.2), instrumented for the Theorem 3 goal-sequence
//!   bound. Requires a linearly stratified rulebase.
//!
//! The bottom-up closures — `BottomUpEngine`'s (and so `NaiveEngine`'s
//! and `MagicEngine`'s) and `PROVE_Δᵢ`'s — all run on one semi-naive
//! kernel, [`fixpoint`], which each engine drives through its own
//! resolver. The goal-directed searches — `TopDownEngine`'s and
//! `PROVE_Σᵢ`'s — likewise run on one tabled search kernel, [`search`],
//! which each engine drives through its own prover.
//!
//! Callers meet the three query engines — top-down, bottom-up and
//! magic — through one front door, [`front`]: an [`Engine`] built from
//! an [`EngineKind`], plus the answers a materialized perfect model
//! gives without any engine ([`model_holds`], [`model_answers`]).
//! `Session` and the `hdl-service` workers both go through it, so
//! neither picks an engine by hand.

pub mod bottomup;
pub mod budget;
pub mod context;
pub mod demand;
pub mod fixpoint;
pub mod front;
pub mod matching;
pub mod proof;
pub mod prove;
pub mod reference;
pub mod search;
pub mod stats;
pub mod topdown;

pub use bottomup::BottomUpEngine;
pub use budget::{Budget, CancelToken, MemoryLimits};
pub use context::Context;
pub use demand::MagicEngine;
pub use front::{model_answers, model_holds, render_rows, Engine, EngineKind};
pub use proof::{render as render_proof, ProofChild, ProofNode};
pub use prove::ProveEngine;
pub use reference::NaiveEngine;
pub use stats::{EngineStats, Limits};
pub use topdown::TopDownEngine;
