//! # hdl-core
//!
//! Hypothetical Datalog — the primary contribution of Bonner, *Hypothetical
//! Datalog: Negation and Linear Recursion* (PODS 1989).
//!
//! The language extends function-free Horn logic with hypothetical
//! premises `A[add: B₁,…,Bₘ]` ("infer `A` after inserting the `Bᵢ`"),
//! their deleting duals `A[del: C₁,…,Cₖ]` ("infer `A` after removing the
//! `Cᵢ`", which stratify like negation — see [`maintain`] and DESIGN.md
//! §3.13), and negation-as-failure. This crate provides:
//!
//! - [`ast`] — premises, rules (Definitions 1–2), rulebases;
//! - [`parser`] — a Prolog-flavoured concrete syntax with `[add: …]`;
//! - [`op`] — the one mutation type a [`Session`] applies and its
//!   write-ahead log records;
//! - [`pretty`] — printing back to that syntax;
//! - [`analysis`] — mutual-recursion classes, Definition 8 linearity, the
//!   Lemma 1 decision procedure and relaxation algorithm producing
//!   `(Δᵢ, Σᵢ)` linear stratifications, and the coarser stratifications
//!   the engines evaluate under;
//! - [`engine`] — three interchangeable evaluators: a bottom-up
//!   perfect-model reference engine, a goal-directed top-down engine with
//!   taint-aware tabling, and the paper's own `PROVE_Σᵢ`/`PROVE_Δᵢ`
//!   procedures (§5.2) with Theorem 3 instrumentation.
//!
//! ## Semantics in one paragraph
//!
//! For stratified rulebases, a premise `B[add: C̄]θ` holds in database
//! `DB` iff `Bθ` is in the perfect model of `DB ∪ C̄θ`; grounding
//! substitutions range over the fixed domain `dom(R, DB)` (Definition 3),
//! so evaluation walks a finite lattice of databases. Negation `~A` holds
//! iff `A` is not derivable in the current database; a variable occurring
//! *only* in a negated premise is read inside the negation
//! (`path(X) ← ~select(Y)` means "no `Y` is selectable"), matching the
//! paper's Examples 6–7.

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod engine;
pub mod maintain;
pub mod op;
pub mod parser;
pub mod pretty;
pub mod session;
pub mod snapshot;
pub mod stack;
pub mod transform;

pub use analysis::stratify::{linear_stratification, LinearStratification};
pub use ast::{HypRule, Premise, Rulebase};
pub use engine::{
    BottomUpEngine, Budget, CancelToken, MemoryLimits, NaiveEngine, ProveEngine, TopDownEngine,
};
pub use maintain::{MaintenanceStats, MaterializedModel};
pub use op::{Applied, Op, OpText};
pub use parser::{parse_ground_facts, parse_program, parse_query, split_facts};
pub use session::{Session, SessionObserver};
pub use snapshot::Snapshot;
pub use stack::call_with_deep_stack;
