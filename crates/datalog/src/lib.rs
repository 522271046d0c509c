//! # hdl-datalog
//!
//! Plain (non-hypothetical) Datalog with stratified negation — the baseline
//! substrate of the Bonner PODS '89 reproduction.
//!
//! The paper positions hypothetical rules against ordinary function-free
//! Horn logic, whose data-complexity is P regardless of linearity or
//! stratified negation (§1). This crate provides that comparison system:
//!
//! - [`ast`] — rules with positive/negated body literals;
//! - [`depgraph`] — the predicate dependency graph and Tarjan SCCs;
//! - [`stratify`] — the stratified-negation test and stratum assignment;
//! - [`eval`] / [`naive`] — naive bottom-up evaluation to the perfect
//!   model (Apt–Blair–Walker / Przymusinski semantics, the paper's [1] and
//!   [20]);
//! - [`program`] — an arity-checked rule container.
//!
//! The hypothetical engine in `hdl-core` reuses this crate's dependency
//! analysis. Its evaluators — the semi-naive kernel behind bottom-up,
//! `PROVE_Δᵢ` and the magic-sets engine — share no code with [`naive`],
//! which is what makes this crate an *independent* oracle for them on
//! hypothesis-free programs.

#![warn(missing_docs)]

pub mod ast;
pub mod depgraph;
pub mod eval;
pub mod naive;
pub mod program;
pub mod stratify;

pub use ast::{Literal, Rule};
pub use depgraph::{DepGraph, EdgeKind};
pub use program::Program;
pub use stratify::{stratify, Stratification};
