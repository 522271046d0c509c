//! # hdl-base
//!
//! Base substrate for the hypothetical-Datalog workspace (a reproduction of
//! Bonner, *Hypothetical Datalog: Negation and Linear Recursion*, PODS 1989).
//!
//! This crate provides the vocabulary every other crate builds on:
//!
//! - [`SymbolTable`] / [`Symbol`] — interned constant and predicate names;
//! - [`Term`], [`Var`], [`Atom`], [`GroundAtom`] — the function-free term
//!   language of the paper;
//! - [`Bindings`] — flat substitutions with trail-based undo, and matching
//!   of pattern atoms against ground facts;
//! - [`Database`] — a mutable, predicate-indexed fact store;
//! - [`FactStore`] / [`DbStore`] — interners that give each ground fact and
//!   each database a dense id; databases are stored persistently as a
//!   parent+delta overlay DAG so extension is O(|delta|) while engines
//!   exploring the lattice of hypothetically-augmented databases still
//!   memoize on `(FactId, DbId)`;
//! - [`DbView`] — read-only matching over an interned database without
//!   materializing it;
//! - [`SmallVec`] — inline-capacity storage for the tiny per-node deltas
//!   and the engines' per-match buffers (bindings, trails, ground
//!   arguments);
//! - [`FxHashMap`] / [`FxHashSet`] — fast hashing for interned keys;
//! - [`Json`] — the JSON value every counter renders through and the
//!   wire protocol parses.

#![warn(missing_docs)]

pub mod atom;
pub mod database;
pub mod error;
pub mod factstore;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod hasher;
pub mod json;
pub mod serialize;
pub mod smallvec;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod view;

pub use atom::{Atom, GroundArgs, GroundAtom};
pub use database::{Database, MatchCounters};
pub use error::{Error, Result};
pub use factstore::{DbEntry, DbId, DbStore, FactId, FactStore, OverlayStats, FLATTEN_THRESHOLD};
pub use hasher::{FxHashMap, FxHashSet, FxHasher};
pub use json::Json;
pub use serialize::{crc32, Decoder, Encoder};
pub use smallvec::SmallVec;
pub use subst::{Bindings, VarList};
pub use symbol::{Symbol, SymbolTable};
pub use term::{Term, Var};
pub use view::DbView;

/// Probes a failpoint site from fallible code.
///
/// With the `failpoints` feature enabled this expands to
/// `hdl_base::failpoint::check($site)?`, so an injected fault can panic,
/// delay, or early-return [`Error::ResourceExhausted`] from the enclosing
/// function. Without the feature it expands to nothing.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::failpoint::check($site)?
    };
}

/// Probes a failpoint site from fallible code (no-op build).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {};
}

/// Probes a failpoint site from infallible code: injected panics and
/// delays take effect, injected errors are swallowed. Expands to nothing
/// without the `failpoints` feature.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! failpoint_fire {
    ($site:expr) => {
        $crate::failpoint::fire($site)
    };
}

/// Probes a failpoint site from infallible code (no-op build).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! failpoint_fire {
    ($site:expr) => {};
}

// Concurrency audit: the service layer shares frozen copies of these
// types across worker threads behind `Arc`. They contain no interior
// mutability, so the auto traits must hold — these assertions turn any
// future regression (e.g. an `Rc` or `Cell` sneaking in) into a compile
// error here rather than a distant trait-bound failure in `hdl-service`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SymbolTable>();
    assert_send_sync::<Database>();
    assert_send_sync::<FactStore>();
    assert_send_sync::<DbStore>();
    assert_send_sync::<Error>();
};
