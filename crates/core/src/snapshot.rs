//! Immutable published snapshots of a session's program state.
//!
//! A [`Snapshot`] freezes everything a query evaluation reads — the
//! symbol table, the rulebase, and the base database — into one
//! immutable value that many worker threads can share behind an `Arc`.
//! Publication is epoch-stamped from a global counter, so consumers
//! (notably the `hdl-service` answer cache) can tell answers computed
//! against different snapshots apart without comparing contents: two
//! snapshots never share an epoch, and anything keyed by epoch can never
//! leak an answer across a publish.
//!
//! The symbol table is *frozen* at snapshot time: workers that need to
//! intern query-only constants do so in a private extension cloned from
//! the frozen table, which keeps every symbol the snapshot mentions
//! stable across threads (the `Send + Sync` audit in `hdl-base`
//! guarantees sharing is safe).
//!
//! What a snapshot shares and what it copies: the symbol table is a
//! persistent value, so the snapshot and every worker extension share
//! the session's frozen name chunks and index levels and copy no name.
//! The rulebase and the database (and a materialized model) are still
//! copied, in time linear in their size.

use crate::ast::Rulebase;
use hdl_base::{Database, SymbolTable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global epoch counter; every published snapshot gets the next value.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// An immutable, epoch-stamped copy of a program + database.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    symbols: SymbolTable,
    rulebase: Rulebase,
    database: Database,
    /// The perfect model of `(rulebase, database)` if the publishing
    /// session had one materialized — workers can then answer plain-atom
    /// queries by membership instead of re-running a fixpoint.
    model: Option<Database>,
}

impl Snapshot {
    /// Freezes the given parts into a snapshot with a fresh epoch.
    pub fn new(symbols: SymbolTable, rulebase: Rulebase, database: Database) -> Arc<Self> {
        Self::with_model(symbols, rulebase, database, None)
    }

    /// Like [`Snapshot::new`], carrying an already-materialized perfect
    /// model of the same program state.
    pub fn with_model(
        symbols: SymbolTable,
        rulebase: Rulebase,
        database: Database,
        model: Option<Database>,
    ) -> Arc<Self> {
        Arc::new(Snapshot {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            symbols,
            rulebase,
            database,
            model,
        })
    }

    /// The materialized perfect model, if the publisher carried one.
    pub fn model(&self) -> Option<&Database> {
        self.model.as_ref()
    }

    /// Ensures future epochs are strictly greater than `watermark`.
    ///
    /// Recovery calls this with the epoch counter stored in a checkpoint,
    /// so a restored process never re-issues an epoch that pre-crash
    /// cache entries or persisted artifacts were stamped with.
    pub fn advance_epoch_to(watermark: u64) {
        NEXT_EPOCH.fetch_max(watermark, Ordering::Relaxed);
    }

    /// The next epoch a publish would be stamped with (a watermark for
    /// checkpoints; monotone but not a reservation).
    pub fn epoch_watermark() -> u64 {
        NEXT_EPOCH.load(Ordering::Relaxed)
    }

    /// Parses `src` as a program and freezes it — convenience for tests
    /// and the batch CLI.
    pub fn from_program(src: &str) -> hdl_base::Result<Arc<Self>> {
        let mut session = crate::session::Session::new();
        session.load(src)?;
        Ok(session.snapshot())
    }

    /// The globally unique publication stamp of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The frozen rulebase.
    pub fn rulebase(&self) -> &Rulebase {
        &self.rulebase
    }

    /// The frozen base database.
    pub fn database(&self) -> &Database {
        &self.database
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_unique_and_increasing() {
        let a = Snapshot::new(SymbolTable::new(), Rulebase::new(), Database::new());
        let b = Snapshot::new(SymbolTable::new(), Rulebase::new(), Database::new());
        assert!(b.epoch() > a.epoch());
    }

    #[test]
    fn epoch_watermark_advances_monotonically() {
        let a = Snapshot::new(SymbolTable::new(), Rulebase::new(), Database::new());
        Snapshot::advance_epoch_to(a.epoch() + 100);
        let b = Snapshot::new(SymbolTable::new(), Rulebase::new(), Database::new());
        assert!(b.epoch() >= a.epoch() + 100);
        // Advancing backwards is a no-op.
        Snapshot::advance_epoch_to(1);
        let c = Snapshot::new(SymbolTable::new(), Rulebase::new(), Database::new());
        assert!(c.epoch() > b.epoch());
    }

    #[test]
    fn from_program_freezes_rules_and_facts() {
        let snap = Snapshot::from_program("edge(a, b). tc(X, Y) :- edge(X, Y).").unwrap();
        assert_eq!(snap.rulebase().len(), 1);
        assert_eq!(snap.database().len(), 1);
        assert!(snap.symbols().lookup("edge").is_some());
    }

    #[test]
    fn snapshot_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
    }
}
