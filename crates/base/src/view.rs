//! Read-only views over interned overlay databases.
//!
//! [`DbView`] answers the questions engines ask of a database —
//! membership, per-predicate enumeration, pattern matching — directly
//! against the overlay DAG of [`DbStore`], without materializing a
//! [`Database`]. A view over a chain node reads the shared per-predicate
//! and per-argument indexes of its flat root plus its own (bounded)
//! overlay. Matching hands premise patterns the store's interned
//! [`GroundAtom`]s by reference and membership probes the fact interner
//! with a borrowed key ([`DbView::contains_tuple`]), so neither allocates
//! per candidate. [`DbView::candidates`] is the fact-id stream both the
//! matcher and the top-down search's EDB premise walk draw from: an
//! argument-index probe when the pattern has a bound position, a
//! per-predicate scan otherwise, in the same (sorted) order either way.

use crate::atom::{Atom, GroundAtom};
use crate::database::{bound_position, Database, MatchCounters};
use crate::factstore::{DbId, DbStore, FactId};
use crate::subst::Bindings;
use crate::symbol::Symbol;
use crate::term::Var;

/// A borrowed, read-only view of one interned database.
#[derive(Clone, Copy)]
pub struct DbView<'a> {
    store: &'a DbStore,
    id: DbId,
}

impl<'a> DbView<'a> {
    /// Creates a view of `id` in `store`.
    pub fn new(store: &'a DbStore, id: DbId) -> Self {
        DbView { store, id }
    }

    /// The id of the viewed database.
    #[inline]
    pub fn id(&self) -> DbId {
        self.id
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.store.entry(self.id).len()
    }

    /// Whether the database holds no facts.
    pub fn is_empty(&self) -> bool {
        self.store.entry(self.id).is_empty()
    }

    /// Whether fact id `f` is present.
    #[inline]
    pub fn contains_id(&self, f: FactId) -> bool {
        self.store.contains(self.id, f)
    }

    /// Whether `fact` is present.
    pub fn contains(&self, fact: &GroundAtom) -> bool {
        self.contains_tuple(fact.pred, &fact.args)
    }

    /// Whether the fact `pred(args)` is present.
    pub fn contains_tuple(&self, pred: Symbol, args: &[Symbol]) -> bool {
        self.store
            .facts()
            .lookup_args(pred, args)
            .is_some_and(|f| self.contains_id(f))
    }

    /// Iterates all fact ids in sorted order.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + 'a {
        self.store.iter_fact_ids(self.id)
    }

    /// Iterates the fact ids stored for `pred`: the shared index of the
    /// flat root (minus any facts this node masks out) first, then this
    /// node's overlay additions.
    pub fn facts_of(&self, pred: Symbol) -> impl Iterator<Item = FactId> + 'a {
        let store = self.store;
        let entry = store.entry(self.id);
        let masked = entry.neg_overlay();
        let rooted = store
            .flat_by_pred(entry.croot())
            .get(&pred)
            .map_or(&[][..], |v| v.as_slice());
        rooted
            .iter()
            .copied()
            .filter(move |f| masked.binary_search(f).is_err())
            .chain(
                entry
                    .overlay()
                    .iter()
                    .copied()
                    .filter(move |&f| store.facts().fact(f).pred == pred),
            )
    }

    /// Iterates the argument tuples stored for `pred`.
    pub fn tuples(&self, pred: Symbol) -> impl Iterator<Item = &'a [Symbol]> {
        let store = self.store;
        self.facts_of(pred)
            .map(move |f| store.facts().fact(f).args.as_slice())
    }

    /// Iterates the fact ids of `pred` whose argument `pos` equals `c`:
    /// a hash probe of the flat root's argument-level index, then a
    /// linear filter of this node's (bounded) overlay.
    pub fn facts_of_bound(
        &self,
        pred: Symbol,
        pos: u32,
        c: Symbol,
    ) -> impl Iterator<Item = FactId> + 'a {
        let store = self.store;
        let entry = store.entry(self.id);
        let masked = entry.neg_overlay();
        let rooted = store
            .flat_by_arg(entry.croot())
            .get(&(pred, pos, c))
            .map_or(&[][..], |v| v.as_slice());
        rooted
            .iter()
            .copied()
            .filter(move |f| masked.binary_search(f).is_err())
            .chain(entry.overlay().iter().copied().filter(move |&f| {
                let fact = store.facts().fact(f);
                fact.pred == pred && fact.args.get(pos as usize) == Some(&c)
            }))
    }

    /// The fact ids of `pattern.pred` that can match `pattern` under
    /// `bindings`: those whose first bound argument position (a constant
    /// or a bound variable) carries its value, through
    /// [`DbView::facts_of_bound`], or every fact of the predicate through
    /// [`DbView::facts_of`] when no position is bound. Returns the probed
    /// position, if any, with the stream. Both indexes list a flat root's
    /// facts in the same sorted order, so the matches come out in the
    /// same order either way.
    pub fn candidates(
        &self,
        pattern: &Atom,
        bindings: &Bindings,
    ) -> (Option<(u32, Symbol)>, impl Iterator<Item = FactId> + 'a) {
        let bound = bound_position(pattern, bindings);
        let (scan, probe) = match bound {
            Some((pos, c)) => (None, Some(self.facts_of_bound(pattern.pred, pos, c))),
            None => (Some(self.facts_of(pattern.pred)), None),
        };
        (
            bound,
            scan.into_iter()
                .flatten()
                .chain(probe.into_iter().flatten()),
        )
    }

    /// How many candidates [`DbView::candidates`] would stream for
    /// `pattern` under `bindings`: the flat root's bucket (the
    /// argument-index bucket it would probe, or the predicate's) plus the
    /// overlay facts that pass the same filter. Facts the node masks out
    /// still count, so this is an upper bound. Reads no root fact and
    /// counts no work.
    #[inline]
    pub fn estimate(&self, pattern: &Atom, bindings: &Bindings) -> usize {
        let store = self.store;
        let entry = store.entry(self.id);
        let pred = pattern.pred;
        let bound = bound_position(pattern, bindings);
        let rooted = match bound {
            Some((pos, c)) => store
                .flat_by_arg(entry.croot())
                .get(&(pred, pos, c))
                .map_or(0, Vec::len),
            None => store
                .flat_by_pred(entry.croot())
                .get(&pred)
                .map_or(0, Vec::len),
        };
        let overlay = entry.overlay().iter().filter(|&&f| {
            let fact = store.facts().fact(f);
            fact.pred == pred
                && bound.is_none_or(|(pos, c)| fact.args.get(pos as usize) == Some(&c))
        });
        rooted + overlay.count()
    }

    /// Calls `f` with the undo trail for every fact of `pattern.pred` that
    /// matches `pattern` under `bindings`; `f` returning `true` stops the
    /// scan early (existential check). Bindings are restored between
    /// candidates and after the call.
    ///
    /// Returns `true` if `f` stopped the scan. Mirrors
    /// [`Database::for_each_match`], but matches against the store's
    /// interned facts without allocating per candidate.
    pub fn for_each_match(
        &self,
        pattern: &Atom,
        bindings: &mut Bindings,
        f: impl FnMut(&mut Bindings) -> bool,
    ) -> bool {
        let mut counters = MatchCounters::default();
        self.for_each_match_counted(pattern, bindings, &mut counters, f)
    }

    /// Like [`DbView::for_each_match`], but probes the flat root's
    /// argument-level index when the pattern has a bound argument,
    /// recording the probe work in `counters`. Candidate order (flat
    /// root, then overlay) is identical on both paths, so the two entry
    /// points enumerate the same matches in the same order.
    pub fn for_each_match_counted(
        &self,
        pattern: &Atom,
        bindings: &mut Bindings,
        counters: &mut MatchCounters,
        mut f: impl FnMut(&mut Bindings) -> bool,
    ) -> bool {
        let facts = self.store.facts();
        let (probed, candidates) = self.candidates(pattern, bindings);
        if probed.is_some() {
            counters.probes += 1;
        }
        let mut any = false;
        for fid in candidates {
            any = true;
            counters.attempts += 1;
            if let Some(trail) = bindings.match_atom(pattern, facts.fact(fid)) {
                let stop = f(bindings);
                bindings.undo(&trail);
                if stop {
                    if probed.is_some() {
                        counters.hits += 1;
                    }
                    return true;
                }
            }
        }
        if any && probed.is_some() {
            counters.hits += 1;
        }
        false
    }

    /// Collects all extensions of `bindings` under which `pattern` matches
    /// a stored fact, as vectors of `(var, value)` pairs for the variables
    /// the match bound. Mirrors [`Database::all_matches`].
    pub fn all_matches(&self, pattern: &Atom, bindings: &mut Bindings) -> Vec<Vec<(Var, Symbol)>> {
        let mut out = Vec::new();
        self.for_each_match(pattern, bindings, |b| {
            let row = pattern
                .vars()
                .filter_map(|v| b.get(v).map(|c| (v, c)))
                .collect();
            out.push(row);
            false
        });
        out
    }

    /// Materializes the view as an owned [`Database`].
    pub fn to_database(&self) -> Database {
        self.store.to_database(self.id)
    }
}

impl DbStore {
    /// A read-only view of database `id`.
    #[inline]
    pub fn view(&self, id: DbId) -> DbView<'_> {
        DbView::new(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn fact(p: u32, args: &[u32]) -> GroundAtom {
        GroundAtom::new(Symbol(p), args.iter().map(|&a| Symbol(a)).collect())
    }

    fn store_with_chain() -> (DbStore, DbId) {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1, 10]), fact(0, &[2, 20]), fact(1, &[7])]);
        let f = dbs.intern_fact(fact(0, &[1, 30]));
        let g = dbs.intern_fact(fact(2, &[8]));
        let db = dbs.extend(base, &[f, g]);
        (dbs, db)
    }

    #[test]
    fn view_contains_root_and_overlay_facts() {
        let (dbs, db) = store_with_chain();
        let v = dbs.view(db);
        assert_eq!(v.len(), 5);
        assert!(v.contains(&fact(0, &[2, 20])), "root fact");
        assert!(v.contains(&fact(0, &[1, 30])), "overlay fact");
        assert!(!v.contains(&fact(0, &[9, 9])));
    }

    #[test]
    fn view_tuples_cover_both_layers() {
        let (dbs, db) = store_with_chain();
        let v = dbs.view(db);
        let mut firsts: Vec<u32> = v.tuples(Symbol(0)).map(|t| t[1].0).collect();
        firsts.sort_unstable();
        assert_eq!(firsts, vec![10, 20, 30]);
        assert_eq!(v.tuples(Symbol(9)).count(), 0);
    }

    #[test]
    fn view_matches_agree_with_materialized_database() {
        let (dbs, db) = store_with_chain();
        let v = dbs.view(db);
        let mat = v.to_database();
        let pattern = Atom::new(Symbol(0), vec![Term::Const(Symbol(1)), Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut via_view: Vec<u32> = Vec::new();
        v.for_each_match(&pattern, &mut b, |bb| {
            via_view.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(b.get(Var(0)), None, "bindings restored");
        let mut via_db: Vec<u32> = Vec::new();
        mat.for_each_match(&pattern, &mut b, |bb| {
            via_db.push(bb.get(Var(0)).unwrap().0);
            false
        });
        via_view.sort_unstable();
        via_db.sort_unstable();
        assert_eq!(via_view, via_db);
        let rows = v.all_matches(&pattern, &mut b);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn view_indexed_match_covers_root_and_overlay() {
        let (dbs, db) = store_with_chain();
        let v = dbs.view(db);
        // pred 0, arg 0 bound to 1: one root fact + one overlay fact.
        let pattern = Atom::new(Symbol(0), vec![Term::Const(Symbol(1)), Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut counters = MatchCounters::default();
        let mut seen = Vec::new();
        v.for_each_match_counted(&pattern, &mut b, &mut counters, |bb| {
            seen.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(seen, vec![10, 30], "root candidates precede overlay");
        assert_eq!(v.estimate(&pattern, &b), 2, "root bucket plus overlay");
        let scan = Atom::new(Symbol(0), vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        assert_eq!(v.estimate(&scan, &Bindings::new(2)), 3);
        assert_eq!(
            counters,
            MatchCounters {
                probes: 1,
                hits: 1,
                attempts: 2
            }
        );
        // Probe miss across both layers.
        let pattern = Atom::new(Symbol(0), vec![Term::Const(Symbol(5)), Term::Var(Var(0))]);
        let mut counters = MatchCounters::default();
        assert!(!v.for_each_match_counted(&pattern, &mut b, &mut counters, |_| true));
        assert_eq!(
            counters,
            MatchCounters {
                probes: 1,
                hits: 0,
                attempts: 0
            }
        );
        // facts_of_bound on the second argument position.
        let ids: Vec<_> = v.facts_of_bound(Symbol(0), 1, Symbol(30)).collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(dbs.facts().fact(ids[0]).args[1], Symbol(30));
    }

    #[test]
    fn view_subtracts_negative_overlay_on_all_read_paths() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1, 10]), fact(0, &[2, 20]), fact(0, &[1, 30])]);
        let gone = dbs.intern_fact(fact(0, &[1, 10]));
        let db = dbs.shrink(base, &[gone]);
        let v = dbs.view(db);
        assert_eq!(v.len(), 2);
        assert!(!v.contains(&fact(0, &[1, 10])), "masked fact invisible");
        assert!(v.contains(&fact(0, &[2, 20])));
        // facts_of skips the masked fact.
        assert_eq!(v.facts_of(Symbol(0)).count(), 2);
        // facts_of_bound: the arg index of the flat root still lists the
        // masked fact; the view must filter it.
        let ids: Vec<_> = v.facts_of_bound(Symbol(0), 0, Symbol(1)).collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(dbs.facts().fact(ids[0]).args[1], Symbol(30));
        // Matching agrees with the materialized database.
        let mat = v.to_database();
        let pattern = Atom::new(Symbol(0), vec![Term::Const(Symbol(1)), Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut via_view: Vec<u32> = Vec::new();
        v.for_each_match(&pattern, &mut b, |bb| {
            via_view.push(bb.get(Var(0)).unwrap().0);
            false
        });
        let mut via_db: Vec<u32> = Vec::new();
        mat.for_each_match(&pattern, &mut b, |bb| {
            via_db.push(bb.get(Var(0)).unwrap().0);
            false
        });
        via_view.sort_unstable();
        via_db.sort_unstable();
        assert_eq!(via_view, via_db);
        assert_eq!(via_view, vec![30]);
    }

    #[test]
    fn view_early_stop() {
        let (dbs, db) = store_with_chain();
        let v = dbs.view(db);
        let pattern = Atom::new(Symbol(0), vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        let mut b = Bindings::new(2);
        let mut n = 0;
        let stopped = v.for_each_match(&pattern, &mut b, |_| {
            n += 1;
            true
        });
        assert!(stopped);
        assert_eq!(n, 1);
    }
}
