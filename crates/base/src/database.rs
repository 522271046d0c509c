//! A mutable, predicate-indexed collection of ground facts.
//!
//! [`Database`] is the extensional store handed to the engines and the
//! representation of computed models: facts are grouped per predicate so
//! that matching a rule premise only scans candidates with the right
//! predicate symbol, and indexed per argument so that a premise with a
//! bound argument probes only the tuples that carry it.
//!
//! Retraction leaves a tombstone in the relation's row list, and the
//! relation compacts once tombstones outnumber live rows, so a retract
//! costs amortised O(arity) however large the relation is.
//!
//! Matching tests each stored tuple slice in place
//! ([`Bindings::match_args`]) with an inline undo trail, so a match
//! attempt allocates nothing; only storing a new fact does.

use crate::atom::{Atom, GroundAtom};
use crate::hasher::{FxHashMap, FxHashSet, FxHasher};
use crate::smallvec::SmallVec;
use crate::subst::Bindings;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::hash::{Hash, Hasher};

/// Work counters for argument-index probes during premise matching.
///
/// `probes` counts pattern evaluations answered through a
/// `(predicate, argument position, constant)` index lookup instead of a
/// full per-predicate scan; `hits` counts the probes that found at least
/// one candidate. Both the [`Database`] argument index and the flat-root
/// index of [`crate::view::DbView`] report into the same counters.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchCounters {
    /// Indexed lookups performed in place of scans.
    pub probes: u64,
    /// Probes that yielded a non-empty candidate list.
    pub hits: u64,
    /// Candidate facts tested against a pattern (each unification
    /// attempt, successful or not) — the unit of join work.
    pub attempts: u64,
}

impl MatchCounters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: MatchCounters) {
        self.probes += other.probes;
        self.hits += other.hits;
        self.attempts += other.attempts;
    }
}

/// All facts for one predicate symbol.
#[derive(Default, Clone, Debug)]
struct Relation {
    /// Rows in insertion order (for deterministic iteration). A retracted
    /// row is a tombstone (`None`) until the next compaction.
    rows: Vec<Option<Box<[Symbol]>>>,
    /// Rows that are not tombstones.
    live: usize,
    /// Membership index over the live rows: tuple hash → indices into
    /// `rows` (almost always one). Each tuple is stored once, and a
    /// probe by slice builds no key.
    index: FxHashMap<u64, SmallVec<u32, 1>>,
    /// Argument-level join index: `(position, constant)` → indices of
    /// live rows (ascending, so in insertion order). Lets a premise with
    /// a bound argument hash-probe its candidates instead of scanning
    /// the whole relation.
    by_arg: FxHashMap<(u32, Symbol), Vec<u32>>,
}

/// The membership-index key of a tuple.
fn tuple_key(args: &[Symbol]) -> u64 {
    let mut h = FxHasher::default();
    args.hash(&mut h);
    h.finish()
}

impl Relation {
    /// Inserts `args`; allocates only if the tuple is new.
    fn insert(&mut self, args: &[Symbol]) -> bool {
        let key = tuple_key(args);
        if self.find(key, args).is_some() {
            return false;
        }
        let row = u32::try_from(self.rows.len()).expect("relation overflow");
        self.index.entry(key).or_default().push(row);
        for (pos, &c) in args.iter().enumerate() {
            self.by_arg.entry((pos as u32, c)).or_default().push(row);
        }
        self.rows.push(Some(args.into()));
        self.live += 1;
        true
    }

    /// The tuple of a row the indexes name (always live).
    fn row(&self, row: u32) -> &[Symbol] {
        self.rows[row as usize]
            .as_deref()
            .expect("indexes name live rows only")
    }

    fn find(&self, key: u64, args: &[Symbol]) -> Option<u32> {
        self.index
            .get(&key)?
            .iter()
            .find(|&row| self.row(row) == args)
    }

    fn contains(&self, args: &[Symbol]) -> bool {
        self.find(tuple_key(args), args).is_some()
    }

    /// The live tuples in insertion order.
    fn tuples(&self) -> impl Iterator<Item = &[Symbol]> {
        self.rows.iter().flatten().map(|t| &t[..])
    }

    /// Removes `args` by turning its row into a tombstone and dropping
    /// the row from its index buckets; survivors keep their insertion
    /// order.
    ///
    /// The relation compacts once its tombstones outnumber its live rows.
    /// Compaction renumbers the survivors in place, so its cost is paid
    /// for by the retractions that made the tombstones: amortised
    /// O(arity) each.
    fn remove(&mut self, args: &[Symbol]) -> bool {
        let key = tuple_key(args);
        let Some(row) = self.find(key, args) else {
            return false;
        };
        let bucket = &self.index[&key];
        if bucket.len() == 1 {
            self.index.remove(&key);
        } else {
            let rest = bucket.iter().filter(|&r| r != row).collect();
            self.index.insert(key, rest);
        }
        for (pos, &c) in args.iter().enumerate() {
            let arg = (pos as u32, c);
            let rows = self.by_arg.get_mut(&arg).expect("live row is indexed");
            if rows.len() == 1 {
                self.by_arg.remove(&arg);
            } else {
                let at = rows.binary_search(&row).expect("live row is indexed");
                rows.remove(at);
            }
        }
        self.rows[row as usize] = None;
        self.live -= 1;
        let dead = self.rows.len() - self.live;
        if dead > self.live {
            self.compact();
        }
        true
    }

    /// Drops the tombstones and renumbers the rows the indexes hold; no
    /// tuple is hashed again.
    fn compact(&mut self) {
        let mut renumbered = Vec::with_capacity(self.rows.len());
        let mut next = 0u32;
        for row in &self.rows {
            renumbered.push(next);
            next += u32::from(row.is_some());
        }
        self.rows.retain(Option::is_some);
        let buckets = self.index.values_mut().map(|b| b.as_mut_slice());
        for rows in buckets.chain(self.by_arg.values_mut().map(|b| b.as_mut_slice())) {
            for r in rows {
                *r = renumbered[*r as usize];
            }
        }
    }

    /// Live row indices whose argument `pos` equals `c`, in insertion
    /// order.
    fn rows_bound(&self, pos: u32, c: Symbol) -> &[u32] {
        self.by_arg.get(&(pos, c)).map_or(&[][..], |v| v.as_slice())
    }
}

/// The first argument position of `pattern` that is bound (a constant or
/// an already-bound variable), with its value — the probe key an
/// argument-level index can serve.
pub(crate) fn bound_position(pattern: &Atom, bindings: &Bindings) -> Option<(u32, Symbol)> {
    pattern.args.iter().enumerate().find_map(|(i, t)| match t {
        Term::Const(c) => Some((i as u32, *c)),
        Term::Var(v) => bindings.get(*v).map(|c| (i as u32, c)),
    })
}

/// A set of ground facts with per-predicate indexing.
///
/// Iteration order is deterministic (per-predicate insertion order), which
/// keeps engine runs and printed models reproducible.
///
/// ```
/// use hdl_base::{Database, GroundAtom, SymbolTable};
/// let mut syms = SymbolTable::new();
/// let edge = syms.intern("edge");
/// let (a, b) = (syms.intern("a"), syms.intern("b"));
/// let mut db = Database::new();
/// db.insert(GroundAtom::new(edge, vec![a, b]));
/// assert!(db.contains(&GroundAtom::new(edge, vec![a, b])));
/// assert_eq!(db.count(edge), 1);
/// ```
#[derive(Default, Clone, Debug)]
pub struct Database {
    rels: FxHashMap<Symbol, Relation>,
    len: usize,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `fact`; returns `true` if it was not already present.
    pub fn insert(&mut self, fact: GroundAtom) -> bool {
        let rel = self.rels.entry(fact.pred).or_default();
        let fresh = rel.insert(&fact.args);
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Inserts a fact given as predicate + argument slice.
    pub fn insert_tuple(&mut self, pred: Symbol, args: &[Symbol]) -> bool {
        let rel = self.rels.entry(pred).or_default();
        let fresh = rel.insert(args);
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `fact`; returns `true` if it was present.
    ///
    /// Survivors keep their relative insertion order, so iteration stays
    /// deterministic after a retraction. The cost is amortised O(arity),
    /// whatever the relation's size (see `Relation::remove`).
    pub fn remove(&mut self, fact: &GroundAtom) -> bool {
        let Some(rel) = self.rels.get_mut(&fact.pred) else {
            return false;
        };
        let removed = rel.remove(&fact.args);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Removes every fact in `facts`, returning how many were present.
    pub fn remove_all<'a>(&mut self, facts: impl IntoIterator<Item = &'a GroundAtom>) -> usize {
        facts.into_iter().filter(|f| self.remove(f)).count()
    }

    /// Whether `fact` is present.
    pub fn contains(&self, fact: &GroundAtom) -> bool {
        self.rels
            .get(&fact.pred)
            .is_some_and(|r| r.contains(&fact.args))
    }

    /// Whether the tuple `args` is present for `pred`.
    pub fn contains_tuple(&self, pred: Symbol, args: &[Symbol]) -> bool {
        self.rels.get(&pred).is_some_and(|r| r.contains(args))
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database holds no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tuples stored for `pred`.
    pub fn count(&self, pred: Symbol) -> usize {
        self.rels.get(&pred).map_or(0, |r| r.live)
    }

    /// Iterates over the tuples of `pred` in insertion order.
    pub fn tuples(&self, pred: Symbol) -> impl Iterator<Item = &[Symbol]> {
        self.rels.get(&pred).into_iter().flat_map(Relation::tuples)
    }

    /// Iterates over all facts as `(pred, tuple)` pairs.
    ///
    /// Predicates are visited in unspecified (but run-deterministic) order;
    /// tuples within a predicate in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &[Symbol])> {
        self.rels
            .iter()
            .flat_map(|(&p, r)| r.tuples().map(move |t| (p, t)))
    }

    /// Iterates over all facts as owned [`GroundAtom`]s.
    pub fn iter_facts(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.iter()
            .map(|(p, args)| GroundAtom::new(p, args.to_vec()))
    }

    /// The predicates that have at least one tuple.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.rels
            .iter()
            .filter(|(_, r)| r.live > 0)
            .map(|(&p, _)| p)
    }

    /// Inserts every fact of `other` into `self`.
    pub fn absorb(&mut self, other: &Database) {
        for (p, args) in other.iter() {
            self.insert_tuple(p, args);
        }
    }

    /// Collects every constant symbol occurring in any fact.
    pub fn constants(&self) -> FxHashSet<Symbol> {
        let mut out = FxHashSet::default();
        for (_, args) in self.iter() {
            out.extend(args.iter().copied());
        }
        out
    }

    /// Calls `f` with the undo trail for every fact of `pattern.pred` that
    /// matches `pattern` under `bindings`; `f` returning `true` stops the
    /// scan early (existential check). Bindings are restored between
    /// candidates and after the call.
    ///
    /// Returns `true` if `f` stopped the scan.
    pub fn for_each_match(
        &self,
        pattern: &Atom,
        bindings: &mut Bindings,
        f: impl FnMut(&mut Bindings) -> bool,
    ) -> bool {
        let mut counters = MatchCounters::default();
        self.for_each_match_counted(pattern, bindings, &mut counters, f)
    }

    /// Like [`Database::for_each_match`], but drives candidate selection
    /// through the argument-level index when the pattern has a bound
    /// argument, recording probe work in `counters`. Candidates are
    /// visited in insertion order either way, so the two entry points
    /// enumerate matches identically.
    pub fn for_each_match_counted(
        &self,
        pattern: &Atom,
        bindings: &mut Bindings,
        counters: &mut MatchCounters,
        mut f: impl FnMut(&mut Bindings) -> bool,
    ) -> bool {
        let Some(rel) = self.rels.get(&pattern.pred) else {
            return false;
        };
        // Candidate rows: an index probe when some argument is bound,
        // the whole relation otherwise.
        let rows: Option<&[u32]> = bound_position(pattern, bindings).map(|(pos, c)| {
            counters.probes += 1;
            let rows = rel.rows_bound(pos, c);
            if !rows.is_empty() {
                counters.hits += 1;
            }
            rows
        });
        // Iterate by index: `f` only receives `bindings`, never the tuple
        // storage, so the borrow of `self` stays shared.
        let mut visit =
            |tuple: &[Symbol], counters: &mut MatchCounters, bindings: &mut Bindings| -> bool {
                counters.attempts += 1;
                if let Some(trail) = bindings.match_args(pattern, tuple) {
                    let stop = f(bindings);
                    bindings.undo(&trail);
                    return stop;
                }
                false
            };
        match rows {
            Some(rows) => {
                for &row in rows {
                    if visit(rel.row(row), counters, bindings) {
                        return true;
                    }
                }
                false
            }
            None => {
                for tuple in rel.tuples() {
                    if visit(tuple, counters, bindings) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// How many candidates [`Database::for_each_match_counted`] would test
    /// for `pattern` under `bindings`: the length of the argument-index
    /// bucket it would probe, or of the whole relation when no argument
    /// is bound. Reads no tuple and counts no work.
    #[inline]
    pub fn estimate(&self, pattern: &Atom, bindings: &Bindings) -> usize {
        let Some(rel) = self.rels.get(&pattern.pred) else {
            return 0;
        };
        match bound_position(pattern, bindings) {
            Some((pos, c)) => rel.rows_bound(pos, c).len(),
            None => rel.live,
        }
    }

    /// Collects all extensions of `bindings` under which `pattern` matches a
    /// stored fact, as vectors of `(var, value)` pairs for the variables the
    /// match bound.
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
}

impl FromIterator<GroundAtom> for Database {
    fn from_iter<I: IntoIterator<Item = GroundAtom>>(iter: I) -> Self {
        let mut db = Database::new();
        for fact in iter {
            db.insert(fact);
        }
        db
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        self.iter().all(|(p, args)| other.contains_tuple(p, args))
    }
}

impl Eq for Database {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn s(i: u32) -> Symbol {
        Symbol(i)
    }

    fn fact(p: u32, args: &[u32]) -> GroundAtom {
        GroundAtom::new(s(p), args.iter().map(|&a| s(a)).collect())
    }

    #[test]
    fn insert_and_contains() {
        let mut db = Database::new();
        assert!(db.insert(fact(0, &[1, 2])));
        assert!(!db.insert(fact(0, &[1, 2])), "duplicate insert");
        assert!(db.contains(&fact(0, &[1, 2])));
        assert!(!db.contains(&fact(0, &[2, 1])));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn remove_retracts_and_keeps_order_and_index() {
        let mut db = Database::new();
        db.insert(fact(0, &[1, 10]));
        db.insert(fact(0, &[2, 20]));
        db.insert(fact(0, &[1, 30]));
        assert!(db.remove(&fact(0, &[2, 20])));
        assert!(!db.remove(&fact(0, &[2, 20])), "second removal is a no-op");
        assert!(!db.remove(&fact(7, &[1])), "absent predicate");
        assert_eq!(db.len(), 2);
        assert!(!db.contains(&fact(0, &[2, 20])));
        let order: Vec<u32> = db.tuples(s(0)).map(|t| t[1].0).collect();
        assert_eq!(order, vec![10, 30], "survivors keep insertion order");
        // The argument index is rebuilt: a bound-argument match still
        // enumerates exactly the surviving tuples.
        let pattern = Atom::new(s(0), vec![Term::Const(s(1)), Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut seen = Vec::new();
        db.for_each_match(&pattern, &mut b, |bb| {
            seen.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(seen, vec![10, 30]);
        // The membership index follows the renumbered rows.
        assert!(!db.insert(fact(0, &[1, 30])), "survivor still found");
        assert!(db.insert(fact(0, &[2, 20])), "a removed fact can return");
        assert!(db.remove(&fact(0, &[1, 10])));
        assert!(db.contains(&fact(0, &[1, 30])));
        assert!(db.contains(&fact(0, &[2, 20])));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn remove_all_counts_present_facts() {
        let mut db = Database::new();
        db.insert(fact(0, &[1, 10]));
        db.insert(fact(0, &[2, 20]));
        db.insert(fact(0, &[1, 30]));
        db.insert(fact(1, &[5]));
        let gone = [
            fact(0, &[2, 20]),
            fact(0, &[1, 30]),
            fact(1, &[5]),
            fact(9, &[0]),
        ];
        assert_eq!(db.remove_all(&gone), 3, "absent facts are not counted");
        assert_eq!(db.len(), 1);
        assert!(db.contains(&fact(0, &[1, 10])));
        assert!(!db.contains(&fact(1, &[5])));
        // Survivors stay index-reachable through a bound-argument probe.
        let pattern = Atom::new(s(0), vec![Term::Const(s(1)), Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut seen = Vec::new();
        db.for_each_match(&pattern, &mut b, |bb| {
            seen.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(seen, vec![10]);
    }

    #[test]
    fn tombstones_are_invisible_and_compact_away() {
        let mut db = Database::new();
        for i in 0..10 {
            db.insert(fact(0, &[i, i % 2]));
        }
        // Five tombstones against five live rows: no compaction yet.
        for i in [1, 2, 4, 6, 9] {
            assert!(db.remove(&fact(0, &[i, i % 2])));
        }
        assert_eq!(db.rels[&s(0)].rows.len(), 10);
        assert_eq!(db.count(s(0)), 5);
        let live: Vec<u32> = db.tuples(s(0)).map(|t| t[0].0).collect();
        assert_eq!(live, vec![0, 3, 5, 7, 8]);
        // A scan skips tombstones without counting them as attempts.
        let pattern = Atom::new(s(0), vec![Term::Var(Var(0)), Term::Const(s(1))]);
        let scan = Atom::new(s(0), vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        let mut b = Bindings::new(2);
        let mut counters = MatchCounters::default();
        db.for_each_match_counted(&scan, &mut b, &mut counters, |_| false);
        assert_eq!(counters.attempts, 5);
        // The sixth retraction tips the balance and compacts.
        assert!(db.remove(&fact(0, &[3, 1])));
        assert_eq!(db.rels[&s(0)].rows.len(), 4);
        let mut seen = Vec::new();
        db.for_each_match(&pattern, &mut b, |bb| {
            seen.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(seen, vec![5, 7], "renumbered argument index");
        assert!(
            db.contains(&fact(0, &[8, 0])),
            "renumbered membership index"
        );
        assert!(db.insert(fact(0, &[3, 1])));
        let order: Vec<u32> = db.tuples(s(0)).map(|t| t[0].0).collect();
        assert_eq!(order, vec![0, 5, 7, 8, 3]);
        for i in [0, 5, 7, 8, 3] {
            assert!(db.remove(&fact(0, &[i, i % 2])));
        }
        assert!(db.is_empty());
        assert_eq!(db.predicates().count(), 0);
        assert!(db.rels[&s(0)].rows.is_empty());
    }

    #[test]
    fn tuples_iterate_in_insertion_order() {
        let mut db = Database::new();
        db.insert(fact(0, &[3]));
        db.insert(fact(0, &[1]));
        db.insert(fact(0, &[2]));
        let order: Vec<u32> = db.tuples(s(0)).map(|t| t[0].0).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Database::new();
        a.insert(fact(0, &[1]));
        a.insert(fact(1, &[2, 3]));
        let mut b = Database::new();
        b.insert(fact(1, &[2, 3]));
        b.insert(fact(0, &[1]));
        assert_eq!(a, b);
        b.insert(fact(0, &[9]));
        assert_ne!(a, b);
    }

    #[test]
    fn constants_collects_all_symbols() {
        let mut db = Database::new();
        db.insert(fact(0, &[1, 2]));
        db.insert(fact(5, &[2, 7]));
        let cs = db.constants();
        assert_eq!(cs.len(), 3);
        for c in [1, 2, 7] {
            assert!(cs.contains(&s(c)));
        }
    }

    #[test]
    fn for_each_match_enumerates_and_restores() {
        let mut db = Database::new();
        db.insert(fact(0, &[1, 10]));
        db.insert(fact(0, &[2, 20]));
        db.insert(fact(0, &[1, 30]));
        let pattern = Atom::new(s(0), vec![Term::Const(s(1)), Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut seen = Vec::new();
        db.for_each_match(&pattern, &mut b, |bb| {
            seen.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(seen, vec![10, 30]);
        assert_eq!(b.get(Var(0)), None, "bindings restored after scan");
    }

    #[test]
    fn for_each_match_early_stop() {
        let mut db = Database::new();
        for i in 0..10 {
            db.insert(fact(0, &[i]));
        }
        let pattern = Atom::new(s(0), vec![Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut count = 0;
        let stopped = db.for_each_match(&pattern, &mut b, |_| {
            count += 1;
            count == 3
        });
        assert!(stopped);
        assert_eq!(count, 3);
    }

    #[test]
    fn indexed_match_agrees_with_scan_and_counts_probes() {
        let mut db = Database::new();
        db.insert(fact(0, &[1, 10]));
        db.insert(fact(0, &[2, 20]));
        db.insert(fact(0, &[1, 30]));
        // Bound first argument: served by the argument index.
        let pattern = Atom::new(s(0), vec![Term::Const(s(1)), Term::Var(Var(0))]);
        let mut b = Bindings::new(2);
        let mut counters = MatchCounters::default();
        let mut seen = Vec::new();
        db.for_each_match_counted(&pattern, &mut b, &mut counters, |bb| {
            seen.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(seen, vec![10, 30], "insertion order preserved");
        assert_eq!(
            counters,
            MatchCounters {
                probes: 1,
                hits: 1,
                attempts: 2
            }
        );
        assert_eq!(db.estimate(&pattern, &b), 2, "the probed bucket");
        // Bound second argument via an already-bound variable.
        let pattern = Atom::new(s(0), vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        b.set(Var(1), s(20));
        let mut counters = MatchCounters::default();
        let mut seen = Vec::new();
        db.for_each_match_counted(&pattern, &mut b, &mut counters, |bb| {
            seen.push(bb.get(Var(0)).unwrap().0);
            false
        });
        assert_eq!(seen, vec![2]);
        assert_eq!(counters.probes, 1);
        b.unset(Var(1));
        // No bound argument: full scan, no probes counted.
        let mut counters = MatchCounters::default();
        let mut n = 0;
        db.for_each_match_counted(&pattern, &mut b, &mut counters, |_| {
            n += 1;
            false
        });
        assert_eq!(n, 3);
        assert_eq!((counters.probes, counters.hits), (0, 0));
        assert_eq!(db.estimate(&pattern, &b), 3, "the whole relation");
        assert_eq!(counters.attempts, 3, "scan tested every tuple");
        // Probe that misses: counted as a probe but not a hit, and no
        // candidates were ever tested.
        let pattern = Atom::new(s(0), vec![Term::Const(s(9)), Term::Var(Var(0))]);
        let mut counters = MatchCounters::default();
        assert!(!db.for_each_match_counted(&pattern, &mut b, &mut counters, |_| true));
        assert_eq!(
            counters,
            MatchCounters {
                probes: 1,
                hits: 0,
                attempts: 0
            }
        );
    }

    #[test]
    fn arity_mismatch_does_not_match() {
        let mut db = Database::new();
        db.insert(fact(0, &[1]));
        db.insert(fact(0, &[1, 2]));
        let pattern = Atom::new(s(0), vec![Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut n = 0;
        db.for_each_match(&pattern, &mut b, |_| {
            n += 1;
            false
        });
        assert_eq!(n, 1, "only the unary tuple matches a unary pattern");
    }

    #[test]
    fn absorb_merges() {
        let mut a = Database::new();
        a.insert(fact(0, &[1]));
        let mut b = Database::new();
        b.insert(fact(0, &[1]));
        b.insert(fact(1, &[2]));
        a.absorb(&b);
        assert_eq!(a.len(), 2);
    }
}
