//! A mutable, predicate-indexed collection of ground facts.
//!
//! [`Database`] is the extensional store handed to the engines and the
//! representation of computed models: facts are grouped per predicate so
//! that matching a rule premise only scans candidates with the right
//! predicate symbol, and indexed per argument so that a premise with a
//! bound argument probes only the tuples that carry it.
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
    /// Tuples in insertion order (for deterministic iteration).
    tuples: Vec<Box<[Symbol]>>,
    /// Membership index over the same tuples: tuple hash → indices into
    /// `tuples` (almost always one). Each tuple is stored once, and a
    /// probe by slice builds no key.
    index: FxHashMap<u64, SmallVec<u32, 1>>,
    /// Argument-level join index: `(position, constant)` → indices into
    /// `tuples` (in insertion order). Lets a premise with a bound
    /// argument hash-probe its candidates instead of scanning the whole
    /// relation.
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
        let row = u32::try_from(self.tuples.len()).expect("relation overflow");
        self.index.entry(key).or_default().push(row);
        for (pos, &c) in args.iter().enumerate() {
            self.by_arg.entry((pos as u32, c)).or_default().push(row);
        }
        self.tuples.push(args.into());
        true
    }

    fn find(&self, key: u64, args: &[Symbol]) -> Option<u32> {
        self.index
            .get(&key)?
            .iter()
            .find(|&row| &self.tuples[row as usize][..] == args)
    }

    fn contains(&self, args: &[Symbol]) -> bool {
        self.find(tuple_key(args), args).is_some()
    }

    /// Removes `args`, preserving insertion order of the survivors.
    ///
    /// Deletion is rare (interactive retraction only), so this pays one
    /// O(|relation|) compaction + index rebuild rather than complicating
    /// the hot insert/lookup paths with tombstones.
    fn remove(&mut self, args: &[Symbol]) -> bool {
        let key = tuple_key(args);
        let Some(row) = self.find(key, args) else {
            return false;
        };
        self.tuples.remove(row as usize);
        // Drop the row from its bucket and renumber the rows after it;
        // no tuple is hashed again.
        let bucket: SmallVec<u32, 1> = self.index[&key].iter().filter(|&r| r != row).collect();
        if bucket.is_empty() {
            self.index.remove(&key);
        } else {
            self.index.insert(key, bucket);
        }
        for rows in self.index.values_mut() {
            for r in rows.as_mut_slice() {
                if *r > row {
                    *r -= 1;
                }
            }
        }
        self.index_args();
        true
    }

    /// Removes every tuple in `gone`, compacting and rebuilding the
    /// indexes once — the batch counterpart of [`Relation::remove`] for
    /// deletion cascades (e.g. the overdeletion phase of incremental
    /// maintenance), where per-fact compaction would cost O(|relation|)
    /// per removed tuple.
    fn remove_many(&mut self, gone: &FxHashSet<&[Symbol]>) -> usize {
        let before = self.tuples.len();
        self.tuples.retain(|t| !gone.contains(&t[..]));
        let removed = before - self.tuples.len();
        if removed > 0 {
            self.reindex();
        }
        removed
    }

    /// Rebuilds both indexes from `tuples`.
    fn reindex(&mut self) {
        self.index.clear();
        for (row, tuple) in self.tuples.iter().enumerate() {
            self.index
                .entry(tuple_key(tuple))
                .or_default()
                .push(row as u32);
        }
        self.index_args();
    }

    /// Rebuilds the argument index from `tuples`.
    fn index_args(&mut self) {
        self.by_arg.clear();
        for (row, tuple) in self.tuples.iter().enumerate() {
            for (pos, &c) in tuple.iter().enumerate() {
                self.by_arg
                    .entry((pos as u32, c))
                    .or_default()
                    .push(row as u32);
            }
        }
    }

    /// Tuple indices whose argument `pos` equals `c`, in insertion order.
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
    /// deterministic after a retraction.
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
    ///
    /// Each touched relation is compacted and reindexed once, so a
    /// deletion cascade of `k` facts costs one rebuild per relation
    /// instead of `k` — use this over repeated [`Database::remove`]
    /// whenever the removal set is known up front.
    pub fn remove_all<'a>(&mut self, facts: impl IntoIterator<Item = &'a GroundAtom>) -> usize {
        let mut by_pred: FxHashMap<Symbol, FxHashSet<&[Symbol]>> = FxHashMap::default();
        for f in facts {
            by_pred.entry(f.pred).or_default().insert(&f.args);
        }
        let mut removed = 0;
        for (pred, gone) in &by_pred {
            if let Some(rel) = self.rels.get_mut(pred) {
                removed += rel.remove_many(gone);
            }
        }
        self.len -= removed;
        removed
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
        self.rels.get(&pred).map_or(0, |r| r.tuples.len())
    }

    /// Iterates over the tuples of `pred` in insertion order.
    pub fn tuples(&self, pred: Symbol) -> impl Iterator<Item = &[Symbol]> {
        self.rels
            .get(&pred)
            .into_iter()
            .flat_map(|r| r.tuples.iter().map(|t| &t[..]))
    }

    /// Iterates over all facts as `(pred, tuple)` pairs.
    ///
    /// Predicates are visited in unspecified (but run-deterministic) order;
    /// tuples within a predicate in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &[Symbol])> {
        self.rels
            .iter()
            .flat_map(|(&p, r)| r.tuples.iter().map(move |t| (p, &t[..])))
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
            .filter(|(_, r)| !r.tuples.is_empty())
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
                    if visit(&rel.tuples[row as usize], counters, bindings) {
                        return true;
                    }
                }
                false
            }
            None => {
                for tuple in &rel.tuples {
                    if visit(tuple, counters, bindings) {
                        return true;
                    }
                }
                false
            }
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
    fn remove_all_batches_per_relation() {
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
