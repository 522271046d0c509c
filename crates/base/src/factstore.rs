//! Interners for ground facts and for whole databases.
//!
//! Hypothetical inference explores a *lattice of databases*: every premise
//! `A[add: C̄]` moves the proof to a strictly larger database. The engines
//! therefore intern each ground fact to a dense [`FactId`] and each database
//! to a dense [`DbId`], so that memo tables can be keyed by plain
//! `(FactId, DbId)` pairs instead of hashing whole fact sets at every lookup.
//!
//! Databases are stored **persistently** as a parent+delta DAG rather than
//! as materialized fact vectors. Each [`DbEntry`] records its parent node,
//! the small delta of facts added over the parent, and a cumulative
//! *overlay* — the sorted facts it holds above its nearest *flat* ancestor
//! (`croot`). Flat nodes materialize their full fact set plus a
//! per-predicate index that every descendant shares. When an overlay would
//! exceed [`FLATTEN_THRESHOLD`], the new node is created flat instead, so
//! reads never chase more than a bounded overlay while writes stay
//! O(|delta|) rather than O(|DB|).
//!
//! Deltas are signed: a premise `A[del: C̄]` moves the proof to a strictly
//! *smaller* database. Chain nodes therefore carry a *negative overlay*
//! alongside the positive one — the sorted facts of the flat root that the
//! node masks out — and the represented set is
//! `(flat(croot) ∖ neg_overlay) ∪ overlay`. [`DbStore::shrink`] is the
//! removal dual of [`DbStore::extend`] and shares its O(|delta|) cost;
//! [`DbStore::apply`] composes both (removals first, so `add:` wins when a
//! fact appears in both lists).
//!
//! Interning is canonical over *fact sets*, not construction paths: two
//! databases reached by different extension orders (or from different
//! roots) compare equal and share one [`DbId`]. Equality is resolved
//! through an order-independent set hash with full verification on bucket
//! collisions, preserving the engines' O(1) database equality. Because the
//! set hash is an XOR fold and XOR is self-inverse, removal re-hashing is
//! as incremental as addition.

use crate::atom::GroundAtom;
use crate::database::Database;
use crate::hasher::{FxHashMap, FxHasher};
use crate::smallvec::SmallVec;
use crate::symbol::Symbol;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Dense id of an interned ground fact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactId(pub u32);

impl FactId {
    /// Dense index of this fact.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only intern table for ground facts.
///
/// Each fact is stored once. The index maps a fact's hash to the ids of
/// the facts with that hash (almost always one), and a probe compares
/// the candidates' stored predicate and arguments, so looking up a fact
/// given as a predicate and an argument slice builds no key.
#[derive(Default, Clone)]
pub struct FactStore {
    facts: Vec<GroundAtom>,
    ids: FxHashMap<u64, SmallVec<FactId, 1>>,
}

/// The index key of the fact `pred(args)`.
fn fact_key(pred: Symbol, args: &[Symbol]) -> u64 {
    let mut h = FxHasher::default();
    pred.hash(&mut h);
    args.hash(&mut h);
    h.finish()
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `fact`, returning its id.
    pub fn intern(&mut self, fact: GroundAtom) -> FactId {
        let key = fact_key(fact.pred, &fact.args);
        match self.find(key, fact.pred, &fact.args) {
            Some(id) => id,
            None => self.push(key, fact),
        }
    }

    /// Interns the fact `pred(args)`, returning its id. Allocates only
    /// the first time the fact is seen.
    pub fn intern_args(&mut self, pred: Symbol, args: &[Symbol]) -> FactId {
        let key = fact_key(pred, args);
        match self.find(key, pred, args) {
            Some(id) => id,
            None => self.push(key, GroundAtom::new(pred, args.to_vec())),
        }
    }

    fn push(&mut self, key: u64, fact: GroundAtom) -> FactId {
        let id = FactId(u32::try_from(self.facts.len()).expect("fact store overflow"));
        self.facts.push(fact);
        self.ids.entry(key).or_default().push(id);
        id
    }

    fn find(&self, key: u64, pred: Symbol, args: &[Symbol]) -> Option<FactId> {
        self.ids.get(&key)?.iter().find(|&id| {
            let fact = &self.facts[id.index()];
            fact.pred == pred && fact.args == args
        })
    }

    /// Looks up an already-interned fact.
    pub fn lookup(&self, fact: &GroundAtom) -> Option<FactId> {
        self.lookup_args(fact.pred, &fact.args)
    }

    /// Looks up the already-interned fact `pred(args)`.
    pub fn lookup_args(&self, pred: Symbol, args: &[Symbol]) -> Option<FactId> {
        self.find(fact_key(pred, args), pred, args)
    }

    /// The fact with id `id`.
    pub fn fact(&self, id: FactId) -> &GroundAtom {
        &self.facts[id.index()]
    }

    /// Number of interned facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no facts have been interned.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

/// Dense id of an interned database (a set of facts).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DbId(pub u32);

impl DbId {
    /// Dense index of this database.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Overlay length at which a new node is materialized flat.
///
/// Reads over a chain node scan its overlay linearly (binary search for
/// membership), so the overlay is kept short; once a lineage has
/// accumulated this many facts above its flat root, the next extension
/// pays one O(|DB|) materialization and becomes the new `croot` its own
/// descendants index against.
pub const FLATTEN_THRESHOLD: usize = 32;

/// Materialized representation held by flat nodes only.
#[derive(Debug)]
struct FlatRepr {
    /// Sorted, deduplicated fact ids of the full set.
    facts: Arc<Vec<FactId>>,
    /// Fact ids grouped by predicate, shared by all chain descendants.
    by_pred: Arc<FxHashMap<Symbol, Vec<FactId>>>,
    /// Argument-level join index: `(predicate, argument position,
    /// constant)` → fact ids, shared by all chain descendants. Premises
    /// with a bound argument probe this instead of scanning `by_pred`;
    /// a descendant's (bounded) overlay is filtered linearly on top.
    by_arg: Arc<FxHashMap<(Symbol, u32, Symbol), Vec<FactId>>>,
}

/// A node in the persistent overlay DAG of databases.
///
/// Flat nodes (`croot == self`) materialize their fact set; chain nodes
/// record only their signed delta over the parent plus the cumulative
/// (positive and negative) overlays against the shared flat root. Both
/// answer reads through [`crate::view::DbView`].
#[derive(Debug)]
pub struct DbEntry {
    /// The node this one was extended from (`self` for roots).
    parent: DbId,
    /// Nearest flat ancestor (`self` for flat nodes).
    croot: DbId,
    /// Facts added over `parent` (sorted; empty for roots).
    delta: SmallVec<FactId, 4>,
    /// Facts removed over `parent` (sorted; empty for roots).
    neg_delta: SmallVec<FactId, 4>,
    /// Facts held above `croot`, sorted, disjoint from `croot`'s set
    /// (empty for flat nodes).
    overlay: Arc<Vec<FactId>>,
    /// Facts of `croot`'s set masked out of this node, sorted (empty for
    /// flat nodes). The represented set is
    /// `(flat(croot) ∖ neg_overlay) ∪ overlay`.
    neg_overlay: Arc<Vec<FactId>>,
    /// Total fact count of the represented set.
    len: u32,
    /// Order-independent hash of the represented set.
    set_hash: u64,
    /// Extension distance from an interned root (roots are 0).
    depth: u32,
    /// Materialized set + predicate index; `Some` exactly on flat nodes.
    flat: Option<FlatRepr>,
}

impl DbEntry {
    /// The node this database was extended from (`self` for roots).
    #[inline]
    pub fn parent(&self) -> DbId {
        self.parent
    }

    /// The nearest flat ancestor whose index this node shares.
    #[inline]
    pub fn croot(&self) -> DbId {
        self.croot
    }

    /// The facts this node added over its parent.
    #[inline]
    pub fn delta(&self) -> &[FactId] {
        &self.delta
    }

    /// The facts this node removed from its parent.
    #[inline]
    pub fn neg_delta(&self) -> &[FactId] {
        &self.neg_delta
    }

    /// The sorted facts this node holds above its flat root.
    #[inline]
    pub fn overlay(&self) -> &[FactId] {
        &self.overlay
    }

    /// The sorted facts of the flat root this node masks out.
    #[inline]
    pub fn neg_overlay(&self) -> &[FactId] {
        &self.neg_overlay
    }

    /// Whether this node masks out any facts of its flat root.
    #[inline]
    pub fn has_neg_overlay(&self) -> bool {
        !self.neg_overlay.is_empty()
    }

    /// Whether this node materializes its full fact set.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.flat.is_some()
    }

    /// Number of facts in the represented set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the represented set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Extension distance from an interned root database (roots are 0).
    ///
    /// Canonicalization keeps this a property of the *first* construction
    /// path that reached the set; it is used as a proxy for hypothetical
    /// nesting depth by the memory budget, not as a semantic attribute.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// Storage counters for the overlay DAG.
///
/// `delta_facts` counts fact-id slots physically stored (flat sets plus
/// chain overlays and deltas); `materialized_facts` counts the slots the
/// pre-overlay representation would have stored — one full copy of every
/// database per node. Their ratio is the sharing won by the DAG.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct OverlayStats {
    /// Databases interned (DAG nodes).
    pub nodes: u64,
    /// Nodes holding a materialized fact set (roots + flattened nodes).
    pub flat_nodes: u64,
    /// Chain extensions promoted to flat by [`FLATTEN_THRESHOLD`].
    pub flattens: u64,
    /// Fact-id slots physically stored across all nodes.
    pub delta_facts: u64,
    /// Fact-id slots a fully-materialized store would hold.
    pub materialized_facts: u64,
}

/// An intern table over databases, supporting O(|delta|) extension.
///
/// Databases form a join-semilattice under union; [`DbStore::extend`] is the
/// only constructor besides [`DbStore::intern_facts`], and both canonicalize
/// over fact sets, so equal sets always share one [`DbId`] — giving the
/// engines O(1) database equality and compact memo keys.
#[derive(Default)]
pub struct DbStore {
    store: FactStore,
    entries: Vec<DbEntry>,
    /// Canonicalization buckets: (set length, set hash) → candidate ids.
    canon: FxHashMap<(u32, u64), SmallVec<DbId, 2>>,
    stats: OverlayStats,
    /// Largest [`DbEntry::depth`] interned so far (O(1) budget probes).
    max_depth: u32,
}

/// SplitMix64 finalizer — mixes a fact id into an avalanche hash whose
/// XOR over a set is order-independent yet collision-resistant enough to
/// serve as a canonicalization bucket key.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn fact_hash(f: FactId) -> u64 {
    mix(f.0 as u64)
}

/// Merges two sorted, disjoint fact-id slices into one sorted vector.
fn merge_sorted(a: &[FactId], b: &[FactId]) -> Vec<FactId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl DbStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access to the underlying fact interner.
    pub fn facts(&self) -> &FactStore {
        &self.store
    }

    /// Interns a ground fact.
    pub fn intern_fact(&mut self, fact: GroundAtom) -> FactId {
        self.store.intern(fact)
    }

    /// Interns the ground fact `pred(args)`; allocates only on the first
    /// intern (see [`FactStore::intern_args`]).
    pub fn intern_args(&mut self, pred: Symbol, args: &[Symbol]) -> FactId {
        self.store.intern_args(pred, args)
    }

    /// The DAG node for database `id`.
    pub fn entry(&self, id: DbId) -> &DbEntry {
        &self.entries[id.index()]
    }

    /// Number of distinct databases interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no databases have been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Storage counters for the overlay DAG.
    pub fn overlay_stats(&self) -> OverlayStats {
        self.stats
    }

    /// Largest extension depth of any interned database.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Whether database `db` contains fact `f`.
    #[inline]
    pub fn contains(&self, db: DbId, f: FactId) -> bool {
        let e = &self.entries[db.index()];
        if e.overlay.binary_search(&f).is_ok() {
            return true;
        }
        if e.neg_overlay.binary_search(&f).is_ok() {
            return false;
        }
        self.flat_facts(e.croot).binary_search(&f).is_ok()
    }

    /// The materialized sorted fact set of a flat node.
    #[inline]
    pub(crate) fn flat_facts(&self, flat: DbId) -> &[FactId] {
        &self.entries[flat.index()]
            .flat
            .as_ref()
            .expect("croot must be flat")
            .facts
    }

    /// The shared per-predicate index of a flat node.
    #[inline]
    pub(crate) fn flat_by_pred(&self, flat: DbId) -> &FxHashMap<Symbol, Vec<FactId>> {
        &self.entries[flat.index()]
            .flat
            .as_ref()
            .expect("croot must be flat")
            .by_pred
    }

    /// The shared argument-level index of a flat node.
    #[inline]
    pub(crate) fn flat_by_arg(&self, flat: DbId) -> &FxHashMap<(Symbol, u32, Symbol), Vec<FactId>> {
        &self.entries[flat.index()]
            .flat
            .as_ref()
            .expect("croot must be flat")
            .by_arg
    }

    /// Iterates the fact ids of `db` in sorted order.
    pub fn iter_fact_ids(&self, db: DbId) -> impl Iterator<Item = FactId> + '_ {
        let e = &self.entries[db.index()];
        MergeIds {
            a: self.flat_facts(e.croot),
            sub: &e.neg_overlay,
            b: &e.overlay,
        }
    }

    /// Interns the database consisting of exactly `facts` (deduplicated).
    pub fn intern_facts(&mut self, facts: impl IntoIterator<Item = GroundAtom>) -> DbId {
        let mut ids: Vec<FactId> = facts.into_iter().map(|f| self.store.intern(f)).collect();
        ids.sort_unstable();
        ids.dedup();
        self.intern_sorted(ids)
    }

    /// Interns a [`Database`] value.
    pub fn intern_database(&mut self, db: &Database) -> DbId {
        self.intern_facts(db.iter_facts())
    }

    /// Returns the database `base ∪ additions`.
    ///
    /// If every addition is already present, returns `base` itself — the
    /// engines rely on this to detect the "degenerate hypothetical" case
    /// where `A[add: C̄]` collapses to a plain premise. Otherwise the new
    /// node stores only its delta and (bounded) overlay; the full fact set
    /// is never copied unless the overlay crosses [`FLATTEN_THRESHOLD`].
    pub fn extend(&mut self, base: DbId, additions: &[FactId]) -> DbId {
        let mut fresh: SmallVec<FactId, 8> = additions
            .iter()
            .copied()
            .filter(|&id| !self.contains(base, id))
            .collect();
        if fresh.is_empty() {
            return base;
        }
        fresh.as_mut_slice().sort_unstable();
        // `additions` may repeat a fact; keep the first of each run.
        let mut dedup: SmallVec<FactId, 8> = SmallVec::new();
        for f in fresh.iter() {
            if dedup.as_slice().last() != Some(&f) {
                dedup.push(f);
            }
        }
        let fresh = dedup;

        let base_entry = &self.entries[base.index()];
        let croot = base_entry.croot;
        let new_depth = base_entry.depth + 1;
        let new_len = base_entry.len + fresh.len() as u32;
        let new_hash = base_entry.set_hash ^ fresh.iter().fold(0u64, |acc, f| acc ^ fact_hash(f));
        // A fresh fact that is a member of the flat root must currently be
        // masked by the negative overlay — adding it back *revives* it
        // (shrinks the mask) rather than growing the positive overlay.
        let flat = self.flat_facts(croot);
        let (revived, added): (SmallVec<FactId, 8>, SmallVec<FactId, 8>) =
            fresh.iter().partition(|f| flat.binary_search(f).is_ok());
        let overlay = merge_sorted(&base_entry.overlay, &added);
        let neg_overlay: Vec<FactId> = base_entry
            .neg_overlay
            .iter()
            .copied()
            .filter(|f| revived.binary_search(f).is_err())
            .collect();

        self.insert_node(
            base,
            croot,
            SmallVec::from_slice(&fresh),
            SmallVec::new(),
            overlay,
            neg_overlay,
            new_len,
            new_hash,
            new_depth,
        )
    }

    /// Returns the database `base ∖ removals`.
    ///
    /// The removal dual of [`DbStore::extend`]: if no removal is present,
    /// returns `base` itself — the engines rely on this to detect the
    /// degenerate `A[del: C̄]` where every `C̄` is already absent. Otherwise
    /// the new node stores only its (signed) delta: removals of overlay
    /// facts shrink the positive overlay, removals of flat-root facts grow
    /// the negative overlay. Cost is O(|delta| + |overlay|), never O(|DB|)
    /// unless the combined overlay crosses [`FLATTEN_THRESHOLD`].
    pub fn shrink(&mut self, base: DbId, removals: &[FactId]) -> DbId {
        let mut gone: SmallVec<FactId, 8> = removals
            .iter()
            .copied()
            .filter(|&id| self.contains(base, id))
            .collect();
        if gone.is_empty() {
            return base;
        }
        gone.as_mut_slice().sort_unstable();
        let mut dedup: SmallVec<FactId, 8> = SmallVec::new();
        for f in gone.iter() {
            if dedup.as_slice().last() != Some(&f) {
                dedup.push(f);
            }
        }
        let gone = dedup;

        let base_entry = &self.entries[base.index()];
        let croot = base_entry.croot;
        let new_depth = base_entry.depth + 1;
        let new_len = base_entry.len - gone.len() as u32;
        let new_hash = base_entry.set_hash ^ gone.iter().fold(0u64, |acc, f| acc ^ fact_hash(f));
        // Removals of overlay members just drop out of the overlay; the
        // rest are flat-root members and join the mask.
        let masked: SmallVec<FactId, 8> = gone
            .iter()
            .filter(|f| base_entry.overlay.binary_search(f).is_err())
            .collect();
        let overlay: Vec<FactId> = base_entry
            .overlay
            .iter()
            .copied()
            .filter(|f| gone.as_slice().binary_search(f).is_err())
            .collect();
        let neg_overlay = merge_sorted(&base_entry.neg_overlay, &masked);

        self.insert_node(
            base,
            croot,
            SmallVec::new(),
            SmallVec::from_slice(&gone),
            overlay,
            neg_overlay,
            new_len,
            new_hash,
            new_depth,
        )
    }

    /// Returns the database `(base ∖ removals) ∪ additions`.
    ///
    /// The goal database of `A[add: B̄, del: C̄]`: removals apply first, so
    /// a fact listed in both ends up present (`add:` wins). Both halves
    /// canonicalize, so a round trip `apply(apply(db, ∅, C̄), C̄, ∅)` that
    /// restores the original set returns the original [`DbId`].
    pub fn apply(&mut self, base: DbId, additions: &[FactId], removals: &[FactId]) -> DbId {
        let shrunk = self.shrink(base, removals);
        self.extend(shrunk, additions)
    }

    /// Interns a chain node with the given signed delta and overlays,
    /// canonicalizing against existing sets and flattening when the
    /// combined overlay crosses [`FLATTEN_THRESHOLD`].
    #[allow(clippy::too_many_arguments)]
    fn insert_node(
        &mut self,
        parent: DbId,
        croot: DbId,
        delta: SmallVec<FactId, 4>,
        neg_delta: SmallVec<FactId, 4>,
        overlay: Vec<FactId>,
        neg_overlay: Vec<FactId>,
        new_len: u32,
        new_hash: u64,
        new_depth: u32,
    ) -> DbId {
        // Canonicalization: an equal fact set may already exist (reached by
        // a different extension order or from a different root).
        if let Some(bucket) = self.canon.get(&(new_len, new_hash)) {
            for &cand in bucket.as_slice() {
                if self.set_equals(cand, croot, &overlay, &neg_overlay) {
                    return cand;
                }
            }
        }

        let id = DbId(u32::try_from(self.entries.len()).expect("db store overflow"));
        let entry = if overlay.len() + neg_overlay.len() >= FLATTEN_THRESHOLD {
            // Promote to flat: one O(|DB|) materialization bounds every
            // descendant's read cost to its own (short) overlay.
            let facts: Vec<FactId> = MergeIds {
                a: self.flat_facts(croot),
                sub: &neg_overlay,
                b: &overlay,
            }
            .collect();
            let facts = Arc::new(facts);
            let (by_pred, by_arg) = self.build_indexes(&facts);
            self.stats.flattens += 1;
            self.stats.flat_nodes += 1;
            self.stats.delta_facts += facts.len() as u64;
            DbEntry {
                parent,
                croot: id,
                delta,
                neg_delta,
                overlay: Arc::new(Vec::new()),
                neg_overlay: Arc::new(Vec::new()),
                len: new_len,
                set_hash: new_hash,
                depth: new_depth,
                flat: Some(FlatRepr {
                    facts,
                    by_pred,
                    by_arg,
                }),
            }
        } else {
            self.stats.delta_facts +=
                (delta.len() + neg_delta.len() + overlay.len() + neg_overlay.len()) as u64;
            DbEntry {
                parent,
                croot,
                delta,
                neg_delta,
                overlay: Arc::new(overlay),
                neg_overlay: Arc::new(neg_overlay),
                len: new_len,
                set_hash: new_hash,
                depth: new_depth,
                flat: None,
            }
        };
        self.max_depth = self.max_depth.max(new_depth);
        self.stats.nodes += 1;
        self.stats.materialized_facts += new_len as u64;
        self.entries.push(entry);
        self.canon.entry((new_len, new_hash)).or_default().push(id);
        id
    }

    /// Materializes database `id` as a [`Database`] value.
    pub fn to_database(&self, id: DbId) -> Database {
        self.iter_fact_ids(id)
            .map(|f| self.store.fact(f).clone())
            .collect()
    }

    /// Whether `cand`'s fact set equals `(croot ∖ neg_overlay) ∪ overlay`.
    fn set_equals(
        &self,
        cand: DbId,
        croot: DbId,
        overlay: &[FactId],
        neg_overlay: &[FactId],
    ) -> bool {
        let ce = &self.entries[cand.index()];
        if ce.croot == croot {
            // Same flat root: both signed overlays are sorted sets over it.
            return ce.overlay.as_slice() == overlay && ce.neg_overlay.as_slice() == neg_overlay;
        }
        // Different roots (rare): compare full sorted iterations.
        let a = MergeIds {
            a: self.flat_facts(ce.croot),
            sub: &ce.neg_overlay,
            b: &ce.overlay,
        };
        let b = MergeIds {
            a: self.flat_facts(croot),
            sub: neg_overlay,
            b: overlay,
        };
        a.eq(b)
    }

    /// Builds the per-predicate and argument-level indexes of a flat node.
    #[allow(clippy::type_complexity)]
    fn build_indexes(
        &self,
        facts: &[FactId],
    ) -> (
        Arc<FxHashMap<Symbol, Vec<FactId>>>,
        Arc<FxHashMap<(Symbol, u32, Symbol), Vec<FactId>>>,
    ) {
        let mut by_pred: FxHashMap<Symbol, Vec<FactId>> = FxHashMap::default();
        let mut by_arg: FxHashMap<(Symbol, u32, Symbol), Vec<FactId>> = FxHashMap::default();
        for &f in facts {
            let fact = self.store.fact(f);
            by_pred.entry(fact.pred).or_default().push(f);
            for (pos, &c) in fact.args.iter().enumerate() {
                by_arg
                    .entry((fact.pred, pos as u32, c))
                    .or_default()
                    .push(f);
            }
        }
        (Arc::new(by_pred), Arc::new(by_arg))
    }

    fn intern_sorted(&mut self, ids: Vec<FactId>) -> DbId {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted+dedup"
        );
        let len = ids.len() as u32;
        let set_hash = ids.iter().fold(0u64, |acc, &f| acc ^ fact_hash(f));
        if let Some(bucket) = self.canon.get(&(len, set_hash)) {
            for &cand in bucket.as_slice() {
                if self.iter_fact_ids(cand).eq(ids.iter().copied()) {
                    return cand;
                }
            }
        }
        let facts = Arc::new(ids);
        let (by_pred, by_arg) = self.build_indexes(&facts);
        let id = DbId(u32::try_from(self.entries.len()).expect("db store overflow"));
        self.stats.nodes += 1;
        self.stats.flat_nodes += 1;
        self.stats.delta_facts += facts.len() as u64;
        self.stats.materialized_facts += facts.len() as u64;
        self.entries.push(DbEntry {
            parent: id,
            croot: id,
            delta: SmallVec::new(),
            neg_delta: SmallVec::new(),
            overlay: Arc::new(Vec::new()),
            neg_overlay: Arc::new(Vec::new()),
            len,
            set_hash,
            depth: 0,
            flat: Some(FlatRepr {
                facts,
                by_pred,
                by_arg,
            }),
        });
        self.canon.entry((len, set_hash)).or_default().push(id);
        id
    }
}

/// Sorted merge of `(a ∖ sub) ∪ b`, where `sub ⊆ a` and `b` is disjoint
/// from `a`; all three slices sorted.
struct MergeIds<'a> {
    a: &'a [FactId],
    sub: &'a [FactId],
    b: &'a [FactId],
}

impl Iterator for MergeIds<'_> {
    type Item = FactId;

    fn next(&mut self) -> Option<FactId> {
        // Skip the masked prefix of `a`; `sub ⊆ a` and both are sorted, so
        // walking them in lockstep suppresses exactly the masked members.
        while let (Some(&x), Some(&s)) = (self.a.first(), self.sub.first()) {
            if s < x {
                self.sub = &self.sub[1..];
            } else if s == x {
                self.a = &self.a[1..];
                self.sub = &self.sub[1..];
            } else {
                break;
            }
        }
        match (self.a.first(), self.b.first()) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    self.a = &self.a[1..];
                    Some(x)
                } else {
                    self.b = &self.b[1..];
                    Some(y)
                }
            }
            (Some(&x), None) => {
                self.a = &self.a[1..];
                Some(x)
            }
            (None, Some(&y)) => {
                self.b = &self.b[1..];
                Some(y)
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Exact because `sub ⊆ a` (every remaining mask member suppresses
        // exactly one remaining member of `a`).
        let n = self.a.len() + self.b.len() - self.sub.len();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(p: u32, args: &[u32]) -> GroundAtom {
        GroundAtom::new(Symbol(p), args.iter().map(|&a| Symbol(a)).collect())
    }

    #[test]
    fn lookup_by_slice_agrees_with_owned_facts() {
        let mut store = FactStore::new();
        let a = store.intern(fact(0, &[1, 2]));
        let b = store.intern_args(Symbol(0), &[Symbol(2), Symbol(1)]);
        assert_ne!(a, b);
        assert_eq!(store.intern_args(Symbol(0), &[Symbol(1), Symbol(2)]), a);
        assert_eq!(store.intern(fact(0, &[2, 1])), b);
        assert_eq!(
            store.lookup_args(Symbol(0), &[Symbol(2), Symbol(1)]),
            Some(b)
        );
        assert_eq!(store.lookup_args(Symbol(1), &[Symbol(1), Symbol(2)]), None);
        assert_eq!(store.lookup_args(Symbol(0), &[Symbol(1)]), None);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn fact_interning_is_idempotent() {
        let mut fs = FactStore::new();
        let a = fs.intern(fact(0, &[1]));
        let b = fs.intern(fact(0, &[1]));
        assert_eq!(a, b);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs.fact(a), &fact(0, &[1]));
    }

    #[test]
    fn equal_fact_sets_share_db_id() {
        let mut dbs = DbStore::new();
        let a = dbs.intern_facts([fact(0, &[1]), fact(0, &[2])]);
        let b = dbs.intern_facts([fact(0, &[2]), fact(0, &[1])]);
        assert_eq!(a, b);
        assert_eq!(dbs.len(), 1);
    }

    #[test]
    fn extend_with_present_facts_is_identity() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1])]);
        let f = dbs.intern_fact(fact(0, &[1]));
        assert_eq!(dbs.extend(base, &[f]), base);
    }

    #[test]
    fn extend_with_new_fact_grows() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1])]);
        let f = dbs.intern_fact(fact(0, &[2]));
        let bigger = dbs.extend(base, &[f]);
        assert_ne!(bigger, base);
        assert_eq!(dbs.entry(bigger).len(), 2);
        assert!(dbs.contains(bigger, f));
        // Extending two different ways to the same set yields the same id.
        let g = dbs.intern_fact(fact(0, &[1]));
        let other = dbs.intern_facts([fact(0, &[2])]);
        let merged = dbs.extend(other, &[g]);
        assert_eq!(merged, bigger);
    }

    #[test]
    fn roundtrip_database() {
        let mut db = Database::new();
        db.insert(fact(0, &[1, 2]));
        db.insert(fact(3, &[4]));
        let mut dbs = DbStore::new();
        let id = dbs.intern_database(&db);
        assert_eq!(dbs.to_database(id), db);
    }

    #[test]
    fn extend_stores_delta_not_full_copy() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts((0..20).map(|i| fact(0, &[i])));
        let f = dbs.intern_fact(fact(0, &[99]));
        let bigger = dbs.extend(base, &[f]);
        let e = dbs.entry(bigger);
        assert!(!e.is_flat(), "small delta must stay a chain node");
        assert_eq!(e.parent(), base);
        assert_eq!(e.croot(), base, "base is flat, so it is the chain root");
        assert_eq!(e.delta(), &[f]);
        assert_eq!(e.overlay(), &[f]);
        assert_eq!(e.len(), 21);
        let stats = dbs.overlay_stats();
        // Base stores 20 slots, the extension 2 (delta + overlay copy).
        assert_eq!(stats.delta_facts, 22);
        assert_eq!(stats.materialized_facts, 41);
        assert!(stats.delta_facts < stats.materialized_facts);
    }

    #[test]
    fn extension_chain_shares_flat_root_until_threshold() {
        let mut dbs = DbStore::new();
        let root = dbs.intern_facts([fact(0, &[0])]);
        let mut db = root;
        for i in 1..FLATTEN_THRESHOLD as u32 {
            let f = dbs.intern_fact(fact(0, &[i]));
            db = dbs.extend(db, &[f]);
            let e = dbs.entry(db);
            assert_eq!(e.croot(), root);
            assert_eq!(e.overlay().len(), i as usize);
        }
        assert_eq!(dbs.overlay_stats().flattens, 0);
        // The next extension crosses the threshold and flattens.
        let f = dbs.intern_fact(fact(0, &[1000]));
        let flat = dbs.extend(db, &[f]);
        let e = dbs.entry(flat);
        assert!(e.is_flat());
        assert_eq!(e.croot(), flat);
        assert_eq!(e.len(), FLATTEN_THRESHOLD + 1);
        assert_eq!(dbs.overlay_stats().flattens, 1);
        // Descendants of the flat node index against it, not the old root.
        let g = dbs.intern_fact(fact(0, &[2000]));
        let child = dbs.extend(flat, &[g]);
        assert_eq!(dbs.entry(child).croot(), flat);
    }

    #[test]
    fn canonicalization_unifies_across_extension_orders() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1])]);
        let f = dbs.intern_fact(fact(1, &[2]));
        let g = dbs.intern_fact(fact(2, &[3]));
        let just_f = dbs.extend(base, &[f]);
        let fg = dbs.extend(just_f, &[g]);
        let just_g = dbs.extend(base, &[g]);
        let gf = dbs.extend(just_g, &[f]);
        assert_eq!(fg, gf, "order of hypothetical additions is immaterial");
        let both = dbs.extend(base, &[f, g]);
        assert_eq!(both, fg, "batch extension unifies with chains");
    }

    #[test]
    fn iter_fact_ids_is_sorted_merge() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[5]), fact(0, &[1])]);
        let f = dbs.intern_fact(fact(0, &[3]));
        let db = dbs.extend(base, &[f]);
        let ids: Vec<FactId> = dbs.iter_fact_ids(db).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn shrink_with_absent_facts_is_identity() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1])]);
        let f = dbs.intern_fact(fact(0, &[9]));
        assert_eq!(dbs.shrink(base, &[f]), base);
    }

    #[test]
    fn shrink_masks_flat_root_facts() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts((0..10).map(|i| fact(0, &[i])));
        let f = dbs.intern_fact(fact(0, &[3]));
        let smaller = dbs.shrink(base, &[f]);
        assert_ne!(smaller, base);
        let e = dbs.entry(smaller);
        assert!(!e.is_flat());
        assert_eq!(e.neg_delta(), &[f]);
        assert_eq!(e.neg_overlay(), &[f]);
        assert_eq!(e.len(), 9);
        assert!(!dbs.contains(smaller, f));
        assert!(dbs.contains(base, f), "base is untouched");
        let ids: Vec<FactId> = dbs.iter_fact_ids(smaller).collect();
        assert_eq!(ids.len(), 9);
        assert!(!ids.contains(&f));
    }

    #[test]
    fn shrink_of_overlay_fact_cancels_the_overlay() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1])]);
        let f = dbs.intern_fact(fact(0, &[2]));
        let bigger = dbs.extend(base, &[f]);
        // Removing the overlay fact restores the original set — and must
        // canonicalize back to the original id.
        assert_eq!(dbs.shrink(bigger, &[f]), base);
    }

    #[test]
    fn extend_revives_masked_facts() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts((0..10).map(|i| fact(0, &[i])));
        let f = dbs.intern_fact(fact(0, &[3]));
        let smaller = dbs.shrink(base, &[f]);
        // Re-adding the masked fact restores the original set and id.
        assert_eq!(dbs.extend(smaller, &[f]), base);
    }

    #[test]
    fn apply_removals_first_so_adds_win() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts((0..5).map(|i| fact(0, &[i])));
        let f = dbs.intern_fact(fact(0, &[2]));
        let g = dbs.intern_fact(fact(0, &[99]));
        let db = dbs.apply(base, &[f, g], &[f]);
        assert!(dbs.contains(db, f), "a fact in both lists stays present");
        assert!(dbs.contains(db, g));
        assert_eq!(dbs.entry(db).len(), 6);
    }

    #[test]
    fn shrink_canonicalizes_across_removal_orders() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts((0..10).map(|i| fact(0, &[i])));
        let f = dbs.intern_fact(fact(0, &[3]));
        let g = dbs.intern_fact(fact(0, &[7]));
        let just_f = dbs.shrink(base, &[f]);
        let fg = dbs.shrink(just_f, &[g]);
        let just_g = dbs.shrink(base, &[g]);
        let gf = dbs.shrink(just_g, &[f]);
        assert_eq!(fg, gf, "order of removals is immaterial");
        assert_eq!(dbs.shrink(base, &[f, g]), fg, "batch removal unifies");
    }

    #[test]
    fn shrink_chain_flattens_at_threshold() {
        let n = 2 * FLATTEN_THRESHOLD as u32;
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts((0..n).map(|i| fact(0, &[i])));
        let mut db = base;
        for i in 0..FLATTEN_THRESHOLD as u32 {
            let f = dbs.intern_fact(fact(0, &[i]));
            db = dbs.shrink(db, &[f]);
        }
        let e = dbs.entry(db);
        assert!(e.is_flat(), "mask crossing the threshold must flatten");
        assert_eq!(e.len(), FLATTEN_THRESHOLD);
        assert!(!e.has_neg_overlay(), "flat nodes mask nothing");
    }

    #[test]
    fn extend_dedups_repeated_additions() {
        let mut dbs = DbStore::new();
        let base = dbs.intern_facts([fact(0, &[1])]);
        let f = dbs.intern_fact(fact(0, &[2]));
        let db = dbs.extend(base, &[f, f, f]);
        assert_eq!(dbs.entry(db).len(), 2);
        assert_eq!(dbs.entry(db).delta(), &[f]);
    }
}
