//! String interning for constants and predicate names.
//!
//! The paper's language is function-free: every term is either a variable or
//! a constant symbol, and every atom is a predicate symbol applied to terms.
//! Both kinds of names are interned into dense `u32` ids so that the engines
//! can compare, hash, and index them without touching string data.
//!
//! A session publishes a snapshot per write window and every query
//! worker extends the snapshot's table privately, so the table is a
//! persistent value: a clone shares every name interned so far and
//! appends its own (see [`SymbolTable`]).

use crate::hasher::FxHasher;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// An interned name (constant symbol or predicate symbol).
///
/// Symbols are only meaningful relative to the [`SymbolTable`] that created
/// them; the table hands out dense ids starting at 0, which the database
/// layer exploits for `Vec`-backed per-predicate indices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The dense index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// Names per chunk. A full chunk is frozen behind an `Arc` and shared by
/// every later clone; it is never copied again.
const CHUNK: usize = 64;

/// The id stored in an empty index slot. No symbol gets it (see
/// [`SymbolTable::intern`]).
const EMPTY: u32 = u32::MAX;

/// The 32-bit hash of a name that the index levels and the tail compare
/// before they compare bytes.
fn name_hash(name: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    (h.finish() >> 32) as u32
}

/// A run of names stored back to back: name `i` is
/// `bytes[ends[i - 1]..ends[i]]`.
#[derive(Clone, Default)]
struct Names {
    bytes: String,
    ends: Vec<u32>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    fn push(&mut self, name: &str) {
        self.bytes.push_str(name);
        self.ends
            .push(u32::try_from(self.bytes.len()).expect("symbol chunk overflow"));
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// An immutable hash index over a run of frozen chunks.
///
/// Levels hold `2^k` chunks each and are merged like a binary counter:
/// freezing a chunk adds a one-chunk level, and two levels of the same
/// size merge into one. A merge rebuilds the index slots; the chunks
/// themselves are shared, so no name's bytes move.
struct Level {
    /// Index of the level's first chunk; its first symbol is
    /// `first_chunk * CHUNK`.
    first_chunk: usize,
    chunks: Vec<Arc<Names>>,
    /// Open-addressed `(hash, id)` slots with linear probing, at most
    /// half full; an id of [`EMPTY`] marks a free slot.
    slots: Box<[(u32, u32)]>,
}

impl Level {
    /// Indexes `chunks` from their `(hash, id)` entries.
    fn build(
        first_chunk: usize,
        chunks: Vec<Arc<Names>>,
        entries: impl Iterator<Item = (u32, u32)>,
    ) -> Level {
        let cap = (chunks.len() * CHUNK * 2).next_power_of_two();
        let mut slots = vec![(0, EMPTY); cap].into_boxed_slice();
        let mask = cap - 1;
        for (h, id) in entries {
            let mut i = h as usize & mask;
            while slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = (h, id);
        }
        Level {
            first_chunk,
            chunks,
            slots,
        }
    }

    /// One level over the chunks of `self` followed by those of `next`.
    fn merge(&self, next: &Level) -> Level {
        let chunks = self.chunks.iter().chain(&next.chunks).cloned().collect();
        let entries = self.slots.iter().chain(next.slots.iter());
        let entries = entries.copied().filter(|&(_, id)| id != EMPTY);
        Level::build(self.first_chunk, chunks, entries)
    }

    /// Whether chunk `c` belongs to this level.
    fn holds_chunk(&self, c: usize) -> bool {
        (self.first_chunk..self.first_chunk + self.chunks.len()).contains(&c)
    }

    fn name(&self, id: usize) -> &str {
        let rel = id - self.first_chunk * CHUNK;
        self.chunks[rel / CHUNK].get(rel % CHUNK)
    }

    fn lookup(&self, name: &str, h: u32) -> Option<Symbol> {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let (sh, id) = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if sh == h && self.name(id as usize) == name {
                return Some(Symbol(id));
            }
            i = (i + 1) & mask;
        }
    }
}

/// The names interned after the last frozen chunk, with their hashes.
#[derive(Clone, Default)]
struct Tail {
    names: Names,
    hashes: Vec<u32>,
}

/// An append-only intern table mapping names to [`Symbol`]s and back.
///
/// The table is a persistent value. Names live in chunks of `CHUNK`
/// (64); a full chunk is frozen behind an `Arc`, and the name → symbol
/// index is a few immutable levels over those chunks. A clone shares the
/// levels and the unfrozen tail, so it costs no allocation and copies no
/// name; each copy then interns privately. The first intern into a
/// shared tail copies that tail (fewer than 64 names), and a freeze may
/// rebuild a level's index slots, but every name's bytes stay in the one
/// chunk that first held them. Ids are positional in interning order,
/// exactly as in a table that is never cloned.
///
/// ```
/// use hdl_base::SymbolTable;
/// let mut t = SymbolTable::new();
/// let a = t.intern("edge");
/// assert_eq!(t.intern("edge"), a);
/// assert_eq!(t.name(a), "edge");
/// ```
#[derive(Default, Clone)]
pub struct SymbolTable {
    /// The frozen chunks with their indexes, oldest first. Chunk counts
    /// are distinct powers of two, largest first.
    levels: Arc<Vec<Arc<Level>>>,
    /// Fewer than `CHUNK` names after the frozen ones.
    tail: Arc<Tail>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (existing or freshly allocated).
    pub fn intern(&mut self, name: &str) -> Symbol {
        let h = name_hash(name);
        if let Some(sym) = self.find(name, h) {
            return sym;
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("symbol table overflow");
        let tail = Arc::make_mut(&mut self.tail);
        tail.names.push(name);
        tail.hashes.push(h);
        if tail.names.len() == CHUNK {
            self.freeze_tail();
        }
        Symbol(id)
    }

    /// Moves the full tail into a frozen chunk with a one-chunk level,
    /// then merges levels of equal size.
    fn freeze_tail(&mut self) {
        let first_chunk = self.frozen_len() / CHUNK;
        let Tail { mut names, hashes } = std::mem::take(Arc::make_mut(&mut self.tail));
        names.bytes.shrink_to_fit();
        let base = (first_chunk * CHUNK) as u32;
        let entries = hashes.iter().zip(base..).map(|(&h, id)| (h, id));
        let mut level = Level::build(first_chunk, vec![Arc::new(names)], entries);
        let levels = Arc::make_mut(&mut self.levels);
        while let Some(older) = levels.pop_if(|l| l.chunks.len() == level.chunks.len()) {
            level = older.merge(&level);
        }
        levels.push(Arc::new(level));
    }

    /// The symbol of `name` (whose hash is `h`), if interned.
    fn find(&self, name: &str, h: u32) -> Option<Symbol> {
        if let Some(sym) = self.levels.iter().find_map(|l| l.lookup(name, h)) {
            return Some(sym);
        }
        let tail = &self.tail;
        let base = self.frozen_len();
        (0..tail.hashes.len())
            .find(|&i| tail.hashes[i] == h && tail.names.get(i) == name)
            .map(|i| Symbol((base + i) as u32))
    }

    /// Number of symbols in frozen chunks.
    fn frozen_len(&self) -> usize {
        self.levels
            .last()
            .map_or(0, |l| (l.first_chunk + l.chunks.len()) * CHUNK)
    }

    /// Looks up a previously interned name without allocating.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.find(name, name_hash(name))
    }

    /// Returns the name of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not created by this table.
    pub fn name(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let frozen = self.frozen_len();
        if i >= frozen {
            return self.tail.names.get(i - frozen);
        }
        let level = self.levels.iter().find(|l| l.holds_chunk(i / CHUNK));
        level.expect("frozen symbol has a level").name(i)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.frozen_len() + self.tail.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.iter_from(0)
    }

    /// Iterates over the `(symbol, name)` pairs from id `from` on, in
    /// interning order. Reaching the first pair costs O(log n), not
    /// O(from), so a log can ship just the names interned since its last
    /// record.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = (Symbol, &str)> {
        let from = from.min(self.len());
        let chunk = from / CHUNK;
        let frozen = self.levels.iter().flat_map(move |l| {
            let skip = chunk.saturating_sub(l.first_chunk).min(l.chunks.len());
            l.chunks[skip..].iter().map(|c| &**c)
        });
        // The frozen length is a multiple of `CHUNK` and the tail is
        // shorter than one, so the first name yielded has id
        // `chunk * CHUNK` whether `from` is frozen or in the tail.
        frozen
            .chain(std::iter::once(&self.tail.names))
            .flat_map(Names::iter)
            .zip(chunk * CHUNK..)
            .skip(from % CHUNK)
            .map(|(n, i)| (Symbol(i as u32), n))
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(s, n)| (s.0, n)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a1 = t.intern("alpha");
        let a2 = t.intern("alpha");
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.name(b), "b");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.lookup("ghost").is_none());
        let g = t.intern("ghost");
        assert_eq!(t.lookup("ghost"), Some(g));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut t = SymbolTable::new();
        let syms: Vec<Symbol> = (0..10).map(|i| t.intern(&format!("s{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let collected: Vec<_> = t.iter().map(|(s, _)| s).collect();
        assert_eq!(collected, syms);
    }
    #[test]
    fn names_and_ids_survive_freezes_and_merges() {
        let mut t = SymbolTable::new();
        let n = CHUNK * 11 + 5;
        for i in 0..n {
            assert_eq!(t.intern(&format!("n{i}")).index(), i);
        }
        assert_eq!(t.len(), n);
        // 11 frozen chunks: levels of 8, 2 and 1 chunks.
        let sizes: Vec<usize> = t.levels.iter().map(|l| l.chunks.len()).collect();
        assert_eq!(sizes, vec![8, 2, 1]);
        for i in 0..n {
            let name = format!("n{i}");
            assert_eq!(t.lookup(&name), Some(Symbol(i as u32)));
            assert_eq!(t.name(Symbol(i as u32)), name);
            assert_eq!(t.intern(&name), Symbol(i as u32));
        }
        assert_eq!(t.lookup("absent"), None);
        let names: Vec<String> = t.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, (0..n).map(|i| format!("n{i}")).collect::<Vec<_>>());
        assert!(t.iter().map(|(s, _)| s.index()).eq(0..n));
        for from in [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            9 * CHUNK + 7,
            11 * CHUNK,
            n - 1,
            n,
            n + 3,
            n + CHUNK - 3,
        ] {
            let tail: Vec<(Symbol, &str)> = t.iter().skip(from).collect();
            assert!(t.iter_from(from).eq(tail), "iter_from({from})");
        }
    }

    #[test]
    fn clones_share_their_prefix_and_intern_privately() {
        let mut base = SymbolTable::new();
        for i in 0..CHUNK + 3 {
            base.intern(&format!("b{i}"));
        }
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(Arc::ptr_eq(&a.levels, &base.levels));
        assert!(Arc::ptr_eq(&a.tail, &base.tail));
        let x = a.intern("only-a");
        let y = b.intern("only-b");
        assert_eq!(x, y, "both clones hand out the next id");
        assert_eq!(a.name(x), "only-a");
        assert_eq!(b.name(y), "only-b");
        assert_eq!(a.lookup("only-b"), None);
        assert_eq!(b.lookup("only-a"), None);
        assert_eq!(base.len(), CHUNK + 3);
        assert_eq!(base.lookup("only-a"), None);
        // Interning past a freeze leaves the other copies untouched.
        for i in 0..2 * CHUNK {
            a.intern(&format!("a{i}"));
        }
        assert_eq!(base.len(), CHUNK + 3);
        assert_eq!(b.len(), CHUNK + 4);
        assert_eq!(a.name(Symbol(CHUNK as u32 + 2)), format!("b{}", CHUNK + 2));
        assert!(Arc::ptr_eq(
            &a.levels[0].chunks[0],
            &base.levels[0].chunks[0]
        ));
    }
}
