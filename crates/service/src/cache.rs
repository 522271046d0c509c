//! The shared cross-query answer cache.
//!
//! Keys combine the snapshot **epoch**, the engine, and a *canonical*
//! rendering of the goal
//! (pretty-printing normalizes whitespace and alpha-renames variables,
//! so `?- tc(X,Y).` and `?-  tc(A, B) .` share an entry). Because every
//! published snapshot carries a globally unique epoch, a publish
//! invalidates the whole cache by construction — old keys can never
//! collide with new ones — and [`AnswerCache::retain_epoch`] merely
//! reclaims the memory eagerly. An answer of an older snapshot that a
//! worker finishes after the publish is not stored: no one can reach it.
//!
//! Only definitive outcomes ([`Outcome::is_definitive`]) are stored:
//! `Cancelled` / `DeadlineExceeded` / `Error` depend on the budget, not
//! the program, and must never be replayed to a later caller.
//!
//! The cache holds at most [`CAPACITY`] answers. A snapshot that serves
//! more distinct queries than that starts over with an empty cache, so
//! its memory stays bounded however long the snapshot lives and however
//! fast queries arrive.

use crate::outcome::Outcome;
use hdl_base::FxHashMap;
use hdl_core::session::EngineKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What makes two queries "the same query" for reuse purposes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Epoch of the snapshot the query was submitted against.
    pub epoch: u64,
    /// Engine that computed (or would compute) the answer.
    pub engine: EngineKind,
    /// Canonical goal text, prefixed with the request kind
    /// (`ask`/`rows`).
    pub goal: String,
}

/// Answers the cache holds before it starts over.
pub const CAPACITY: usize = 1 << 14;

/// A concurrency-safe map from canonical queries to definitive outcomes.
#[derive(Debug, Default)]
pub struct AnswerCache {
    map: Mutex<FxHashMap<CacheKey, Outcome>>,
    /// Epoch of the latest publish; written and read under the map lock.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnswerCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the map, recovering from poisoning: every critical section
    /// below is a single atomic map operation, so a panic inside one
    /// (only possible via an injected fault) can never leave a
    /// half-written entry — the poisoned guard's data is consistent and
    /// safe to keep using.
    fn map(&self) -> MutexGuard<'_, FxHashMap<CacheKey, Outcome>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a key, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Outcome> {
        hdl_base::failpoint_fire!("cache::get");
        let found = self.map().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a definitive outcome; non-definitive outcomes are refused
    /// (budget trips must re-evaluate). A new key that would take the
    /// cache past [`CAPACITY`] empties it first.
    pub fn put(&self, key: CacheKey, outcome: Outcome) {
        hdl_base::failpoint_fire!("cache::put");
        if outcome.is_definitive() {
            let mut map = self.map();
            if key.epoch < self.epoch.load(Ordering::Relaxed) {
                return;
            }
            if map.len() >= CAPACITY && !map.contains_key(&key) {
                map.clear();
            }
            map.insert(key, outcome);
        }
    }

    /// Drops every entry not belonging to `epoch` — called on publish so
    /// superseded snapshots' answers free their memory immediately.
    pub fn retain_epoch(&self, epoch: u64) {
        hdl_base::failpoint_fire!("cache::purge");
        let mut map = self.map();
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
        map.retain(|k, _| k.epoch == epoch);
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits and misses since construction.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, goal: &str) -> CacheKey {
        CacheKey {
            epoch,
            engine: EngineKind::TopDown,
            goal: goal.to_owned(),
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = AnswerCache::new();
        assert_eq!(cache.get(&key(1, "ask p")), None);
        cache.put(key(1, "ask p"), Outcome::True);
        assert_eq!(cache.get(&key(1, "ask p")), Some(Outcome::True));
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn non_definitive_outcomes_are_refused() {
        let cache = AnswerCache::new();
        cache.put(key(1, "ask p"), Outcome::DeadlineExceeded);
        cache.put(key(1, "ask q"), Outcome::Cancelled);
        cache.put(key(1, "ask r"), Outcome::Error("nope".into()));
        assert!(cache.is_empty());
    }

    #[test]
    fn a_full_cache_starts_over() {
        let cache = AnswerCache::new();
        for i in 0..CAPACITY {
            cache.put(key(1, &format!("ask p{i}")), Outcome::True);
        }
        assert_eq!(cache.len(), CAPACITY);
        // Re-storing a present key keeps everything.
        cache.put(key(1, "ask p0"), Outcome::True);
        assert_eq!(cache.len(), CAPACITY);
        cache.put(key(1, "ask q"), Outcome::False);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, "ask q")), Some(Outcome::False));
        assert_eq!(cache.get(&key(1, "ask p0")), None);
    }

    #[test]
    fn epochs_partition_the_keyspace() {
        let cache = AnswerCache::new();
        cache.put(key(1, "ask p"), Outcome::True);
        // Same goal, later epoch: distinct entry, no cross-snapshot leak.
        assert_eq!(cache.get(&key(2, "ask p")), None);
        cache.put(key(2, "ask p"), Outcome::False);
        assert_eq!(cache.get(&key(1, "ask p")), Some(Outcome::True));
        cache.retain_epoch(2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(2, "ask p")), Some(Outcome::False));
        // An epoch-1 answer finished after the publish stays out.
        cache.put(key(1, "ask q"), Outcome::True);
        assert_eq!(cache.len(), 1);
    }
}
