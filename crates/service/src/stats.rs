//! Service-level counters, surfaced through `:stats` and batch summaries.

use hdl_base::Json;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock-free counter cell shared by the workers. Snapshot it with
/// [`StatsCell::snapshot`]; cache hit/miss counts live in the cache and
/// are merged in by the service.
#[derive(Debug)]
pub(crate) struct StatsCell {
    pub queries: AtomicU64,
    pub cancelled: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub errors: AtomicU64,
    pub snapshots_published: AtomicU64,
    pub panics_recovered: AtomicU64,
    pub retries: AtomicU64,
    pub shed: AtomicU64,
    pub memory_trips: AtomicU64,
    pub workers_respawned: AtomicU64,
    /// Per-worker time spent evaluating (not idling on the queue).
    pub busy_nanos: Vec<AtomicU64>,
}

impl StatsCell {
    pub fn new(workers: usize) -> Self {
        StatsCell {
            queries: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            panics_recovered: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            memory_trips: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn add_busy(&self, worker: usize, spent: Duration) {
        self.busy_nanos[worker].fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            queries_served: self.queries.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            memory_trips: self.memory_trips.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            worker_busy: self
                .busy_nanos
                .iter()
                .map(|n| Duration::from_nanos(n.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A point-in-time view of the service counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered (including cache hits and budget trips).
    pub queries_served: u64,
    /// Answers served straight from the shared cache.
    pub cache_hits: u64,
    /// Queries that had to be evaluated.
    pub cache_misses: u64,
    /// Definitive answers currently cached for the live snapshot.
    pub cache_entries: u64,
    /// Queries ended by an explicit [`cancel`](crate::Ticket::cancel).
    pub cancelled: u64,
    /// Queries ended by their wall-clock deadline.
    pub deadline_exceeded: u64,
    /// Queries that failed (parse, stratification, limits…).
    pub errors: u64,
    /// Snapshots published over the service's lifetime.
    pub snapshots_published: u64,
    /// Query panics caught and isolated (the job resolved to a
    /// structured outcome; the worker kept serving).
    pub panics_recovered: u64,
    /// Transient failures retried with backoff.
    pub retries: u64,
    /// Submissions rejected by the bounded queue ([`Outcome::Overloaded`]).
    ///
    /// [`Outcome::Overloaded`]: crate::Outcome::Overloaded
    pub shed: u64,
    /// Queries ended by a memory budget ([`Outcome::MemoryExceeded`]).
    ///
    /// [`Outcome::MemoryExceeded`]: crate::Outcome::MemoryExceeded
    pub memory_trips: u64,
    /// Worker loops restarted after a panic escaped job isolation.
    pub workers_respawned: u64,
    /// Per-worker time spent evaluating queries.
    pub worker_busy: Vec<Duration>,
}

impl ServiceStats {
    /// JSON object of every counter — the machine-readable form behind
    /// `:stats --json` and the network protocol's `stats` op. Keys are
    /// stable; scrapers may rely on them. `worker_busy_ms` keeps
    /// microsecond resolution.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::num(v as f64);
        let busy_ms = |d: &Duration| Json::num((d.as_secs_f64() * 1e6).round() / 1e3);
        Json::obj(vec![
            ("queries_served", n(self.queries_served)),
            ("cache_hits", n(self.cache_hits)),
            ("cache_misses", n(self.cache_misses)),
            ("cache_entries", n(self.cache_entries)),
            ("cancelled", n(self.cancelled)),
            ("deadline_exceeded", n(self.deadline_exceeded)),
            ("errors", n(self.errors)),
            ("snapshots_published", n(self.snapshots_published)),
            ("panics_recovered", n(self.panics_recovered)),
            ("retries", n(self.retries)),
            ("shed", n(self.shed)),
            ("memory_trips", n(self.memory_trips)),
            ("workers_respawned", n(self.workers_respawned)),
            (
                "worker_busy_ms",
                Json::Arr(self.worker_busy.iter().map(busy_ms).collect()),
            ),
        ])
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries served      {} ({} cache hits, {} misses)",
            self.queries_served, self.cache_hits, self.cache_misses
        )?;
        writeln!(f, "cache entries       {}", self.cache_entries)?;
        writeln!(
            f,
            "budget trips        {} cancelled, {} deadline-exceeded",
            self.cancelled, self.deadline_exceeded
        )?;
        writeln!(
            f,
            "memory trips        {} (shed {})",
            self.memory_trips, self.shed
        )?;
        writeln!(f, "errors              {}", self.errors)?;
        writeln!(
            f,
            "panics recovered    {} ({} retries, {} workers respawned)",
            self.panics_recovered, self.retries, self.workers_respawned
        )?;
        writeln!(f, "snapshots published {}", self.snapshots_published)?;
        write!(f, "worker busy        ")?;
        for (i, d) in self.worker_busy.iter().enumerate() {
            write!(f, " #{i}:{:.1?}", d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let cell = StatsCell::new(2);
        cell.queries.fetch_add(3, Ordering::Relaxed);
        cell.add_busy(1, Duration::from_millis(5));
        let s = cell.snapshot();
        assert_eq!(s.queries_served, 3);
        assert_eq!(s.worker_busy.len(), 2);
        assert_eq!(s.worker_busy[1], Duration::from_millis(5));
        assert!(s.to_string().contains("queries served      3"));
    }
}
