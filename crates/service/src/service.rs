//! The concurrent query executor: worker pool, tickets, publishing,
//! panic isolation, retries, and load shedding.

use crate::cache::{AnswerCache, CacheKey};
use crate::outcome::Outcome;
use crate::stats::{ServiceStats, StatsCell};
use hdl_base::SymbolTable;
use hdl_core::engine::{
    model_answers, model_holds, render_rows, Budget, CancelToken, Engine, EngineKind, MemoryLimits,
};
use hdl_core::parser::parse_query;
use hdl_core::snapshot::Snapshot;
use hdl_core::stack::DEEP_STACK_BYTES;
use hdl_core::{pretty, Premise};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
///
/// Sound here because every critical section in this module keeps the
/// protected data consistent at each possible panic point: queue pushes
/// and pops are single `VecDeque` calls, the snapshot slot is a single
/// pointer swap, and cache inserts are single map operations — so a
/// poisoned lock never guards a torn invariant.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a query asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// A yes/no query (`?- premise.`); the `?-`/`.` dressing is
    /// optional.
    Ask(String),
    /// All tuples matching a plain atom pattern, e.g. `tc(X, Y)`.
    Answers(String),
}

/// One query to run against the service's current snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// The goal.
    pub kind: RequestKind,
    /// Engine to evaluate with.
    pub engine: EngineKind,
    /// Optional wall-clock budget; past it the query resolves to
    /// [`Outcome::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Optional per-query fact budget overriding the service default;
    /// past it the query resolves to [`Outcome::MemoryExceeded`].
    pub max_facts: Option<u64>,
}

impl QueryRequest {
    /// A yes/no query with the session-default engine and no deadline.
    pub fn ask(query: impl Into<String>) -> Self {
        QueryRequest {
            kind: RequestKind::Ask(query.into()),
            engine: EngineKind::default(),
            deadline: None,
            max_facts: None,
        }
    }

    /// An all-answers query for an atom pattern.
    pub fn answers(pattern: impl Into<String>) -> Self {
        QueryRequest {
            kind: RequestKind::Answers(pattern.into()),
            engine: EngineKind::default(),
            deadline: None,
            max_facts: None,
        }
    }

    /// Selects the evaluation engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Caps the number of new facts this query may intern.
    pub fn with_max_facts(mut self, n: u64) -> Self {
        self.max_facts = Some(n);
        self
    }
}

/// Pool-wide configuration: worker count, queue bound, retry budget,
/// and default memory limits applied to every query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads (at least one is always started).
    pub workers: usize,
    /// Queue bound: submissions past this many waiting jobs resolve to
    /// [`Outcome::Overloaded`] instead of growing the queue without
    /// bound. `None` = unbounded.
    pub queue_cap: Option<usize>,
    /// How many times a job is retried after a caught panic before it
    /// resolves to [`Outcome::Error`] with the panic payload.
    pub retries: u32,
    /// Default cap on facts a query may intern
    /// ([`QueryRequest::max_facts`] overrides per query).
    pub max_facts: Option<u64>,
    /// Default cap on memoized goals / derived tuples per query.
    pub max_goal_set: Option<u64>,
    /// Default cap on the overlay depth of databases a query reaches.
    pub max_overlay_depth: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            queue_cap: None,
            retries: 2,
            max_facts: None,
            max_goal_set: None,
            max_overlay_depth: None,
        }
    }
}

/// A handle on one submitted query: await the outcome, or cancel it.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Outcome>,
    token: CancelToken,
}

impl Ticket {
    /// Requests cooperative cancellation; the query resolves to
    /// [`Outcome::Cancelled`] at the engine's next budget probe.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// A clone of the cancellation token (e.g. to hand to a timeout
    /// thread).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Blocks until the query resolves.
    pub fn wait(self) -> Outcome {
        self.rx
            .recv()
            .unwrap_or_else(|_| Outcome::Error("query service shut down".into()))
    }
}

/// A unit of work: the request plus the snapshot it was submitted
/// against (publishing later snapshots never retargets queued work).
struct Job {
    request: QueryRequest,
    snapshot: Arc<Snapshot>,
    token: CancelToken,
    reply: mpsc::Sender<Outcome>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    snapshot: Mutex<Arc<Snapshot>>,
    cache: AnswerCache,
    stats: StatsCell,
    config: ServiceConfig,
}

impl Shared {
    /// Blocks until a job is available (returning it) or shutdown is
    /// signalled with the queue drained (returning `None`).
    fn wait_pop(&self) -> Option<Job> {
        let mut q = lock_recover(&self.queue);
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.shutdown {
                return None;
            }
            q = self
                .available
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// An in-process concurrent query executor over shared immutable
/// [`Snapshot`]s.
///
/// A fixed pool of worker threads (each with an evaluation-sized stack)
/// drains a submission queue. Workers reuse engines — and therefore
/// memo tables and the interned database lattice — for as long as they
/// keep serving the same snapshot, and all workers share one
/// [`AnswerCache`] so identical queries are answered once per snapshot.
///
/// Faults are contained: each job runs under `catch_unwind`, a panic
/// resolves the job to a structured [`Outcome`] (after bounded retries)
/// and rebuilds the worker's engines, shared locks recover from
/// poisoning, and a bounded queue sheds load with
/// [`Outcome::Overloaded`] instead of growing without bound.
///
/// ```
/// use hdl_core::snapshot::Snapshot;
/// use hdl_service::{Outcome, QueryRequest, QueryService};
///
/// let snap = Snapshot::from_program("edge(a, b). tc(X, Y) :- edge(X, Y).").unwrap();
/// let service = QueryService::new(snap, 2);
/// let t = service.submit(QueryRequest::ask("tc(a, b)"));
/// assert_eq!(t.wait(), Outcome::True);
/// ```
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Starts a pool of `workers` threads (at least one) serving
    /// `snapshot`, with default fault-tolerance settings.
    pub fn new(snapshot: Arc<Snapshot>, workers: usize) -> Self {
        Self::with_config(
            snapshot,
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    /// Starts a pool with explicit [`ServiceConfig`].
    pub fn with_config(snapshot: Arc<Snapshot>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            snapshot: Mutex::new(snapshot),
            cache: AnswerCache::new(),
            stats: StatsCell::new(workers),
            config,
        });
        let handles = (0..workers)
            .map(|widx| spawn_worker(&shared, widx))
            .collect();
        QueryService {
            shared,
            workers: handles,
        }
    }

    /// The pool configuration in effect.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a query against the *current* snapshot and returns a
    /// ticket for its outcome.
    ///
    /// If the queue is at its configured capacity the submission is shed:
    /// the ticket resolves immediately to [`Outcome::Overloaded`] and the
    /// query never runs.
    pub fn submit(&self, request: QueryRequest) -> Ticket {
        let snapshot = Arc::clone(&lock_recover(&self.shared.snapshot));
        let token = CancelToken::new();
        let (tx, rx) = mpsc::channel();
        {
            // Capacity is checked under the queue lock so concurrent
            // submitters cannot race past the bound together.
            let mut q = lock_recover(&self.shared.queue);
            if self
                .shared
                .config
                .queue_cap
                .is_some_and(|cap| q.jobs.len() >= cap)
            {
                drop(q);
                // Shed submissions go through the same counter merge as
                // every other outcome, so `queries_served` stays the sum
                // of all resolved tickets (it used to count only `shed`,
                // leaving the totals inconsistent).
                count_outcome(&self.shared, &Outcome::Overloaded);
                let _ = tx.send(Outcome::Overloaded);
                return Ticket { rx, token };
            }
            q.jobs.push_back(Job {
                request,
                snapshot,
                token: token.clone(),
                reply: tx,
            });
        }
        self.shared.available.notify_one();
        Ticket { rx, token }
    }

    /// Submits every request and waits for all outcomes, preserving
    /// input order (execution itself is concurrent and unordered).
    pub fn run_batch(&self, requests: Vec<QueryRequest>) -> Vec<Outcome> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Publishes a new snapshot. Queries already submitted keep the
    /// snapshot they were tagged with; the answer cache drops entries
    /// for superseded epochs (keys embed the epoch, so this is memory
    /// reclamation, not correctness — stale reuse is impossible either
    /// way).
    ///
    /// Publishing degrades gracefully: a panic during the swap or purge
    /// (injected or otherwise) is caught and retried with backoff; if
    /// retries are exhausted the snapshot is still swapped in and only
    /// the eager purge is skipped — superseded entries then cost memory
    /// until the next successful publish, never correctness.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        use std::sync::atomic::Ordering::Relaxed;
        let epoch = snapshot.epoch();
        let mut backoff = Duration::from_millis(1);
        for _attempt in 0..3 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                hdl_base::failpoint_fire!("service::publish");
                *lock_recover(&self.shared.snapshot) = Arc::clone(&snapshot);
                self.shared.cache.retain_epoch(epoch);
            }));
            match result {
                Ok(()) => {
                    self.shared.stats.snapshots_published.fetch_add(1, Relaxed);
                    return;
                }
                Err(_) => {
                    self.shared.stats.panics_recovered.fetch_add(1, Relaxed);
                    self.shared.stats.retries.fetch_add(1, Relaxed);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(20));
                }
            }
        }
        // Last resort: swap without the eager purge (stale entries are
        // unreachable by construction — their keys carry old epochs).
        *lock_recover(&self.shared.snapshot) = snapshot;
        self.shared.stats.snapshots_published.fetch_add(1, Relaxed);
    }

    /// The snapshot new submissions will run against.
    pub fn current_snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&lock_recover(&self.shared.snapshot))
    }

    /// A point-in-time view of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.shared.stats.snapshot();
        let (hits, misses) = self.shared.cache.counters();
        s.cache_hits = hits;
        s.cache_misses = misses;
        s.cache_entries = self.shared.cache.len() as u64;
        s
    }

    /// Drains the queue, stops the workers, and joins them.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        {
            let mut q = lock_recover(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// The engines a worker keeps alive for the snapshot it is currently
/// serving, one slot per [`EngineKind`] (indexed by `kind as usize`).
/// Each is built lazily, so a pure top-down workload never pays for a
/// bottom-up model (and vice versa).
type EngineSlots<'rb> = [Option<Engine<'rb>>; 3];

/// Spawns one worker thread. The thread supervises its own loop: a
/// panic that escapes per-job isolation (e.g. an injected fault at
/// `service::worker_start`) restarts the loop with fresh engines after
/// a short backoff, so the pool never silently shrinks.
fn spawn_worker(shared: &Arc<Shared>, widx: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("hdl-worker-{widx}"))
        .stack_size(DEEP_STACK_BYTES)
        .spawn(move || {
            use std::sync::atomic::Ordering::Relaxed;
            let mut backoff = Duration::from_millis(1);
            loop {
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    hdl_base::failpoint_fire!("service::worker_start");
                    worker_loop(&shared, widx);
                }));
                match ran {
                    // Clean exit: shutdown drained the queue.
                    Ok(()) => return,
                    Err(_) => {
                        shared.stats.workers_respawned.fetch_add(1, Relaxed);
                        if lock_recover(&shared.queue).shutdown {
                            return;
                        }
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(50));
                    }
                }
            }
        })
        .expect("spawn service worker")
}

fn worker_loop(shared: &Shared, widx: usize) {
    // A job whose snapshot differs from the one the current engines
    // serve; carried across the engine-rebuild boundary below.
    let mut pending: Option<Job> = None;
    loop {
        let Some(first) = pending.take().or_else(|| shared.wait_pop()) else {
            return;
        };
        // Pin this scope to the job's snapshot. Workers intern
        // query-only constants into a private extension of the frozen
        // symbol table (a clone that shares its names); the engines
        // borrow the snapshot's rulebase, so they are declared after
        // `snap` (dropped before it).
        let snap = Arc::clone(&first.snapshot);
        let mut symbols = snap.symbols().clone();
        let mut engines = EngineSlots::default();
        let mut job = Some(first);
        while let Some(j) = job.take() {
            if !Arc::ptr_eq(&j.snapshot, &snap) && j.snapshot.epoch() != snap.epoch() {
                pending = Some(j);
                break;
            }
            let started = Instant::now();
            let outcome = run_job(shared, &snap, &mut symbols, &mut engines, &j);
            shared.stats.add_busy(widx, started.elapsed());
            count_outcome(shared, &outcome);
            // A dropped ticket is fine — the answer is simply unread.
            let _ = j.reply.send(outcome);
            job = shared.wait_pop();
        }
        if pending.is_none() {
            // Shutdown drained the queue.
            return;
        }
    }
}

/// Renders a caught panic payload (the common `&str`/`String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one job under panic isolation with a bounded retry budget.
///
/// A panic anywhere in parsing or evaluation is caught here; the
/// worker's symbol extension and engines are rebuilt from the snapshot
/// (their memo tables may be mid-mutation), and the job is retried with
/// capped exponential backoff. Exhausted retries resolve the job to
/// [`Outcome::Error`] carrying the panic payload — the caller always
/// gets a structured outcome, never a hang or a crashed pool.
///
/// `AssertUnwindSafe` is sound because everything the closure can leave
/// inconsistent is discarded on the error path (symbols, engines), and
/// the shared state it touches (cache, stats) only uses single-call
/// atomic operations.
fn run_job<'rb>(
    shared: &Shared,
    snap: &'rb Snapshot,
    symbols: &mut SymbolTable,
    engines: &mut EngineSlots<'rb>,
    job: &Job,
) -> Outcome {
    use std::sync::atomic::Ordering::Relaxed;
    let retry_budget = shared.config.retries;
    let mut backoff = Duration::from_millis(1);
    let mut attempt = 0u32;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            process(shared, snap, symbols, engines, job)
        }));
        match result {
            Ok(outcome) => return outcome,
            Err(payload) => {
                shared.stats.panics_recovered.fetch_add(1, Relaxed);
                *symbols = snap.symbols().clone();
                *engines = EngineSlots::default();
                if job.token.is_cancelled() {
                    return Outcome::Cancelled;
                }
                if attempt >= retry_budget {
                    return Outcome::Error(format!(
                        "query panicked: {}",
                        panic_message(payload.as_ref())
                    ));
                }
                attempt += 1;
                shared.stats.retries.fetch_add(1, Relaxed);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(20));
            }
        }
    }
}

fn count_outcome(shared: &Shared, outcome: &Outcome) {
    use std::sync::atomic::Ordering::Relaxed;
    let stats = &shared.stats;
    stats.queries.fetch_add(1, Relaxed);
    match outcome {
        Outcome::Cancelled => stats.cancelled.fetch_add(1, Relaxed),
        Outcome::DeadlineExceeded => stats.deadline_exceeded.fetch_add(1, Relaxed),
        Outcome::MemoryExceeded => stats.memory_trips.fetch_add(1, Relaxed),
        Outcome::Overloaded => stats.shed.fetch_add(1, Relaxed),
        Outcome::Partial { reason, .. } => match reason.as_str() {
            "cancelled" => stats.cancelled.fetch_add(1, Relaxed),
            "deadline-exceeded" => stats.deadline_exceeded.fetch_add(1, Relaxed),
            "memory-exceeded" => stats.memory_trips.fetch_add(1, Relaxed),
            _ => stats.errors.fetch_add(1, Relaxed),
        },
        Outcome::Error(_) => stats.errors.fetch_add(1, Relaxed),
        _ => 0,
    };
}

/// Strips optional `?-` / trailing `.` dressing so batch files and API
/// callers can write goals either way.
fn normalize_goal(text: &str) -> String {
    let mut core = text.trim();
    core = core.strip_prefix("?-").unwrap_or(core).trim();
    core = core.strip_suffix('.').unwrap_or(core).trim_end();
    format!("?- {core}.")
}

/// The memory limits for one job: service-wide defaults, with the
/// per-request fact cap taking precedence.
fn memory_limits_for(config: &ServiceConfig, request: &QueryRequest) -> MemoryLimits {
    MemoryLimits {
        max_facts: request.max_facts.or(config.max_facts),
        max_goal_set: config.max_goal_set,
        max_overlay_depth: config.max_overlay_depth,
    }
}

fn process<'rb>(
    shared: &Shared,
    snap: &'rb Snapshot,
    symbols: &mut SymbolTable,
    engines: &mut EngineSlots<'rb>,
    job: &Job,
) -> Outcome {
    // Parse in the worker's private symbol extension.
    let (tag, text) = match &job.request.kind {
        RequestKind::Ask(text) => ("ask", text),
        RequestKind::Answers(pattern) => ("rows", pattern),
    };
    let query = match parse_query(&normalize_goal(text), symbols) {
        Ok(q) => q,
        Err(e) => return Outcome::Error(e.to_string()),
    };
    // The atom pattern of an answers request; `None` for a yes/no query.
    let pattern = match (&job.request.kind, &query) {
        (RequestKind::Ask(_), _) => None,
        (RequestKind::Answers(_), Premise::Atom(atom)) => Some(atom),
        (RequestKind::Answers(_), _) => {
            return Outcome::Error("answers takes a plain atom pattern".into())
        }
    };

    // A snapshot published with a materialized model answers plain and
    // negated atom queries by membership — no engine, no fixpoint, no
    // cache entry needed. Hypothetical queries still need overlay
    // evaluation and fall through. Query-only constants interned into
    // the worker's private extension can never appear in the model, so
    // membership stays correct for them (it is simply false).
    if let Some(model) = snap.model() {
        if let Some(atom) = pattern {
            return Outcome::Answers(render_rows(&model_answers(model, atom), symbols));
        }
        if let Some(found) = model_holds(model, &query) {
            return Outcome::from_verdict(Ok(found));
        }
    }

    // Build the engine for this (snapshot, kind) pair if missing; a
    // stratification failure is a property of the snapshot, reported
    // per query.
    let kind = job.request.engine;
    let slot = &mut engines[kind as usize];
    if slot.is_none() {
        match Engine::new(kind, snap.rulebase(), snap.database()) {
            Ok(eng) => *slot = Some(eng),
            Err(e) => return Outcome::Error(e.to_string()),
        }
    }
    let eng = slot.as_mut().expect("engine built above");

    // Canonical key: pretty-printing normalizes whitespace and
    // alpha-renames variables, so textual variants of one goal share a
    // cache entry across all workers. Every query starts from the
    // snapshot's base database, so the epoch names it.
    let key = CacheKey {
        epoch: snap.epoch(),
        engine: kind,
        goal: format!("{tag} {}", pretty::premise(&query, symbols)),
    };
    if let Some(cached) = shared.cache.get(&key) {
        return cached;
    }

    let mut budget = Budget::unlimited()
        .with_token(job.token.clone())
        .with_memory_limits(memory_limits_for(&shared.config, &job.request));
    if let Some(d) = job.request.deadline {
        budget = budget.with_deadline(d);
    }
    eng.set_budget(budget);

    let outcome = match pattern {
        None => Outcome::from_verdict(eng.holds(&query)),
        Some(atom) => {
            let (rows, trip) = eng.answers_partial(atom);
            let rows = render_rows(&rows, symbols);
            match trip {
                None => Outcome::Answers(rows),
                // Trip with nothing proven: plain structured trip.
                Some(e) if rows.is_empty() => Outcome::from_error(e),
                // Trip mid-scan: degrade to the sound partial answer set
                // instead of discarding proven tuples.
                Some(e) => Outcome::Partial {
                    rows,
                    reason: Outcome::from_error(e).to_string(),
                },
            }
        }
    };

    // Budget trips and errors are never cached (put refuses them too).
    shared.cache.put(key, outcome.clone());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn university() -> Arc<Snapshot> {
        Snapshot::from_program(
            "take(tony, his101).
             grad(S) :- take(S, his101), take(S, eng201).
             eligible(S) :- grad(S)[add: take(S, eng201)].",
        )
        .unwrap()
    }

    #[test]
    fn normalize_accepts_all_dressings() {
        assert_eq!(normalize_goal("p(a)"), "?- p(a).");
        assert_eq!(normalize_goal("p(a)."), "?- p(a).");
        assert_eq!(normalize_goal("?- p(a)."), "?- p(a).");
        assert_eq!(normalize_goal("  ?-  p(a) . "), "?- p(a).");
    }

    #[test]
    fn ask_and_answers_through_the_pool() {
        let service = QueryService::new(university(), 2);
        let yes = service.submit(QueryRequest::ask("eligible(tony)"));
        let no = service.submit(QueryRequest::ask("grad(tony)"));
        let rows = service.submit(QueryRequest::answers("eligible(S)"));
        assert_eq!(yes.wait(), Outcome::True);
        assert_eq!(no.wait(), Outcome::False);
        assert_eq!(rows.wait(), Outcome::Answers(vec![vec!["tony".into()]]));
        let stats = service.stats();
        assert_eq!(stats.queries_served, 3);
        service.shutdown();
    }

    #[test]
    fn identical_queries_share_the_cache() {
        let service = QueryService::new(university(), 4);
        // Textual variants of one goal: whitespace and variable names
        // differ, the canonical key does not.
        let outcomes = service.run_batch(vec![
            QueryRequest::ask("eligible(tony)"),
            QueryRequest::ask("?-   eligible( tony ) ."),
            QueryRequest::ask("eligible(tony)."),
        ]);
        assert!(outcomes.iter().all(|o| *o == Outcome::True));
        let stats = service.stats();
        assert!(
            stats.cache_hits >= 1,
            "at least one of the repeats must hit: {stats:?}"
        );
        assert_eq!(stats.cache_hits + stats.cache_misses, 3);
    }

    #[test]
    fn batch_preserves_submission_order() {
        let service = QueryService::new(university(), 3);
        let outcomes = service.run_batch(vec![
            QueryRequest::ask("grad(tony)"),
            QueryRequest::ask("eligible(tony)"),
            QueryRequest::ask("no_such_pred(x)"),
        ]);
        assert_eq!(outcomes[0], Outcome::False);
        assert_eq!(outcomes[1], Outcome::True);
        // Unknown predicate is simply not derivable.
        assert_eq!(outcomes[2], Outcome::False);
    }

    #[test]
    fn engines_are_selectable_per_request() {
        let service = QueryService::new(university(), 2);
        let td =
            service.submit(QueryRequest::ask("eligible(tony)").with_engine(EngineKind::TopDown));
        let bu =
            service.submit(QueryRequest::ask("eligible(tony)").with_engine(EngineKind::BottomUp));
        assert_eq!(td.wait(), Outcome::True);
        assert_eq!(bu.wait(), Outcome::True);
        // Different engines never share cache entries.
        assert_eq!(service.stats().cache_hits, 0);
    }

    #[test]
    fn magic_engine_is_selectable_per_request() {
        let service = QueryService::new(university(), 2);
        let yes =
            service.submit(QueryRequest::ask("eligible(tony)").with_engine(EngineKind::Magic));
        let no = service.submit(QueryRequest::ask("grad(tony)").with_engine(EngineKind::Magic));
        let rows =
            service.submit(QueryRequest::answers("eligible(S)").with_engine(EngineKind::Magic));
        assert_eq!(yes.wait(), Outcome::True);
        assert_eq!(no.wait(), Outcome::False);
        assert_eq!(rows.wait(), Outcome::Answers(vec![vec!["tony".into()]]));
        service.shutdown();
    }

    /// Differently-adorned queries of one predicate — different bound
    /// argument positions — must never collide in the answer cache: the
    /// canonical goal text embeds the constants, so the keys differ.
    #[test]
    fn magic_adornments_never_collide_in_the_cache() {
        let service = QueryService::new(
            Snapshot::from_program(
                "edge(a, b). edge(b, c).
                 tc(X, Y) :- edge(X, Y).
                 tc(X, Z) :- tc(X, Y), edge(Y, Z).",
            )
            .unwrap(),
            1,
        );
        // Same predicate, four distinct adornments: bb, bf, fb, ff.
        let outcomes = service.run_batch(
            ["tc(a, c)", "tc(a, X)", "tc(X, c)", "tc(X, Y)"]
                .into_iter()
                .map(|q| QueryRequest::ask(q).with_engine(EngineKind::Magic))
                .collect(),
        );
        assert!(outcomes.iter().all(|o| *o == Outcome::True));
        let stats = service.stats();
        assert_eq!(
            stats.cache_hits, 0,
            "adorned variants must occupy distinct cache entries: {stats:?}"
        );
        assert_eq!(stats.cache_misses, 4);
        // ...while a repeated identical point query is served from cache.
        let again = service.submit(QueryRequest::ask("tc(a, c)").with_engine(EngineKind::Magic));
        assert_eq!(again.wait(), Outcome::True);
        assert_eq!(
            service.stats().cache_hits,
            1,
            "identical point query must hit"
        );
        service.shutdown();
    }

    #[test]
    fn parse_errors_are_structured_not_fatal() {
        let service = QueryService::new(university(), 1);
        let bad = service.submit(QueryRequest::ask("p(((("));
        assert!(matches!(bad.wait(), Outcome::Error(_)));
        // The worker survives and keeps answering.
        let ok = service.submit(QueryRequest::ask("eligible(tony)"));
        assert_eq!(ok.wait(), Outcome::True);
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn publish_switches_new_submissions() {
        let service = QueryService::new(Snapshot::from_program("p :- q.").unwrap(), 2);
        assert_eq!(
            service.submit(QueryRequest::ask("p")).wait(),
            Outcome::False
        );
        service.publish(Snapshot::from_program("p :- q. q.").unwrap());
        assert_eq!(service.submit(QueryRequest::ask("p")).wait(), Outcome::True);
        let stats = service.stats();
        assert_eq!(stats.snapshots_published, 1);
        // The `False` under epoch 1 must not satisfy the epoch-2 query.
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn answers_pattern_must_be_atomic() {
        let service = QueryService::new(university(), 1);
        let t = service.submit(QueryRequest::answers("~grad(X)"));
        assert!(matches!(t.wait(), Outcome::Error(_)));
    }

    #[test]
    fn queue_cap_sheds_new_submissions() {
        // No workers can drain the queue faster than we fill it here:
        // the capacity check happens at submit time under the lock, so a
        // zero-cap config sheds everything deterministically.
        let service = QueryService::with_config(
            university(),
            ServiceConfig {
                workers: 1,
                queue_cap: Some(0),
                ..ServiceConfig::default()
            },
        );
        let t = service.submit(QueryRequest::ask("eligible(tony)"));
        assert_eq!(t.wait(), Outcome::Overloaded);
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        // A shed ticket still resolved, so it counts as served: the
        // outcome counters must always sum into `queries_served`.
        assert_eq!(stats.queries_served, 1);
    }
}
