//! Instrumentation counters shared by the evaluation engines.
//!
//! The counters make the paper's complexity claims *measurable*: experiment
//! E7 checks goal-sequence lengths against the Theorem 3 bound
//! `O(n^{2kᵢk₀})`, and E9 plots how work grows with the number of strata.

use hdl_base::{Json, MatchCounters, OverlayStats};

/// Work counters for one engine run.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Premise-match attempts: every candidate fact tested against a rule
    /// premise (successful or not), plus every domain-enumeration step
    /// while grounding hypothetical premises. Top-down engines count one
    /// per goal expanded. This is the unit [`Limits::max_expansions`]
    /// bounds; see DESIGN.md §3.11 for the accounting change.
    pub goal_expansions: u64,
    /// Distinct databases interned in the database lattice.
    pub databases_created: u64,
    /// Memo-table hits.
    pub memo_hits: u64,
    /// Recursive model computations (bottom-up) / proof calls (top-down).
    pub calls: u64,
    /// Maximum recursion depth observed.
    pub max_depth: u64,
    /// Fixpoint rounds (bottom-up only).
    pub rounds: u64,
    /// Facts newly derived in each fixpoint round of the *last* model
    /// computed (bottom-up only) — the semi-naive delta trajectory.
    pub delta_facts_per_round: Vec<u64>,
    /// Premise matches answered via an argument-index hash probe instead
    /// of a relation scan.
    pub index_probes: u64,
    /// Index probes that found at least one candidate.
    pub index_hits: u64,
    /// Magic/guard rules emitted by the demand rewrite for the last
    /// query (magic engine only).
    pub magic_rules: u64,
    /// Facts of invented magic predicates derived while answering,
    /// demand seeds included (magic engine only).
    pub demand_facts: u64,
    /// Negation strata of the rewritten program for the last query
    /// (magic engine only).
    pub adorned_strata: u64,
    /// Predicates the demand rewrite left unrestricted (evaluated via
    /// their original rules) because no sound bound adornment exists —
    /// plus, on a whole-query fallback, every rulebase predicate.
    pub unbound_fallbacks: u64,
    /// Storage counters of the overlay DAG backing the database lattice —
    /// a snapshot of [`hdl_base::DbStore::overlay_stats`] taken when the
    /// engine finished its last query. `overlay.delta_facts` versus
    /// `overlay.materialized_facts` measures how much sharing the
    /// parent+delta representation bought over full materialization.
    pub overlay: OverlayStats,
}

impl EngineStats {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = EngineStats::default();
    }

    /// Records a snapshot of the overlay DAG's storage counters.
    pub fn record_overlay(&mut self, o: OverlayStats) {
        self.overlay = o;
    }

    /// Folds one batch of premise-match work into the counters:
    /// `attempts` lands in [`EngineStats::goal_expansions`], probe
    /// statistics in the index counters.
    pub fn absorb_matches(&mut self, c: MatchCounters) {
        self.goal_expansions += c.attempts;
        self.index_probes += c.probes;
        self.index_hits += c.hits;
    }

    /// Folds a delegate engine run into these counters — used by the
    /// magic engine, which answers each query through a fresh inner
    /// semi-naive engine. Monotone counters sum, `max_depth` maxes, and
    /// the per-round/overlay snapshots are replaced by the inner run's.
    pub fn merge_run(&mut self, other: &EngineStats) {
        self.goal_expansions += other.goal_expansions;
        self.databases_created += other.databases_created;
        self.memo_hits += other.memo_hits;
        self.calls += other.calls;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.rounds += other.rounds;
        self.delta_facts_per_round = other.delta_facts_per_round.clone();
        self.index_probes += other.index_probes;
        self.index_hits += other.index_hits;
        self.magic_rules += other.magic_rules;
        self.demand_facts += other.demand_facts;
        self.adorned_strata = other.adorned_strata.max(self.adorned_strata);
        self.unbound_fallbacks += other.unbound_fallbacks;
        self.overlay = other.overlay;
    }

    /// JSON object of the counters (for `:stats --json` and the
    /// network protocol's `stats` op). Keys are stable.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::num(v as f64);
        Json::obj(vec![
            ("goal_expansions", n(self.goal_expansions)),
            ("databases_created", n(self.databases_created)),
            ("memo_hits", n(self.memo_hits)),
            ("calls", n(self.calls)),
            ("max_depth", n(self.max_depth)),
            ("rounds", n(self.rounds)),
            ("magic_rules", n(self.magic_rules)),
            ("demand_facts", n(self.demand_facts)),
            ("adorned_strata", n(self.adorned_strata)),
            ("unbound_fallbacks", n(self.unbound_fallbacks)),
            ("index_probes", n(self.index_probes)),
            ("index_hits", n(self.index_hits)),
            (
                "delta_facts_per_round",
                Json::Arr(self.delta_facts_per_round.iter().map(|&d| n(d)).collect()),
            ),
            ("overlay_nodes", n(self.overlay.nodes)),
            ("overlay_delta_facts", n(self.overlay.delta_facts)),
            (
                "overlay_materialized_facts",
                n(self.overlay.materialized_facts),
            ),
        ])
    }
}

/// Resource limits guarding against runaway searches.
///
/// The paper's language is `Σₖᴾ`-complete, so worst-case blowups are
/// inherent; limits turn them into [`hdl_base::Error::LimitExceeded`]
/// instead of hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum goal expansions (top-down) / premise-match attempts
    /// (bottom-up) per query: a kept engine measures them from the
    /// counters at the query's start.
    pub max_expansions: u64,
    /// Maximum distinct databases in the lattice created per query
    /// (bottom-up: models started per query).
    pub max_databases: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_expansions: 50_000_000,
            max_databases: 1_000_000,
        }
    }
}

/// An engine's counters when its current query began. [`Limits`] bound
/// their growth since then, so a kept engine allows every query the
/// same work however many it has answered.
#[derive(Default, Clone, Copy, Debug)]
pub(crate) struct QueryStart {
    expansions: u64,
    databases: u64,
    calls: u64,
}

impl QueryStart {
    /// Starts a query at `stats`.
    pub fn of(stats: &EngineStats) -> Self {
        QueryStart {
            expansions: stats.goal_expansions,
            databases: stats.databases_created,
            calls: stats.calls,
        }
    }

    /// Goal expansions (match attempts) since the query began.
    pub fn expansions(&self, stats: &EngineStats) -> u64 {
        stats.goal_expansions.saturating_sub(self.expansions)
    }

    /// Databases created since the query began.
    pub fn databases(&self, stats: &EngineStats) -> u64 {
        stats.databases_created.saturating_sub(self.databases)
    }

    /// Proof calls (bottom-up: models started) since the query began.
    pub fn calls(&self, stats: &EngineStats) -> u64 {
        stats.calls.saturating_sub(self.calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_counters() {
        let mut s = EngineStats {
            goal_expansions: 5,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, EngineStats::default());
    }

    #[test]
    fn default_limits_are_positive() {
        let l = Limits::default();
        assert!(l.max_expansions > 0);
        assert!(l.max_databases > 0);
    }
}
