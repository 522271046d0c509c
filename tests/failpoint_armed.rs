//! Semi-naive equivalence under armed failpoints.
//!
//! Compiled only with `--features failpoints`. The fault-tolerance suite
//! in `crates/service` checks that injected faults *degrade* the service;
//! this one checks the complementary engine-level property: faults that
//! do not abort a fixpoint (delays on rule firings) must not change the
//! computed model, and faults that do (spurious resource errors) must
//! surface as structured errors — never as a wrong model.
#![cfg(feature = "failpoints")]

use hdl_base::failpoint::{self, FaultSpec};
use hdl_base::Database;
use hdl_base::SymbolTable;
use hdl_core::engine::{BottomUpEngine, MagicEngine, NaiveEngine, ProveEngine};
use hdl_core::parser::{parse_program, parse_query, split_facts};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The failpoint registry is process-global; tests must not interleave.
struct FaultLab {
    _guard: MutexGuard<'static, ()>,
}

impl FaultLab {
    fn begin() -> Self {
        static GUARD: Mutex<()> = Mutex::new(());
        let guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        failpoint::clear();
        FaultLab { _guard: guard }
    }
}

impl Drop for FaultLab {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

/// A dense transitive closure, whose rounds fire pure rules, plus a
/// variable-bounded hypothetical branch so the impure path runs too.
fn workload(syms: &mut SymbolTable) -> (hdl_core::ast::Rulebase, Database) {
    let mut src = String::from(
        "tc(X, Y) :- edge(X, Y).
         tc(X, Z) :- tc(X, Y), edge(Y, Z).
         promoted(X) :- special(X), tc(n0, X)[add: edge(n0, X)].\n",
    );
    for i in 0..16u32 {
        for j in 0..16u32 {
            if i != j && (3 * i + 5 * j) % 4 == 0 {
                src.push_str(&format!("edge(n{i}, n{j}).\n"));
            }
        }
    }
    src.push_str("special(n3). special(n5).\n");
    let program = parse_program(&src, syms).unwrap();
    let (rb, facts) = split_facts(program);
    let db: Database = facts.into_iter().collect();
    (rb, db)
}

#[test]
fn delays_on_firings_leave_the_model_unchanged() {
    let _lab = FaultLab::begin();
    let mut syms = SymbolTable::new();
    let (rb, db) = workload(&mut syms);
    let expected = NaiveEngine::new(&rb, &db).unwrap().model().unwrap();
    // Delays perturb timing but not semantics.
    failpoint::configure("bottomup::fire", FaultSpec::delaying(1, 5), 11);
    let got = BottomUpEngine::new(&rb, &db).unwrap().model().unwrap();
    assert_eq!(expected, got);
    let (hits, _) = failpoint::counters("bottomup::fire");
    assert!(hits > 0, "the armed site must actually be exercised");
}

#[test]
fn injected_errors_surface_structurally_not_as_wrong_models() {
    let _lab = FaultLab::begin();
    let mut syms = SymbolTable::new();
    let (rb, db) = workload(&mut syms);
    failpoint::configure("bottomup::fire", FaultSpec::erroring(1).fires(1), 13);
    let err = BottomUpEngine::new(&rb, &db).unwrap().model().unwrap_err();
    assert!(
        matches!(err, hdl_base::Error::ResourceExhausted { .. }),
        "{err}"
    );
    let (hits, _) = failpoint::counters("bottomup::fire");
    assert!(hits > 0, "the armed site must actually be exercised");
    // The spent failpoint stops firing; a fresh engine recovers fully.
    let expected = NaiveEngine::new(&rb, &db).unwrap().model().unwrap();
    let got = BottomUpEngine::new(&rb, &db).unwrap().model().unwrap();
    assert_eq!(expected, got);
}

#[test]
fn magic_rewrite_errors_degrade_to_semi_naive_not_wrong_answers() {
    let _lab = FaultLab::begin();
    let mut syms = SymbolTable::new();
    let (rb, db) = workload(&mut syms);
    let q = parse_query("?- tc(n0, n15).", &mut syms).unwrap();
    let expected = NaiveEngine::new(&rb, &db).unwrap().holds(&q).unwrap();
    // An injected rewrite failure must route the query through the
    // plain semi-naive fallback — same verdict, no panic.
    failpoint::configure("magic::rewrite", FaultSpec::erroring(1).fires(1), 19);
    let mut armed = MagicEngine::new(&rb, &db).unwrap();
    assert_eq!(expected, armed.holds(&q).unwrap());
    let (hits, _) = failpoint::counters("magic::rewrite");
    assert!(hits > 0, "the armed site must actually be exercised");
    assert!(
        armed.stats().unbound_fallbacks > 0,
        "the failed rewrite must be counted as a fallback"
    );
    assert_eq!(armed.stats().magic_rules, 0);
    // The spent failpoint stops firing; a fresh engine rewrites again.
    let mut fresh = MagicEngine::new(&rb, &db).unwrap();
    assert_eq!(expected, fresh.holds(&q).unwrap());
    assert!(fresh.stats().magic_rules > 0);
}

#[test]
fn prove_delta_equivalence_holds_with_armed_delays() {
    let _lab = FaultLab::begin();
    let mut syms = SymbolTable::new();
    let (rb, db) = workload(&mut syms);
    let q = parse_query("?- tc(n0, n15).", &mut syms).unwrap();
    let clean = ProveEngine::new(&rb, &db).unwrap().holds(&q).unwrap();
    failpoint::configure("prove::delta_fire", FaultSpec::delaying(1, 5), 17);
    let armed = ProveEngine::new(&rb, &db).unwrap().holds(&q).unwrap();
    assert_eq!(clean, armed);
    let (hits, _) = failpoint::counters("prove::delta_fire");
    assert!(hits > 0, "the armed site must actually be exercised");
}

/// The firing failpoints count one hit per firing that walks: every
/// impure firing, and every pure one whose seed premise has rows. A
/// seeded fault sequence replays only while these counts hold. `dead`'s
/// seed premise has no facts, so its firings never count.
#[test]
fn firing_probe_counts_are_pinned() {
    let _lab = FaultLab::begin();
    let mut syms = SymbolTable::new();
    let (mut rb, db) = workload(&mut syms);
    let extra = parse_program("dead(X) :- missing(X), tc(X, Y).", &mut syms).unwrap();
    rb.rules.extend(split_facts(extra).0.rules);
    let q = parse_query("?- tc(n0, n15).", &mut syms).unwrap();
    // Counted, never fired.
    for site in ["bottomup::fire", "prove::delta_fire"] {
        failpoint::configure(site, FaultSpec::erroring(1).fires(0), 23);
    }
    BottomUpEngine::new(&rb, &db).unwrap().model().unwrap();
    ProveEngine::new(&rb, &db).unwrap().holds(&q).unwrap();
    assert_eq!(failpoint::counters("bottomup::fire"), (20, 0));
    assert_eq!(failpoint::counters("prove::delta_fire"), (5, 0));
}
