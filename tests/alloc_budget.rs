//! Allocation budget of the engines' inner loops.
//!
//! DESIGN.md §3.6: matching, grounding and rule expansion reuse their
//! buffers, so heap allocations come only from the first intern of a
//! fact, a new overlay node, a memo insert and a derived fact stored in
//! a layer. This binary installs a global allocator that counts
//! allocations per thread, runs each workload on the test thread, and
//! bounds allocations per unit of engine work. A change that puts an
//! allocation back on a per-candidate, per-grounding or per-expansion
//! path multiplies the ratio and fails here.
//!
//! The committed write path is pinned the same way: a snapshot's
//! allocations do not grow with the symbol table, and a retraction's do
//! not grow with its relation.

use hypothetical_datalog::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread local with no destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn setup(src: &str) -> (Rulebase, Database, SymbolTable) {
    let mut syms = SymbolTable::new();
    let program = parse_program(src, &mut syms).expect("parses");
    let (rules, facts) = split_facts(program);
    (rules, facts.into_iter().collect(), syms)
}

/// Examples 7–8 on `instances` digraphs of seven nodes, predicates
/// suffixed `_i`, all in one rulebase so the instances share one domain
/// (as a server tenant holding several programs does). Edges come from a
/// fixed splitmix64 stream.
fn hamiltonian_instances(instances: usize) -> String {
    let mut src = String::new();
    let mut state: u64 = 11;
    for i in 0..instances {
        src.push_str(&format!(
            "yes_{i} :- node_{i}(X), path_{i}(X)[add: pnode_{i}(X)].
             path_{i}(X) :- select_{i}(Y), edge_{i}(X, Y), path_{i}(Y)[add: pnode_{i}(Y)].
             path_{i}(X) :- ~select_{i}(Y).
             select_{i}(Y) :- node_{i}(Y), ~pnode_{i}(Y).
             no_{i} :- ~yes_{i}.\n"
        ));
        let n = 7;
        for v in 0..n {
            src.push_str(&format!("node_{i}(v{i}_{v}).\n"));
        }
        for a in 0..n {
            for b in 0..n {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                if a != b && z % 100 < 30 {
                    src.push_str(&format!("edge_{i}(v{i}_{a}, v{i}_{b}).\n"));
                }
            }
        }
    }
    src
}

#[test]
fn topdown_search_allocates_less_than_once_per_expansion() {
    let instances = 6;
    let (rules, db, mut syms) = setup(&hamiltonian_instances(instances));
    let queries: Vec<Premise> = (0..instances)
        .map(|i| {
            let goal = if i % 2 == 0 { "yes" } else { "no" };
            parse_query(&format!("?- {goal}_{i}."), &mut syms).unwrap()
        })
        .collect();
    let mut td = TopDownEngine::new(&rules, &db).unwrap();
    let before = allocs();
    for q in &queries {
        td.holds(q).unwrap();
    }
    let spent = allocs() - before;
    let expansions = td.stats().goal_expansions;
    assert!(expansions > 1_000, "workload too small: {expansions}");
    let per_expansion = spent as f64 / expansions as f64;
    eprintln!("top-down: {spent} allocations, {expansions} goal expansions");
    // Before the inner loops stopped allocating (df1a81f): 66,984
    // allocations for 9,558 expansions, 7.01 each — candidate lists,
    // ground atoms, trails, bindings and proof-step snapshots. Since:
    // 1,069, 0.11 each — first interns, new overlay nodes and memo
    // growth.
    assert!(
        per_expansion < 1.0,
        "{spent} allocations for {expansions} goal expansions ({per_expansion:.2} each)"
    );
}

#[test]
fn bottomup_fixpoint_allocates_less_than_once_per_match_attempt() {
    // Transitive closure over a dense digraph: most derivations repeat a
    // known fact, so match attempts far outnumber stored facts.
    let n = 30;
    let mut src = String::from(
        "tc(X, Y) :- edge(X, Y).
         tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
    );
    let mut state: u64 = 5;
    for a in 0..n {
        for b in 0..n {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if a != b && z % 100 < 20 {
                src.push_str(&format!("edge(v{a}, v{b}).\n"));
            }
        }
    }
    let (rules, db, mut syms) = setup(&src);
    let q = parse_query(&format!("?- tc(v0, v{}).", n - 1), &mut syms).unwrap();
    let mut bu = BottomUpEngine::new(&rules, &db).unwrap();
    let before = allocs();
    assert!(bu.holds(&q).unwrap());
    let spent = allocs() - before;
    let attempts = bu.stats().goal_expansions;
    assert!(attempts > 1_000, "workload too small: {attempts}");
    let per_attempt = spent as f64 / attempts as f64;
    eprintln!("bottom-up: {spent} allocations, {attempts} match attempts");
    // Before (df1a81f): 27,277 allocations for 6,773 attempts, 4.03
    // each — a ground fact and a trail per candidate, a row vector per
    // match, a ground atom per derived head. Since: 2,629, 0.39 each —
    // the derived facts stored in the `delta` and `older` layers.
    assert!(
        per_attempt < 1.0,
        "{spent} allocations for {attempts} match attempts ({per_attempt:.2} each)"
    );
}

/// A session holding `facts` facts `rec(k<i>, v<i mod 1000>)`, the
/// shape of the `ingest` benchmark's tenants, and those facts.
fn rec_session(facts: usize) -> (Session, Vec<GroundAtom>) {
    let mut session = Session::new();
    let src: String = (0..facts)
        .map(|i| format!("rec(k{i}, v{}). ", i % 1000))
        .collect();
    session.load(&src).unwrap();
    let rows = session.database().iter_facts().collect::<Vec<GroundAtom>>();
    (session, rows)
}

#[test]
fn snapshot_allocations_do_not_grow_with_the_symbol_table() {
    // 1,024 facts over 65 symbols, so the table can start at 1k.
    let mut session = Session::new();
    let src: String = (0..1024)
        .map(|i| format!("grid(a{}, b{}). ", i % 32, i / 32))
        .collect();
    session.load(&src).unwrap();
    let mut per_snapshot = Vec::new();
    for symbols in [1_000, 64_000] {
        let table = session.symbols_mut();
        for i in table.len()..symbols {
            table.intern(&format!("extra{i}"));
        }
        // Warm up once, then count one snapshot.
        drop(session.snapshot());
        let before = allocs();
        let snap = session.snapshot();
        per_snapshot.push(allocs() - before);
        assert_eq!(snap.symbols().len(), session.symbols().len());
    }
    eprintln!("snapshot allocations at 1k and 64k symbols: {per_snapshot:?}");
    // Before the symbol table became a persistent value, a snapshot
    // copied every name: two allocations per symbol, so the two counts
    // differed by about 126,000.
    assert!(
        per_snapshot[1].abs_diff(per_snapshot[0]) <= 4,
        "snapshot allocations grew with the symbol table: {per_snapshot:?}"
    );
}

#[test]
fn retract_allocations_do_not_grow_with_the_relation() {
    let retracts = 1_000;
    let mut mean = Vec::new();
    for facts in [1_024, 16_384] {
        let (mut session, rows) = rec_session(facts);
        // Every `stride`-th fact, so the retracts spread over the whole
        // relation (all but 24 of the small one's facts, which compacts
        // it several times).
        let stride = facts / retracts;
        let gone: Vec<&GroundAtom> = rows.iter().step_by(stride).take(retracts).collect();
        let before = allocs();
        for fact in &gone {
            assert!(session.retract_fact(fact).unwrap());
        }
        mean.push((allocs() - before) as f64 / retracts as f64);
        assert_eq!(session.database().len(), facts - retracts);
    }
    eprintln!("mean allocations per retract at 1k and 16k rows: {mean:?}");
    // Before retraction tombstoned rows, each one rebuilt its relation's
    // argument index: one allocation per distinct (position, constant)
    // key, a mean of about 1,000 per retract on the small relation and
    // 19,000 on the large one.
    assert!(
        mean.iter().all(|&m| m <= 2.0) && (mean[0] - mean[1]).abs() <= 1.0,
        "allocations per retract grew with the relation: {mean:?}"
    );
}
