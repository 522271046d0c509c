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
