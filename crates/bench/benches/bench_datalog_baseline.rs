//! E10: the plain-Datalog baseline (`hdl_datalog::naive`, the independent
//! oracle) vs core's engines on a query both express — the point query
//! `tc(v0, X)` over chains — plus the naive vs semi-naive ablation inside
//! core. Expected shape: semi-naive beats naive as chains grow, and the
//! magic rewrite beats both on the point query; hypothetical machinery is
//! never triggered by Horn rules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdl_base::{Atom, SymbolTable, Term, Var};
use hdl_bench::workloads::{tc_edb, tc_rules};
use hdl_core::ast::Premise;
use hdl_core::engine::{BottomUpEngine, MagicEngine, NaiveEngine, TopDownEngine};
use hdl_core::parser::parse_program;

fn bench_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("datalog_baseline");
    configure(&mut group);
    for n in [8usize, 16, 32] {
        let mut syms = SymbolTable::new();
        let rules = tc_rules(&mut syms);
        let db = tc_edb(&mut syms, n);
        let tc = syms.lookup("tc").unwrap();
        let v0 = syms.intern("v0");
        let hyp_rules = parse_program(
            "tc(X, Y) :- e(X, Y).
             tc(X, Z) :- e(X, Y), tc(Y, Z).",
            &mut syms,
        )
        .unwrap();
        // Every system answers the point query tc(v0, X).
        let pattern = Atom::new(tc, vec![Term::Const(v0), Term::Var(Var(0))]);

        group.bench_with_input(BenchmarkId::new("datalog_naive", n), &n, |b, _| {
            b.iter(|| {
                let m = hdl_datalog::naive::evaluate(&rules, &db).unwrap();
                assert_eq!(m.tuples(tc).filter(|t| t[0] == v0).count(), n - 1);
            });
        });
        group.bench_with_input(BenchmarkId::new("core_naive", n), &n, |b, _| {
            b.iter(|| {
                let mut eng = NaiveEngine::new(&hyp_rules, &db).unwrap();
                assert_eq!(eng.answers(&pattern).unwrap().len(), n - 1);
            });
        });
        group.bench_with_input(BenchmarkId::new("semi_naive", n), &n, |b, _| {
            b.iter(|| {
                let mut eng = BottomUpEngine::new(&hyp_rules, &db).unwrap();
                assert_eq!(eng.answers(&pattern).unwrap().len(), n - 1);
            });
        });
        group.bench_with_input(BenchmarkId::new("magic", n), &n, |b, _| {
            b.iter(|| {
                let mut eng = MagicEngine::new(&hyp_rules, &db).unwrap();
                assert_eq!(eng.answers(&pattern).unwrap().len(), n - 1);
            });
        });

        // Top-down: answer one reachability query (goal-directed).
        let vlast = syms.intern(&format!("v{}", n - 1));
        let goal = Premise::Atom(Atom::new(tc, vec![Term::Const(v0), Term::Const(vlast)]));
        group.bench_with_input(BenchmarkId::new("hyp_topdown_point", n), &n, |b, _| {
            b.iter(|| {
                let mut eng = TopDownEngine::new(&hyp_rules, &db).unwrap();
                assert!(eng.holds(&goal).unwrap());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baseline);
criterion_main!(benches);

/// Conservative Criterion settings: the harness favours total suite time
/// over tight confidence intervals — the experiments compare shapes, not
/// single-digit-percent deltas.
fn configure<M: criterion::measurement::Measurement>(group: &mut criterion::BenchmarkGroup<'_, M>) {
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
}
