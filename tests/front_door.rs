//! The engine front door agrees with both of its callers: for every
//! engine kind, with and without a materialized model, `Session` and
//! `QueryService` give the same verdicts and rows on the same snapshot,
//! `Session::last_stats` is the counters of the engine driven directly,
//! and a materialized model answers plain and negated atoms without any
//! engine.

use hdl_core::engine::{Engine, EngineKind, EngineStats};
use hdl_core::parser::parse_query;
use hdl_core::{Premise, Session};
use hdl_service::{Outcome, QueryRequest, QueryService};

/// Examples 7–8: Hamiltonian path by hypothetical search, and its
/// complement through a second negation stratum.
const HAMILTONIAN: &str = "
    yes :- node(X), path(X)[add: pnode(X)].
    path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
    path(X) :- ~select(Y).
    select(Y) :- node(Y), ~pnode(Y).
    no :- ~yes.
    node(v1). node(v2). node(v3). node(v4).
    edge(v1, v2). edge(v2, v3). edge(v3, v4).
";

/// The `whatif` shape: reachability asked plainly and under `add:` and
/// `del:` hypotheses.
const REACH: &str = "
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- edge(X, Z), reach(Z, Y).
    edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n4, n0).
";

struct Case {
    program: &'static str,
    asks: &'static [&'static str],
    answers: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        program: HAMILTONIAN,
        asks: &[
            "yes",
            "no",
            "~yes",
            "path(v2)[add: pnode(v1), pnode(v2)]",
            "yes[del: edge(v2, v3)]",
            "no[del: edge(v2, v3)]",
        ],
        answers: &["select(Y)", "edge(X, v3)"],
    },
    Case {
        program: REACH,
        asks: &[
            "reach(n0, n3)",
            "reach(n3, n0)",
            "~reach(n3, X)",
            "reach(n3, n0)[add: edge(n3, n4)]",
            "reach(n0, n3)[del: edge(n1, n2)]",
            "reach(n4, n3)[del: edge(n0, n1)]",
        ],
        answers: &["reach(n0, Y)", "reach(X, n2)", "reach(X, Y)"],
    },
];

const KINDS: [EngineKind; 3] = [EngineKind::TopDown, EngineKind::BottomUp, EngineKind::Magic];

/// The counters a fresh engine of `kind` reports after running `query`
/// on `session`'s program, driven without the session.
fn direct_stats(
    session: &Session,
    kind: EngineKind,
    query: impl FnOnce(&mut Engine<'_>),
) -> EngineStats {
    let mut eng = Engine::new(kind, session.rulebase(), session.database()).unwrap();
    query(&mut eng);
    eng.stats().clone()
}

fn parse(session: &Session, text: &str) -> Premise {
    parse_query(&format!("?- {text}."), &mut session.symbols().clone()).unwrap()
}

#[test]
fn session_and_service_agree_through_the_front_door() {
    for case in CASES {
        for kind in KINDS {
            for materialized in [false, true] {
                let ctx = format!("{kind:?}, materialized={materialized}");
                let mut session = Session::new().with_engine(kind);
                session.load(case.program).unwrap();
                if materialized {
                    session.model().unwrap();
                }
                let service = QueryService::new(session.snapshot(), 1);
                let mut engine_runs = 0;

                for &q in case.asks {
                    let verdict = session.ask(&format!("?- {q}.")).unwrap();
                    let served = service
                        .submit(QueryRequest::ask(q).with_engine(kind))
                        .wait();
                    assert_eq!(served, Outcome::from_verdict(Ok(verdict)), "{q} ({ctx})");

                    let premise = parse(&session, q);
                    let by_model = materialized && !premise.is_hypothetical();
                    let want = if by_model {
                        EngineStats::default()
                    } else {
                        engine_runs += 1;
                        direct_stats(&session, kind, |eng| {
                            assert_eq!(eng.holds(&premise).unwrap(), verdict, "{q} ({ctx})");
                        })
                    };
                    assert_eq!(session.last_stats(), Some(&want), "{q} ({ctx})");
                }

                for &p in case.answers {
                    let rows = session.answers(p).unwrap();
                    let served = service
                        .submit(QueryRequest::answers(p).with_engine(kind))
                        .wait();
                    assert_eq!(served, Outcome::Answers(rows.clone()), "{p} ({ctx})");

                    let want = if materialized {
                        EngineStats::default()
                    } else {
                        engine_runs += 1;
                        let Premise::Atom(atom) = parse(&session, p) else {
                            unreachable!("answer patterns are atoms")
                        };
                        direct_stats(&session, kind, |eng| {
                            assert_eq!(eng.answers(&atom).unwrap().len(), rows.len(), "{p}");
                        })
                    };
                    assert_eq!(session.last_stats(), Some(&want), "{p} ({ctx})");
                }

                // Only engine-evaluated queries reach the answer cache:
                // the model's answers never touch it.
                let stats = service.stats();
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    engine_runs,
                    "{ctx}: {stats:?}"
                );
                service.shutdown();
            }
        }
    }
}
