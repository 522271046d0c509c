//! Snapshot isolation: publishing never perturbs in-flight queries, and
//! cache epochs keep answers from leaking across publishes.

use hdl_core::engine::EngineKind;
use hdl_core::snapshot::Snapshot;
use hdl_encodings::qbf::build::{n, p};
use hdl_encodings::qbf::{encode_qbf, Qbf, Quant};
use hdl_service::{Outcome, QueryRequest, QueryService};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn queued_queries_keep_their_submission_snapshot() {
    // Snapshot 1: `p` is not provable. Snapshot 2 adds the missing fact.
    let snap1 = Snapshot::from_program("p :- q.").unwrap();
    let snap2 = Snapshot::from_program("p :- q. q.").unwrap();
    let service = QueryService::new(snap1, 2);

    // Tagged with snapshot 1 at submission; whether each runs before or
    // after the publish below, the outcome is snapshot 1's.
    let before: Vec<_> = (0..8)
        .map(|_| service.submit(QueryRequest::ask("p")))
        .collect();
    service.publish(snap2);
    let after = service.submit(QueryRequest::ask("p"));

    for ticket in before {
        assert_eq!(ticket.wait(), Outcome::False, "snapshot 1 semantics");
    }
    assert_eq!(after.wait(), Outcome::True, "snapshot 2 semantics");
    service.shutdown();
}

#[test]
fn materialized_snapshots_serve_queries_from_the_model() {
    // A session that materialized its model publishes snapshots carrying
    // it; the service then answers plain-atom queries by membership and
    // keeps agreeing with engine evaluation after incremental retraction.
    let mut session = hdl_core::session::Session::new();
    session
        .load(
            "edge(a, b). edge(b, c). edge(a, c).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        )
        .unwrap();
    session.model().unwrap();
    let snap = session.snapshot();
    assert!(snap.model().is_some(), "session model propagated");
    let service = QueryService::new(snap, 2);
    assert_eq!(
        service.submit(QueryRequest::ask("tc(a, c)")).wait(),
        Outcome::True
    );
    assert_eq!(
        service.submit(QueryRequest::ask("~tc(c, a)")).wait(),
        Outcome::True
    );
    match service.submit(QueryRequest::answers("tc(a, X)")).wait() {
        Outcome::Answers(rows) => assert_eq!(rows.len(), 2),
        other => panic!("expected rows, got {other:?}"),
    }
    // Hypothetical queries still evaluate through an engine.
    assert_eq!(
        service
            .submit(QueryRequest::ask("tc(c, b)[add: edge(c, b)]"))
            .wait(),
        Outcome::True
    );
    // Incremental retraction, re-publish: the maintained model rides along.
    let edge = session.symbols_mut().intern("edge");
    let (a, c) = (
        session.symbols_mut().intern("a"),
        session.symbols_mut().intern("c"),
    );
    session
        .retract_fact(&hdl_base::GroundAtom::new(edge, vec![a, c]))
        .unwrap();
    service.publish(session.snapshot());
    assert_eq!(
        service.submit(QueryRequest::ask("tc(a, c)")).wait(),
        Outcome::True,
        "rederived via b after retraction"
    );
    assert_eq!(
        service.submit(QueryRequest::ask("edge(a, c)")).wait(),
        Outcome::False
    );
    service.shutdown();
}

#[test]
fn publish_mid_evaluation_does_not_retarget_the_query() {
    // Snapshot 1 is a ~100ms (debug) refutation; snapshot 2 answers the
    // same query `sat_1` with `true` almost instantly. Publishing while
    // the slow query runs must not change its verdict.
    let slow = {
        let vars = 12;
        let prefix = (0..vars)
            .map(|v| {
                let q = if v % 2 == 0 {
                    Quant::Exists
                } else {
                    Quant::Forall
                };
                (q, vec![v])
            })
            .collect();
        let mut clauses = Vec::new();
        for v in 0..vars - 1 {
            clauses.push(vec![p(v), p(v + 1)]);
            clauses.push(vec![n(v), n(v + 1)]);
        }
        Qbf { prefix, clauses }
    };
    assert!(!slow.eval());
    let fast = Qbf {
        prefix: vec![(Quant::Exists, vec![0])],
        clauses: vec![vec![p(0)]],
    };
    assert!(fast.eval());

    let enc1 = encode_qbf(&slow).unwrap();
    let enc2 = encode_qbf(&fast).unwrap();
    let snap1 = Snapshot::new(enc1.symbols, enc1.rulebase, enc1.database);
    let snap2 = Snapshot::new(enc2.symbols, enc2.rulebase, enc2.database);

    let service = QueryService::new(snap1, 1);
    let inflight = service.submit(QueryRequest::ask("sat_1"));
    // Give the single worker a moment to start evaluating, then swap
    // the program out from under it.
    std::thread::sleep(Duration::from_millis(20));
    service.publish(Arc::clone(&snap2));
    let fresh = service.submit(QueryRequest::ask("sat_1"));

    assert_eq!(inflight.wait(), Outcome::False, "pinned to snapshot 1");
    assert_eq!(fresh.wait(), Outcome::True, "snapshot 2 is live");
    service.shutdown();
}

#[test]
fn cache_epochs_prevent_cross_snapshot_reuse() {
    let snap1 = Snapshot::from_program("p :- q.").unwrap();
    let snap2 = Snapshot::from_program("p :- q. q.").unwrap();
    let service = QueryService::new(snap1, 1);

    assert_eq!(
        service.submit(QueryRequest::ask("p")).wait(),
        Outcome::False
    );
    assert_eq!(
        service.submit(QueryRequest::ask("p")).wait(),
        Outcome::False
    );
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1, "second identical ask hits");
    assert_eq!(stats.cache_entries, 1);

    service.publish(snap2);
    // Same goal text, new epoch: snapshot 1's `false` must not be
    // served. The publish also reclaimed the stale entry eagerly.
    assert_eq!(service.stats().cache_entries, 0);
    assert_eq!(service.submit(QueryRequest::ask("p")).wait(), Outcome::True);
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1, "no cross-epoch hit");

    assert_eq!(service.submit(QueryRequest::ask("p")).wait(), Outcome::True);
    assert_eq!(service.stats().cache_hits, 2, "within-epoch reuse resumes");
    service.shutdown();
}

#[test]
fn workers_rebuild_engines_per_snapshot() {
    // Interleave queries across three published generations on a pool
    // larger than the queue ever gets; every answer matches the
    // snapshot current at its submission.
    let programs = [
        "gen(one). val :- gen(one).",
        "gen(two). val :- gen(missing).",
        "gen(three). val :- gen(three).",
    ];
    let expected = [Outcome::True, Outcome::False, Outcome::True];
    let service = QueryService::new(Snapshot::from_program(programs[0]).unwrap(), 4);
    let mut tickets = Vec::new();
    for (i, src) in programs.iter().enumerate() {
        if i > 0 {
            service.publish(Snapshot::from_program(src).unwrap());
        }
        for _ in 0..4 {
            tickets.push((i, service.submit(QueryRequest::ask("val"))));
        }
    }
    for (gen, ticket) in tickets {
        assert_eq!(ticket.wait(), expected[gen], "generation {gen}");
    }
    assert_eq!(service.stats().snapshots_published, 2);
    service.shutdown();
}

#[test]
fn a_queries_fresh_constants_stay_in_that_query() {
    // `zz` occurs only in the first query's `add:`. The one worker keeps
    // its engine for the snapshot, so a domain that kept `zz` after that
    // query would make `r(zz)` hold and list it among `r`'s answers.
    let program = "s(a). e(a, b). r(X) :- ~s(X). p(X) :- e(X, Y).";
    for engine in [EngineKind::TopDown, EngineKind::BottomUp, EngineKind::Magic] {
        let service = QueryService::new(Snapshot::from_program(program).unwrap(), 1);
        let run = |request: QueryRequest| service.submit(request.with_engine(engine)).wait();
        assert_eq!(run(QueryRequest::ask("p(a)[add: e(zz, a)]")), Outcome::True);
        assert_eq!(
            run(QueryRequest::ask("r(zz)")),
            Outcome::False,
            "{engine:?}"
        );
        assert_eq!(
            run(QueryRequest::answers("r(X)")),
            Outcome::Answers(vec![vec!["b".to_owned()]]),
            "{engine:?}"
        );
        service.shutdown();
    }
}
