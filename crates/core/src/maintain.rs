//! Incremental model maintenance: delete-and-rederive for `:retract`.
//!
//! A [`MaterializedModel`] holds the perfect model of one
//! `(rulebase, database)` pair and keeps it current across single-fact
//! assertions and retractions without recomputing the fixpoint from
//! scratch. Retraction follows the classic DRed (delete-and-rederive)
//! scheme, run over the same older/delta split the semi-naive fixpoint
//! uses:
//!
//! 1. **Overdelete** — starting from the retracted fact, propagate
//!    deletions through every rule that could have consumed a deleted
//!    fact: one premise is joined against the deletion delta, the rest
//!    against the old model. This overcounts — it removes every fact
//!    that has *some* derivation through a deleted fact, even if other
//!    derivations survive.
//! 2. **Rederive** — overdeleted facts that are still base facts, or
//!    whose rules still fire against the surviving model, are put back;
//!    each round of returns can rederive further facts, so this loops
//!    to a fixpoint.
//!
//! That scheme is only sound when the affected predicates are derived
//! purely positively: through negation or a hypothetical premise, a
//! *deletion* can make new facts true, which delta-joins structured for
//! monotone rules never discover. Whenever a negated or hypothetical
//! premise depends on a changed predicate, the maintenance falls back to
//! a conservative strategy: recompute the affected predicate cone (plus
//! every hypothetical goal cone it reaches) with a fresh bottom-up
//! fixpoint, seeding everything outside the cone from the old model.
//!
//! One global guard sits in front of both paths: the perfect model
//! depends on the constant domain `dom(R, DB)` (Definition 3) through
//! negation and hypothetical groundings, and the domain is *global* — a
//! mutation that adds or removes a constant can change predicates no
//! dependency edge reaches. Such mutations rebuild the model in full.

use crate::ast::{HypRule, Premise, Rulebase};
use crate::engine::BottomUpEngine;
use hdl_base::{Bindings, Database, FxHashMap, FxHashSet, GroundAtom, Json, Result, Symbol};

/// Counters describing how a [`MaterializedModel`] has been maintained.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Full fixpoint computations (initial build + domain-change rebuilds).
    pub full_builds: u64,
    /// Retractions handled by fact-level delete-and-rederive.
    pub incremental_retractions: u64,
    /// Assertions handled by semi-naive delta continuation.
    pub incremental_assertions: u64,
    /// Updates that recomputed an affected predicate cone with a fresh
    /// engine because negation or a hypothetical premise depends on the
    /// changed predicate.
    pub conservative_updates: u64,
    /// Full rebuilds forced by a change to the constant domain.
    pub domain_rebuilds: u64,
    /// Facts removed during overdeletion phases (cumulative).
    pub overdeleted_facts: u64,
    /// Overdeleted facts put back by rederivation (cumulative).
    pub rederived_facts: u64,
}

impl MaintenanceStats {
    /// JSON object of the counters (for `:stats --json`). Keys are
    /// stable.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::num(v as f64);
        Json::obj(vec![
            ("full_builds", n(self.full_builds)),
            ("incremental_retractions", n(self.incremental_retractions)),
            ("incremental_assertions", n(self.incremental_assertions)),
            ("conservative_updates", n(self.conservative_updates)),
            ("domain_rebuilds", n(self.domain_rebuilds)),
            ("overdeleted_facts", n(self.overdeleted_facts)),
            ("rederived_facts", n(self.rederived_facts)),
        ])
    }
}

/// A perfect model kept current across single-fact mutations.
///
/// The model always equals `BottomUpEngine::model()` of the rulebase and
/// the *current* base database — the differential property tests in
/// `tests/props.rs` assert exactly that against the naive engine.
pub struct MaterializedModel {
    model: Database,
    stats: MaintenanceStats,
}

impl MaterializedModel {
    /// Computes the full perfect model of `(rulebase, database)`.
    pub fn build(rulebase: &Rulebase, database: &Database) -> Result<Self> {
        let mut m = MaterializedModel {
            model: Database::new(),
            stats: MaintenanceStats::default(),
        };
        m.rebuild(rulebase, database)?;
        Ok(m)
    }

    /// The maintained perfect model (base facts included).
    pub fn model(&self) -> &Database {
        &self.model
    }

    /// Maintenance counters since [`MaterializedModel::build`].
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    fn rebuild(&mut self, rulebase: &Rulebase, database: &Database) -> Result<()> {
        let mut eng = BottomUpEngine::new(rulebase, database)?;
        self.model = eng.model()?;
        self.stats.full_builds += 1;
        Ok(())
    }

    /// Brings the model up to date after `fact` was inserted into the
    /// base database (`database` is the post-insert state).
    pub fn assert_fact(
        &mut self,
        rulebase: &Rulebase,
        database: &Database,
        fact: &GroundAtom,
    ) -> Result<()> {
        if self.model.contains(fact) {
            // Already derivable: for a stratified program the model is a
            // function of (rules, EDB, domain), and adding an EDB fact
            // the model already holds changes neither the domain (its
            // constants are in the model) nor any rule's satisfaction.
            return Ok(());
        }
        if !fact
            .args
            .iter()
            .all(|c| self.known_constants_contain(rulebase, *c))
        {
            self.stats.domain_rebuilds += 1;
            return self.rebuild(rulebase, database);
        }
        let affected = affected_preds(rulebase, fact.pred);
        if positive_cone(rulebase, &affected) {
            self.assert_positive(rulebase, fact, &affected);
            self.stats.incremental_assertions += 1;
            Ok(())
        } else {
            self.update_conservative(rulebase, database, &affected)
        }
    }

    /// Brings the model up to date after `fact` was removed from the
    /// base database (`database` is the post-remove state).
    ///
    /// `database` may still contain `fact` through another layer (an
    /// assumption frame shadowing a retracted base fact); rederivation
    /// then restores it immediately.
    pub fn retract_fact(
        &mut self,
        rulebase: &Rulebase,
        database: &Database,
        fact: &GroundAtom,
    ) -> Result<()> {
        if !self.model.contains(fact) {
            return Ok(()); // was never true — removing it changes nothing
        }
        // A retraction shrinks the domain iff it held the last occurrence
        // of one of its constants; negation and hypothetical groundings
        // then quantify over a smaller set everywhere.
        let domain_shrank = fact.args.iter().any(|c| {
            !rulebase.constants().contains(c) && !database.iter().any(|(_, args)| args.contains(c))
        });
        if domain_shrank {
            self.stats.domain_rebuilds += 1;
            return self.rebuild(rulebase, database);
        }
        let affected = affected_preds(rulebase, fact.pred);
        if positive_cone(rulebase, &affected) {
            self.retract_positive(rulebase, database, fact, &affected);
            self.stats.incremental_retractions += 1;
            Ok(())
        } else {
            self.update_conservative(rulebase, database, &affected)
        }
    }

    /// Whether `c` is already in `dom(R, DB)` as witnessed by the model
    /// (which contains every EDB fact) or the rulebase constants.
    fn known_constants_contain(&self, rulebase: &Rulebase, c: Symbol) -> bool {
        rulebase.constants().contains(&c) || self.model.iter().any(|(_, args)| args.contains(&c))
    }

    /// Semi-naive delta continuation for a purely positive affected cone:
    /// the new fact is the first delta, and rules fire with one premise
    /// against the delta and the rest against the growing model.
    fn assert_positive(
        &mut self,
        rulebase: &Rulebase,
        fact: &GroundAtom,
        affected: &FxHashSet<Symbol>,
    ) {
        self.model.insert(fact.clone());
        let mut delta = Database::new();
        delta.insert(fact.clone());
        while !delta.is_empty() {
            let mut derived = Vec::new();
            for rule in rulebase.iter().filter(|r| affected.contains(&r.head.pred)) {
                fire_rule_with_delta(rule, &delta, &self.model, &mut derived);
            }
            let mut next = Database::new();
            for h in derived {
                if self.model.insert(h.clone()) {
                    next.insert(h);
                }
            }
            delta = next;
        }
    }

    /// Fact-level delete-and-rederive for a purely positive affected
    /// cone (DRed): overcount deletions through the delta joins, remove
    /// them, then put back everything still supported.
    fn retract_positive(
        &mut self,
        rulebase: &Rulebase,
        database: &Database,
        fact: &GroundAtom,
        affected: &FxHashSet<Symbol>,
    ) {
        // Overdeletion: joins run against the *old* model throughout, so
        // each round only needs the newly deleted facts as its delta.
        let mut over = Database::new();
        over.insert(fact.clone());
        let mut delta = over.clone();
        while !delta.is_empty() {
            let mut derived = Vec::new();
            for rule in rulebase.iter().filter(|r| affected.contains(&r.head.pred)) {
                fire_rule_with_delta(rule, &delta, &self.model, &mut derived);
            }
            let mut next = Database::new();
            for h in derived {
                if self.model.contains(&h) && !over.contains(&h) {
                    over.insert(h.clone());
                    next.insert(h);
                }
            }
            delta = next;
        }
        let overdeleted: Vec<GroundAtom> = over.iter_facts().collect();
        self.stats.overdeleted_facts += overdeleted.len() as u64;
        // One batch removal: the cascade compacts each relation once
        // instead of once per overdeleted fact.
        self.model.remove_all(&overdeleted);
        // Rederivation: overdeleted facts return if the base database
        // still holds them or one of their rules still fires against the
        // surviving model; each return can support further returns.
        let mut remaining = Vec::new();
        let mut rederived = 0u64;
        for f in overdeleted {
            if database.contains(&f) {
                self.model.insert(f);
                rederived += 1;
            } else {
                remaining.push(f);
            }
        }
        loop {
            let mut returned = Vec::new();
            remaining.retain(|f| {
                if has_one_step_derivation(rulebase, &self.model, f) {
                    returned.push(f.clone());
                    false
                } else {
                    true
                }
            });
            if returned.is_empty() {
                break;
            }
            rederived += returned.len() as u64;
            for f in returned {
                self.model.insert(f);
            }
        }
        self.stats.rederived_facts += rederived;
    }

    /// Conservative path: recompute the affected predicate cone — plus
    /// every hypothetical goal cone it reaches, because overlay
    /// evaluation re-derives those goals against the modified database —
    /// with a fresh bottom-up fixpoint. Everything outside the cone is
    /// seeded from the old model as EDB; the full rulebase's constants
    /// are passed along so the reduced program grounds negation and
    /// hypothetical premises over the same domain the full program would.
    fn update_conservative(
        &mut self,
        rulebase: &Rulebase,
        database: &Database,
        affected: &FxHashSet<Symbol>,
    ) -> Result<()> {
        let recompute = recompute_closure(rulebase, affected);
        let mut reduced = Rulebase::new();
        for rule in rulebase.iter() {
            if recompute.contains(&rule.head.pred) {
                reduced.push(rule.clone());
            }
        }
        let mut seed = database.clone();
        for f in self.model.iter_facts() {
            if !recompute.contains(&f.pred) {
                seed.insert(f);
            }
        }
        let mut eng = BottomUpEngine::new_with_constants(&reduced, &seed, &rulebase.constants())?;
        self.model = eng.model()?;
        self.stats.conservative_updates += 1;
        Ok(())
    }
}

/// Predicates whose extension can change when `seed`'s base facts do:
/// forward reachability from `seed` through every premise → head edge
/// (positive, negated, and hypothetical-goal premises alike).
///
/// Atoms in `add:`/`del:` lists contribute no edge: the overlay forces
/// their presence or absence regardless of the base database, and any
/// influence of their *predicate* on the goal flows through the goal's
/// own premise cone, which these edges already cover.
fn affected_preds(rulebase: &Rulebase, seed: Symbol) -> FxHashSet<Symbol> {
    let mut fwd: FxHashMap<Symbol, Vec<Symbol>> = FxHashMap::default();
    for rule in rulebase.iter() {
        for p in &rule.premises {
            let read = match p {
                Premise::Atom(a) | Premise::Neg(a) => a.pred,
                Premise::Hyp { goal, .. } => goal.pred,
            };
            fwd.entry(read).or_default().push(rule.head.pred);
        }
    }
    let mut out = FxHashSet::default();
    let mut stack = vec![seed];
    out.insert(seed);
    while let Some(p) = stack.pop() {
        for &h in fwd.get(&p).map(Vec::as_slice).unwrap_or(&[]) {
            if out.insert(h) {
                stack.push(h);
            }
        }
    }
    out
}

/// Whether every rule deriving an affected predicate is purely positive.
///
/// This is the applicability test for fact-level DRed. It also rules out
/// interference from elsewhere in the program: a negated premise over an
/// affected predicate puts its rule's head *into* the affected set (the
/// forward closure follows negation edges), where the rule then fails
/// this test; likewise a hypothetical premise whose goal cone touches an
/// affected predicate. Rules with head variables not bound by the body
/// ground over the domain, which the delta joins never consult, so they
/// fail the test too.
fn positive_cone(rulebase: &Rulebase, affected: &FxHashSet<Symbol>) -> bool {
    rulebase
        .iter()
        .filter(|r| affected.contains(&r.head.pred))
        .all(|r| {
            let body_positive = r.premises.iter().all(|p| matches!(p, Premise::Atom(_)));
            let head_bound = r.head.vars().all(|v| {
                r.premises
                    .iter()
                    .any(|p| matches!(p, Premise::Atom(a) if a.vars().any(|w| w == v)))
            });
            body_positive && head_bound
        })
}

/// The affected set closed under hypothetical goal cones: for every rule
/// being recomputed that carries a hypothetical premise, everything the
/// premise's overlay evaluation can read must be recomputed too (its
/// facts cannot be seeded as EDB — a seeded fact would stay true under
/// overlays that should invalidate it).
fn recompute_closure(rulebase: &Rulebase, affected: &FxHashSet<Symbol>) -> FxHashSet<Symbol> {
    let mut bwd: FxHashMap<Symbol, Vec<Symbol>> = FxHashMap::default();
    for rule in rulebase.iter() {
        let reads: Vec<Symbol> = rule
            .premises
            .iter()
            .flat_map(|p| p.atoms())
            .map(|a| a.pred)
            .collect();
        bwd.entry(rule.head.pred).or_default().extend(reads);
    }
    let mut out = affected.clone();
    loop {
        let mut grew = false;
        for rule in rulebase.iter() {
            if !out.contains(&rule.head.pred) {
                continue;
            }
            for p in &rule.premises {
                if !matches!(p, Premise::Hyp { .. }) {
                    continue;
                }
                // Backward closure from everything the premise names.
                let mut stack: Vec<Symbol> = p.atoms().map(|a| a.pred).collect();
                while let Some(q) = stack.pop() {
                    if out.insert(q) {
                        grew = true;
                    }
                    for &r in bwd.get(&q).map(Vec::as_slice).unwrap_or(&[]) {
                        if !out.contains(&r) {
                            out.insert(r);
                            grew = true;
                            stack.push(r);
                        }
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    out
}

/// Fires `rule` (all premises positive) once per choice of delta
/// position: premise `i` joins against `delta`, the rest against `full`.
/// Duplicate derivations across positions are fine — callers insert into
/// set-semantics databases.
fn fire_rule_with_delta(
    rule: &HypRule,
    delta: &Database,
    full: &Database,
    out: &mut Vec<GroundAtom>,
) {
    for pos in 0..rule.premises.len() {
        let Premise::Atom(a) = &rule.premises[pos] else {
            continue;
        };
        if delta.count(a.pred) == 0 {
            continue;
        }
        let order: Vec<usize> = std::iter::once(pos)
            .chain((0..rule.premises.len()).filter(|&j| j != pos))
            .collect();
        let mut bindings = Bindings::new(rule.num_vars);
        join_positions(rule, &order, 0, delta, full, &mut bindings, out);
    }
}

fn join_positions(
    rule: &HypRule,
    order: &[usize],
    k: usize,
    delta: &Database,
    full: &Database,
    bindings: &mut Bindings,
    out: &mut Vec<GroundAtom>,
) {
    if k == order.len() {
        out.push(
            rule.head
                .ground(bindings)
                .expect("head var bound by positive body"),
        );
        return;
    }
    let Premise::Atom(a) = &rule.premises[order[k]] else {
        return;
    };
    let db = if k == 0 { delta } else { full };
    db.for_each_match(a, bindings, |b| {
        join_positions(rule, order, k + 1, delta, full, b, out);
        false
    });
}

/// Whether `fact` matches a rule head whose (purely positive) body is
/// satisfied by `model` — the rederivation test of DRed's second phase.
fn has_one_step_derivation(rulebase: &Rulebase, model: &Database, fact: &GroundAtom) -> bool {
    for rule in rulebase.definition(fact.pred) {
        let mut bindings = Bindings::new(rule.num_vars);
        let Some(trail) = bindings.match_atom(&rule.head, fact) else {
            continue;
        };
        if body_satisfied(&rule.premises, 0, model, &mut bindings) {
            return true;
        }
        bindings.undo(&trail);
    }
    false
}

fn body_satisfied(
    premises: &[Premise],
    idx: usize,
    model: &Database,
    bindings: &mut Bindings,
) -> bool {
    let Some(p) = premises.get(idx) else {
        return true;
    };
    let Premise::Atom(a) = p else {
        return false; // non-positive bodies never reach the DRed path
    };
    model.for_each_match(a, bindings, |b| body_satisfied(premises, idx + 1, model, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, split_facts};
    use hdl_base::SymbolTable;

    fn setup(src: &str) -> (SymbolTable, Rulebase, Database) {
        let mut syms = SymbolTable::new();
        let parsed = parse_program(src, &mut syms).unwrap();
        let (rules, facts) = split_facts(parsed);
        let mut db = Database::new();
        for f in facts {
            db.insert(f);
        }
        (syms, rules, db)
    }

    fn full_model(rb: &Rulebase, db: &Database) -> Database {
        BottomUpEngine::new(rb, db).unwrap().model().unwrap()
    }

    fn ga(syms: &mut SymbolTable, pred: &str, args: &[&str]) -> GroundAtom {
        let p = syms.intern(pred);
        let a = args.iter().map(|c| syms.intern(c)).collect();
        GroundAtom::new(p, a)
    }

    #[test]
    fn positive_retraction_matches_full_rebuild() {
        let (mut syms, rb, mut db) = setup(
            "edge(a, b). edge(b, c). edge(a, c).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        );
        let mut m = MaterializedModel::build(&rb, &db).unwrap();
        let fact = ga(&mut syms, "edge", &["a", "b"]);
        db.remove(&fact);
        m.retract_fact(&rb, &db, &fact).unwrap();
        assert_eq!(m.model(), &full_model(&rb, &db));
        assert_eq!(m.stats().incremental_retractions, 1);
        assert_eq!(m.stats().full_builds, 1, "no rebuild");
    }

    #[test]
    fn rederivation_restores_alternatively_supported_facts() {
        // tc(a, c) via a→b→c and via the direct edge; retracting the
        // direct edge must keep tc(a, c) (rederived), while retracting
        // edge(b, c) afterwards must finally kill it.
        let (mut syms, rb, mut db) = setup(
            "edge(a, b). edge(b, c). edge(a, c).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        );
        let mut m = MaterializedModel::build(&rb, &db).unwrap();
        let direct = ga(&mut syms, "edge", &["a", "c"]);
        db.remove(&direct);
        m.retract_fact(&rb, &db, &direct).unwrap();
        let tc_ac = ga(&mut syms, "tc", &["a", "c"]);
        assert!(m.model().contains(&tc_ac), "still supported via b");
        assert!(m.stats().rederived_facts > 0);
        let hop = ga(&mut syms, "edge", &["b", "c"]);
        db.remove(&hop);
        m.retract_fact(&rb, &db, &hop).unwrap();
        assert!(!m.model().contains(&tc_ac));
        assert_eq!(m.model(), &full_model(&rb, &db));
    }

    #[test]
    fn positive_assertion_matches_full_rebuild() {
        let (mut syms, rb, mut db) = setup(
            "edge(a, b). edge(c, a).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        );
        let mut m = MaterializedModel::build(&rb, &db).unwrap();
        let fact = ga(&mut syms, "edge", &["b", "c"]);
        db.insert(fact.clone());
        m.assert_fact(&rb, &db, &fact).unwrap();
        assert_eq!(m.model(), &full_model(&rb, &db));
        assert_eq!(m.stats().incremental_assertions, 1);
    }

    #[test]
    fn negation_dependent_cone_recomputes_conservatively() {
        // blocked depends on edge; open negates blocked. Retracting an
        // edge can make `open` facts *appear* — DRed would miss that.
        let (mut syms, rb, mut db) = setup(
            "edge(a, b). node(a). node(b).
             blocked(X) :- edge(X, Y).
             open(X) :- node(X), ~blocked(X).",
        );
        let mut m = MaterializedModel::build(&rb, &db).unwrap();
        let open_a = ga(&mut syms, "open", &["a"]);
        assert!(!m.model().contains(&open_a));
        let fact = ga(&mut syms, "edge", &["a", "b"]);
        db.remove(&fact);
        m.retract_fact(&rb, &db, &fact).unwrap();
        assert!(m.model().contains(&open_a), "retraction added a fact");
        assert_eq!(m.model(), &full_model(&rb, &db));
        assert_eq!(m.stats().conservative_updates, 1);
        assert_eq!(m.stats().incremental_retractions, 0);
    }

    #[test]
    fn hypothetical_goal_cones_are_recomputed_not_seeded() {
        // In the old model `bad` is true (z is absent). Asserting p(a)
        // recomputes `good`, whose hypothetical premise re-evaluates
        // `bad` under the overlay +z — where it is *false*. If the
        // conservative path seeded bad's old model fact as EDB instead
        // of recomputing its cone, the overlay would see it as
        // unconditionally true and derive `good` wrongly.
        let (mut syms, rb, mut db) = setup(
            "w(a).
             good :- p(a), bad[add: z].
             bad :- ~z.",
        );
        let mut m = MaterializedModel::build(&rb, &db).unwrap();
        assert!(m.model().contains(&ga(&mut syms, "bad", &[])));
        let fact = ga(&mut syms, "p", &["a"]);
        db.insert(fact.clone());
        m.assert_fact(&rb, &db, &fact).unwrap();
        assert!(
            !m.model().contains(&ga(&mut syms, "good", &[])),
            "overlay +z falsifies bad, so good must stay out"
        );
        assert_eq!(m.model(), &full_model(&rb, &db));
        assert_eq!(m.stats().conservative_updates, 1);
    }

    #[test]
    fn new_constant_forces_domain_rebuild() {
        // open(X) :- node(X), ~edge(X, X) quantifies over the domain;
        // asserting a fact with a brand-new constant must rebuild.
        let (mut syms, rb, mut db) = setup(
            "node(a).
             open(X) :- node(X), ~edge(X, X).",
        );
        let mut m = MaterializedModel::build(&rb, &db).unwrap();
        let fact = ga(&mut syms, "node", &["zz"]);
        db.insert(fact.clone());
        m.assert_fact(&rb, &db, &fact).unwrap();
        assert!(m.stats().domain_rebuilds >= 1);
        assert_eq!(m.model(), &full_model(&rb, &db));
    }

    #[test]
    fn interleaved_churn_tracks_full_rebuild() {
        let (mut syms, rb, mut db) = setup(
            "node(n1). node(n2). node(n3). node(n4).
             edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n1).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        );
        let mut m = MaterializedModel::build(&rb, &db).unwrap();
        let script: &[(&str, &str, &str)] = &[
            ("-", "n2", "n3"),
            ("+", "n2", "n4"),
            ("-", "n4", "n1"),
            ("+", "n4", "n2"),
            ("-", "n1", "n2"),
            ("+", "n1", "n3"),
        ];
        for (op, x, y) in script {
            let fact = ga(&mut syms, "edge", &[x, y]);
            if *op == "+" {
                db.insert(fact.clone());
                m.assert_fact(&rb, &db, &fact).unwrap();
            } else {
                db.remove(&fact);
                m.retract_fact(&rb, &db, &fact).unwrap();
            }
            assert_eq!(m.model(), &full_model(&rb, &db));
        }
        assert_eq!(m.stats().full_builds, 1, "churn stayed incremental");
    }
}
