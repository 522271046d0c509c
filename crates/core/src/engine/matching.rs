//! Shared premise-matching over layered models.
//!
//! The fixpoint kernel ([`crate::engine::fixpoint`]) evaluates rule
//! premises against a model split across layers: the interned EDB (a
//! [`DbView`] over the overlay DAG), facts derived in earlier fixpoint
//! rounds, and the facts derived in the *previous* round (the semi-naive
//! delta). This module owns that layering, so the semi-naive
//! delta-rotation and the engines' model lookups read the same three
//! layers everywhere.
//!
//! Layer discipline (classic semi-naive evaluation):
//!
//! - `Full`  = EDB ∪ older ∪ delta — the model after round `r-1`.
//! - `Old`   = EDB ∪ older — the model after round `r-2`.
//! - `Delta` = delta — facts first derived in round `r-1`.
//!
//! A rule with positive premises `p₁ … pₙ` over the growing stratum fires
//! each instantiation exactly once per round via the rotation
//! `Full^{<j} ⋈ Δp_j ⋈ Old^{>j}`: premise `j` is pinned to the delta,
//! premises before it read the full model, premises after it the old one.

use hdl_base::{Atom, Bindings, Database, DbView, MatchCounters, Symbol, Var};

/// Which slice of the layered model a premise reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// EDB ∪ older ∪ delta (the whole model so far).
    Full,
    /// EDB ∪ older (the model minus the newest round).
    Old,
    /// Only the facts derived in the previous round.
    Delta,
}

/// A bottom-up model split into EDB view + derived layers.
///
/// `older` and `delta` are disjoint from each other and from the view
/// (derivation only records facts not already present), so no match
/// repeats across layers.
#[derive(Clone, Copy)]
pub struct ModelLayers<'a> {
    /// The interned extensional layer (and, for `PROVE_Δᵢ`, everything
    /// below the current stratum).
    pub view: DbView<'a>,
    /// Facts derived before the previous round.
    pub older: &'a Database,
    /// Facts derived in the previous round.
    pub delta: &'a Database,
}

impl<'a> ModelLayers<'a> {
    /// Layers for semi-naive rotation.
    pub fn new(view: DbView<'a>, older: &'a Database, delta: &'a Database) -> Self {
        ModelLayers { view, older, delta }
    }

    /// Runs `f` on every match of `atom` in the selected `part`,
    /// accumulating probe/attempt work into `counters`. `f` returning
    /// `true` stops the scan early; bindings are restored between
    /// candidates and after the call. Returns `true` if `f` stopped it.
    pub fn for_each_match(
        &self,
        part: Part,
        atom: &Atom,
        bindings: &mut Bindings,
        counters: &mut MatchCounters,
        mut f: impl FnMut(&mut Bindings) -> bool,
    ) -> bool {
        match part {
            Part::Full => {
                self.view
                    .for_each_match_counted(atom, bindings, counters, &mut f)
                    || self
                        .older
                        .for_each_match_counted(atom, bindings, counters, &mut f)
                    || self
                        .delta
                        .for_each_match_counted(atom, bindings, counters, f)
            }
            Part::Old => {
                self.view
                    .for_each_match_counted(atom, bindings, counters, &mut f)
                    || self
                        .older
                        .for_each_match_counted(atom, bindings, counters, f)
            }
            Part::Delta => self
                .delta
                .for_each_match_counted(atom, bindings, counters, f),
        }
    }

    /// Collects the binding rows matching `atom` in the selected `part`
    /// (only the newly bound variables are recorded, for replay in the
    /// caller).
    pub fn collect_matches(
        &self,
        part: Part,
        atom: &Atom,
        bindings: &mut Bindings,
        counters: &mut MatchCounters,
    ) -> Vec<Vec<(Var, Symbol)>> {
        let before: Vec<Var> = bindings.free_vars_of(atom);
        let mut rows = Vec::new();
        self.for_each_match(part, atom, bindings, counters, |b| {
            rows.push(
                before
                    .iter()
                    .map(|&v| (v, b.get(v).expect("bound by match")))
                    .collect(),
            );
            false
        });
        rows
    }

    /// Whether `atom` matches anywhere in the selected `part`.
    pub fn exists(
        &self,
        part: Part,
        atom: &Atom,
        bindings: &mut Bindings,
        counters: &mut MatchCounters,
    ) -> bool {
        self.for_each_match(part, atom, bindings, counters, |_| true)
    }
}

/// The variables of `goal`, `adds`, and `dels` not bound under
/// `bindings`, in first-occurrence order (the enumeration order for
/// grounding a hypothetical premise over the domain).
pub fn collect_free(goal: &Atom, adds: &[Atom], dels: &[Atom], bindings: &Bindings) -> Vec<Var> {
    let mut free: Vec<Var> = Vec::new();
    for v in goal
        .vars()
        .chain(adds.iter().flat_map(|a| a.vars()))
        .chain(dels.iter().flat_map(|a| a.vars()))
    {
        if bindings.get(v).is_none() && !free.contains(&v) {
            free.push(v);
        }
    }
    free
}

/// An empty derived layer, for callers whose model has no delta split
/// (round 0, or naive reference evaluation).
pub fn empty_layer() -> &'static Database {
    static EMPTY: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    EMPTY.get_or_init(Database::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl_base::{DbStore, GroundAtom, Term};

    fn fact(p: u32, args: &[u32]) -> GroundAtom {
        GroundAtom::new(Symbol(p), args.iter().map(|&a| Symbol(a)).collect())
    }

    #[test]
    fn parts_read_the_right_layers() {
        let mut dbs = DbStore::new();
        let db = dbs.intern_facts([fact(0, &[1])]);
        let mut older = Database::new();
        older.insert(fact(0, &[2]));
        let mut delta = Database::new();
        delta.insert(fact(0, &[3]));
        let layers = ModelLayers::new(dbs.view(db), &older, &delta);

        let pattern = Atom::new(Symbol(0), vec![Term::Var(Var(0))]);
        let mut b = Bindings::new(1);
        let mut c = MatchCounters::default();
        let collect = |part: Part, b: &mut Bindings, c: &mut MatchCounters| -> Vec<u32> {
            let mut seen = Vec::new();
            layers.for_each_match(part, &pattern, b, c, |bb| {
                seen.push(bb.get(Var(0)).unwrap().0);
                false
            });
            seen
        };
        assert_eq!(collect(Part::Full, &mut b, &mut c), vec![1, 2, 3]);
        assert_eq!(collect(Part::Old, &mut b, &mut c), vec![1, 2]);
        assert_eq!(collect(Part::Delta, &mut b, &mut c), vec![3]);
        assert_eq!(c.attempts, 6, "each layer candidate tested once");

        let bound = Atom::new(Symbol(0), vec![Term::Const(Symbol(3))]);
        assert!(layers.exists(Part::Delta, &bound, &mut b, &mut c));
        assert!(!layers.exists(Part::Old, &bound, &mut b, &mut c));
        assert!(layers
            .collect_matches(Part::Full, &pattern, &mut b, &mut c)
            .len()
            .eq(&3));
    }

    #[test]
    fn collect_free_orders_first_occurrence() {
        let goal = Atom::new(Symbol(0), vec![Term::Var(Var(1)), Term::Var(Var(0))]);
        let adds = [Atom::new(
            Symbol(1),
            vec![Term::Var(Var(2)), Term::Var(Var(1))],
        )];
        let dels = [Atom::new(Symbol(2), vec![Term::Var(Var(3))])];
        let mut b = Bindings::new(4);
        assert_eq!(
            collect_free(&goal, &adds, &dels, &b),
            vec![Var(1), Var(0), Var(2), Var(3)]
        );
        b.set(Var(0), Symbol(9));
        assert_eq!(
            collect_free(&goal, &adds, &dels, &b),
            vec![Var(1), Var(2), Var(3)]
        );
        assert!(empty_layer().is_empty());
    }
}
