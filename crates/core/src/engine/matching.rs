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
//!
//! Nothing here allocates per candidate. Matching tests the layers'
//! stored facts in place, and [`ModelLayers::collect_rows`] appends the
//! matches a caller must replay (because its walk needs `&mut` state the
//! layers borrow) to one flat buffer of constants, one fixed-width row
//! per match, instead of a vector per row. Callers use that buffer as a
//! stack: collect above its current length, replay, truncate back.

use hdl_base::{Atom, Bindings, Database, DbView, MatchCounters, Symbol, Var, VarList};

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

    /// Appends one row per match of `atom` in the selected `part` to
    /// `rows`: the values the match gives `vars` (the atom's free
    /// variables under `bindings`), in order. Returns the number of rows,
    /// which [`replay_row`] binds back one at a time.
    pub fn collect_rows(
        &self,
        part: Part,
        atom: &Atom,
        vars: &[Var],
        bindings: &mut Bindings,
        counters: &mut MatchCounters,
        rows: &mut Vec<Symbol>,
    ) -> usize {
        let mut n = 0;
        self.for_each_match(part, atom, bindings, counters, |b| {
            rows.extend(vars.iter().map(|&v| b.get(v).expect("bound by match")));
            n += 1;
            false
        });
        n
    }

    /// How many candidates a match of `atom` in the selected `part` would
    /// test under `bindings`: the index buckets each layer would probe
    /// (see [`Database::estimate`] and [`DbView::estimate`]). The premise
    /// walk of the fixpoint kernel orders a rule's atoms by it.
    pub fn estimate(&self, part: Part, atom: &Atom, bindings: &Bindings) -> usize {
        match part {
            Part::Full => {
                self.view.estimate(atom, bindings)
                    + self.older.estimate(atom, bindings)
                    + self.delta.estimate(atom, bindings)
            }
            Part::Old => self.view.estimate(atom, bindings) + self.older.estimate(atom, bindings),
            Part::Delta => self.delta.estimate(atom, bindings),
        }
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

/// Binds `vars` to row `i` of the rows a [`ModelLayers::collect_rows`]
/// call appended to `rows` from offset `base`.
pub fn replay_row(rows: &[Symbol], base: usize, i: usize, vars: &[Var], bindings: &mut Bindings) {
    let row = &rows[base + i * vars.len()..][..vars.len()];
    for (&v, &c) in vars.iter().zip(row) {
        bindings.set(v, c);
    }
}

/// The variables of `goal`, `adds`, and `dels` not bound under
/// `bindings`, in first-occurrence order (the enumeration order for
/// grounding a hypothetical premise over the domain).
pub fn collect_free(goal: &Atom, adds: &[Atom], dels: &[Atom], bindings: &Bindings) -> VarList {
    let mut free = VarList::new();
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
        assert_eq!(layers.estimate(Part::Full, &pattern, &b), 3);
        assert_eq!(layers.estimate(Part::Old, &pattern, &b), 2);
        assert_eq!(layers.estimate(Part::Delta, &pattern, &b), 1);
        b.set(Var(0), Symbol(2));
        assert_eq!(layers.estimate(Part::Full, &pattern, &b), 1, "one bucket");
        assert_eq!(layers.estimate(Part::Delta, &pattern, &b), 0);
        b.unset(Var(0));

        let bound = Atom::new(Symbol(0), vec![Term::Const(Symbol(3))]);
        assert!(layers.exists(Part::Delta, &bound, &mut b, &mut c));
        assert!(!layers.exists(Part::Old, &bound, &mut b, &mut c));
        let mut rows = vec![Symbol(99)];
        let vars = [Var(0)];
        let n = layers.collect_rows(Part::Full, &pattern, &vars, &mut b, &mut c, &mut rows);
        assert_eq!(n, 3);
        assert_eq!(rows, [99, 1, 2, 3].map(Symbol), "appended above the base");
        replay_row(&rows, 1, 2, &vars, &mut b);
        assert_eq!(b.get(Var(0)), Some(Symbol(3)));
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
            collect_free(&goal, &adds, &dels, &b).as_slice(),
            &[Var(1), Var(0), Var(2), Var(3)]
        );
        b.set(Var(0), Symbol(9));
        assert_eq!(
            collect_free(&goal, &adds, &dels, &b).as_slice(),
            &[Var(1), Var(2), Var(3)]
        );
        assert!(empty_layer().is_empty());
    }
}
