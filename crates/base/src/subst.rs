//! Substitutions and pattern matching against ground facts.
//!
//! Rules are range-grounded by the engines (Definition 3 quantifies over
//! ground substitutions), so the only unification needed is *matching*: a
//! pattern atom with variables against a ground fact. Bindings are flat
//! buffers indexed by rule-scoped [`Var`] ids, reused across match attempts
//! via an undo trail. Slots, trails and free-variable lists live inline
//! (up to [`INLINE_VARS`] variables), so neither creating bindings for a
//! rule nor a match attempt allocates.

use crate::atom::{Atom, GroundAtom};
use crate::smallvec::SmallVec;
use crate::symbol::Symbol;
use crate::term::{Term, Var};

/// Variables a rule can have before [`Bindings`] (and a [`VarList`])
/// spill to the heap.
pub const INLINE_VARS: usize = 8;

/// A short list of variables: a match's undo trail, or the free
/// variables of a premise.
pub type VarList = SmallVec<Var, INLINE_VARS>;

/// A partial assignment of rule variables to constants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bindings {
    slots: SmallVec<Option<Symbol>, INLINE_VARS>,
}

impl Bindings {
    /// Creates an all-unbound assignment for a rule with `nvars` variables.
    pub fn new(nvars: usize) -> Self {
        Bindings {
            slots: SmallVec::from_elem(None, nvars),
        }
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current value of `v`, if bound.
    #[inline]
    pub fn get(&self, v: Var) -> Option<Symbol> {
        self.slots[v.index()]
    }

    /// Binds `v` to `c`, overwriting any previous value.
    #[inline]
    pub fn set(&mut self, v: Var, c: Symbol) {
        self.slots.as_mut_slice()[v.index()] = c.into();
    }

    /// Unbinds `v`.
    #[inline]
    pub fn unset(&mut self, v: Var) {
        self.slots.as_mut_slice()[v.index()] = None;
    }

    /// Whether every slot is bound.
    pub fn is_total(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// Attempts to match `pattern` against ground `fact`, extending `self`.
    ///
    /// On success returns a trail of the variables newly bound by this call
    /// (for undo); on failure `self` is restored and `None` is returned.
    #[inline]
    pub fn match_atom(&mut self, pattern: &Atom, fact: &GroundAtom) -> Option<VarList> {
        if pattern.pred != fact.pred {
            return None;
        }
        self.match_args(pattern, &fact.args)
    }

    /// Matches the arguments of `pattern` against the constants `args`
    /// (the predicate is the caller's to check), extending `self` as
    /// [`match_atom`](Bindings::match_atom) does.
    pub fn match_args(&mut self, pattern: &Atom, args: &[Symbol]) -> Option<VarList> {
        if pattern.args.len() != args.len() {
            return None;
        }
        let mut trail = VarList::new();
        for (&t, &c) in pattern.args.iter().zip(args) {
            match t {
                Term::Const(k) => {
                    if k != c {
                        self.undo(&trail);
                        return None;
                    }
                }
                Term::Var(v) => match self.get(v) {
                    Some(bound) => {
                        if bound != c {
                            self.undo(&trail);
                            return None;
                        }
                    }
                    None => {
                        self.set(v, c);
                        trail.push(v);
                    }
                },
            }
        }
        Some(trail)
    }

    /// Unbinds every variable in `trail` (reverses a [`match_atom`] success).
    ///
    /// [`match_atom`]: Bindings::match_atom
    pub fn undo(&mut self, trail: &[Var]) {
        for &v in trail {
            self.unset(v);
        }
    }

    /// The unbound variables of `atom` under the current assignment,
    /// deduplicated in first-occurrence order.
    pub fn free_vars_of(&self, atom: &Atom) -> VarList {
        let mut out = VarList::new();
        for v in atom.vars() {
            if self.get(v).is_none() && !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    #[test]
    fn match_binds_and_trails() {
        let pat = Atom::new(sym(0), vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        let fact = GroundAtom::new(sym(0), vec![sym(5), sym(6)]);
        let mut b = Bindings::new(2);
        let trail = b.match_atom(&pat, &fact).expect("should match");
        assert_eq!(trail.as_slice(), &[Var(0), Var(1)]);
        assert_eq!(b.get(Var(0)), Some(sym(5)));
        assert_eq!(b.get(Var(1)), Some(sym(6)));
        b.undo(&trail);
        assert_eq!(b.get(Var(0)), None);
    }

    #[test]
    fn match_respects_existing_bindings() {
        let pat = Atom::new(sym(0), vec![Term::Var(Var(0)), Term::Var(Var(0))]);
        let eq = GroundAtom::new(sym(0), vec![sym(3), sym(3)]);
        let ne = GroundAtom::new(sym(0), vec![sym(3), sym(4)]);
        let mut b = Bindings::new(1);
        assert!(b.match_atom(&pat, &eq).is_some());
        b.unset(Var(0));
        // A failed match must restore the pre-call state.
        assert!(b.match_atom(&pat, &ne).is_none());
        assert_eq!(b.get(Var(0)), None);
    }

    #[test]
    fn match_rejects_wrong_predicate_or_arity() {
        let pat = Atom::new(sym(0), vec![Term::Var(Var(0))]);
        let wrong_pred = GroundAtom::new(sym(1), vec![sym(2)]);
        let wrong_arity = GroundAtom::new(sym(0), vec![sym(2), sym(3)]);
        let mut b = Bindings::new(1);
        assert!(b.match_atom(&pat, &wrong_pred).is_none());
        assert!(b.match_atom(&pat, &wrong_arity).is_none());
    }

    #[test]
    fn match_constant_mismatch_restores() {
        let pat = Atom::new(sym(0), vec![Term::Var(Var(0)), Term::Const(sym(9))]);
        let fact = GroundAtom::new(sym(0), vec![sym(1), sym(8)]);
        let mut b = Bindings::new(1);
        assert!(b.match_atom(&pat, &fact).is_none());
        assert_eq!(b.get(Var(0)), None, "partial binding must be rolled back");
    }

    #[test]
    fn bindings_beyond_the_inline_capacity_spill() {
        let n = INLINE_VARS + 3;
        let pat = Atom::new(sym(0), (0..n as u32).map(|i| Term::Var(Var(i))).collect());
        let fact = GroundAtom::new(sym(0), (0..n as u32).map(sym).collect());
        let mut b = Bindings::new(n);
        let trail = b.match_atom(&pat, &fact).expect("should match");
        assert_eq!(trail.len(), n);
        assert!(b.is_total());
        b.undo(&trail);
        assert_eq!(b.free_vars_of(&pat).len(), n);
    }

    #[test]
    fn free_vars_dedup_in_order() {
        let a = Atom::new(
            sym(0),
            vec![
                Term::Var(Var(2)),
                Term::Var(Var(0)),
                Term::Var(Var(2)),
                Term::Const(sym(1)),
            ],
        );
        let mut b = Bindings::new(3);
        assert_eq!(b.free_vars_of(&a).as_slice(), &[Var(2), Var(0)]);
        b.set(Var(2), sym(4));
        assert_eq!(b.free_vars_of(&a).as_slice(), &[Var(0)]);
    }
}
