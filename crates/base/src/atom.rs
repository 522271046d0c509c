//! Atoms: predicate symbols applied to terms, plus their ground instances.

use crate::smallvec::SmallVec;
use crate::subst::Bindings;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::fmt;

/// A (possibly non-ground) atomic formula `p(t₁, …, tₙ)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// Predicate symbol.
    pub pred: Symbol,
    /// Argument terms; the arity is `args.len()`.
    pub args: Vec<Term>,
}

impl Atom {
    /// Builds an atom from a predicate and arguments.
    pub fn new(pred: Symbol, args: Vec<Term>) -> Self {
        Atom { pred, args }
    }

    /// The arity of this atom.
    #[inline]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Whether every argument is a constant.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| !t.is_var())
    }

    /// Iterates over the variables occurring in this atom (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// Applies `bindings`, producing a ground atom.
    ///
    /// Returns `None` if any variable is unbound.
    pub fn ground(&self, bindings: &Bindings) -> Option<GroundAtom> {
        Some(GroundAtom {
            pred: self.pred,
            args: self.ground_args(bindings)?.to_vec(),
        })
    }

    /// Applies `bindings` to the arguments only, into an inline buffer:
    /// the allocation-free form of [`Atom::ground`] for probing the fact
    /// interner or a [`crate::Database`] with an instance that is usually
    /// already stored.
    ///
    /// Returns `None` if any variable is unbound.
    pub fn ground_args(&self, bindings: &Bindings) -> Option<GroundArgs> {
        let mut args = GroundArgs::new();
        for &t in &self.args {
            match t {
                Term::Const(c) => args.push(c),
                Term::Var(v) => args.push(bindings.get(v)?),
            }
        }
        Some(args)
    }

    /// Converts a ground atom view of this atom, if it is ground.
    pub fn to_ground(&self) -> Option<GroundAtom> {
        let mut args = Vec::with_capacity(self.args.len());
        for &t in &self.args {
            args.push(t.as_const()?);
        }
        Some(GroundAtom {
            pred: self.pred,
            args,
        })
    }
}

/// The constants of a grounded atom, inline up to arity 8 (see
/// [`Atom::ground_args`]).
pub type GroundArgs = SmallVec<Symbol, 8>;

/// A ground atomic formula `p(c₁, …, cₙ)` — a database fact.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundAtom {
    /// Predicate symbol.
    pub pred: Symbol,
    /// Constant arguments.
    pub args: Vec<Symbol>,
}

impl GroundAtom {
    /// Builds a ground atom.
    pub fn new(pred: Symbol, args: Vec<Symbol>) -> Self {
        GroundAtom { pred, args }
    }

    /// The arity of this fact.
    #[inline]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Lifts this fact back into a (ground) [`Atom`].
    pub fn to_atom(&self) -> Atom {
        Atom {
            pred: self.pred,
            args: self.args.iter().map(|&c| Term::Const(c)).collect(),
        }
    }
}

impl fmt::Debug for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}(", self.pred.0)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", a.0)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Symbol {
        Symbol(0)
    }

    #[test]
    fn groundness() {
        let ground = Atom::new(p(), vec![Term::Const(Symbol(1)), Term::Const(Symbol(2))]);
        let open = Atom::new(p(), vec![Term::Var(Var(0)), Term::Const(Symbol(2))]);
        assert!(ground.is_ground());
        assert!(!open.is_ground());
        assert_eq!(
            ground.to_ground(),
            Some(GroundAtom::new(p(), vec![Symbol(1), Symbol(2)]))
        );
        assert_eq!(open.to_ground(), None);
    }

    #[test]
    fn grounding_with_bindings() {
        let open = Atom::new(p(), vec![Term::Var(Var(0)), Term::Const(Symbol(2))]);
        let mut b = Bindings::new(1);
        assert_eq!(open.ground(&b), None);
        b.set(Var(0), Symbol(9));
        assert_eq!(
            open.ground(&b),
            Some(GroundAtom::new(p(), vec![Symbol(9), Symbol(2)]))
        );
        let args = open.ground_args(&b).unwrap();
        assert!(args.is_inline());
        assert_eq!(args.as_slice(), &[Symbol(9), Symbol(2)]);
    }

    #[test]
    fn vars_iterator() {
        let a = Atom::new(
            p(),
            vec![Term::Var(Var(0)), Term::Const(Symbol(1)), Term::Var(Var(0))],
        );
        let vs: Vec<_> = a.vars().collect();
        assert_eq!(vs, vec![Var(0), Var(0)]);
    }

    #[test]
    fn roundtrip_atom_ground_atom() {
        let g = GroundAtom::new(p(), vec![Symbol(3), Symbol(4)]);
        assert_eq!(g.to_atom().to_ground(), Some(g.clone()));
        assert_eq!(g.arity(), 2);
    }
}
