//! Abstract syntax of hypothetical Datalog (Definitions 1–2 of the paper).
//!
//! A *premise* is an atom `A`, a negated atom `~A` (§3.1), or a
//! hypothetical query `A[add: B₁,…,Bₘ]`. Definition 1 gives the single-atom
//! form `A[add: B]`; the multi-atom form is the generalization the paper
//! itself uses in the §5.1.3 transition rules, which insert a control atom
//! and two cell atoms in one step. The `del:` list is the removal dual
//! (after Sáenz-Pérez's restricted hypothetical Datalog):
//! `A[add: B̄, del: C̄]` asks whether `A` is provable in
//! `(DB ∖ C̄) ∪ B̄` — deletions apply first, so a fact listed in both ends
//! up present. A *hypothetical rule* is `H ← φ₁, …, φₖ` with atomic
//! head `H`.

use hdl_base::{Atom, Symbol, Var};

/// A rule premise (Definition 1, extended with negation per §3.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Premise {
    /// `A` — provable in the current database.
    Atom(Atom),
    /// `~A` — not provable in the current database (negation as failure).
    ///
    /// Only atomic queries may be negated (the paper's simplifying
    /// assumption); `~A[add:B]` must be expressed via an auxiliary
    /// predicate `C ← A[add:B]` and `~C`.
    Neg(Atom),
    /// `A[add: B₁,…,Bₘ, del: C₁,…,Cₙ]` — `A` provable after hypothetically
    /// removing the (ground instances of the) `Cⱼ` and inserting the `Bᵢ`,
    /// in that order. At least one of the lists must be nonempty.
    Hyp {
        /// The goal to prove in the modified database.
        goal: Atom,
        /// The atoms to insert (may be empty if `dels` is not).
        adds: Vec<Atom>,
        /// The atoms to remove (may be empty if `adds` is not). Removal is
        /// negation-like for stratification: the goal's evaluation depends
        /// on facts being *absent*.
        dels: Vec<Atom>,
    },
}

impl Premise {
    /// The goal atom of this premise (the atom whose provability is
    /// tested; for `Hyp` this is the goal, not the additions).
    pub fn goal(&self) -> &Atom {
        match self {
            Premise::Atom(a) | Premise::Neg(a) => a,
            Premise::Hyp { goal, .. } => goal,
        }
    }

    /// The atoms hypothetically added by this premise (empty unless `Hyp`).
    pub fn adds(&self) -> &[Atom] {
        match self {
            Premise::Hyp { adds, .. } => adds,
            _ => &[],
        }
    }

    /// The constants of the atoms this premise hypothetically adds:
    /// those Definition 3 joins to a hypothetical query's domain.
    pub fn add_constants(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.adds()
            .iter()
            .flat_map(|a| a.args.iter().filter_map(|t| t.as_const()))
    }

    /// The atoms hypothetically removed by this premise (empty unless
    /// `Hyp` with a `del:` list).
    pub fn dels(&self) -> &[Atom] {
        match self {
            Premise::Hyp { dels, .. } => dels,
            _ => &[],
        }
    }

    /// Whether this premise is a negation.
    pub fn is_negative(&self) -> bool {
        matches!(self, Premise::Neg(_))
    }

    /// Whether this premise is hypothetical.
    pub fn is_hypothetical(&self) -> bool {
        matches!(self, Premise::Hyp { .. })
    }

    /// All atoms mentioned (goal, additions, removals).
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> {
        std::iter::once(self.goal())
            .chain(self.adds().iter())
            .chain(self.dels().iter())
    }

    /// All variables mentioned (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.atoms().flat_map(|a| a.vars())
    }
}

/// A hypothetical rule (Definition 2): `head ← premises`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HypRule {
    /// Atomic conclusion.
    pub head: Atom,
    /// Conjunctive premises (possibly empty: a fact schema).
    pub premises: Vec<Premise>,
    /// Number of distinct variables (densely numbered `0..num_vars`).
    pub num_vars: usize,
}

impl HypRule {
    /// Builds a rule, computing `num_vars` from the maximum variable index.
    pub fn new(head: Atom, premises: Vec<Premise>) -> Self {
        let max = head
            .vars()
            .chain(
                premises
                    .iter()
                    .flat_map(|p| p.atoms().flat_map(|a| a.vars()).collect::<Vec<_>>()),
            )
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        HypRule {
            head,
            premises,
            num_vars: max,
        }
    }

    /// Whether the rule body is empty.
    pub fn is_fact(&self) -> bool {
        self.premises.is_empty()
    }

    /// Predicates occurring positively (Definition 4): plain atoms `B(x̄)`.
    pub fn positive_preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.premises.iter().filter_map(|p| match p {
            Premise::Atom(a) => Some(a.pred),
            _ => None,
        })
    }

    /// Predicates occurring negatively (Definition 4): `~B(x̄)`.
    pub fn negative_preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.premises.iter().filter_map(|p| match p {
            Premise::Neg(a) => Some(a.pred),
            _ => None,
        })
    }

    /// Predicates occurring hypothetically (Definition 4): the goal `B` of
    /// `B(x̄)[add: C(ȳ)]`.
    pub fn hypothetical_preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.premises.iter().filter_map(|p| match p {
            Premise::Hyp { goal, .. } => Some(goal.pred),
            _ => None,
        })
    }

    /// Predicates of atoms appearing in `add` lists (the inserted facts).
    ///
    /// Definition 4 does not treat these as "occurrences" for
    /// stratification, but analyses and pretty-printers still need them.
    pub fn added_preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.premises
            .iter()
            .flat_map(|p| p.adds().iter().map(|a| a.pred))
    }

    /// Predicates of atoms appearing in `del` lists (the removed facts).
    ///
    /// Like `add`-list atoms these are not occurrences; but a premise
    /// carrying a `del:` list makes its *goal* occurrence negation-like
    /// (see [`crate::analysis::RecursionAnalysis`]).
    pub fn deleted_preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.premises
            .iter()
            .flat_map(|p| p.dels().iter().map(|a| a.pred))
    }

    /// Every predicate the rule mentions anywhere (head, premises, adds).
    pub fn all_preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        std::iter::once(self.head.pred)
            .chain(self.premises.iter().flat_map(|p| p.atoms().map(|a| a.pred)))
    }

    /// Whether the rule mentions any constant symbol (used by the §6
    /// constant-free genericity condition).
    pub fn mentions_constants(&self) -> bool {
        std::iter::once(&self.head)
            .chain(self.premises.iter().flat_map(|p| p.atoms()))
            .any(|a| a.args.iter().any(|t| !t.is_var()))
    }
}

/// A rulebase: an ordered collection of hypothetical rules.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Rulebase {
    /// Rules in source order.
    pub rules: Vec<HypRule>,
}

impl Rulebase {
    /// Creates an empty rulebase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: HypRule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the rulebase is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &HypRule> {
        self.rules.iter()
    }

    /// The rules whose head predicate is `p` (the *definition* of `p`,
    /// Definition 5).
    pub fn definition(&self, p: Symbol) -> impl Iterator<Item = &HypRule> {
        self.rules.iter().filter(move |r| r.head.pred == p)
    }

    /// All constant symbols mentioned by any rule.
    pub fn constants(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self
            .rules
            .iter()
            .flat_map(|r| {
                std::iter::once(&r.head)
                    .chain(r.premises.iter().flat_map(|p| p.atoms()))
                    .flat_map(|a| a.args.iter().filter_map(|t| t.as_const()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the rulebase is constant-free (§6: such rulebases express
    /// only generic queries).
    pub fn is_constant_free(&self) -> bool {
        self.rules.iter().all(|r| !r.mentions_constants())
    }
}

impl FromIterator<HypRule> for Rulebase {
    fn from_iter<I: IntoIterator<Item = HypRule>>(iter: I) -> Self {
        Rulebase {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl_base::Term;

    fn s(i: u32) -> Symbol {
        Symbol(i)
    }
    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }
    fn atom(p: u32, args: &[Term]) -> Atom {
        Atom::new(s(p), args.to_vec())
    }

    #[test]
    fn premise_accessors() {
        let hyp = Premise::Hyp {
            goal: atom(0, &[v(0)]),
            adds: vec![atom(1, &[v(0)]), atom(2, &[])],
            dels: vec![atom(4, &[v(1)])],
        };
        assert_eq!(hyp.goal().pred, s(0));
        assert_eq!(hyp.adds().len(), 2);
        assert_eq!(hyp.dels().len(), 1);
        assert!(hyp.is_hypothetical());
        assert!(!hyp.is_negative());
        assert_eq!(hyp.atoms().count(), 4);

        let neg = Premise::Neg(atom(3, &[]));
        assert!(neg.is_negative());
        assert!(neg.adds().is_empty());
    }

    #[test]
    fn occurrence_classification_follows_definition_4() {
        // h :- a(X), ~b(X), c(X)[add: d(X)].
        let r = HypRule::new(
            atom(9, &[]),
            vec![
                Premise::Atom(atom(0, &[v(0)])),
                Premise::Neg(atom(1, &[v(0)])),
                Premise::Hyp {
                    goal: atom(2, &[v(0)]),
                    adds: vec![atom(3, &[v(0)])],
                    dels: vec![atom(4, &[v(0)])],
                },
            ],
        );
        assert_eq!(r.positive_preds().collect::<Vec<_>>(), vec![s(0)]);
        assert_eq!(r.negative_preds().collect::<Vec<_>>(), vec![s(1)]);
        assert_eq!(r.hypothetical_preds().collect::<Vec<_>>(), vec![s(2)]);
        assert_eq!(r.added_preds().collect::<Vec<_>>(), vec![s(3)]);
        assert_eq!(r.deleted_preds().collect::<Vec<_>>(), vec![s(4)]);
        assert_eq!(r.num_vars, 1);
    }

    #[test]
    fn definition_selects_by_head() {
        let mut rb = Rulebase::new();
        rb.push(HypRule::new(atom(0, &[]), vec![]));
        rb.push(HypRule::new(atom(1, &[]), vec![]));
        rb.push(HypRule::new(
            atom(0, &[]),
            vec![Premise::Atom(atom(1, &[]))],
        ));
        assert_eq!(rb.definition(s(0)).count(), 2);
        assert_eq!(rb.definition(s(1)).count(), 1);
        assert_eq!(rb.definition(s(7)).count(), 0);
    }

    #[test]
    fn constant_freedom() {
        let open = HypRule::new(atom(0, &[v(0)]), vec![Premise::Atom(atom(1, &[v(0)]))]);
        let closed = HypRule::new(atom(0, &[Term::Const(s(5))]), vec![]);
        let rb: Rulebase = [open.clone()].into_iter().collect();
        assert!(rb.is_constant_free());
        let rb2: Rulebase = [open, closed].into_iter().collect();
        assert!(!rb2.is_constant_free());
        assert_eq!(rb2.constants(), vec![s(5)]);
    }
}
