//! Shared engine context: domain, database lattice, and per-rule
//! evaluation plans.

use crate::analysis::recursion::RecursionAnalysis;
use crate::analysis::stratify::global_strata;
use crate::ast::{Premise, Rulebase};
use hdl_base::{
    Atom, Bindings, Database, DbId, DbStore, FactId, FxHashMap, GroundAtom, Result, SmallVec,
    Symbol, Var, VarList,
};
use std::sync::Arc;

/// Precomputed evaluation data for one rule.
#[derive(Debug, Clone)]
pub struct RulePlan {
    /// For each premise: the variables that are *inner-existential* when
    /// the premise is negated — variables whose only occurrence in the
    /// whole rule is inside this one negated premise. `~select(Y)` with
    /// `Y` appearing nowhere else reads as "no `Y` is selectable"
    /// (¬∃Y select(Y)), which is how the paper's Examples 6–7 use it.
    /// Variables shared with other premises or the head are grounded by
    /// the outer substitution of Definition 3 instead.
    pub inner_neg_vars: Vec<VarList>,
}

/// Evaluation context for one `(rulebase, database)` pair.
///
/// The context owns the [`DbStore`] — the lattice of databases reached by
/// hypothetical insertions. Both engines (top-down and bottom-up) borrow
/// their behaviour from here so their answers are comparable
/// structure-for-structure.
pub struct Context<'rb> {
    /// The rulebase under evaluation.
    pub rb: &'rb Rulebase,
    /// `dom(R, DB)`: all constants in the rulebase and the base database
    /// (Definition 3), plus, while a query runs, the fresh constants of
    /// its `add:` atoms (see [`Context::widen_domain`]). Sorted.
    pub domain: Vec<Symbol>,
    /// Membership view of [`Context::domain`].
    pub domain_set: hdl_base::FxHashSet<Symbol>,
    /// The constants [`Context::widen_domain`] joined to the domain for
    /// the running query.
    widened: Vec<Symbol>,
    /// The database lattice.
    pub dbs: DbStore,
    /// The interned base database all queries start from.
    pub base_db: DbId,
    /// Rule indices grouped by head predicate. Shared immutably so the
    /// engines can hold a group across recursion without copying it.
    pub defs: FxHashMap<Symbol, Arc<[usize]>>,
    /// Per-rule plans, parallel to `rb.rules`.
    pub plans: Vec<RulePlan>,
}

impl<'rb> Context<'rb> {
    /// Builds a context; fails if the rulebase is not stratified.
    pub fn new(rb: &'rb Rulebase, db: &Database) -> Result<Self> {
        Self::new_with_constants(rb, db, &[])
    }

    /// Like [`Context::new`], but with `extra` constants joined into
    /// `dom(R, DB)`. Incremental maintenance evaluates *reduced*
    /// rulebases whose groundings must still range over the full
    /// program's domain; this is how the dropped rules' constants get
    /// back in.
    pub fn new_with_constants(rb: &'rb Rulebase, db: &Database, extra: &[Symbol]) -> Result<Self> {
        global_strata(rb, &RecursionAnalysis::new(rb), None)?;
        Ok(Self::stratified(rb, db, extra))
    }

    /// [`Context::new_with_constants`] without the stratification check,
    /// for the engines that stratify `rb` their own way.
    pub(crate) fn stratified(rb: &'rb Rulebase, db: &Database, extra: &[Symbol]) -> Self {
        let mut domain: Vec<Symbol> = db.constants().into_iter().collect();
        domain.extend(rb.constants());
        domain.extend_from_slice(extra);
        domain.sort_unstable();
        domain.dedup();

        let mut dbs = DbStore::new();
        let base_db = dbs.intern_database(db);

        let mut grouped: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
        for (i, rule) in rb.iter().enumerate() {
            grouped.entry(rule.head.pred).or_default().push(i);
        }
        let defs = grouped
            .into_iter()
            .map(|(p, ids)| (p, Arc::from(ids)))
            .collect();

        let plans = rb.iter().map(plan_rule).collect();
        let domain_set = domain.iter().copied().collect();

        Context {
            rb,
            domain,
            domain_set,
            widened: Vec::new(),
            dbs,
            base_db,
            defs,
            plans,
        }
    }

    /// Whether `p` has any defining rules (otherwise it is pure EDB).
    pub fn has_rules(&self, p: Symbol) -> bool {
        self.defs.contains_key(&p)
    }

    /// Joins the constants of `query`'s `add:` atoms into the domain for
    /// that query, returning whether the domain grew.
    ///
    /// Definition 3 evaluates `A[add: B̄, del: C̄]` in `(DB ∖ C̄) ∪ B̄`,
    /// whose domain includes every constant of `B̄` — even ones the base
    /// world and the rulebase never mention. Query-level `add:` premises
    /// can therefore introduce fresh constants that rule groundings must
    /// range over (`?- tc(a, c)[add: edge(b, c)].` needs `c` in the
    /// domain to instantiate the recursive rule). Those constants belong
    /// to that query's world only: the engine calls
    /// [`Context::narrow_domain`] when the query ends. Whenever either
    /// call changes the domain, the verdicts and models the engine
    /// memoized were computed under another domain and must be dropped.
    pub fn widen_domain(&mut self, query: &Premise) -> bool {
        let before = self.widened.len();
        for c in query.add_constants() {
            if self.domain_set.insert(c) {
                self.domain.push(c);
                self.widened.push(c);
            }
        }
        let grew = self.widened.len() > before;
        if grew {
            // Keep the enumeration order deterministic (domain order is
            // observable through `answers` and proof witnesses).
            self.domain.sort_unstable();
        }
        grew
    }

    /// Takes the constants [`Context::widen_domain`] joined back out of
    /// the domain, returning whether there were any.
    pub fn narrow_domain(&mut self) -> bool {
        if self.widened.is_empty() {
            return false;
        }
        for c in self.widened.drain(..) {
            self.domain_set.remove(&c);
        }
        let kept = &self.domain_set;
        self.domain.retain(|c| kept.contains(c));
        true
    }

    /// Whether constant `c` belongs to `dom(R, DB)`. Goal atoms supplied
    /// by queries may mention foreign constants; Definition 3's ground
    /// substitutions must not bind rule variables to them.
    pub fn in_domain(&self, c: Symbol) -> bool {
        self.domain_set.contains(&c)
    }

    /// Interns a ground atom into the fact store.
    pub fn fact_id(&mut self, fact: GroundAtom) -> FactId {
        self.dbs.intern_fact(fact)
    }

    /// Interns `atom` grounded by `bindings`. The instance is built in an
    /// inline buffer and looked up by predicate and argument slice, so
    /// this allocates only when the fact is new to the store.
    pub fn ground_id(&mut self, atom: &Atom, bindings: &Bindings) -> FactId {
        let args = atom.ground_args(bindings).expect("grounded");
        self.dbs.intern_args(atom.pred, &args)
    }

    /// `(db ∖ C̄θ) ∪ Āθ` for a hypothetical premise's `adds` (`Ā`) and
    /// `dels` (`C̄`) grounded by `bindings` (Definition 3): interns the
    /// ground additions, then the deletions, and applies both to `db`.
    pub fn hypothetical_db(
        &mut self,
        db: DbId,
        adds: &[Atom],
        dels: &[Atom],
        bindings: &Bindings,
    ) -> DbId {
        let mut ids = |atoms: &[Atom]| -> SmallVec<FactId, 4> {
            atoms.iter().map(|a| self.ground_id(a, bindings)).collect()
        };
        let (add_ids, del_ids) = (ids(adds), ids(dels));
        self.dbs.apply(db, &add_ids, &del_ids)
    }

    /// Whether fact `f` is in database `db` (one overlay probe plus one
    /// binary search in the shared flat root).
    pub fn db_contains(&self, db: DbId, f: FactId) -> bool {
        self.dbs.contains(db, f)
    }

    /// The fact memory this context holds: distinct interned ground
    /// atoms plus the fact-id slots physically stored across overlay
    /// nodes. Hypothetical branching grows the second term even when the
    /// distinct-atom count stays flat (QBF-style searches re-add the
    /// same few atoms into exponentially many databases), so this is the
    /// quantity `max_facts` budgets measure.
    pub fn fact_footprint(&self) -> u64 {
        self.dbs.facts().len() as u64 + self.dbs.overlay_stats().delta_facts
    }
}

fn plan_rule(rule: &crate::ast::HypRule) -> RulePlan {
    let mut inner_neg_vars = Vec::with_capacity(rule.premises.len());
    for (i, premise) in rule.premises.iter().enumerate() {
        let inner = match premise {
            Premise::Neg(atom) => {
                let mut vars = VarList::new();
                for v in atom.vars() {
                    if vars.contains(&v) {
                        continue;
                    }
                    let in_head = rule.head.vars().any(|h| h == v);
                    let elsewhere = rule
                        .premises
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .any(|(_, p)| p.vars().any(|o| o == v));
                    if !in_head && !elsewhere {
                        vars.push(v);
                    }
                }
                vars
            }
            _ => VarList::new(),
        };
        inner_neg_vars.push(inner);
    }
    RulePlan { inner_neg_vars }
}

/// Enumerates assignments of `vars` over `domain` into `bindings`, calling
/// `f` for each complete assignment until `f` returns `true` (early stop).
/// Restores `bindings` before returning. Returns whether `f` stopped it.
pub fn enumerate_until(
    domain: &[Symbol],
    vars: &[Var],
    bindings: &mut Bindings,
    f: &mut impl FnMut(&mut Bindings) -> bool,
) -> bool {
    if vars.is_empty() {
        return f(bindings);
    }
    let (first, rest) = (vars[0], &vars[1..]);
    for &c in domain {
        bindings.set(first, c);
        if enumerate_until(domain, rest, bindings, f) {
            bindings.unset(first);
            return true;
        }
    }
    bindings.unset(first);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use hdl_base::SymbolTable;

    #[test]
    fn inner_negation_vars_follow_the_paper_examples() {
        let mut syms = SymbolTable::new();
        let rb = parse_program(
            // Example 7's third/fourth rules.
            "path(X) :- ~select(Y).
             select(Y) :- node(Y), ~pnode(Y).",
            &mut syms,
        )
        .unwrap();
        let db = Database::new();
        let ctx = Context::new(&rb, &db).unwrap();
        // Rule 0: Y occurs only in ~select(Y) → inner.
        assert_eq!(ctx.plans[0].inner_neg_vars[0].len(), 1);
        // Rule 1: ~pnode(Y)'s Y also occurs in node(Y) and the head → outer.
        assert!(ctx.plans[1].inner_neg_vars[1].is_empty());
    }

    #[test]
    fn domain_merges_rule_and_db_constants() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("p(X) :- q(X, someconst).", &mut syms).unwrap();
        let mut db = Database::new();
        let c = syms.intern("dbconst");
        let q = syms.lookup("q").unwrap();
        db.insert(GroundAtom::new(q, vec![c, c]));
        let ctx = Context::new(&rb, &db).unwrap();
        assert_eq!(ctx.domain.len(), 2);
        assert!(ctx.domain.contains(&c));
        assert!(ctx.domain.contains(&syms.lookup("someconst").unwrap()));
    }

    #[test]
    fn enumerate_until_early_stops_and_restores() {
        let domain: Vec<Symbol> = (0..4).map(Symbol).collect();
        let mut b = Bindings::new(2);
        let vars = [Var(0), Var(1)];
        let mut count = 0;
        let stopped = enumerate_until(&domain, &vars, &mut b, &mut |bb| {
            count += 1;
            bb.get(Var(0)) == Some(Symbol(1)) && bb.get(Var(1)) == Some(Symbol(2))
        });
        assert!(stopped);
        assert_eq!(count, 4 + 3); // rows 0* (4) then 1,0 1,1 1,2
        assert_eq!(b.get(Var(0)), None);
        assert_eq!(b.get(Var(1)), None);
    }

    #[test]
    fn enumerate_until_exhausts_without_match() {
        let domain: Vec<Symbol> = (0..3).map(Symbol).collect();
        let mut b = Bindings::new(1);
        let mut count = 0;
        let stopped = enumerate_until(&domain, &[Var(0)], &mut b, &mut |_| {
            count += 1;
            false
        });
        assert!(!stopped);
        assert_eq!(count, 3);
    }
}
