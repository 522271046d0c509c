//! The one semi-naive fixpoint kernel behind every bottom-up closure.
//!
//! `BottomUpEngine` (and through it `NaiveEngine` and `MagicEngine`)
//! closes a database's perfect model stratum by stratum; `PROVE_Δᵢ`
//! (§5.2.2) closes segment `Δᵢ` sub-stratum by sub-stratum (`LFPᵢ`/`Tᵢ`).
//! Both are the same loop over *groups* of rules, each run to its
//! fixpoint before the next starts, and this module holds its only copy:
//!
//! - the per-group round loop: the model split into `older` and `delta`
//!   layers, the memory and failpoint probes, the match-attempt limit,
//!   the round barrier and the delta trajectory;
//! - the scheduler: full evaluation in round 0, delta rotations after it
//!   (DESIGN.md §3.11), full re-fire of `hyp_sensitive` rules; a round
//!   fires its pure rules first, then its impure ones;
//! - the premise walk, the one path of every firing: layered atoms,
//!   negation over its outer and inner variables, hypothetical
//!   groundings and head emission, in cost order (below). A pure firing
//!   walks its seed premise first: its first positive premise in round
//!   0, its rotated premise after;
//! - the [`RuleClass`] classification.
//!
//! The walk picks each next premise from those it has still to walk: a
//! negation on the layered model as soon as no atom left can bind more
//! of its variables, else the layered atom with the fewest candidates
//! under the current bindings ([`ModelLayers::estimate`]; ties to the
//! lowest position), and hypothetical and oracle premises last, in
//! written order. It estimates only when two atoms left share an
//! unbound variable, so that one can narrow the other's probe, and
//! estimates an atom with no bound variable once per firing. The model
//! slice each premise
//! reads stays keyed by its position, so the semi-naive rotation and
//! the rounds do not depend on the order (DESIGN.md §3.11).
//!
//! The engines differ only in how a premise the layered model does not
//! hold is resolved. Bottom-up recurses into the child model of the
//! hypothetical database; `PROVE_Δᵢ`'s `TESTᵢ⁰` hands premises defined
//! below the segment to the `PROVE_Σᵢ₋₁` oracle. The `Resolver` trait
//! carries exactly that difference, plus the engine's failpoint names
//! and memory working set. The walk is generic over it, so the calls
//! dispatch statically.
//!
//! Matching, grounding and head emission reuse per-round and per-engine
//! buffers: replayed match rows and derived heads are flat runs of
//! constants (DESIGN.md §3.6, §3.11), so the only allocations
//! left in a round store its new facts in the model's layers.

use crate::ast::{HypRule, Premise};
use crate::engine::budget::Budget;
use crate::engine::context::Context;
use crate::engine::matching::{collect_free, replay_row, ModelLayers, Part};
use crate::engine::stats::{EngineStats, Limits, QueryStart};
use hdl_base::{
    Atom, Bindings, Database, DbId, Error, MatchCounters, Result, Symbol, Term, Var, VarList,
};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;

/// Static classification of one rule for semi-naive scheduling and for
/// the premise walk, relative to the group whose fixpoint it belongs to.
#[derive(Default, Clone, Debug)]
pub struct RuleClass {
    /// Every premise resolves against the layered model alone (no
    /// hypothetical recursion, no oracle calls). A firing walks a seed
    /// premise first, and runs before the round's impure firings.
    pub pure: bool,
    /// Some premise outside the rotatable set can change value while the
    /// fixpoint grows (e.g. a degenerate hypothetical reading the growing
    /// model). Rotation cannot see such premises flip; the rule re-fires
    /// fully each round.
    pub hyp_sensitive: bool,
    /// Positions of positive premises over the growing predicates — the
    /// premises the semi-naive rotation can pin to the delta.
    pub rot: Vec<usize>,
    /// The positive premises read from the layered model, as a set of
    /// positions (bit `i` = premise `i`, for the first [`WALK_SET`]): the
    /// atoms the walk orders by their candidate counts.
    pub(crate) atoms: u64,
    /// The negations among the first [`WALK_SET`] premises that read the
    /// layered model, as a set. A negation handed below it is walked
    /// with the hypothetical and oracle premises.
    pub(crate) negs: u64,
    /// Per premise, its variables as a set (bit `v` = variable `v`).
    /// Empty when the rule has more than 64 variables.
    pub(crate) vars: Vec<u64>,
}

/// The premises a [`RuleClass`] indexes as bit sets. The walk takes any
/// further premise of a longer rule last, in written order.
const WALK_SET: usize = u64::BITS as usize;

/// Classifies `rule` for its group. `growing` holds for the predicates
/// the group's own fixpoint derives; `layered` for the predicates read
/// from the layered model rather than resolved below it.
pub(crate) fn classify(
    rule: &HypRule,
    growing: impl Fn(Symbol) -> bool,
    layered: impl Fn(Symbol) -> bool,
) -> RuleClass {
    let mut class = RuleClass {
        pure: true,
        ..RuleClass::default()
    };
    let bit = |i: usize| if i < WALK_SET { 1u64 << i } else { 0 };
    for (i, p) in rule.premises.iter().enumerate() {
        match p {
            Premise::Atom(a) if growing(a.pred) => {
                class.rot.push(i);
                class.atoms |= bit(i);
            }
            Premise::Atom(a) if layered(a.pred) => class.atoms |= bit(i),
            Premise::Atom(_) => class.pure = false,
            // Negated predicates sit strictly below the group (or in an
            // earlier group), so they are closed and round-invariant.
            Premise::Neg(a) if layered(a.pred) => class.negs |= bit(i),
            Premise::Neg(_) => class.pure = false,
            Premise::Hyp { goal, .. } => {
                class.pure = false;
                class.hyp_sensitive |= growing(goal.pred);
            }
        }
    }
    if rule.num_vars <= u64::BITS as usize {
        let set = |p: &Premise| p.vars().fold(0u64, |s, v| s | 1 << v.0);
        class.vars = rule.premises.iter().map(set).collect();
    }
    class
}

/// The positions in `set`, ascending.
fn positions(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            i
        })
    })
}

/// The kernel's share of an engine: its rule groups and their
/// classification, and the settings every round reads.
pub(crate) struct Fixpoint {
    /// Rule indices per group, in evaluation order (bottom-up: one group
    /// per evaluation stratum; PROVE: one per Δ sub-stratum, segment by
    /// segment). Shared immutably so rounds need no per-round copy.
    pub groups: Vec<Arc<[usize]>>,
    /// Per-rule classification, indexed like `rb.rules`.
    pub classes: Vec<RuleClass>,
    /// Semi-naive delta rotation (the default). Off re-fires every rule
    /// fully each round — the naive closure kept as the reference
    /// baseline (see [`crate::engine::reference::NaiveEngine`]).
    pub semi_naive: bool,
    pub limits: Limits,
    /// The counters when the engine's current query began (set by the
    /// bottom-up entry points, and for PROVE by the search's); the
    /// match-attempt limit bounds the attempts made since.
    pub start: QueryStart,
    pub budget: Budget,
    /// Fact-store size when the budget was installed; the fact cap
    /// bounds growth past this, not absolute size (engines are reused).
    facts_baseline: u64,
    /// Match rows replayed by the premise walks, used as a stack (see
    /// [`ModelLayers::collect_rows`]).
    rows: Vec<Symbol>,
}

impl Fixpoint {
    pub fn new(groups: Vec<Arc<[usize]>>, classes: Vec<RuleClass>) -> Self {
        Fixpoint {
            groups,
            classes,
            semi_naive: true,
            limits: Limits::default(),
            start: QueryStart::default(),
            budget: Budget::default(),
            facts_baseline: 0,
            rows: Vec::new(),
        }
    }

    /// Installs `budget`; memory caps bound growth from this moment.
    pub fn set_budget(&mut self, budget: Budget, ctx: &Context<'_>) {
        self.facts_baseline = ctx.fact_footprint();
        self.budget = budget;
    }

    /// Probes the memory caps: fact growth since the budget was set, the
    /// engine's `working` set, and the database lattice depth.
    pub fn check_memory(&self, ctx: &Context<'_>, working: u64) -> Result<()> {
        let facts = ctx.fact_footprint().saturating_sub(self.facts_baseline);
        self.budget
            .check_memory(facts, working, ctx.dbs.max_depth() as u64)
    }
}

/// What an engine tells the kernel — the only questions bottom-up and
/// `PROVE_Δᵢ` answer differently.
pub(crate) trait Resolver<'rb> {
    /// Failpoint probed at the top of every round.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    const ROUND_SITE: &'static str;
    /// Failpoint probed once per firing that walks: every impure firing,
    /// and every pure one whose seed premise has rows.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    const FIRE_SITE: &'static str;
    /// The engine's context, kernel share and counters, borrowed apart.
    fn split(&mut self) -> (&mut Context<'rb>, &mut Fixpoint, &mut EngineStats);
    /// Shared view of the engine's context and kernel share.
    fn shared(&self) -> (&Context<'rb>, &Fixpoint);
    /// Whether premise predicate `pred` of a rule with head predicate
    /// `head` is read from the layered model (`true`) or resolved below
    /// it through [`Resolver::prove`].
    fn layered(&self, head: Symbol, pred: Symbol) -> bool;
    /// Whether `atom` grounded by `bindings` holds in database `db`:
    /// bottom-up closes the child model of `db`, PROVE asks the
    /// `PROVE_Σᵢ₋₁` oracle.
    fn prove(&mut self, db: DbId, atom: &Atom, bindings: &Bindings) -> Result<bool>;
    /// The memory-probe working set while a model holding `derived`
    /// facts is being closed.
    fn working_set(&self, derived: usize) -> u64;
    /// Called whenever a premise is handed below the layered model.
    fn handed_below(&mut self) {}
}

/// A partially closed model: groups `0..closed` are at their fixpoint.
///
/// Only the *derived* facts are stored — the facts the rules added above
/// the interned database itself. The EDB layer is answered through a
/// [`hdl_base::DbView`] of the overlay DAG, so memoizing a model for an
/// augmented database costs O(|derived|), not a full copy of the
/// database. The invariant `derived ∩ DB = ∅` keeps the two layers
/// disjoint, so enumerating `view ∪ derived` never repeats a fact.
#[derive(Debug, Default)]
pub(crate) struct Model {
    pub closed: usize,
    pub derived: Database,
}

/// Why [`saturate`] stopped before closing every group.
pub(crate) struct Stop {
    pub error: Error,
    /// The match-attempt limit tripped after a round: the model holds
    /// every fact derived so far — sound, but its group is not closed.
    /// Otherwise the unfinished group's facts were dropped.
    pub kept: bool,
}

impl From<Error> for Stop {
    fn from(error: Error) -> Self {
        Stop { error, kept: false }
    }
}

/// Closes groups `model.closed..upto` of `db`'s model in order, each by
/// the semi-naive fixpoint, and records the rounds' delta trajectory.
pub(crate) fn saturate<'rb, R: Resolver<'rb>>(
    r: &mut R,
    db: DbId,
    upto: usize,
    model: &mut Model,
) -> std::result::Result<(), Stop> {
    let mut trajectory: Vec<u64> = Vec::new();
    // Per-round buffers, reused across rounds and groups.
    let mut fresh = Heads::default();
    let mut pure: Vec<Task> = Vec::new();
    let mut impure: Vec<Task> = Vec::new();
    while model.closed < upto {
        let group = Arc::clone(&r.shared().1.groups[model.closed]);
        // Semi-naive layers: `older` = derived before the previous round
        // (seeded with the groups already closed), `delta` = the previous
        // round's new facts.
        let mut older = std::mem::take(&mut model.derived);
        let mut delta = Database::new();
        let mut round: u64 = 0;
        loop {
            r.split().2.rounds += 1;
            // A trip here leaves the model without its unfinished group;
            // the caller drops it, so memoized models stay sound.
            let (ctx, fx) = r.shared();
            if fx.budget.has_memory_limits() {
                fx.check_memory(ctx, r.working_set(older.len() + delta.len()))?;
            }
            hdl_base::failpoint!(R::ROUND_SITE);
            fresh.clear();
            pure.clear();
            impure.clear();
            schedule(r, db, &group, round, &older, &delta, &mut pure, &mut impure);
            for &task in pure.iter().chain(&impure) {
                fire(r, db, task, &older, &delta, &mut fresh)?;
            }
            let (ctx, fx, stats) = r.split();
            if fx.start.expansions(stats) > fx.limits.max_expansions {
                older.absorb(&delta);
                model.derived = older;
                return Err(Stop {
                    error: Error::LimitExceeded {
                        what: "rule firings".into(),
                        limit: fx.limits.max_expansions,
                    },
                    kept: true,
                });
            }
            // Round barrier: facts not seen in any layer become the next
            // delta; the old delta ages into `older`. Derived facts stay
            // disjoint from the EDB layer, so the model never enumerates
            // a fact twice.
            let view = ctx.dbs.view(db);
            let mut next_delta = Database::new();
            for (pred, args) in fresh.iter() {
                if !(view.contains_tuple(pred, args)
                    || older.contains_tuple(pred, args)
                    || delta.contains_tuple(pred, args))
                {
                    next_delta.insert_tuple(pred, args);
                }
            }
            older.absorb(&delta);
            delta = next_delta;
            trajectory.push(delta.len() as u64);
            if delta.is_empty() {
                break;
            }
            round += 1;
        }
        model.derived = older;
        model.closed += 1;
    }
    if !trajectory.is_empty() {
        r.split().2.delta_facts_per_round = trajectory;
    }
    Ok(())
}

/// Heads derived in one round, in derivation order, as
/// flat runs of constants: the allocation-free form of a
/// `Vec<GroundAtom>`.
#[derive(Default)]
struct Heads {
    /// Predicate and arity of each head.
    preds: Vec<(Symbol, u32)>,
    /// Arguments of every head, back to back.
    args: Vec<Symbol>,
}

impl Heads {
    /// Appends `atom` grounded by `bindings`.
    fn push(&mut self, atom: &Atom, bindings: &Bindings) {
        self.preds.push((atom.pred, atom.args.len() as u32));
        self.args.extend(atom.args.iter().map(|&t| match t {
            Term::Const(c) => c,
            Term::Var(v) => bindings.get(v).expect("head grounded"),
        }));
    }

    fn clear(&mut self) {
        self.preds.clear();
        self.args.clear();
    }

    /// The heads as `(predicate, arguments)`, in derivation order.
    fn iter(&self) -> impl Iterator<Item = (Symbol, &[Symbol])> {
        let mut at = 0;
        self.preds.iter().map(move |&(pred, arity)| {
            let args = &self.args[at..at + arity as usize];
            at += arity as usize;
            (pred, args)
        })
    }
}

/// One firing of a round: rule `rule_idx` under rotation `rot_j` (`None`
/// = full evaluation). A pure firing walks premise `seed` first: its
/// first positive premise in full evaluation, the rotated one after.
#[derive(Clone, Copy)]
struct Task {
    rule_idx: usize,
    rot_j: Option<usize>,
    seed: Option<usize>,
}

/// Builds the round's work list, in group order: the pure firings in
/// `pure` and the impure ones in `impure`.
#[allow(clippy::too_many_arguments)]
fn schedule<'rb, R: Resolver<'rb>>(
    r: &mut R,
    db: DbId,
    group: &[usize],
    round: u64,
    older: &Database,
    delta: &Database,
    pure: &mut Vec<Task>,
    impure: &mut Vec<Task>,
) {
    let (ctx, fx, _) = r.split();
    let layers = ModelLayers::new(ctx.dbs.view(db), older, delta);
    for &rule_idx in group {
        let rule = &ctx.rb.rules[rule_idx];
        let class = &fx.classes[rule_idx];
        let task = |rot_j, seed| Task {
            rule_idx,
            rot_j,
            seed,
        };
        if !fx.semi_naive || round == 0 || class.hyp_sensitive {
            if class.pure {
                // Seeded on the first positive premise (layered, since the
                // rule is pure).
                let first = rule
                    .premises
                    .iter()
                    .position(|p| matches!(p, Premise::Atom(_)));
                pure.push(task(None, first));
            } else {
                impure.push(task(None, None));
            }
            continue;
        }
        // Delta rotation: one firing per rotated premise. One whose
        // predicate the delta lacks derives nothing, and matching it
        // would count no work.
        for &j in &class.rot {
            let Premise::Atom(atom) = &rule.premises[j] else {
                unreachable!("rot positions are positive atoms")
            };
            if delta.count(atom.pred) == 0 {
                continue;
            }
            if class.pure {
                pure.push(task(Some(j), Some(j)));
                continue;
            }
            // An impure firing walks its premises in cost order, not its
            // rotated premise first, so a matching delta row is looked
            // for here. The firing collects the rows itself, so this
            // test is not counted as match work.
            let mut b = Bindings::new(rule.num_vars);
            if layers.exists(Part::Delta, atom, &mut b, &mut MatchCounters::default()) {
                impure.push(task(Some(j), None));
            }
        }
    }
}

/// Fires `task`, pushing the heads it derives to `out`. The engine's
/// failpoint is probed once per firing that walks: every impure firing,
/// and every pure one whose seed premise has rows.
fn fire<'rb, R: Resolver<'rb>>(
    r: &mut R,
    db: DbId,
    task: Task,
    older: &Database,
    delta: &Database,
    out: &mut Heads,
) -> Result<()> {
    let rule: &'rb HypRule = &r.shared().0.rb.rules[task.rule_idx];
    let firing = Firing::new(rule, task.rule_idx, task.rot_j);
    let mut env = Round {
        r,
        db,
        older,
        delta,
        rb: PhantomData,
    };
    let mut b = Bindings::new(rule.num_vars);
    let Some(seed) = task.seed else {
        probe::<R>()?;
        return firing.walk(&mut env, Todo::all(rule), &mut b, out);
    };
    let (seed, rest) = Todo::all(rule).take(seed, env.class(task.rule_idx));
    let Premise::Atom(atom) = &rule.premises[seed] else {
        unreachable!("seeds are positive atoms")
    };
    let rows = firing.rows(&mut env, seed, atom, &mut b);
    if rows.n > 0 {
        if let Err(e) = probe::<R>() {
            env.rows().truncate(rows.base);
            return Err(e);
        }
    }
    firing.each_row(&mut env, rows, rest, &mut b, out)
}

/// Probes the engine's per-firing failpoint.
fn probe<'rb, R: Resolver<'rb>>() -> Result<()> {
    hdl_base::failpoint!(R::FIRE_SITE);
    Ok(())
}

const ONE_STEP: MatchCounters = MatchCounters {
    attempts: 1,
    probes: 0,
    hits: 0,
};

/// What a firing's premise walk reads, charges and resolves through: the
/// engine itself, and the layers of the model being closed over `db`.
struct Round<'a, 'rb, R> {
    r: &'a mut R,
    db: DbId,
    older: &'a Database,
    delta: &'a Database,
    /// Ties `'rb` to the engine: its context outlives the walk.
    rb: PhantomData<&'a Context<'rb>>,
}

impl<'rb, R: Resolver<'rb>> Round<'_, 'rb, R> {
    fn ctx(&self) -> &Context<'rb> {
        self.r.shared().0
    }

    fn class(&self, rule_idx: usize) -> &RuleClass {
        &self.r.shared().1.classes[rule_idx]
    }

    fn layers(&self) -> ModelLayers<'_> {
        ModelLayers::new(self.ctx().dbs.view(self.db), self.older, self.delta)
    }

    fn budget(&mut self) -> &mut Budget {
        &mut self.r.split().1.budget
    }

    /// Folds premise-match work (and domain-enumeration steps, one
    /// attempt each) into the engine's counters.
    fn charge(&mut self, c: MatchCounters) {
        self.r.split().2.absorb_matches(c);
    }

    /// Appends the rows of `atom`'s matches in `part` (the values of
    /// `vars`) to the row stack, charging the work; returns how many
    /// there are.
    fn collect(&mut self, part: Part, atom: &Atom, vars: &[Var], b: &mut Bindings) -> usize {
        let (ctx, fx, stats) = self.r.split();
        let layers = ModelLayers::new(ctx.dbs.view(self.db), self.older, self.delta);
        let mut c = MatchCounters::default();
        let n = layers.collect_rows(part, atom, vars, b, &mut c, &mut fx.rows);
        stats.absorb_matches(c);
        n
    }

    /// The row stack.
    fn rows(&mut self) -> &mut Vec<Symbol> {
        &mut self.r.split().1.rows
    }

    /// Whether `atom` grounded by `b` holds below the layered model of
    /// the firing's database.
    fn prove(&mut self, atom: &Atom, b: &Bindings) -> Result<bool> {
        self.r.prove(self.db, atom, b)
    }

    /// Whether `goal` holds in the firing's database modified by the
    /// grounded `adds`/`dels`.
    fn hypothetical(
        &mut self,
        head: Symbol,
        goal: &Atom,
        adds: &[Atom],
        dels: &[Atom],
        bindings: &Bindings,
    ) -> Result<bool> {
        let db2 = self
            .r
            .split()
            .0
            .hypothetical_db(self.db, adds, dels, bindings);
        if db2 == self.db && self.r.layered(head, goal.pred) {
            // Degenerate hypothetical: every addition already present and
            // every deletion already absent. The goal is tested inside the
            // current fixpoint, where it behaves like a positive premise
            // (monotone — the EDB never changes during a fixpoint, so the
            // degeneracy is round-stable).
            let args = goal.ground_args(bindings).expect("grounded");
            return Ok(self.older.contains_tuple(goal.pred, &args)
                || self.delta.contains_tuple(goal.pred, &args)
                || self
                    .ctx()
                    .dbs
                    .view(self.db)
                    .contains_tuple(goal.pred, &args));
        }
        self.r.split().2.databases_created += 1;
        self.r.prove(db2, goal, bindings)
    }

    /// Enumerates `vars[pos..]` over the domain, one counted attempt per
    /// step, calling `f` at every complete assignment.
    fn ground_each<F>(
        &mut self,
        vars: &[Var],
        pos: usize,
        b: &mut Bindings,
        f: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&mut Self, &mut Bindings) -> Result<()>,
    {
        let Some(&v) = vars.get(pos) else {
            return f(self, b);
        };
        for i in 0..self.ctx().domain.len() {
            let c = self.ctx().domain[i];
            self.charge(ONE_STEP);
            b.set(v, c);
            self.ground_each(vars, pos + 1, b, f)?;
        }
        b.unset(v);
        Ok(())
    }

    /// `∃`-grounding of `vars[pos..]` making `atom` provable below the
    /// layered model (negation handed to the oracle).
    fn exists_below(
        &mut self,
        atom: &Atom,
        vars: &[Var],
        pos: usize,
        b: &mut Bindings,
    ) -> Result<bool> {
        let Some(&v) = vars.get(pos) else {
            return self.prove(atom, b);
        };
        for i in 0..self.ctx().domain.len() {
            let c = self.ctx().domain[i];
            b.set(v, c);
            if self.exists_below(atom, vars, pos + 1, b)? {
                b.unset(v);
                return Ok(true);
            }
        }
        b.unset(v);
        Ok(false)
    }
}

/// The positions whose unbound estimates a [`Firing`] keeps: a few, so
/// that a firing is cheap to start.
const UNBOUND_SLOTS: usize = 16;

/// One firing of a rule, under rotation `rot_j`.
struct Firing<'rb> {
    rule: &'rb HypRule,
    rule_idx: usize,
    rot_j: Option<usize>,
    /// By position, for the first [`UNBOUND_SLOTS`], the candidates of
    /// each atom estimated while none of its variables was bound
    /// (`u32::MAX` until then). The layers do not change while a firing
    /// runs, so that count is the same for every row, and is made once.
    unbound: [Cell<u32>; UNBOUND_SLOTS],
}

/// The matches of one layered atom, as rows of its free variables `vars`
/// on the row stack: `n` rows from offset `base`.
struct Rows {
    vars: VarList,
    base: usize,
    n: usize,
}

/// The premises a firing has still to walk: the first [`WALK_SET`] as a
/// set, and any further ones from position `far` on but `skip`, the seed
/// of a firing seeded past the set. `bound` holds the variables of the
/// premises walked so far.
#[derive(Clone, Copy)]
struct Todo {
    set: u64,
    far: usize,
    skip: usize,
    bound: u64,
}

impl Todo {
    /// Every premise of `rule`.
    fn all(rule: &HypRule) -> Todo {
        let n = rule.premises.len();
        Todo {
            set: if n >= WALK_SET {
                u64::MAX
            } else {
                (1 << n) - 1
            },
            far: n.min(WALK_SET),
            skip: usize::MAX,
            bound: 0,
        }
    }

    /// Premise `i`, and what is left once it is walked. Past the set, `i`
    /// is `far` (those premises are walked in written order) or the seed,
    /// which is taken before any other.
    fn take(self, i: usize, class: &RuleClass) -> (usize, Todo) {
        let mut rest = self;
        if i < WALK_SET {
            rest.set &= !(1 << i);
        } else if i == self.far {
            rest.far += 1;
        } else {
            rest.skip = i;
        }
        if rest.far == rest.skip {
            rest.far += 1;
        }
        rest.bound |= class.vars.get(i).copied().unwrap_or(0);
        (i, rest)
    }
}

impl<'rb> Firing<'rb> {
    fn new(rule: &'rb HypRule, rule_idx: usize, rot_j: Option<usize>) -> Self {
        Firing {
            rule,
            rule_idx,
            rot_j,
            unbound: std::array::from_fn(|_| Cell::new(u32::MAX)),
        }
    }

    /// The candidates of atom `i` under `b` (see [`ModelLayers::estimate`]),
    /// made once per firing while none of its variables is bound: while
    /// every one is still `open`.
    fn estimate(
        &self,
        layers: &ModelLayers<'_>,
        class: &RuleClass,
        i: usize,
        open: u64,
        b: &Bindings,
    ) -> usize {
        let unbound = class.vars.get(i).is_some_and(|&vars| vars & !open == 0);
        let slot = self.unbound.get(i).filter(|_| unbound);
        if let Some(n) = slot.map(Cell::get).filter(|&n| n != u32::MAX) {
            return n as usize;
        }
        let Premise::Atom(atom) = &self.rule.premises[i] else {
            unreachable!("atoms holds positive premises")
        };
        let n = layers.estimate(part_for(class, self.rot_j, i), atom, b);
        if let Some(slot) = slot {
            slot.set(n.min(u32::MAX as usize - 1) as u32);
        }
        n
    }

    /// The premise to walk next under `b`, and what is left after it.
    ///
    /// - A negation is a filter: it runs as soon as no atom left to walk
    ///   can bind any more of its variables.
    /// - Otherwise the layered atom with the fewest candidates in the
    ///   slice its position reads; ties go to the lowest position. A lone
    ///   atom is taken without an estimate, and so are atoms of which no
    ///   two share an unbound variable: none can narrow another's probe,
    ///   so the lowest position goes first.
    /// - Hypothetical premises and premises handed below the layered
    ///   model (atoms and negations) come last, in written order.
    fn next<R: Resolver<'rb>>(
        &self,
        env: &Round<'_, 'rb, R>,
        todo: Todo,
        b: &Bindings,
    ) -> Option<(usize, Todo)> {
        let class = env.class(self.rule_idx);
        let atoms = todo.set & class.atoms;
        let negs = todo.set & class.negs;
        if atoms == 0 {
            // Every negation is ready; then the first hypothetical or
            // oracle premise; then the premises past the set.
            let first = if negs != 0 { negs } else { todo.set };
            return if first != 0 {
                Some(todo.take(first.trailing_zeros() as usize, class))
            } else {
                (todo.far < self.rule.premises.len()).then(|| todo.take(todo.far, class))
            };
        }
        let many = atoms & atoms.wrapping_sub(1) != 0;
        if negs == 0 && !many {
            return Some(todo.take(atoms.trailing_zeros() as usize, class));
        }
        let (open, shared) = open_vars(class, todo, atoms);
        for i in positions(negs) {
            if class.vars.get(i).is_some_and(|&vars| vars & open == 0) {
                return Some(todo.take(i, class));
            }
        }
        let first = if many && shared != 0 {
            self.cheapest(&env.layers(), class, atoms, open, b)
        } else {
            atoms.trailing_zeros() as usize
        };
        Some(todo.take(first, class))
    }

    /// The atom in `atoms` with the fewest candidates under `b`, the
    /// lowest position on a tie.
    fn cheapest(
        &self,
        layers: &ModelLayers<'_>,
        class: &RuleClass,
        atoms: u64,
        open: u64,
        b: &Bindings,
    ) -> usize {
        let mut best = (usize::MAX, 0);
        for i in positions(atoms) {
            let n = self.estimate(layers, class, i, open, b);
            if n < best.0 {
                best = (n, i);
                if n == 0 {
                    break;
                }
            }
        }
        best.1
    }

    /// Walks the premises in `todo` under `b`, pushing every head it
    /// derives: the premise [`Self::next`] chooses, then the rest under
    /// each of its groundings.
    fn walk<R: Resolver<'rb>>(
        &self,
        env: &mut Round<'_, 'rb, R>,
        todo: Todo,
        b: &mut Bindings,
        out: &mut Heads,
    ) -> Result<()> {
        env.budget().check()?;
        let Some((idx, rest)) = self.next(env, todo, b) else {
            // Ground any remaining head variables over the domain
            // (Definition 3's ground substitution). A head the premises
            // ground, nearly every one, is pushed without the call: on the
            // naive `tc_chain` closure the call costs about 2%.
            let head = &self.rule.head;
            let free = b.free_vars_of(head);
            if free.is_empty() {
                out.push(head, b);
                return Ok(());
            }
            return env.ground_each(&free, 0, b, &mut |_, b| {
                out.push(head, b);
                Ok(())
            });
        };
        let head = self.rule.head.pred;
        let mut next = |env: &mut Round<'_, 'rb, R>, b: &mut Bindings| self.walk(env, rest, b, out);
        match &self.rule.premises[idx] {
            Premise::Atom(atom) if env.r.layered(head, atom.pred) => {
                // Provable instances are exactly the layered model slice
                // the rotation assigns to this position.
                let rows = self.rows(env, idx, atom, b);
                self.each_row(env, rows, rest, b, out)
            }
            Premise::Atom(atom) => {
                // Defined below the layered model: one proof per
                // grounding (round-invariant while this fixpoint grows).
                env.r.handed_below();
                let free = b.free_vars_of(atom);
                env.ground_each(&free, 0, b, &mut |env, b| {
                    if env.prove(atom, b)? {
                        next(env, b)?;
                    }
                    Ok(())
                })
            }
            Premise::Neg(atom) => {
                // For each outer assignment the premise holds iff no inner
                // assignment is provable (`¬∃inner`). The negated
                // predicate is closed: strictly lower stratum, or an
                // earlier sub-stratum of this segment.
                let inner = env.ctx().plans[self.rule_idx].inner_neg_vars[idx].clone();
                let outer: VarList = b
                    .free_vars_of(atom)
                    .iter()
                    .filter(|v| !inner.contains(v))
                    .collect();
                let layered = env.r.layered(head, atom.pred);
                env.ground_each(&outer, 0, b, &mut |env, b| {
                    env.budget().check()?;
                    let witnessed = if layered {
                        let mut c = MatchCounters::default();
                        let found = env.layers().exists(Part::Full, atom, b, &mut c);
                        env.charge(c);
                        found
                    } else {
                        env.r.handed_below();
                        env.exists_below(atom, &inner, 0, b)?
                    };
                    if !witnessed {
                        next(env, b)?;
                    }
                    Ok(())
                })
            }
            Premise::Hyp { goal, adds, dels } => {
                // Tested in the (recursively computed) model of the
                // modified database — for PROVE, the last case of TEST⁰.
                env.r.handed_below();
                let free = collect_free(goal, adds, dels, b);
                env.ground_each(&free, 0, b, &mut |env, b| {
                    if env.hypothetical(head, goal, adds, dels, b)? {
                        next(env, b)?;
                    }
                    Ok(())
                })
            }
        }
    }

    /// Pushes onto the row stack the matches of `atom`, premise `idx`, in
    /// the model slice the rotation assigns to its position. Rows go on
    /// the stack first: the walk over them needs `&mut` the engine while
    /// the view borrows the store. Inlined into the walk, as is
    /// [`Self::each_row`]: as calls of their own they cost about 4% on the
    /// naive `tc_chain` closure.
    #[inline(always)]
    fn rows<R: Resolver<'rb>>(
        &self,
        env: &mut Round<'_, 'rb, R>,
        idx: usize,
        atom: &Atom,
        b: &mut Bindings,
    ) -> Rows {
        let part = part_for(env.class(self.rule_idx), self.rot_j, idx);
        let vars = b.free_vars_of(atom);
        let base = env.rows().len();
        let n = env.collect(part, atom, &vars, b);
        Rows { vars, base, n }
    }

    /// Walks the premises in `rest` under each of `rows` in turn, then
    /// pops them. Deeper walks push above them and truncate back before
    /// returning.
    #[inline(always)]
    fn each_row<R: Resolver<'rb>>(
        &self,
        env: &mut Round<'_, 'rb, R>,
        rows: Rows,
        rest: Todo,
        b: &mut Bindings,
        out: &mut Heads,
    ) -> Result<()> {
        let mut result = Ok(());
        for i in 0..rows.n {
            replay_row(env.rows(), rows.base, i, &rows.vars, b);
            result = self.walk(env, rest, b, out);
            for v in rows.vars.iter() {
                b.unset(v);
            }
            if result.is_err() {
                break;
            }
        }
        env.rows().truncate(rows.base);
        result
    }
}

/// The variables the atoms in `atoms` can still bind, and those that two
/// of them share: the variables they have that no premise walked so far
/// has bound. Every walked premise binds all its variables but a
/// negation's inner ones, which no atom has. Without variable sets,
/// every variable counts as open.
fn open_vars(class: &RuleClass, todo: Todo, atoms: u64) -> (u64, u64) {
    if class.vars.is_empty() {
        return (u64::MAX, u64::MAX);
    }
    let (mut seen, mut shared) = (0, 0);
    for i in positions(atoms) {
        shared |= seen & class.vars[i];
        seen |= class.vars[i];
    }
    (seen & !todo.bound, shared & !todo.bound)
}

/// The model slice premise `idx` reads under rotation `rot_j`: the
/// standard semi-naive assignment `Full^{<j} ⋈ Δ_j ⋈ Old^{>j}` over the
/// rule's rotatable positions; everything else (closed-group atoms,
/// negations) reads the full model, where it is round-invariant anyway.
fn part_for(class: &RuleClass, rot_j: Option<usize>, idx: usize) -> Part {
    match rot_j {
        Some(j) if idx >= j && class.rot.contains(&idx) => {
            if idx == j {
                Part::Delta
            } else {
                Part::Old
            }
        }
        _ => Part::Full,
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{BottomUpEngine, ProveEngine};
    use crate::parser::{parse_program, parse_query, split_facts};
    use hdl_base::{Database, SymbolTable};

    /// The magic rewrite of right-linear `reach`, over a chain of `n`
    /// edges whose magic facts all carry the target `v{n}`, as a point
    /// query's do. A delta `reach_bb(Z, Y)` fact binds `Z` and `Y`, so
    /// in written order `m_reach_bb(X, Y)` is probed by `Y` alone and
    /// tests all `n` magic facts: 2,208 attempts at `n = 32`. The cost
    /// order walks `edge(X, Z)` by its bound `Z` first, then tests the
    /// one magic fact its `X` selects.
    #[test]
    fn rotation_walks_the_bound_edge_before_the_magic_guard() {
        let n = 32;
        let mut src = String::from(
            "reach_bb(X, Y) :- m_reach_bb(X, Y), edge(X, Y).
             reach_bb(X, Y) :- m_reach_bb(X, Y), edge(X, Z), reach_bb(Z, Y).\n",
        );
        for i in 0..n {
            src.push_str(&format!(
                "edge(v{i}, v{}). m_reach_bb(v{i}, v{n}).\n",
                i + 1
            ));
        }
        let mut syms = SymbolTable::new();
        let (rb, facts) = split_facts(parse_program(&src, &mut syms).unwrap());
        let db: Database = facts.into_iter().collect();
        let mut eng = BottomUpEngine::new(&rb, &db).unwrap();
        let model = eng.model().unwrap();
        assert_eq!(model.count(syms.intern("reach_bb")), n);
        let stats = eng.stats();
        assert_eq!(stats.rounds, n as u64 + 1);
        assert_eq!(stats.goal_expansions, 190, "pinned attempts");
    }

    /// Premises past the 64th, and variables past the 64th, fall outside
    /// the rule's bit sets; the walk still takes every premise.
    #[test]
    fn rules_longer_than_the_bit_sets_walk_every_premise() {
        let n = 70;
        let body: Vec<String> = (0..n).map(|i| format!("e(X{i}, X{})", i + 1)).collect();
        let mut src = format!("p(X0) :- {}, ~q(X{n}).\n", body.join(", "));
        for i in 0..=n {
            src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
        }
        src.push_str(&format!("q(v{}).\n", n + 1));
        let mut syms = SymbolTable::new();
        let (rb, facts) = split_facts(parse_program(&src, &mut syms).unwrap());
        let db: Database = facts.into_iter().collect();
        let model = BottomUpEngine::new(&rb, &db).unwrap().model().unwrap();
        let p: Vec<_> = model.tuples(syms.intern("p")).map(<[_]>::to_vec).collect();
        // Only v0's path of 70 edges ends at v70, which `q` does not
        // hold; v1's ends at v71, which it does.
        assert_eq!(p, vec![vec![syms.intern("v0")]]);
    }

    /// An impure rule (its last premise is hypothetical) that the
    /// rotation pins to the delta after round 0: `reach` grows a step a
    /// round along a chain of `n` edges, and each step proves `ok(Z)` in
    /// the model of the database plus `mark(Y)`.
    #[test]
    fn impure_rotation_and_round_zero_counts_are_pinned() {
        let n = 12;
        let mut src = String::from(
            "good(Z) :- mark(Y), edge(Y, Z).
             reach(X, Y) :- edge(X, Y).
             reach(X, Z) :- reach(X, Y), edge(Y, Z), good(Z)[add: mark(Y)].\n",
        );
        for i in 0..n {
            src.push_str(&format!("edge(v{i}, v{}).\n", i + 1));
        }
        let mut syms = SymbolTable::new();
        let (rb, facts) = split_facts(parse_program(&src, &mut syms).unwrap());
        let db: Database = facts.into_iter().collect();
        let mut eng = BottomUpEngine::new(&rb, &db).unwrap();
        let model = eng.model().unwrap();
        assert_eq!(model.count(syms.intern("reach")), n * (n + 1) / 2);
        let stats = eng.stats();
        assert_eq!(stats.databases_created, 66);
        assert_eq!(stats.goal_expansions, 178, "pinned attempts");
        assert_eq!(stats.index_probes, 89, "pinned probes");
        assert_eq!(stats.rounds, 36, "pinned rounds");
    }

    /// A `PROVE_Δᵢ` group: the impure `safe` rules hand `lit` and `~bad`,
    /// defined in `Σ₁` below the segment, to the `PROVE_Σᵢ₋₁` oracle, and
    /// the pure `walk` rule joins their growing facts; each fires in round
    /// 0 and under rotation.
    #[test]
    fn prove_delta_group_counts_are_pinned() {
        let n = 12;
        let mut src = format!(
            "blocked(Z) :- mark(Z), wall(Z).
             bad(Z) :- node(Z), blocked(Z)[add: mark(Z)].
             glow(Z) :- mark(Z).
             lit(Z) :- node(Z), glow(Z)[add: mark(Z)].
             safe(X, Y) :- edge(X, Y), ~bad(Y).
             safe(X, Z) :- safe(X, Y), edge(Y, Z), lit(Z), ~bad(Z).
             walk(X, Z) :- safe(X, Y), safe(Y, Z).
             wall(v{n}).\n",
        );
        for i in 0..n {
            src.push_str(&format!("edge(v{i}, v{}). node(v{i}).\n", i + 1));
        }
        let mut syms = SymbolTable::new();
        let (rb, facts) = split_facts(parse_program(&src, &mut syms).unwrap());
        let db: Database = facts.into_iter().collect();
        let mut eng = ProveEngine::new(&rb, &db).unwrap();
        let q = parse_query(&format!("?- walk(v0, v{}).", n - 1), &mut syms).unwrap();
        assert!(eng.holds(&q).unwrap());
        let stats = eng.stats();
        assert_eq!(stats.oracle_calls, 133);
        assert_eq!(stats.goal_expansions, 555, "pinned attempts");
        assert_eq!(stats.index_probes, 389, "pinned probes");
        assert_eq!(stats.rounds, 35, "pinned rounds");
    }
}
