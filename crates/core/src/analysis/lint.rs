//! Program lints: diagnostics for common rulebase mistakes.
//!
//! None of these conditions are errors — Definition 3's domain-grounded
//! semantics gives every program a meaning — but each usually signals a
//! typo or a misunderstanding (e.g. an unbound head variable silently
//! multiplying a conclusion across the whole domain). The `hdl` shell
//! surfaces them via `:lint`.

use crate::ast::{Premise, Rulebase};
use hdl_base::{Database, FxHashSet, Symbol, SymbolTable, Var};

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lint {
    /// A head variable not bound by any positive or hypothetical premise:
    /// the conclusion will be emitted for *every* domain constant.
    UnboundHeadVariable {
        /// Rule index in the rulebase.
        rule: usize,
        /// The variable's index (display name `X{n}`).
        var: Var,
    },
    /// A predicate that is read (positively or hypothetically) but has no
    /// rules, no facts and is never hypothetically inserted. Often
    /// intentional (facts may come later); flagged when the name resembles
    /// a typo of a defined predicate (edit distance 1).
    ProbableTypo {
        /// The undefined predicate.
        used: Symbol,
        /// The defined predicate it resembles.
        similar: Symbol,
    },
    /// A predicate inserted via `add:` that is never read by any premise:
    /// the insertion cannot influence anything.
    AddedButNeverRead {
        /// Rule index performing the insertion.
        rule: usize,
        /// The inserted predicate.
        pred: Symbol,
    },
    /// A predicate defined by rules but never used in any premise or
    /// query position (dead code, unless it is the intended output).
    DefinedButUnused {
        /// The predicate.
        pred: Symbol,
    },
}

/// Runs all lints over `rb`, whose base facts are `db`.
pub fn lint(rb: &Rulebase, db: &Database, syms: &SymbolTable) -> Vec<Lint> {
    let mut out = Vec::new();
    unbound_head_variables(rb, &mut out);
    let defined: FxHashSet<Symbol> = rb.iter().map(|r| r.head.pred).collect();
    let mut read: FxHashSet<Symbol> = FxHashSet::default();
    // Predicates with facts count as inserted.
    let mut added: FxHashSet<Symbol> = db.predicates().collect();
    for rule in rb.iter() {
        for p in &rule.premises {
            read.insert(p.goal().pred);
            for a in p.adds() {
                added.insert(a.pred);
            }
        }
    }
    probable_typos(rb, syms, &defined, &added, &mut out);
    added_never_read(rb, &read, &mut out);
    defined_unused(rb, &defined, &read, &mut out);
    out
}

fn unbound_head_variables(rb: &Rulebase, out: &mut Vec<Lint>) {
    for (i, rule) in rb.iter().enumerate() {
        let bound: FxHashSet<Var> = rule
            .premises
            .iter()
            .flat_map(|p| match p {
                // Positive premises bind by matching; hypothetical goals
                // and adds are grounded by enumeration, which still
                // "binds" in the sense of constraining — but a variable
                // appearing ONLY in the head is enumerated blindly.
                Premise::Atom(a) => a.vars().collect::<Vec<_>>(),
                Premise::Hyp { goal, adds, dels } => goal
                    .vars()
                    .chain(adds.iter().flat_map(|a| a.vars()))
                    .chain(dels.iter().flat_map(|a| a.vars()))
                    .collect(),
                Premise::Neg(a) => a.vars().collect(),
            })
            .collect();
        let mut seen = FxHashSet::default();
        for v in rule.head.vars() {
            if !bound.contains(&v) && seen.insert(v) {
                out.push(Lint::UnboundHeadVariable { rule: i, var: v });
            }
        }
    }
}

fn probable_typos(
    rb: &Rulebase,
    syms: &SymbolTable,
    defined: &FxHashSet<Symbol>,
    added: &FxHashSet<Symbol>,
    out: &mut Vec<Lint>,
) {
    let mut reported = FxHashSet::default();
    for rule in rb.iter() {
        for p in &rule.premises {
            let pred = p.goal().pred;
            if defined.contains(&pred) || added.contains(&pred) || !reported.insert(pred) {
                continue;
            }
            // EDB-looking predicate: compare against defined names.
            let name = syms.name(pred);
            for &d in defined {
                if is_probable_typo(name, syms.name(d)) {
                    out.push(Lint::ProbableTypo {
                        used: pred,
                        similar: d,
                    });
                    break;
                }
            }
        }
    }
}

fn added_never_read(rb: &Rulebase, read: &FxHashSet<Symbol>, out: &mut Vec<Lint>) {
    let mut reported = FxHashSet::default();
    for (i, rule) in rb.iter().enumerate() {
        for p in &rule.premises {
            for a in p.adds() {
                if !read.contains(&a.pred) && reported.insert((i, a.pred)) {
                    out.push(Lint::AddedButNeverRead {
                        rule: i,
                        pred: a.pred,
                    });
                }
            }
        }
    }
}

fn defined_unused(
    _rb: &Rulebase,
    defined: &FxHashSet<Symbol>,
    read: &FxHashSet<Symbol>,
    out: &mut Vec<Lint>,
) {
    let mut preds: Vec<Symbol> = defined
        .iter()
        .copied()
        .filter(|p| !read.contains(p))
        .collect();
    preds.sort_unstable();
    // The "topmost" such predicate is usually the intended query output;
    // flag only when there are at least two, keeping the rest.
    if preds.len() >= 2 {
        for pred in preds.into_iter().skip(1) {
            out.push(Lint::DefinedButUnused { pred });
        }
    }
}

/// Names shorter than this are never called typos of each other: any
/// two one-letter names are one edit apart, and short names are chosen
/// deliberately (`p`, `q`, `tc`).
const MIN_TYPO_LEN: usize = 3;

/// Whether `used` reads like a misspelling of `defined`: one edit apart,
/// the shorter of the two at least [`MIN_TYPO_LEN`] characters long.
fn is_probable_typo(used: &str, defined: &str) -> bool {
    used.chars().count().min(defined.chars().count()) >= MIN_TYPO_LEN
        && edit_distance_is_one(used, defined)
}

/// Whether `a` and `b` differ by exactly one edit (insert/delete/replace).
fn edit_distance_is_one(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > 1 || (n == m && a == b) {
        return false;
    }
    if n == m {
        return a.iter().zip(b).filter(|(x, y)| x != y).count() == 1;
    }
    // One is one longer: check subsequence with one skip.
    let (short, long) = if n < m { (a, b) } else { (b, a) };
    let mut i = 0;
    let mut skipped = false;
    for &cur in long {
        if i < short.len() && short[i] == cur {
            i += 1;
        } else if skipped {
            return false;
        } else {
            skipped = true;
        }
    }
    true
}

/// Renders a lint for display.
pub fn render_lint(l: &Lint, syms: &SymbolTable) -> String {
    match l {
        Lint::UnboundHeadVariable { rule, var } => format!(
            "rule {rule}: head variable X{} is unbound — the conclusion \
             will be emitted for every domain constant",
            var.0
        ),
        Lint::ProbableTypo { used, similar } => format!(
            "predicate `{}` has no rules and no facts and is never \
             inserted; did you mean `{}`?",
            syms.name(*used),
            syms.name(*similar)
        ),
        Lint::AddedButNeverRead { rule, pred } => format!(
            "rule {rule}: inserts `{}` hypothetically, but nothing reads it",
            syms.name(*pred)
        ),
        Lint::DefinedButUnused { pred } => format!(
            "predicate `{}` is defined but never used by any premise",
            syms.name(*pred)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str) -> (Vec<Lint>, SymbolTable) {
        let mut syms = SymbolTable::new();
        let rb = parse_program(src, &mut syms).unwrap();
        let lints = lint(&rb, &Database::new(), &syms);
        (lints, syms)
    }

    #[test]
    fn unbound_head_variable_flagged() {
        let (lints, _) = run("all(X) :- trigger.");
        assert!(lints
            .iter()
            .any(|l| matches!(l, Lint::UnboundHeadVariable { rule: 0, .. })));
        // Bound case: no lint.
        let (lints, _) = run("copy(X) :- src(X).");
        assert!(lints.is_empty());
    }

    #[test]
    fn typo_detection() {
        let (lints, syms) = run("reachable(X) :- edge(X, Y).
             out(X) :- reachible(X).");
        let typo = lints.iter().find_map(|l| match l {
            Lint::ProbableTypo { used, similar } => {
                Some((syms.name(*used).to_owned(), syms.name(*similar).to_owned()))
            }
            _ => None,
        });
        assert_eq!(
            typo,
            Some(("reachible".to_string(), "reachable".to_string()))
        );
    }

    #[test]
    fn short_names_are_not_typos() {
        // `q` and `p`, `ab` and `abc` are one edit apart, but the shorter
        // name is under three characters; `abc` and `abd` are not.
        let typos = |src: &str| {
            let (lints, syms) = run(src);
            lints
                .iter()
                .filter_map(|l| match l {
                    Lint::ProbableTypo { used, similar } => {
                        Some((syms.name(*used).to_owned(), syms.name(*similar).to_owned()))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert!(typos("p(X) :- e(X), ~q(X).").is_empty());
        assert!(typos("abc(X) :- ab(X).\nout(X) :- abc(X).").is_empty());
        assert_eq!(
            typos("abc(X) :- e(X).\nout(X) :- abd(X), abc(X)."),
            [("abd".to_owned(), "abc".to_owned())]
        );
    }

    #[test]
    fn predicates_with_facts_are_not_typos() {
        let mut syms = SymbolTable::new();
        let rb = parse_program("node(X) :- nodes(X), ~note(X).", &mut syms).unwrap();
        let mut db = Database::new();
        for fact in crate::parser::parse_ground_facts("nodes(a).", &mut syms).unwrap() {
            db.insert(fact);
        }
        let typos = |db: &Database| -> Vec<String> {
            let lints = lint(&rb, db, &syms);
            let typos = lints.into_iter().filter_map(|l| match l {
                Lint::ProbableTypo { used, .. } => Some(syms.name(used).to_owned()),
                _ => None,
            });
            typos.collect()
        };
        assert_eq!(typos(&Database::new()), ["nodes", "note"]);
        assert_eq!(typos(&db), ["note"], "nodes(a) is a base fact");
    }

    #[test]
    fn added_but_never_read_flagged() {
        let (lints, syms) = run("p :- q[add: orphan].\nq :- marker.");
        assert!(lints.iter().any(|l| matches!(
            l,
            Lint::AddedButNeverRead { pred, .. } if syms.name(*pred) == "orphan"
        )));
        // The parity rulebase reads its added predicate: no such lint.
        let (lints, _) = run("even :- select(X), odd[add: b(X)].
             odd :- select(X), even[add: b(X)].
             even :- ~select(X).
             select(X) :- a(X), ~b(X).");
        assert!(!lints
            .iter()
            .any(|l| matches!(l, Lint::AddedButNeverRead { .. })));
    }

    #[test]
    fn edit_distance() {
        assert!(edit_distance_is_one("edge", "edges"));
        assert!(edit_distance_is_one("edge", "edgy"));
        assert!(edit_distance_is_one("dge", "edge"));
        assert!(!edit_distance_is_one("edge", "edge"));
        assert!(!edit_distance_is_one("edge", "ridge"));
        assert!(!edit_distance_is_one("a", "abc"));
    }

    #[test]
    fn defined_but_unused_keeps_one_output() {
        // `yes` is the intended output; `junk` is dead.
        let (lints, syms) = run("yes :- path.
             junk :- path.
             path :- edge.");
        let unused: Vec<&str> = lints
            .iter()
            .filter_map(|l| match l {
                Lint::DefinedButUnused { pred } => Some(syms.name(*pred)),
                _ => None,
            })
            .collect();
        assert_eq!(unused.len(), 1, "one of yes/junk kept as output");
    }

    #[test]
    fn render_is_humane() {
        let (lints, syms) = run("all(X) :- trigger.");
        let text = render_lint(&lints[0], &syms);
        assert!(text.contains("every domain constant"));
    }
}
