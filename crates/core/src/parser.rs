//! Text syntax for hypothetical Datalog.
//!
//! The concrete syntax follows Prolog conventions, extended with the
//! paper's bracketed hypothetical operator:
//!
//! ```text
//! % Example 3 of the paper:
//! within1(S, D) :- grad(S, D)[add: take(S, C)].
//! grad(S, mathphys) :- within1(S, math), within1(S, phys).
//!
//! % Negation as failure (section 3.1):
//! select(X) :- a(X), ~b(X).
//!
//! % Facts are rules with empty bodies:
//! take(tony, cs250).
//! ```
//!
//! Identifiers starting with a lowercase letter (or a digit) are constants
//! and predicate names; identifiers starting with an uppercase letter or
//! `_` are variables, scoped to their rule. `%` and `//` start line
//! comments. Propositional atoms may omit the parentheses.

use crate::ast::{HypRule, Premise, Rulebase};
use hdl_base::{Atom, Error, FxHashMap, GroundAtom, Result, SymbolTable, Term, Var};

/// A parsed goal for `?-` query lines: a premise evaluated against the
/// database (no head).
pub type Query = Premise;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    UpperIdent(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Dot,
    Turnstile, // :-
    Colon,
    Tilde,
    Query, // ?-
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

type Spanned = (Tok, usize, usize);

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            line: self.line,
            column: self.col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = *self.src.get(self.pos)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn tokens(mut self) -> Result<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else { break };
            let tok = match b {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b'[' => {
                    self.bump();
                    Tok::LBracket
                }
                b']' => {
                    self.bump();
                    Tok::RBracket
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b'~' => {
                    self.bump();
                    Tok::Tilde
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Turnstile
                    } else {
                        Tok::Colon
                    }
                }
                b'?' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Query
                    } else {
                        return Err(self.error("expected `?-`"));
                    }
                }
                b if b.is_ascii_alphanumeric() || b == b'_' => {
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.bump();
                    }
                    let text = std::str::from_utf8(&self.src[start..self.pos])
                        .expect("ascii identifier")
                        .to_owned();
                    if b.is_ascii_uppercase() || b == b'_' {
                        Tok::UpperIdent(text)
                    } else {
                        Tok::Ident(text)
                    }
                }
                other => {
                    return Err(self.error(format!("unexpected character `{}`", other as char)))
                }
            };
            out.push((tok, line, col));
        }
        Ok(out)
    }
}

/// Parser state over a token stream.
struct Parser<'s> {
    toks: Vec<Spanned>,
    pos: usize,
    symbols: &'s mut SymbolTable,
    /// Per-rule variable numbering.
    vars: FxHashMap<String, Var>,
}

impl<'s> Parser<'s> {
    fn error_at(&self, message: impl Into<String>) -> Error {
        let (line, column) = self
            .toks
            .get(self.pos)
            .map(|&(_, l, c)| (l, c))
            .unwrap_or_else(|| {
                self.toks
                    .last()
                    .map(|&(_, l, c)| (l, c + 1))
                    .unwrap_or((1, 1))
            });
        Error::Parse {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error_at(format!("expected {what}")))
        }
    }

    fn fresh_var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let v = Var(self.vars.len() as u32);
        self.vars.insert(name.to_owned(), v);
        v
    }

    fn parse_atom(&mut self) -> Result<Atom> {
        let name = match self.bump() {
            Some(Tok::Ident(n)) => n,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.error_at("expected predicate name"));
            }
        };
        let pred = self.symbols.intern(&name);
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::LParen) {
            self.bump();
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    args.push(self.parse_term()?);
                    match self.peek() {
                        Some(Tok::Comma) => {
                            self.bump();
                        }
                        Some(Tok::RParen) => break,
                        _ => return Err(self.error_at("expected `,` or `)` in argument list")),
                    }
                }
            }
            self.expect(&Tok::RParen, "`)`")?;
        }
        Ok(Atom::new(pred, args))
    }

    fn parse_term(&mut self) -> Result<Term> {
        match self.bump() {
            Some(Tok::Ident(n)) => Ok(Term::Const(self.symbols.intern(&n))),
            Some(Tok::UpperIdent(n)) => {
                // An underscore by itself is an anonymous variable: each
                // occurrence is distinct (the paper writes these as blanks
                // in the frame-axiom rules of section 5.1.4). The internal
                // key contains `#`, which the lexer rejects in identifiers,
                // so a user variable can never collide with (and silently
                // co-constrain) an anonymous one.
                if n == "_" {
                    let id = self.vars.len();
                    Ok(Term::Var(self.fresh_var(&format!("#anon{id}"))))
                } else {
                    Ok(Term::Var(self.fresh_var(&n)))
                }
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error_at("expected term"))
            }
        }
    }

    fn parse_premise(&mut self) -> Result<Premise> {
        if self.peek() == Some(&Tok::Tilde) {
            self.bump();
            let atom = self.parse_atom()?;
            if self.peek() == Some(&Tok::LBracket) {
                return Err(self.error_at(
                    "negated hypothetical premises `~a[add: b]` are not allowed; \
                     introduce `c :- a[add: b].` and negate `c` (section 3.1)",
                ));
            }
            return Ok(Premise::Neg(atom));
        }
        let goal = self.parse_atom()?;
        if self.peek() == Some(&Tok::LBracket) {
            self.bump();
            let (adds, dels) = self.parse_hyp_lists()?;
            return Ok(Premise::Hyp { goal, adds, dels });
        }
        Ok(Premise::Atom(goal))
    }

    /// Parses the body of a hypothetical bracket after `[`: one or more
    /// keyword groups `add: A₁,…,Aₘ` / `del: C₁,…,Cₙ`, comma-separated, up
    /// to the closing `]`. Each keyword may appear at most once; an atom
    /// after a group's atoms continues that group.
    fn parse_hyp_lists(&mut self) -> Result<(Vec<Atom>, Vec<Atom>)> {
        let mut adds: Vec<Atom> = Vec::new();
        let mut dels: Vec<Atom> = Vec::new();
        // Which list the current keyword group appends to; `None` until the
        // first keyword has been seen.
        let mut current: Option<bool> = None; // true = adds, false = dels
        loop {
            // A keyword introducer is an identifier followed by `:` — a
            // plain atom can never match because `:` cannot follow an atom
            // inside the bracket.
            let at_keyword = matches!(
                (self.peek(), self.toks.get(self.pos + 1).map(|(t, _, _)| t)),
                (Some(Tok::Ident(_)), Some(Tok::Colon))
            );
            if at_keyword {
                let Some(Tok::Ident(kw)) = self.bump() else {
                    unreachable!("peeked an identifier")
                };
                let is_add = match kw.as_str() {
                    "add" => true,
                    "del" => false,
                    other => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.error_at(format!(
                            "unknown premise keyword `{other}` in hypothetical \
                             bracket; expected `add:` or `del:`"
                        )));
                    }
                };
                let seen = if is_add {
                    !adds.is_empty()
                } else {
                    !dels.is_empty()
                };
                if seen || current == Some(is_add) {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(
                        self.error_at(format!("duplicate `{kw}:` group in hypothetical bracket"))
                    );
                }
                current = Some(is_add);
                self.expect(&Tok::Colon, format!("`:` after `{kw}`").as_str())?;
            } else if current.is_none() {
                return Err(self.error_at("expected `add:` or `del:` after `[`"));
            }
            let atom = self.parse_atom()?;
            if current == Some(true) {
                adds.push(atom);
            } else {
                dels.push(atom);
            }
            match self.peek() {
                Some(Tok::Comma) => {
                    self.bump();
                }
                Some(Tok::RBracket) => {
                    self.bump();
                    return Ok((adds, dels));
                }
                _ => return Err(self.error_at("expected `,` or `]` in hypothetical bracket")),
            }
        }
    }

    fn parse_rule(&mut self) -> Result<HypRule> {
        self.vars.clear();
        let head = self.parse_atom()?;
        let mut premises = Vec::new();
        if self.peek() == Some(&Tok::Turnstile) {
            self.bump();
            loop {
                premises.push(self.parse_premise()?);
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(&Tok::Dot, "`.` at end of rule")?;
        Ok(HypRule::new(head, premises))
    }

    fn parse_query(&mut self) -> Result<Premise> {
        self.vars.clear();
        self.expect(&Tok::Query, "`?-`")?;
        let p = self.parse_premise()?;
        self.expect(&Tok::Dot, "`.` at end of query")?;
        Ok(p)
    }
}

/// Parses a whole program (rules and facts) into a [`Rulebase`].
///
/// Facts (ground rules with empty bodies) stay in the rulebase; use
/// [`split_facts`] to pull them into a database.
///
/// ```
/// use hdl_base::SymbolTable;
/// use hdl_core::parser::parse_program;
/// let mut syms = SymbolTable::new();
/// let rb = parse_program(
///     "within1(S, D) :- grad(S, D)[add: take(S, C)].",
///     &mut syms,
/// ).unwrap();
/// assert_eq!(rb.len(), 1);
/// assert!(rb.rules[0].premises[0].is_hypothetical());
/// ```
pub fn parse_program(src: &str, symbols: &mut SymbolTable) -> Result<Rulebase> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        symbols,
        vars: FxHashMap::default(),
    };
    let mut rb = Rulebase::new();
    while p.peek().is_some() {
        rb.push(p.parse_rule()?);
    }
    check_arities(&rb, p.symbols)?;
    Ok(rb)
}

/// Parses a single query line `?- premise.`.
pub fn parse_query(src: &str, symbols: &mut SymbolTable) -> Result<Query> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        symbols,
        vars: FxHashMap::default(),
    };
    let q = p.parse_query()?;
    if p.peek().is_some() {
        return Err(p.error_at("trailing input after query"));
    }
    Ok(q)
}

/// Splits ground, body-less rules out of `rb` into a database; returns the
/// remaining rules and the extracted facts.
pub fn split_facts(rb: Rulebase) -> (Rulebase, Vec<GroundAtom>) {
    let mut rules = Rulebase::new();
    let mut facts = Vec::new();
    for r in rb.rules {
        match (r.is_fact(), r.head.to_ground()) {
            (true, Some(g)) => facts.push(g),
            _ => rules.push(r),
        }
    }
    (rules, facts)
}

/// Splits `text` into ground facts; accepts both `f1, f2` and `f1. f2.`
/// (commas inside argument lists are kept). Constants intern into
/// `symbols`. Errors name the first piece that is not a ground fact.
pub fn parse_ground_facts(
    text: &str,
    symbols: &mut SymbolTable,
) -> std::result::Result<Vec<GroundAtom>, String> {
    let mut pieces = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in text.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            ',' | '.' if depth == 0 => {
                pieces.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&text[start..]);
    let mut facts = Vec::new();
    for piece in pieces {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let rb = parse_program(&format!("{piece}."), symbols).map_err(|e| e.to_string())?;
        let (rules, mut parsed) = split_facts(rb);
        if !rules.is_empty() || parsed.len() != 1 {
            return Err(format!("`{piece}` is not a ground fact"));
        }
        facts.push(parsed.pop().expect("checked length"));
    }
    if facts.is_empty() {
        return Err("expected one or more ground facts".to_owned());
    }
    Ok(facts)
}

/// Checks that every predicate is used with one arity throughout.
pub fn check_arities(rb: &Rulebase, symbols: &SymbolTable) -> Result<()> {
    let mut arities: FxHashMap<hdl_base::Symbol, usize> = FxHashMap::default();
    for rule in rb.iter() {
        for atom in std::iter::once(&rule.head).chain(rule.premises.iter().flat_map(|p| p.atoms()))
        {
            match arities.get(&atom.pred) {
                Some(&a) if a != atom.arity() => {
                    return Err(Error::ArityMismatch {
                        predicate: symbols.name(atom.pred).to_owned(),
                        expected: a,
                        found: atom.arity(),
                    });
                }
                Some(_) => {}
                None => {
                    arities.insert(atom.pred, atom.arity());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (Rulebase, SymbolTable) {
        let mut syms = SymbolTable::new();
        let rb = parse_program(src, &mut syms).expect("parse");
        (rb, syms)
    }

    #[test]
    fn ground_facts_split_on_commas_and_periods_outside_arguments() {
        let mut syms = SymbolTable::new();
        let render = |facts: &[GroundAtom], syms: &SymbolTable| -> Vec<String> {
            facts
                .iter()
                .map(|f| {
                    let args: Vec<&str> = f.args.iter().map(|&c| syms.name(c)).collect();
                    format!("{}({})", syms.name(f.pred), args.join(","))
                })
                .collect()
        };
        let commas = parse_ground_facts(" e(a, b), e(b, c) ", &mut syms).unwrap();
        assert_eq!(render(&commas, &syms), ["e(a,b)", "e(b,c)"]);
        let periods = parse_ground_facts("e(a, b). p(c).", &mut syms).unwrap();
        assert_eq!(render(&periods, &syms), ["e(a,b)", "p(c)"]);
        let mixed = parse_ground_facts("t(a, b, c), q. r(d, e)", &mut syms).unwrap();
        assert_eq!(render(&mixed, &syms), ["t(a,b,c)", "q()", "r(d,e)"]);
    }

    #[test]
    fn ground_facts_reject_rules_variables_and_empty_input() {
        let mut syms = SymbolTable::new();
        assert_eq!(
            parse_ground_facts("p(a), q(X)", &mut syms).unwrap_err(),
            "`q(X)` is not a ground fact"
        );
        assert_eq!(
            parse_ground_facts("p(a) :- q(a)", &mut syms).unwrap_err(),
            "`p(a) :- q(a)` is not a ground fact"
        );
        assert_eq!(
            parse_ground_facts(" . , ", &mut syms).unwrap_err(),
            "expected one or more ground facts"
        );
        assert!(parse_ground_facts("p(a", &mut syms).is_err());
    }

    #[test]
    fn parses_facts_and_horn_rules() {
        let (rb, syms) = parse(
            "take(tony, cs250).\n\
             grad(S) :- take(S, his101), take(S, eng201).",
        );
        assert_eq!(rb.len(), 2);
        assert!(rb.rules[0].is_fact());
        let grad = syms.lookup("grad").unwrap();
        assert_eq!(rb.rules[1].head.pred, grad);
        assert_eq!(rb.rules[1].premises.len(), 2);
        assert_eq!(rb.rules[1].num_vars, 1, "S is one shared variable");
    }

    #[test]
    fn parses_hypothetical_premises() {
        let (rb, syms) = parse("within1(S, D) :- grad(S, D)[add: take(S, C)].");
        let r = &rb.rules[0];
        assert_eq!(r.premises.len(), 1);
        let Premise::Hyp { goal, adds, dels } = &r.premises[0] else {
            panic!("expected hypothetical premise");
        };
        assert!(dels.is_empty());
        assert_eq!(goal.pred, syms.lookup("grad").unwrap());
        assert_eq!(adds.len(), 1);
        assert_eq!(adds[0].pred, syms.lookup("take").unwrap());
        assert_eq!(r.num_vars, 3);
    }

    #[test]
    fn parses_multi_add_lists() {
        let (rb, _) = parse("a :- b[add: c, d(X), e].");
        let Premise::Hyp { adds, .. } = &rb.rules[0].premises[0] else {
            panic!()
        };
        assert_eq!(adds.len(), 3);
    }

    #[test]
    fn parses_del_lists() {
        let (rb, syms) = parse("p(X) :- q(X)[del: r(X)].");
        let Premise::Hyp { goal, adds, dels } = &rb.rules[0].premises[0] else {
            panic!("expected hypothetical premise");
        };
        assert_eq!(goal.pred, syms.lookup("q").unwrap());
        assert!(adds.is_empty());
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].pred, syms.lookup("r").unwrap());
    }

    #[test]
    fn parses_combined_add_del_lists_with_whitespace() {
        let (rb, _) = parse("a :- b[ add:  c , d(X) ,\n  del:  e , f ].");
        let Premise::Hyp { adds, dels, .. } = &rb.rules[0].premises[0] else {
            panic!()
        };
        assert_eq!(adds.len(), 2);
        assert_eq!(dels.len(), 2);
        // del-first order also parses.
        let (rb, _) = parse("a :- b[del: e, add: c].");
        let Premise::Hyp { adds, dels, .. } = &rb.rules[0].premises[0] else {
            panic!()
        };
        assert_eq!(adds.len(), 1);
        assert_eq!(dels.len(), 1);
    }

    #[test]
    fn add_and_del_may_name_atoms_called_add_or_del() {
        // `add` / `del` are only keywords when followed by `:`.
        let (rb, _) = parse("a :- b[add: add, del, del: add].");
        let Premise::Hyp { adds, dels, .. } = &rb.rules[0].premises[0] else {
            panic!()
        };
        assert_eq!(adds.len(), 2);
        assert_eq!(dels.len(), 1);
    }

    #[test]
    fn unknown_premise_keyword_is_a_spanned_error() {
        let mut syms = SymbolTable::new();
        let err = parse_program("p :- q[remove: r].", &mut syms).unwrap_err();
        let Error::Parse {
            line,
            column,
            message,
        } = err
        else {
            panic!("expected parse error")
        };
        assert_eq!(line, 1);
        assert_eq!(column, 8, "error points at the keyword itself");
        assert!(
            message.contains("unknown premise keyword `remove`"),
            "{message}"
        );
        assert!(message.contains("`add:` or `del:`"), "{message}");
    }

    #[test]
    fn duplicate_keyword_groups_are_rejected() {
        let mut syms = SymbolTable::new();
        let err = parse_program("p :- q[add: a, del: b, add: c].", &mut syms).unwrap_err();
        assert!(err.to_string().contains("duplicate `add:`"), "{err}");
        let err = parse_program("p :- q[del: a, del: b].", &mut syms).unwrap_err();
        assert!(err.to_string().contains("duplicate `del:`"), "{err}");
    }

    #[test]
    fn empty_bracket_is_rejected() {
        let mut syms = SymbolTable::new();
        let err = parse_program("p :- q[r].", &mut syms).unwrap_err();
        assert!(
            err.to_string().contains("expected `add:` or `del:`"),
            "{err}"
        );
    }

    #[test]
    fn parses_negation_and_propositional_atoms() {
        let (rb, syms) = parse("even :- ~select(X).");
        let r = &rb.rules[0];
        assert_eq!(r.head.arity(), 0);
        assert!(r.premises[0].is_negative());
        assert_eq!(r.premises[0].goal().pred, syms.lookup("select").unwrap());
    }

    #[test]
    fn rejects_negated_hypotheticals_with_guidance() {
        let mut syms = SymbolTable::new();
        let err = parse_program("p :- ~a[add: b].", &mut syms).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("negated hypothetical"), "{msg}");
    }

    #[test]
    fn anonymous_variables_are_distinct() {
        // accept(T) :- control(_, _, T).  — two `_` must not co-constrain.
        let (rb, _) = parse("accept(T) :- control(_, _, T).");
        assert_eq!(rb.rules[0].num_vars, 3);
    }

    #[test]
    fn user_variables_cannot_collide_with_anonymous_ones() {
        // `_anon0` is a legal user variable name; it must stay distinct
        // from the internally numbered blanks.
        let (rb, _) = parse("p(T) :- q(_, _anon0, T), r(_anon0).");
        // Variables: #anon0 (the blank), _anon0, T — three distinct.
        assert_eq!(rb.rules[0].num_vars, 3);
        let (rb, _) = parse("p :- q(_anon1, _), r(_anon1).");
        // _anon1 is shared across premises; the blank is separate.
        assert_eq!(rb.rules[0].num_vars, 2);
    }

    #[test]
    fn variables_are_rule_scoped() {
        let (rb, _) = parse("p(X) :- q(X).\nr(X) :- s(X, Y).");
        assert_eq!(rb.rules[0].num_vars, 1);
        assert_eq!(rb.rules[1].num_vars, 2);
    }

    #[test]
    fn comments_are_skipped() {
        let (rb, _) = parse("% comment\n// another\np :- q. % trailing");
        assert_eq!(rb.len(), 1);
    }

    #[test]
    fn arity_mismatch_reported_with_name() {
        let mut syms = SymbolTable::new();
        let err = parse_program("p(X) :- q(X).\nq(a, b).", &mut syms).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { ref predicate, .. } if predicate == "q"));
    }

    #[test]
    fn parse_error_positions() {
        let mut syms = SymbolTable::new();
        let err = parse_program("p :- q\nr.", &mut syms).unwrap_err();
        // After `q`, `r` on line 2 is treated as a continuation error: the
        // missing dot is discovered at `r`.
        let Error::Parse { line, .. } = err else {
            panic!("expected parse error")
        };
        assert_eq!(line, 2);
    }

    #[test]
    fn split_facts_separates_ground_facts() {
        let (rb, _) = parse("e(a, b).\ne(b, c).\ntc(X, Y) :- e(X, Y).");
        let (rules, facts) = split_facts(rb);
        assert_eq!(rules.len(), 1);
        assert_eq!(facts.len(), 2);
    }

    #[test]
    fn parse_query_forms() {
        let mut syms = SymbolTable::new();
        let q = parse_query("?- grad(tony)[add: take(tony, cs452)].", &mut syms).unwrap();
        assert!(q.is_hypothetical());
        let q = parse_query("?- ~yes.", &mut syms).unwrap();
        assert!(q.is_negative());
    }

    #[test]
    fn example9_shape_parses() {
        // The three-stratum rulebase of Example 9.
        let src = "
            a3 :- b3, a3[add: c3].
            a3 :- d3, ~a2.
            a2 :- b2, a2[add: c2].
            a2 :- d2, ~a1.
            a1 :- b1, a1[add: c1].
            a1 :- d1.
        ";
        let (rb, _) = parse(src);
        assert_eq!(rb.len(), 6);
        assert_eq!(
            rb.iter()
                .filter(|r| r.premises.iter().any(Premise::is_hypothetical))
                .count(),
            3
        );
    }
}
