//! The one mutation type, from input line to write-ahead-log record.
//!
//! A session changes in four ways: a program load, an assumption frame
//! pushed (the session-level analogue of the paper's `[add: …]`
//! premise), one base fact retracted, and the top frame popped. Every
//! front door — the REPL, `serve --stdin`, the wire protocol — holds the
//! change as an [`OpText`], [parses](OpText::parse) it into an [`Op`]
//! against the session's symbol table, and hands that to
//! [`Session::apply`](crate::Session::apply), whose result is an
//! [`Applied`]. The durability layer logs the same [`Op`] and replays it
//! through the same `apply`.

use crate::ast::HypRule;
use crate::parser::{parse_ground_facts, parse_program, split_facts};
use hdl_base::{Error, GroundAtom, Result, SymbolTable};

/// A mutation as its text arrives, before parsing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpText<'a> {
    /// Program text: rules and facts.
    Load(&'a str),
    /// Ground facts for a new assumption frame (`f1, f2` or `f1. f2.`).
    Assume(&'a str),
    /// The one base fact to retract.
    Retract(&'a str),
    /// Pop the top assumption frame.
    Pop,
}

impl OpText<'_> {
    /// Parses the text into an [`Op`], interning its names into
    /// `symbols`.
    pub fn parse(&self, symbols: &mut SymbolTable) -> Result<Op> {
        let mut ground = |text| parse_ground_facts(text, symbols).map_err(Error::NotGroundFacts);
        Ok(match *self {
            OpText::Load(text) => {
                let (rules, facts) = split_facts(parse_program(text, symbols)?);
                Op::Program {
                    rules: rules.rules,
                    facts,
                }
            }
            OpText::Assume(text) => Op::Assume(ground(text)?),
            OpText::Retract(text) => match <[GroundAtom; 1]>::try_from(ground(text)?) {
                Ok([fact]) => Op::Retract(fact),
                Err(_) => return Err(Error::Protocol("retract takes exactly one fact".into())),
            },
            OpText::Pop => Op::Pop,
        })
    }
}

/// A parsed mutation, as a session applies it and its log records it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Rules joining the rulebase and facts joining the base database,
    /// committed together.
    Program {
        /// Rules joining the rulebase.
        rules: Vec<HypRule>,
        /// Ground facts joining the base database.
        facts: Vec<GroundAtom>,
    },
    /// A new assumption frame pushed on top of the base database.
    Assume(Vec<GroundAtom>),
    /// One base fact retracted.
    Retract(GroundAtom),
    /// The top assumption frame popped.
    Pop,
}

/// What one applied [`Op`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Applied {
    /// The program loaded.
    Loaded,
    /// A frame was pushed; `frames` is the new stack depth.
    Assumed {
        /// Assumption frames now stacked.
        frames: usize,
    },
    /// The top frame was popped.
    Popped {
        /// Facts in the popped frame.
        popped: usize,
        /// Frames left.
        frames: usize,
    },
    /// A retraction ran.
    Retracted {
        /// Whether the fact was in the base database.
        removed: bool,
    },
}
