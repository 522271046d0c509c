//! Shared error type for the workspace's analysis and evaluation layers.

use std::fmt;

/// Errors surfaced by parsers, analyses and engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A textual program failed to parse.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// A predicate was used with two different arities.
    ArityMismatch {
        /// Predicate name.
        predicate: String,
        /// Arity seen first.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// The program has recursion through negation (not stratified).
    NotStratified {
        /// Human-readable cycle description.
        cycle: String,
    },
    /// The program is stratified but not *linearly* stratified (Def. 9).
    NotLinearlyStratified {
        /// Which condition failed.
        reason: String,
    },
    /// A query or rule violated a structural requirement.
    Invalid(String),
    /// Text given where ground facts were expected (`:assume`,
    /// `:retract`) is not a list of ground facts; the message says why.
    NotGroundFacts(String),
    /// A mutation that does not fit its op: a retract of more than one
    /// fact, or a pop with no assumption frame stacked.
    Protocol(String),
    /// An engine hit a configured resource limit.
    LimitExceeded {
        /// Which limit (e.g. "goal expansions").
        what: String,
        /// The configured bound.
        limit: u64,
    },
    /// Evaluation was cancelled through a cancellation token.
    Cancelled,
    /// Evaluation ran past its wall-clock deadline.
    DeadlineExceeded,
    /// Evaluation exceeded a configured memory budget (fact count, goal-set
    /// size, overlay depth) and was abandoned to keep the process bounded.
    ResourceExhausted {
        /// Which resource ran out (e.g. "facts", "goal set").
        resource: String,
        /// The configured bound.
        limit: u64,
    },
    /// A filesystem operation failed (durability layer). Carries the
    /// operation context and the rendered `std::io::Error`, since io
    /// errors are neither `Clone` nor `Eq`.
    Io(String),
}

impl Error {
    /// Wraps an `std::io::Error` with the operation that hit it.
    pub fn io(context: impl fmt::Display, err: std::io::Error) -> Self {
        Error::Io(format!("{context}: {err}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            Error::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "predicate `{predicate}` used with arity {found}, previously {expected}"
            ),
            Error::NotStratified { cycle } => {
                write!(
                    f,
                    "program is not stratified: recursion through negation ({cycle})"
                )
            }
            Error::NotLinearlyStratified { reason } => {
                write!(f, "program is not linearly stratified: {reason}")
            }
            Error::Invalid(msg) => write!(f, "invalid program: {msg}"),
            Error::NotGroundFacts(msg) | Error::Protocol(msg) => f.write_str(msg),
            Error::LimitExceeded { what, limit } => {
                write!(f, "evaluation limit exceeded: {what} > {limit}")
            }
            Error::Cancelled => write!(f, "evaluation cancelled"),
            Error::DeadlineExceeded => write!(f, "evaluation deadline exceeded"),
            Error::ResourceExhausted { resource, limit } => {
                write!(f, "resource exhausted: {resource} budget of {limit} spent")
            }
            Error::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::Parse {
            line: 3,
            column: 9,
            message: "expected `.`".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:9: expected `.`");
        let e = Error::ArityMismatch {
            predicate: "edge".into(),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("edge"));
        assert!(Error::NotStratified {
            cycle: "a ~> a".into()
        }
        .to_string()
        .contains("negation"));
        assert!(Error::LimitExceeded {
            what: "goals".into(),
            limit: 10
        }
        .to_string()
        .contains("10"));
    }
}
