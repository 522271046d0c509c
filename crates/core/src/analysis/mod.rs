//! Static analysis of hypothetical rulebases (§4 of the paper).
//!
//! - [`recursion`] — the predicate dependency graph of a hypothetical
//!   rulebase and its mutual-recursion equivalence classes;
//! - [`linearity`] — Definition 8's linear-rule test;
//! - [`stratify`] — Lemma 1: the polynomial-time decision procedure for
//!   linear stratifiability and the relaxation algorithm that constructs a
//!   concrete `(Δᵢ, Σᵢ)` stratification, plus the global
//!   negation-stratification used by the evaluation engines;
//! - [`lint`](mod@lint) — diagnostics for common rulebase mistakes (unbound head
//!   variables, probable typos, insertions nothing reads).

pub mod linearity;
pub mod lint;
pub mod recursion;
pub mod stratify;

pub use linearity::{is_linear_rule, rule_recursion};
pub use lint::{lint, render_lint, Lint};
pub use recursion::{HypEdge, RecursionAnalysis};
pub use stratify::{
    global_negation_strata, linear_stratification, LinearStratification, NegationStrata, Stratum,
};
