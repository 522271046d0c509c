//! Workload generators for the experiment benchmarks.

pub mod graphs;
pub mod rulebases;

pub use graphs::{clustered_digraph, random_digraph, Digraph};
pub use rulebases::{
    chain_program, hamiltonian_program, hamiltonian_reach_program,
    independent_hamiltonian_programs, layered_rulebase, parity_program, reach_program,
    same_generation_program, tc_edb, tc_program, tc_rules,
};
