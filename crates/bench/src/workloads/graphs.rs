//! Random directed graphs for the Hamiltonian-path experiments (E4) and
//! the reachability workloads of the fixpoint benchmark.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A directed graph on nodes `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digraph {
    /// Number of nodes.
    pub n: usize,
    /// Directed edges `(from, to)`, no self-loops, deduplicated.
    pub edges: Vec<(usize, usize)>,
}

impl Digraph {
    /// Adjacency check.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a, b))
    }

    /// Exhaustive Hamiltonian-path check by DFS over permutations —
    /// the baseline comparator for the hypothetical rulebase (E4).
    pub fn has_hamiltonian_path(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut visited = vec![false; self.n];
        for start in 0..self.n {
            visited[start] = true;
            if self.extend_path(start, 1, &mut visited) {
                return true;
            }
            visited[start] = false;
        }
        false
    }

    fn extend_path(&self, last: usize, len: usize, visited: &mut [bool]) -> bool {
        if len == self.n {
            return true;
        }
        for &(a, b) in &self.edges {
            if a == last && !visited[b] {
                visited[b] = true;
                if self.extend_path(b, len + 1, visited) {
                    return true;
                }
                visited[b] = false;
            }
        }
        false
    }

    /// A directed chain `0 → 1 → … → n-1` (always Hamiltonian).
    pub fn chain(n: usize) -> Self {
        Digraph {
            n,
            edges: (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
        }
    }

    /// A star with all edges out of node 0 (never Hamiltonian for n ≥ 3).
    pub fn star(n: usize) -> Self {
        Digraph {
            n,
            edges: (1..n).map(|i| (0, i)).collect(),
        }
    }
}

/// Samples a digraph where each ordered pair gets an edge with
/// probability `density`, deterministically from `seed`.
pub fn random_digraph(n: usize, density: f64, seed: u64) -> Digraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.gen_bool(density) {
                edges.push((a, b));
            }
        }
    }
    Digraph { n, edges }
}

/// A chain of `clusters` strongly connected clusters of `size` nodes
/// each, deterministically from `seed`. Inside a cluster every node has
/// a ring edge to its successor plus random chords up to `out_degree`
/// out-edges; each cluster is joined to the next by `bridges` random
/// edges. A node reaches its own cluster and every later one, so
/// reachability closures range from one cluster to the whole graph.
pub fn clustered_digraph(
    clusters: usize,
    size: usize,
    out_degree: usize,
    bridges: usize,
    seed: u64,
) -> Digraph {
    assert!(size > out_degree, "a cluster must fit its out-degree");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..clusters * size {
        let base = a / size * size;
        let mut out = vec![base + (a + 1 - base) % size];
        while out.len() < out_degree {
            let b = base + rng.gen_range(0..size);
            if b != a && !out.contains(&b) {
                out.push(b);
            }
        }
        edges.extend(out.into_iter().map(|b| (a, b)));
    }
    for c in 1..clusters {
        let mut joined = 0;
        while joined < bridges {
            let a = (c - 1) * size + rng.gen_range(0..size);
            let b = c * size + rng.gen_range(0..size);
            if !edges.contains(&(a, b)) {
                edges.push((a, b));
                joined += 1;
            }
        }
    }
    Digraph {
        n: clusters * size,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_digraphs_chain_their_clusters() {
        let g = clustered_digraph(3, 5, 2, 2, 1);
        assert_eq!(
            g,
            clustered_digraph(3, 5, 2, 2, 1),
            "deterministic per seed"
        );
        assert_eq!(g.n, 15);
        assert_eq!(g.edges.len(), 15 * 2 + 2 * 2);
        for i in 0..15 {
            let ring = i / 5 * 5 + (i + 1) % 5;
            assert!(g.has_edge(i, ring), "ring edge out of {i}");
        }
        let across = |from: usize| {
            g.edges
                .iter()
                .filter(|e| e.0 / 5 == from && e.1 / 5 == from + 1)
                .count()
        };
        assert_eq!((across(0), across(1)), (2, 2));
        assert!(g
            .edges
            .iter()
            .all(|&(a, b)| b / 5 == a / 5 || b / 5 == a / 5 + 1));
    }

    #[test]
    fn chain_is_hamiltonian_star_is_not() {
        assert!(Digraph::chain(5).has_hamiltonian_path());
        assert!(!Digraph::star(4).has_hamiltonian_path());
        assert!(Digraph::star(2).has_hamiltonian_path(), "0→1 covers both");
    }

    #[test]
    fn random_graphs_are_deterministic_per_seed() {
        let a = random_digraph(6, 0.4, 7);
        let b = random_digraph(6, 0.4, 7);
        assert_eq!(a, b);
        let c = random_digraph(6, 0.4, 8);
        assert!(a != c || a.edges.is_empty());
    }

    #[test]
    fn density_extremes() {
        assert!(random_digraph(5, 0.0, 1).edges.is_empty());
        let full = random_digraph(5, 1.0, 1);
        assert_eq!(full.edges.len(), 20);
        assert!(full.has_hamiltonian_path());
    }
}
