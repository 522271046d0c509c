//! Seeded workload inputs and the independent oracles that check the
//! server's answers. Everything here is a pure function of the seed, so
//! the wire run and the traced replay see the same op stream.

use hdl_bench::workloads::random_digraph;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// whatif: reach/2 over a sparse random digraph, magic engine
// ---------------------------------------------------------------------

/// The `whatif` graph is a chain of this many clusters…
const WHATIF_CLUSTERS: usize = 10;
/// …of this many nodes each; with [`WHATIF_OUT_DEGREE`] this sizes a
/// cache-missing query at roughly a millisecond of engine work.
const WHATIF_CLUSTER_SIZE: usize = 10;
/// Out-edges per node inside its cluster: a ring edge plus random chords.
const WHATIF_OUT_DEGREE: usize = 2;
/// Edges from each cluster into the next.
const WHATIF_BRIDGES: usize = 2;
/// Every `REPEAT_EVERY`-th op repeats an earlier query (a cache hit).
pub const REPEAT_EVERY: u64 = 5;
/// Repeats are drawn from this many most recent distinct queries.
const REPEAT_WINDOW: usize = 64;

pub struct Graph {
    pub n: usize,
    pub adj: Vec<Vec<usize>>,
}

impl Graph {
    pub fn edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&b)
    }

    /// Whether a path of length ≥ 1 leads from `a` to `b` once `add` is
    /// added to and `del` removed from the edge set.
    pub fn reaches(
        &self,
        a: usize,
        b: usize,
        add: Option<(usize, usize)>,
        del: Option<(usize, usize)>,
    ) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![a];
        while let Some(x) = stack.pop() {
            let extra = add.filter(|e| e.0 == x).map(|e| e.1);
            for y in self.adj[x].iter().copied().chain(extra) {
                if del == Some((x, y)) || seen[y] {
                    continue;
                }
                if y == b {
                    return true;
                }
                seen[y] = true;
                stack.push(y);
            }
        }
        false
    }
}

/// The `whatif` graph for `seed`: a chain of strongly connected
/// clusters (a ring with random chords each), each joined to the next
/// by [`WHATIF_BRIDGES`] random edges. A node reaches its own cluster
/// and every later one, so the closures the queries derive — and so
/// their costs — spread evenly from one cluster to the whole graph
/// whatever the seed, with no gap for a latency percentile to fall
/// into; a query whose target lies in an earlier cluster answers `false`
/// unless its hypothesis adds a way back.
pub fn whatif_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = WHATIF_CLUSTER_SIZE;
    let n = WHATIF_CLUSTERS * size;
    let mut adj = vec![Vec::new(); n];
    for (a, out) in adj.iter_mut().enumerate() {
        let base = a / size * size;
        out.push(base + (a + 1 - base) % size);
        while out.len() < WHATIF_OUT_DEGREE {
            let b = base + rng.gen_range(0..size);
            if b != a && !out.contains(&b) {
                out.push(b);
            }
        }
    }
    for c in 1..WHATIF_CLUSTERS {
        let mut bridges = 0;
        while bridges < WHATIF_BRIDGES {
            let (a, b) = (
                (c - 1) * size + rng.gen_range(0..size),
                c * size + rng.gen_range(0..size),
            );
            if !adj[a].contains(&b) {
                adj[a].push(b);
                bridges += 1;
            }
        }
    }
    Graph { n, adj }
}

/// The program a `whatif` tenant loads: transitive closure plus edges.
pub fn whatif_program(g: &Graph) -> String {
    let mut src =
        String::from("reach(X, Y) :- edge(X, Y). reach(X, Y) :- edge(X, Z), reach(Z, Y).");
    for (a, out) in g.adj.iter().enumerate() {
        for b in out {
            let _ = write!(src, " edge(n{a}, n{b}).");
        }
    }
    src
}

/// One query op with its oracle verdict.
#[derive(Clone)]
pub struct QueryOp {
    pub text: String,
    pub expected: bool,
    /// A repeat of an earlier op of the stream: served from the cache.
    pub repeat: bool,
}

/// The endless `whatif` op stream: distinct queries in three shapes
/// (plain, `[add: edge]` of a non-edge, `[del: edge]` of an edge), with
/// every [`REPEAT_EVERY`]-th op a repeat of a recent one.
pub struct WhatIfOps<'g> {
    graph: &'g Graph,
    rng: StdRng,
    seen: HashSet<String>,
    recent: VecDeque<QueryOp>,
    issued: u64,
}

impl<'g> WhatIfOps<'g> {
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        WhatIfOps {
            graph,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7)),
            seen: HashSet::new(),
            recent: VecDeque::new(),
            issued: 0,
        }
    }

    fn fresh(&mut self) -> QueryOp {
        let n = self.graph.n;
        loop {
            let (a, b) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
            if a == b {
                continue;
            }
            let (text, add, del) = match self.rng.gen_range(0..10) {
                0..=3 => (format!("reach(n{a}, n{b})"), None, None),
                4..=6 => {
                    let (x, y) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
                    if x == y || self.graph.has_edge(x, y) {
                        continue;
                    }
                    (
                        format!("reach(n{a}, n{b})[add: edge(n{x}, n{y})]"),
                        Some((x, y)),
                        None,
                    )
                }
                _ => {
                    let x = self.rng.gen_range(0..n);
                    let y = self.graph.adj[x][self.rng.gen_range(0..self.graph.adj[x].len())];
                    (
                        format!("reach(n{a}, n{b})[del: edge(n{x}, n{y})]"),
                        None,
                        Some((x, y)),
                    )
                }
            };
            if !self.seen.insert(text.clone()) {
                continue;
            }
            let expected = self.graph.reaches(a, b, add, del);
            return QueryOp {
                text,
                expected,
                repeat: false,
            };
        }
    }
}

impl Iterator for WhatIfOps<'_> {
    type Item = QueryOp;

    fn next(&mut self) -> Option<QueryOp> {
        self.issued += 1;
        if self.issued.is_multiple_of(REPEAT_EVERY) {
            let pick = self.rng.gen_range(0..self.recent.len());
            let mut op = self.recent[pick].clone();
            op.repeat = true;
            return Some(op);
        }
        let op = self.fresh();
        if self.recent.len() == REPEAT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(op.clone());
        Some(op)
    }
}

// ---------------------------------------------------------------------
// search: Examples 7–8 (Hamiltonian path and its complement)
// ---------------------------------------------------------------------

/// Instances per `search` round. A round is one tenant: its instances
/// share an engine domain, so per-query cost grows with the round size.
pub const SEARCH_ROUND: usize = 25;
/// Rounds loaded per second of timed phase (a generous upper bound on
/// the rate the server gets through them).
pub const SEARCH_ROUNDS_PER_SECOND: f64 = 4.0;
/// Edge density of the per-instance random digraphs.
const SEARCH_DENSITY: f64 = 0.3;

pub struct Instance {
    /// The instance's rules and facts, predicates suffixed `_i`.
    pub program: String,
    /// Facts in `program` (nodes and edges).
    pub facts: usize,
    pub query: QueryOp,
}

/// Instance `i` of the `search` workload: the Example 7 rulebase plus
/// its Example 8 complement `no_i :- ~yes_i` over a random digraph of
/// 8–10 nodes, asked as `yes_i` or `no_i`. The verdict comes from an
/// exhaustive DFS over the graph, not from the engine.
pub fn search_instance(seed: u64, i: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let nodes = 8 + i % 3;
    let want_ham = (i / 3).is_multiple_of(2);
    let (lo, hi) = SEARCH_STATE_BAND[nodes - 8][usize::from(want_ham)];
    let g = loop {
        let g = random_digraph(nodes, SEARCH_DENSITY, rng.next_u64());
        let states = search_states(&g);
        if g.has_hamiltonian_path() == want_ham && (lo..=hi).contains(&states) {
            break g;
        }
    };
    let mut program = format!(
        "yes_{i} :- node_{i}(X), path_{i}(X)[add: pnode_{i}(X)]. \
         path_{i}(X) :- select_{i}(Y), edge_{i}(X, Y), path_{i}(Y)[add: pnode_{i}(Y)]. \
         path_{i}(X) :- ~select_{i}(Y). \
         select_{i}(Y) :- node_{i}(Y), ~pnode_{i}(Y). \
         no_{i} :- ~yes_{i}."
    );
    for v in 0..g.n {
        let _ = write!(program, " node_{i}(v{i}_{v}).");
    }
    for &(a, b) in &g.edges {
        let _ = write!(program, " edge_{i}(v{i}_{a}, v{i}_{b}).");
    }
    let ham = want_ham;
    let ask_yes = rng.gen_bool(0.5);
    Instance {
        program,
        facts: g.n + g.edges.len(),
        query: QueryOp {
            text: format!("{}_{i}", if ask_yes { "yes" } else { "no" }),
            expected: ask_yes == ham,
            repeat: false,
        },
    }
}

/// Accepted range of [`search_states`] per node count (8, 9, 10) and
/// verdict (no path, path): about ±20% around the median of random
/// digraphs at [`SEARCH_DENSITY`]. Rejection sampling into these bands
/// keeps per-instance search effort alike, so a run's throughput does
/// not hinge on which graphs its seed happened to draw.
const SEARCH_STATE_BAND: [[(usize, usize); 2]; 3] = [
    [(76, 114), (175, 260)],
    [(130, 200), (360, 540)],
    [(255, 385), (720, 1080)],
];

/// The (last node, visited set) states a depth-first search for a
/// Hamiltonian path can reach from any start: the search space the
/// Example 7 rulebase explores, one overlay database per visited set.
fn search_states(g: &hdl_bench::workloads::Digraph) -> usize {
    let mut adj = vec![Vec::new(); g.n];
    for &(a, b) in &g.edges {
        adj[a].push(b);
    }
    let mut seen: HashSet<(usize, u32)> = (0..g.n).map(|v| (v, 1u32 << v)).collect();
    let mut stack: Vec<(usize, u32)> = seen.iter().copied().collect();
    while let Some((v, visited)) = stack.pop() {
        for &w in &adj[v] {
            let next = (w, visited | 1 << w);
            if visited & (1 << w) == 0 && seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen.len()
}

/// One tenant's worth of `search` instances.
pub struct SearchRound {
    pub program: String,
    pub facts: usize,
    pub queries: Vec<QueryOp>,
}

/// `count` rounds of [`SEARCH_ROUND`] instances; instance numbers run
/// on across rounds, so every instance of a run is distinct.
pub fn search_rounds(seed: u64, count: usize) -> Vec<SearchRound> {
    (0..count)
        .map(|r| {
            let instances: Vec<Instance> = (r * SEARCH_ROUND..(r + 1) * SEARCH_ROUND)
                .map(|i| search_instance(seed, i))
                .collect();
            SearchRound {
                program: instances
                    .iter()
                    .map(|i| i.program.as_str())
                    .collect::<Vec<_>>()
                    .join(" "),
                facts: instances.iter().map(|i| i.facts).sum(),
                queries: instances.into_iter().map(|i| i.query).collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// ingest and replicated: fact streams
// ---------------------------------------------------------------------

/// Load requests per pipelined `ingest` window, one new fact each.
pub const INGEST_WINDOW: usize = 32;
/// Every `INGEST_RETRACT_EVERY`-th window also carries retracts… A
/// quarter of the windows are then heavy: the median window latency lies
/// inside the light windows' mode and the 90th percentile inside the
/// heavy ones', so neither percentile falls into the gap between them.
pub const INGEST_RETRACT_EVERY: u64 = 4;
/// …this many, each of one earlier acked fact. They match the facts
/// loaded since the last retracting window, so a tenant's database stays
/// near its initial size: a window's cost (one snapshot copies the whole
/// database) then does not grow with the run's length.
pub const INGEST_RETRACTS: usize = INGEST_WINDOW * INGEST_RETRACT_EVERY as usize;
/// Facts an `ingest` tenant holds before the timed phase.
pub const INGEST_INITIAL_FACTS: usize = 1024;
/// Facts the `replicated` tenant holds, before and throughout.
pub const REPLICATED_LIVE_FACTS: usize = 256;

/// The text of fact `k` of a stream: `rec(k<k>, v<value>)`.
pub fn fact(rng: &mut StdRng, k: u64) -> String {
    format!("rec(k{k}, v{})", rng.gen_range(0..1000))
}

/// A tenant's initial program: `count` facts, keys `0..count`.
pub fn initial_facts(rng: &mut StdRng, count: usize) -> Vec<String> {
    (0..count as u64).map(|k| fact(rng, k)).collect()
}

/// One mutation request of a fact stream.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// Load these facts (one request).
    Load(Vec<String>),
    /// Retract one fact.
    Retract(String),
}

impl Mutation {
    pub fn facts(&self) -> usize {
        match self {
            Mutation::Load(f) => f.len(),
            Mutation::Retract(_) => 1,
        }
    }

    pub fn program(facts: &[String]) -> String {
        let mut s = String::new();
        for f in facts {
            let _ = write!(s, "{f}. ");
        }
        s
    }
}

/// The live fact set a stream's tenant must hold: the oracle for
/// `ingest` and `replicated`.
#[derive(Default)]
pub struct Live {
    facts: Vec<String>,
    index: std::collections::HashMap<String, usize>,
}

impl Live {
    pub fn insert(&mut self, f: String) {
        if !self.index.contains_key(&f) {
            self.index.insert(f.clone(), self.facts.len());
            self.facts.push(f);
        }
    }

    pub fn remove(&mut self, f: &str) -> bool {
        let Some(i) = self.index.remove(f) else {
            return false;
        };
        let last = self.facts.pop().expect("indexed fact present");
        if i < self.facts.len() {
            self.index.insert(last.clone(), i);
            self.facts[i] = last;
        }
        true
    }

    pub fn len(&self) -> usize {
        self.facts.len()
    }

    pub fn pick(&self, rng: &mut StdRng) -> &str {
        &self.facts[rng.gen_range(0..self.facts.len())]
    }

    pub fn sorted(&self) -> Vec<String> {
        let mut v = self.facts.clone();
        v.sort();
        v
    }
}

/// One `ingest` tenant's stream of windows. Retract targets are drawn
/// from facts acked in earlier windows, so every retract removes a fact.
pub struct IngestStream {
    rng: StdRng,
    next_key: u64,
    windows: u64,
}

impl IngestStream {
    /// The stream of one client's tenant, with its initial facts.
    pub fn new(seed: u64, client: usize) -> (IngestStream, Vec<String>) {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9)
                .wrapping_add(client as u64 + 17),
        );
        let initial = initial_facts(&mut rng, INGEST_INITIAL_FACTS);
        let stream = IngestStream {
            rng,
            next_key: INGEST_INITIAL_FACTS as u64,
            windows: 0,
        };
        (stream, initial)
    }

    /// The next window, given the facts acked so far.
    pub fn window(&mut self, acked: &Live) -> Vec<Mutation> {
        self.windows += 1;
        let mut ops = Vec::with_capacity(INGEST_WINDOW + INGEST_RETRACTS);
        for _ in 0..INGEST_WINDOW {
            self.next_key += 1;
            ops.push(Mutation::Load(vec![fact(&mut self.rng, self.next_key)]));
        }
        if self.windows.is_multiple_of(INGEST_RETRACT_EVERY) {
            let mut chosen = HashSet::new();
            while chosen.len() < INGEST_RETRACTS.min(acked.len()) {
                chosen.insert(acked.pick(&mut self.rng).to_owned());
            }
            let mut chosen: Vec<String> = chosen.into_iter().collect();
            chosen.sort();
            ops.extend(chosen.into_iter().map(Mutation::Retract));
        }
        ops
    }
}

/// The `replicated` stream: alternately load one new fact and retract
/// the oldest live one, so the live set stays at
/// [`REPLICATED_LIVE_FACTS`].
pub struct ReplicatedStream {
    rng: StdRng,
    next_key: u64,
    queue: VecDeque<String>,
    step: u64,
}

impl ReplicatedStream {
    pub fn new(seed: u64) -> (ReplicatedStream, Vec<String>) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(4242));
        let initial = initial_facts(&mut rng, REPLICATED_LIVE_FACTS);
        let stream = ReplicatedStream {
            rng,
            next_key: REPLICATED_LIVE_FACTS as u64,
            queue: initial.iter().cloned().collect(),
            step: 0,
        };
        (stream, initial)
    }
}

impl Iterator for ReplicatedStream {
    type Item = Mutation;

    fn next(&mut self) -> Option<Mutation> {
        self.step += 1;
        if self.step % 2 == 1 {
            self.next_key += 1;
            let f = fact(&mut self.rng, self.next_key);
            self.queue.push_back(f.clone());
            Some(Mutation::Load(vec![f]))
        } else {
            Some(Mutation::Retract(
                self.queue.pop_front().expect("live set never empties"),
            ))
        }
    }
}
