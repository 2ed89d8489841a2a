//! Seeded inputs the benchmark makes for itself: a splitmix64 stream, the
//! connected G(n, 8/n) graph, a zipf sampler, and FNV-1a fingerprints.
//!
//! Nothing here calls `cc_graph::generators` or `cc_serve::loadgen`, so a
//! change to either cannot change a workload's inputs.

use cc_graph::graph::{Direction, Graph};

/// Expected degree of the G(n, p) graph: p = DEGREE / n.
pub const DEGREE: f64 = 8.0;

/// splitmix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed`; distinct `stream` tags give
    /// independent streams for the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An undirected weighted edge list `(u, v, w)` with `u < v`.
pub type Edges = Vec<(usize, usize, u64)>;

/// Connected G(n, DEGREE/n) with weights uniform in `1..=n`: every pair is
/// an edge with probability p, then each component not holding node 0 is
/// joined to the nodes already connected by one random edge.
pub fn gnp_connected(n: usize, seed: u64) -> Edges {
    let mut rng = Rng::new(seed, 1);
    let p = DEGREE / n as f64;
    let mut edges = Edges::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.unit() < p {
                edges.push((u, v, 1 + rng.below(n) as u64));
            }
        }
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(u, v, _) in &edges {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        parent[a.max(b)] = a.min(b);
    }
    let mut joined: Vec<usize> = (0..n).filter(|&x| find(&mut parent, x) == 0).collect();
    for root in 1..n {
        if find(&mut parent, root) != root {
            continue;
        }
        let members: Vec<usize> = (0..n).filter(|&x| find(&mut parent, x) == root).collect();
        let a = members[rng.below(members.len())];
        let b = joined[rng.below(joined.len())];
        edges.push((a.min(b), a.max(b), 1 + rng.below(n) as u64));
        joined.extend(members);
    }
    edges
}

/// The program's graph for an edge list.
pub fn to_graph(n: usize, edges: &Edges) -> Graph {
    Graph::from_edges(n, Direction::Undirected, edges)
}

/// Zipf(s) over `n` ranks, with ranks mapped to nodes by a seeded
/// permutation so the hot nodes are spread over the graph.
pub struct Zipf {
    cdf: Vec<f64>,
    node_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut node_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            node_of_rank.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, node_of_rank }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1);
        self.node_of_rank[rank]
    }
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of an edge list.
pub fn edges_fingerprint(edges: &Edges) -> u64 {
    let mut h = Fnv::default();
    for &(u, v, w) in edges {
        h.words([u as u64, v as u64, w]);
    }
    h.finish()
}
