//! The benchmark's own ground truth: Dijkstra over its own copy of the
//! edge list (not `cc_graph::sssp`), and the reference answers built on it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::inputs::Edges;

/// Unreachable.
pub const UNREACHED: u64 = u64::MAX;

/// Compressed adjacency of an undirected edge list, with an edge-weight
/// lookup for checking walks.
pub struct Adj {
    start: Vec<usize>,
    arcs: Vec<(usize, u64)>,
    weight: HashMap<(usize, usize), u64>,
}

impl Adj {
    pub fn new(n: usize, edges: &Edges) -> Self {
        let mut deg = vec![0usize; n + 1];
        for &(u, v, _) in edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut start = vec![0usize; n + 1];
        for u in 0..n {
            start[u + 1] = start[u] + deg[u];
        }
        let mut fill = start.clone();
        let mut arcs = vec![(0, 0); start[n]];
        let mut weight = HashMap::with_capacity(edges.len());
        for &(u, v, w) in edges {
            arcs[fill[u]] = (v, w);
            fill[u] += 1;
            arcs[fill[v]] = (u, w);
            fill[v] += 1;
            weight.insert((u.min(v), u.max(v)), w);
        }
        Adj {
            start,
            arcs,
            weight,
        }
    }

    pub fn n(&self) -> usize {
        self.start.len() - 1
    }

    /// Weight of edge `{u, v}`, if present.
    pub fn edge(&self, u: usize, v: usize) -> Option<u64> {
        self.weight.get(&(u.min(v), u.max(v))).copied()
    }

    /// Single-source shortest-path distances from `s`.
    pub fn dijkstra(&self, s: usize) -> Vec<u64> {
        let mut dist = vec![UNREACHED; self.n()];
        let mut heap = BinaryHeap::new();
        dist[s] = 0;
        heap.push(Reverse((0u64, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.arcs[self.start[u]..self.start[u + 1]] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// All-pairs distances, row-major.
    pub fn apsp(&self) -> Vec<u64> {
        (0..self.n()).flat_map(|s| self.dijkstra(s)).collect()
    }
}

/// The `k` nodes nearest to the owner of `row`, ordered by `(distance, id)`.
pub fn k_nearest(row: &[u64], k: usize) -> Vec<(usize, u64)> {
    let mut order: Vec<(u64, usize)> = row
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNREACHED)
        .map(|(v, &d)| (d, v))
        .collect();
    order.sort_unstable();
    order.into_iter().take(k).map(|(d, v)| (v, d)).collect()
}

/// Whether `path` is a walk from `u` to `v` over edges of `adj` whose
/// weights sum to `length`.
pub fn is_walk(adj: &Adj, path: &[usize], u: usize, v: usize, length: u64) -> bool {
    if path.first() != Some(&u) || path.last() != Some(&v) {
        return false;
    }
    let mut total = 0u64;
    for hop in path.windows(2) {
        match adj.edge(hop[0], hop[1]) {
            Some(w) => total += w,
            None => return false,
        }
    }
    total == length
}
