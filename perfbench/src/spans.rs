//! Reading the `cc_obs` span tree: traced calls and self time per span name.

use std::collections::BTreeMap;

/// Totals for every span sharing one leaf name, over all its paths.
#[derive(Default, Clone, Copy)]
pub struct Leaf {
    /// Span duration minus the part its child spans cover, nanoseconds.
    pub self_ns: u64,
    /// Completed occurrences.
    pub count: u64,
    /// Summed `rounds` attribute (set by `Clique::phase`).
    pub rounds: f64,
}

/// Runs `f` with a fresh recorder enabled and returns what it recorded.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, cc_obs::Snapshot) {
    cc_obs::reset();
    cc_obs::enable();
    let out = f();
    cc_obs::disable();
    (out, cc_obs::capture())
}

/// Self time, count and rounds per leaf name.
pub fn by_leaf(snap: &cc_obs::Snapshot) -> BTreeMap<String, Leaf> {
    fn walk(nodes: &[cc_obs::SpanNode], acc: &mut BTreeMap<String, Leaf>) {
        for node in nodes {
            let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
            let leaf = acc.entry(node.name.clone()).or_default();
            leaf.self_ns += node.total_ns.saturating_sub(children);
            leaf.count += node.count;
            leaf.rounds += node
                .attrs
                .iter()
                .find(|(k, _)| k == "rounds")
                .map_or(0.0, |&(_, v)| v);
            walk(&node.children, acc);
        }
    }
    let mut acc = BTreeMap::new();
    walk(&snap.spans, &mut acc);
    acc
}

/// Summed self time (ms) of every span whose name starts with one of
/// `prefixes`.
pub fn self_ms_matching(leaves: &BTreeMap<String, Leaf>, prefixes: &[&str]) -> f64 {
    leaves
        .iter()
        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(_, l)| l.self_ns as f64 / 1e6)
        .sum()
}
