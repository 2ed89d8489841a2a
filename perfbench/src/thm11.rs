//! `thm11` stage: Theorem 1.1 (`pipeline::approximate_apsp`) at 1 and at 2
//! threads on connected G(n, 8/n) graphs, checked against the benchmark's
//! own Dijkstra.

use std::time::Instant;

use cc_apsp::estimate::ApspResult;
use cc_apsp::oracle::OracleKind;
use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_apsp::{knearest, params};
use cc_graph::{Graph, INF};
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use clique_sim::{Bandwidth, Clique};

use crate::check::{self, Adj, UNREACHED};
use crate::inputs::{self, Fnv};
use crate::spans;
use crate::{best, median, timed, Args, Outcome};

/// The ε of the run; the guarantee checked is `7⁴·(1+ε)³`.
const EPS: f64 = 0.1;
/// Input graphs per run; rounds cycle through them. `rounds` and
/// `max_stretch` are medians over the graphs.
const GRAPHS: usize = 3;
/// Constructions of the input graphs timed for `setup_s`.
const SETUP_REPS: usize = 21;
/// Rounds run even when `--seconds` is shorter: two per graph, so every
/// graph's output is compared across repetitions.
const MIN_ROUNDS: usize = 2 * GRAPHS;

/// `(phase, self-time metric, rounds metric)` for the traced phases.
const PHASES: [(&str, &str, &str); 7] = [
    (
        "knearest-round",
        "phase.knearest-round.self_ms",
        "phase.knearest-round.rounds",
    ),
    (
        "skeleton",
        "phase.skeleton.self_ms",
        "phase.skeleton.rounds",
    ),
    (
        "skeleton-extend",
        "phase.skeleton-extend.self_ms",
        "phase.skeleton-extend.rounds",
    ),
    (
        "theorem-8.1",
        "phase.theorem-8.1.self_ms",
        "phase.theorem-8.1.rounds",
    ),
    (
        "theorem-7.1",
        "phase.theorem-7.1.self_ms",
        "phase.theorem-7.1.rounds",
    ),
    ("hopset", "phase.hopset.self_ms", "phase.hopset.rounds"),
    (
        "spanner-bootstrap",
        "phase.spanner-bootstrap.self_ms",
        "phase.spanner-bootstrap.rounds",
    ),
];

/// Spans the kernel engine opens around each product (`op[kernel]`).
pub const ENGINE_SPANS: [&str; 3] = ["minplus[", "square[", "spmm["];

fn config(seed: u64, threads: usize) -> PipelineConfig {
    PipelineConfig {
        eps: EPS,
        seed,
        max_reductions: None,
        k0: None,
        exec: ExecPolicy::with_threads(threads),
        kernel: KernelMode::Auto,
        oracle: OracleKind::Dense,
    }
}

/// Identity of a pipeline output: estimate and rounds.
fn output_fingerprint(res: &ApspResult) -> u64 {
    let mut h = Fnv::default();
    h.words(res.estimate.raw().iter().copied());
    h.word(res.rounds);
    h.finish()
}

/// Checks an estimate against exact distances; returns the largest
/// stretch δ/d over pairs `u ≠ v`.
fn check_estimate(res: &ApspResult, exact: &[u64], n: usize) -> Result<f64, String> {
    let limit = 2401.0 * (1.0 + EPS).powi(3);
    if res.stretch_bound.is_nan() || res.stretch_bound > limit {
        return Err(format!(
            "bound {} exceeds 7^4(1+eps)^3 = {limit}",
            res.stretch_bound
        ));
    }
    let mut max_stretch: f64 = 1.0;
    for u in 0..n {
        for v in 0..n {
            let (d, e) = (exact[u * n + v], res.estimate.get(u, v));
            let ok = if u == v {
                e == 0
            } else if d == UNREACHED {
                e >= INF
            } else {
                e < INF && e >= d && e as f64 <= res.stretch_bound * d as f64
            };
            if !ok {
                return Err(format!("estimate({u},{v}) = {e}, exact {d}"));
            }
            if u != v && d != UNREACHED {
                max_stretch = max_stretch.max(e as f64 / d as f64);
            }
        }
    }
    Ok(max_stretch)
}

/// Lemma 5.1's k-nearest step exactly as Theorem 1.1 calls it, on a fresh
/// clique: `(seconds, rows correct, rounds, words)`.
fn knearest_call(g: &Graph, exact: &[u64]) -> (f64, bool, u64, u64) {
    let n = g.n();
    let k0 = params::theorem_1_1_k0(n).clamp(2, n);
    let (h, i) = params::direct_knearest_h_i(n, k0);
    let mut clique = Clique::new(n, Bandwidth::standard(n));
    let (s, rows) = timed(|| {
        let _sp = cc_obs::span("bench.k_nearest_exact");
        knearest::k_nearest_exact(&mut clique, g, k0, h, i)
    });
    let ok = (0..n).all(|u| rows.row(u) == check::k_nearest(&exact[u * n..(u + 1) * n], k0));
    (
        s,
        ok,
        clique.rounds(),
        clique.traffic().total_words() as u64,
    )
}

/// One input graph with its ground truth and what the pipeline gave on it.
struct Input {
    graph: Graph,
    exact: Vec<u64>,
    reference: Option<u64>,
    max_stretch: f64,
    rounds: f64,
}

pub fn run(args: &Args) -> Outcome {
    let n = args.n;
    let mut out = Outcome::new();
    let edge_lists: Vec<_> = (0..GRAPHS as u64)
        .map(|i| inputs::gnp_connected(n, args.seed.wrapping_mul(GRAPHS as u64).wrapping_add(i)))
        .collect();
    for (i, edges) in edge_lists.iter().enumerate() {
        eprintln!(
            "perfbench: thm11 graph {i}: n={n} m={} edges_fp={:016x}",
            edges.len(),
            inputs::edges_fingerprint(edges)
        );
    }

    let mut setups = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (s, gs) = timed(|| {
            edge_lists
                .iter()
                .map(|e| inputs::to_graph(n, e))
                .collect::<Vec<_>>()
        });
        setups.push(s);
        graphs = gs;
    }
    let mut inputs: Vec<Input> = graphs
        .into_iter()
        .zip(&edge_lists)
        .map(|(graph, edges)| Input {
            graph,
            exact: Adj::new(n, edges).apsp(),
            reference: None,
            max_stretch: f64::NAN,
            rounds: f64::NAN,
        })
        .collect();

    let call = |out: &mut Outcome, input: &mut Input, threads: usize| -> f64 {
        let (s, res) = timed(|| {
            let _sp = cc_obs::span("bench.approximate_apsp");
            approximate_apsp(&input.graph, &config(args.seed, threads))
        });
        let fp = output_fingerprint(&res);
        let ok = match check_estimate(&res, &input.exact, n) {
            Ok(stretch) => {
                input.max_stretch = stretch;
                input.rounds = res.rounds as f64;
                *input.reference.get_or_insert(fp) == fp
            }
            Err(e) => {
                out.violation(&e);
                false
            }
        };
        if !ok {
            out.violation(&format!(
                "pipeline output at {threads} thread(s) differs between calls"
            ));
        }
        out.op(ok);
        s
    };

    let (mut t1, mut t2, mut t1_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut knearest = Vec::new();
    let mut leaves = Vec::new();
    let (mut kn_rounds, mut kn_words) = (0, 0);
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || !args.expired(start) {
        let input = &mut inputs[round % GRAPHS];
        // Interleave the thread counts, alternating which goes first, so
        // drift on the box lands on both alike.
        let order = if (round / GRAPHS).is_multiple_of(2) {
            [1, 2]
        } else {
            [2, 1]
        };
        for threads in order {
            let s = call(&mut out, input, threads);
            if threads == 1 {
                t1.push(s)
            } else {
                t2.push(s)
            }
        }
        if args.trace {
            let (s, snap) = spans::traced(|| call(&mut out, input, 1));
            t1_traced.push(s);
            leaves.push(spans::by_leaf(&snap));
            let (s, ok, r, w) = knearest_call(&inputs[0].graph, &inputs[0].exact);
            knearest.push(s);
            (kn_rounds, kn_words) = (r, w);
            if !ok {
                out.violation("k_nearest_exact rows differ from the k0 nearest by (distance, id)");
            }
            out.op(ok);
        }
        round += 1;
    }
    if !args.trace {
        // One direct call of the k-nearest step per run keeps its rows
        // checked in the untimed pass too.
        let (_, ok, _, _) = knearest_call(&inputs[0].graph, &inputs[0].exact);
        if !ok {
            out.violation("k_nearest_exact rows differ from the k0 nearest by (distance, id)");
        }
        out.op(ok);
    }
    let max_stretch: Vec<f64> = inputs.iter().map(|i| i.max_stretch).collect();
    let rounds: Vec<f64> = inputs.iter().map(|i| i.rounds).collect();
    eprintln!(
        "perfbench: rounds={round} build_1t={t1:.3?} build_2t={t2:.3?} max_stretch={max_stretch:.4?} sim_rounds={rounds:?}"
    );

    if !args.trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("build_s", best(&t1), "s");
        out.metric("build_2t_s", best(&t2), "s");
        out.metric("rounds", median(&rounds), "rounds");
        out.metric("max_stretch", median(&max_stretch), "ratio");
        return out;
    }
    out.metric("knearest.s", best(&knearest), "s");
    out.metric("knearest.rounds", kn_rounds as f64, "rounds");
    out.metric("knearest.words", kn_words as f64, "words");
    for (phase, self_metric, rounds_metric) in PHASES {
        let self_ms: Vec<f64> = leaves
            .iter()
            .map(|l| l.get(phase).map_or(0.0, |p| p.self_ns as f64 / 1e6))
            .collect();
        out.metric(self_metric, median(&self_ms), "ms");
        out.metric(
            rounds_metric,
            leaves[0].get(phase).map_or(0.0, |p| p.rounds),
            "rounds",
        );
    }
    let engine_ms: Vec<f64> = leaves
        .iter()
        .map(|l| spans::self_ms_matching(l, &ENGINE_SPANS))
        .collect();
    out.metric("engine.self_ms", median(&engine_ms), "ms");
    out.metric("par.speedup_2t", best(&t1) / best(&t2), "ratio");
    out.metric(
        "trace.overhead_build_ms",
        (best(&t1_traced) - best(&t1)) * 1e3,
        "ms",
    );
    out
}
