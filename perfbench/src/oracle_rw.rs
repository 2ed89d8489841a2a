//! `oracle-rw` stage: an in-process `OracleService` over an exact dense oracle,
//! serving zipf(1.0) read batches with a single-edge reweight landed
//! through `IncrementalOracle::apply` + `OracleService::apply_delta` before
//! every 4th batch.

use std::time::Instant;

use cc_dynamic::incremental::{ApplyStrategy, DynamicConfig, IncrementalOracle};
use cc_dynamic::update::{EdgeOp, UpdateBatch};
use cc_graph::apsp::exact_apsp_with;
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use cc_serve::service::{OracleService, Query, Response, ServiceConfig, SnapshotId};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};

use crate::check::{self, Adj};
use crate::inputs::{self, Edges, Fnv, Rng, Zipf};
use crate::spans;
use crate::{best, median, percentile, timed, Args, Outcome};

const NAME: &str = "default";
/// Queries per read batch.
const BATCH: usize = 1024;
/// Read batches per write.
const READS_PER_WRITE: usize = 4;
/// `k` of the KNearest queries.
const KNN_K: usize = 8;
/// Answers per batch checked against the benchmark's own Dijkstra.
const SAMPLED: usize = 8;
/// Full set-ups timed for `setup_s`.
const SETUP_REPS: usize = 3;
/// Rounds (one write + its read batches) every run completes; the count
/// metrics cover exactly these, so they repeat exactly for a seed.
const COUNTED_ROUNDS: usize = 48;

/// The serving state one set-up builds, with its layer timings.
struct Setup {
    service: OracleService,
    id: SnapshotId,
    engine: IncrementalOracle,
    apsp_s: f64,
    encode_s: f64,
    decode_s: f64,
    bytes: usize,
}

/// Builds the exact oracle, round-trips it through the snapshot format,
/// and loads it into a service and a dynamic engine.
fn setup(n: usize, edges: &Edges, seed: u64) -> Result<Setup, String> {
    let g = inputs::to_graph(n, edges);
    let (apsp_s, est) = timed(|| {
        let _sp = cc_obs::span("bench.exact_apsp_with");
        exact_apsp_with(&g, ExecPolicy::Seq)
    });
    let meta = SnapshotMeta {
        algo: "exact".into(),
        seed,
        stretch_bound: 1.0,
        rounds: 0,
        source: "perfbench gnp".into(),
    };
    let snap = Snapshot::new(g.clone(), est.clone(), meta);
    let (encode_s, bytes) = timed(|| snap.to_bytes());
    let (decode_s, decoded) = timed(|| Snapshot::from_bytes(&bytes));
    let decoded = decoded.map_err(|e| format!("snapshot decode: {e}"))?;
    if decoded != snap {
        return Err("snapshot changed in an encode/decode round trip".into());
    }
    let mut service = OracleService::new(ServiceConfig::default());
    let id = service.register(NAME, decoded);
    let cfg = DynamicConfig {
        repair_fraction: 0.25,
        exec: ExecPolicy::Seq,
        kernel: KernelMode::Auto,
    };
    let engine = IncrementalOracle::new(g, est, "exact", seed, cfg);
    Ok(Setup {
        service,
        id,
        engine,
        apsp_s,
        encode_s,
        decode_s,
        bytes: bytes.len(),
    })
}

/// The `k`-th write: a ±25% reweight (up on even `k`, down on odd) of the
/// edge at position `frac(offset + k·φ)` of the current edges sorted by
/// weight, applied to `edges` too. The golden-ratio sequence spreads the
/// writes evenly over light (rebuild-prone) and heavy (cheap-to-repair)
/// edges, so the repair/rebuild mix of a run's first writes barely moves
/// with the seed, which sets `offset` and the graph.
fn next_write(k: usize, offset: f64, edges: &mut Edges) -> EdgeOp {
    let mut by_weight: Vec<usize> = (0..edges.len()).collect();
    by_weight.sort_unstable_by_key(|&i| (edges[i].2, edges[i].0, edges[i].1));
    let x = (offset + k as f64 * 0.618_033_988_749_894_9).fract();
    let i = by_weight[((x * edges.len() as f64) as usize).min(edges.len() - 1)];
    let (u, v, w) = edges[i];
    let step = ((w + 2) / 4).max(1);
    let w2 = if k.is_multiple_of(2) || w <= step {
        w + step
    } else {
        w - step
    };
    edges[i].2 = w2;
    EdgeOp::Reweight(u, v, w2)
}

/// 1024 queries, 8:1:1 Dist:Route:KNearest, endpoints zipf(1.0).
fn read_batch(rng: &mut Rng, zipf: &Zipf) -> Vec<Query> {
    (0..BATCH)
        .map(|_| {
            let u = zipf.sample(rng);
            match rng.below(10) {
                0..=7 => Query::Dist(u, zipf.sample(rng)),
                8 => Query::Route(u, zipf.sample(rng)),
                _ => Query::KNearest(u, KNN_K),
            }
        })
        .collect()
}

/// Checks `SAMPLED` answers of a batch against Dijkstra on the benchmark's
/// own graph copy.
fn check_sample(rng: &mut Rng, adj: &Adj, queries: &[Query], responses: &[Response]) -> bool {
    responses.len() == queries.len()
        && (0..SAMPLED).all(|_| {
            let i = rng.below(queries.len());
            match (queries[i], &responses[i]) {
                (Query::Dist(u, v), Response::Dist(d)) => adj.dijkstra(u)[v] == *d,
                (Query::Route(u, v), Response::Route(Some(path))) => {
                    check::is_walk(adj, path, u, v, adj.dijkstra(u)[v])
                }
                (Query::KNearest(u, k), Response::KNearest(rows)) => {
                    *rows == check::k_nearest(&adj.dijkstra(u), k)
                }
                _ => false,
            }
        })
}

pub fn run(args: &Args) -> Outcome {
    let n = args.n;
    let mut out = Outcome::new();
    // Spans left by an earlier stage would count towards this one's.
    cc_obs::reset();
    let mut edges = inputs::gnp_connected(n, args.seed);
    eprintln!(
        "perfbench: oracle-rw n={n} m={} edges_fp={:016x}",
        edges.len(),
        inputs::edges_fingerprint(&edges)
    );

    let (mut setups, mut apsp_s, mut encode_ms, mut decode_ms) = (vec![], vec![], vec![], vec![]);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so only one is ever resident.
        drop(live.take());
        let (s, st) = timed(|| setup(n, &edges, args.seed));
        setups.push(s);
        match st {
            Ok(st) => {
                apsp_s.push(st.apsp_s);
                encode_ms.push(st.encode_s * 1e3);
                decode_ms.push(st.decode_s * 1e3);
                live = Some(st);
            }
            Err(e) => {
                out.violation(&e);
                out.op(false);
                return out;
            }
        }
    }
    let Setup {
        mut service,
        id,
        mut engine,
        bytes,
        ..
    } = live.expect("SETUP_REPS > 0");

    let zipf = Zipf::new(n, 1.0, &mut Rng::new(args.seed, 3));
    let mut query_rng = Rng::new(args.seed, 4);
    let write_offset = Rng::new(args.seed, 5).unit();
    let mut check_rng = Rng::new(args.seed, 6);
    let mut stream_fp = Fnv::default();

    let (mut writes_ms, mut repair_writes_ms) = (Vec::new(), Vec::new());
    let (mut repair_ms, mut rebuild_ms, mut apply_delta_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut repairs, mut rebuilds, mut affected_rows, mut delta_rows) = (0u64, 0u64, 0u64, 0u64);
    let mut round_qps = Vec::new();
    let (mut batch_ms, mut batch_traced_ms) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0u64, 0u64);

    let start = Instant::now();
    let mut round = 0;
    while round < COUNTED_ROUNDS || !args.expired(start) {
        let counted = round < COUNTED_ROUNDS;
        // One write …
        let op = next_write(round, write_offset, &mut edges);
        if let EdgeOp::Reweight(u, v, w) = op {
            stream_fp.words([u as u64, v as u64, w]);
        }
        let batch = UpdateBatch::new(vec![op]);
        if args.trace {
            cc_obs::enable();
        }
        let t0 = Instant::now();
        let applied = {
            let _sp = cc_obs::span("bench.apply");
            engine.apply(&batch)
        };
        let t1 = Instant::now();
        let landed = applied.as_ref().map_err(|e| e.to_string()).and_then(|o| {
            let _sp = cc_obs::span("bench.apply_delta");
            service
                .apply_delta(NAME, &o.delta)
                .map_err(|e| e.to_string())
        });
        let t2 = Instant::now();
        cc_obs::disable();
        let write_ok = match (&applied, landed) {
            (Ok(o), Ok(live)) if live == id => {
                let apply_ms = (t1 - t0).as_secs_f64() * 1e3;
                match o.strategy {
                    ApplyStrategy::Repaired { affected } => {
                        repair_ms.push(apply_ms);
                        repair_writes_ms.push((t2 - t0).as_secs_f64() * 1e3);
                        if counted {
                            repairs += 1;
                            affected_rows += affected as u64;
                        }
                    }
                    ApplyStrategy::Rebuilt { .. } => {
                        rebuild_ms.push(apply_ms);
                        if counted {
                            rebuilds += 1;
                        }
                    }
                }
                if counted {
                    delta_rows += o.delta.rows.len() as u64;
                }
                apply_delta_ms.push((t2 - t1).as_secs_f64() * 1e3);
                writes_ms.push((t2 - t0).as_secs_f64() * 1e3);
                true
            }
            (applied, landed) => {
                eprintln!(
                    "perfbench: write {op} failed: {:?} / {landed:?}",
                    applied.as_ref().err()
                );
                false
            }
        };
        out.op(write_ok);
        let adj = Adj::new(n, &edges);

        // … then its read batches.
        let mut read_s = 0.0;
        for b in 0..READS_PER_WRITE {
            let queries = read_batch(&mut query_rng, &zipf);
            if counted {
                stream_fp.words(queries.iter().map(|q| match *q {
                    Query::Dist(u, v) => (u * n + v) as u64,
                    Query::Route(u, v) => (n * n + u * n + v) as u64,
                    Query::KNearest(u, k) => (2 * n * n + u * n + k) as u64,
                }));
            }
            let traced_first = args.trace && (round + b) % 2 == 1;
            let before = service.cache_stats(id);
            let (s, first) = run_batch(&service, id, &queries, traced_first);
            let after = service.cache_stats(id);
            if counted {
                hits += after.hits - before.hits;
                misses += after.misses - before.misses;
            }
            read_s += s;
            let mut ok = check_sample(&mut check_rng, &adj, &queries, &first);
            if args.trace {
                let (s2, second) = run_batch(&service, id, &queries, !traced_first);
                let (untraced, traced) = if traced_first { (s2, s) } else { (s, s2) };
                batch_ms.push(untraced * 1e3);
                batch_traced_ms.push(traced * 1e3);
                if second != first {
                    out.violation("a read batch answered differently with tracing on");
                    ok = false;
                }
            } else {
                batch_ms.push(s * 1e3);
            }
            if !ok {
                out.violation("a sampled read answer is wrong");
            }
            out.op(ok);
        }
        round_qps.push((READS_PER_WRITE * BATCH) as f64 / read_s);
        round += 1;
        if round == COUNTED_ROUNDS {
            eprintln!(
                "perfbench: first {COUNTED_ROUNDS} rounds stream_fp={:016x}",
                stream_fp.finish()
            );
        }
    }

    // The served state must be exactly the APSP of the benchmark's own
    // final graph, and the engine and the service must agree on it.
    let live = service.export(id);
    let mut sorted = edges.clone();
    sorted.sort_unstable();
    let exact = Adj::new(n, &edges).apsp();
    if live.dense_estimate().map(|m| m.raw()) != Some(&exact[..]) {
        out.violation("served estimate differs from the exact APSP of the final graph");
    }
    if live.state_fingerprint() != engine.fingerprint() {
        out.violation("engine and service fingerprints disagree");
    }
    if engine.graph().edges() != sorted {
        out.violation("engine graph differs from the benchmark's copy");
    }
    eprintln!(
        "perfbench: rounds={round} writes={} repairs={repairs} rebuilds={rebuilds} (first {COUNTED_ROUNDS}) final_fp={:016x}",
        writes_ms.len(),
        engine.fingerprint()
    );

    if !args.trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("read_qps", median(&round_qps), "1/s");
        out.metric("write_repair_p50_ms", median(&repair_writes_ms), "ms");
        out.metric("write_p90_ms", percentile(&writes_ms, 0.9), "ms");
        return out;
    }
    let leaves = spans::by_leaf(&cc_obs::capture());
    let self_per_call = |name: &str| {
        leaves
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.count.max(1) as f64)
    };
    let p50_or_zero = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    out.metric("run_batch.p50_ms", median(&batch_ms), "ms");
    out.metric(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("apply.repair_p50_ms", p50_or_zero(&repair_ms), "ms");
    out.metric("apply.rebuild_p50_ms", p50_or_zero(&rebuild_ms), "ms");
    out.metric("apply.repairs", repairs as f64, "count");
    out.metric("apply.rebuilds", rebuilds as f64, "count");
    out.metric("apply.affected_rows", affected_rows as f64, "rows");
    out.metric("dyn-repair.self_ms", self_per_call("dyn-repair"), "ms");
    out.metric("dyn-rebuild.self_ms", self_per_call("dyn-rebuild"), "ms");
    // An exact rebuild re-enters the min-plus squaring baseline, so its time
    // sits in the kernel engine's spans.
    out.metric(
        "rebuild.engine_ms",
        spans::self_ms_matching(&leaves, &crate::thm11::ENGINE_SPANS)
            / rebuild_ms.len().max(1) as f64,
        "ms",
    );
    out.metric("exact_apsp.s", best(&apsp_s), "s");
    out.metric("apply_delta.p50_ms", median(&apply_delta_ms), "ms");
    out.metric("delta.rows", delta_rows as f64, "rows");
    out.metric("snapshot.encode_ms", median(&encode_ms), "ms");
    out.metric("snapshot.decode_ms", median(&decode_ms), "ms");
    out.metric("snapshot.bytes", bytes as f64, "bytes");
    out.metric(
        "trace.overhead_batch_ms",
        median(&batch_traced_ms) - median(&batch_ms),
        "ms",
    );
    out
}

/// One `run_batch` call, traced or not: `(seconds, responses)`.
fn run_batch(
    service: &OracleService,
    id: SnapshotId,
    queries: &[Query],
    traced: bool,
) -> (f64, Vec<Response>) {
    if traced {
        cc_obs::enable();
    }
    let (s, outcome) = timed(|| {
        let _sp = cc_obs::span("bench.run_batch");
        service.run_batch(id, queries, ExecPolicy::Seq)
    });
    cc_obs::disable();
    (s, outcome.responses)
}
