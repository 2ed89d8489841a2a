//! `serve-tcp` stage: a `Server::spawn` daemon on loopback over an exact dense
//! oracle, driven by one closed-loop connection sending 16-query uniform
//! Dist batches through `Client::request`.

use std::time::Instant;

use cc_graph::apsp::exact_apsp_with;
use cc_par::ExecPolicy;
use cc_serve::client::Client;
use cc_serve::server::{Server, ServerConfig, ServerHandle};
use cc_serve::service::{fingerprint, OracleService, Query, Response};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use cc_serve::wire::{decode_frame, Reply, Request, DEFAULT_FRAME_CAP};

use crate::check::Adj;
use crate::inputs::{self, Edges, Rng};
use crate::{median, timed, Args, Outcome};

const NAME: &str = "default";
/// Dist queries per request.
const PER_REQUEST: usize = 16;
/// Requests per round; runs end on a round boundary.
const ROUND: usize = 256;
/// Rounds every run completes, even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 8;
/// Daemon set-ups timed for `setup_s`.
const SETUP_REPS: usize = 3;
/// Repetitions per timed sample of the in-process wire and batch costs.
const INNER_REPS: usize = 64;

fn snapshot(n: usize, edges: &Edges, seed: u64) -> Snapshot {
    let g = inputs::to_graph(n, edges);
    let est = exact_apsp_with(&g, ExecPolicy::Seq);
    let meta = SnapshotMeta {
        algo: "exact".into(),
        seed,
        stretch_bound: 1.0,
        rounds: 0,
        source: "perfbench gnp".into(),
    };
    Snapshot::new(g, est, meta)
}

/// Builds the oracle, starts the daemon on an ephemeral loopback port and
/// connects one client.
fn setup(n: usize, edges: &Edges, seed: u64) -> std::io::Result<(ServerHandle, Client)> {
    let (service, _) = OracleService::single(snapshot(n, edges, seed));
    let handle = Server::spawn(service, "127.0.0.1:0", ServerConfig::default())?;
    let client = Client::connect(handle.local_addr())?;
    Ok((handle, client))
}

/// The request stream: 16 uniform Dist pairs per request.
fn next_request(n: usize, rng: &mut Rng) -> Vec<Query> {
    (0..PER_REQUEST)
        .map(|_| Query::Dist(rng.below(n), rng.below(n)))
        .collect()
}

/// Whether a reply answers every query with the exact distance.
fn exact_reply(n: usize, reply: &Reply, queries: &[Query], exact: &[u64]) -> bool {
    let Reply::Batch(responses) = reply else {
        return false;
    };
    responses.len() == queries.len()
        && queries.iter().zip(responses).all(|(q, r)| match (q, r) {
            (Query::Dist(u, v), Response::Dist(d)) => exact[u * n + v] == *d,
            _ => false,
        })
}

/// The closed-loop client side of the run.
struct Drive<'a> {
    client: Client,
    addr: std::net::SocketAddr,
    n: usize,
    exact: &'a [u64],
    answered: u64,
    /// Keep each reply's fingerprint (the traced pass compares them).
    keep_fingerprints: bool,
}

impl Drive<'_> {
    /// Sends `requests` requests (or, when `None`, whole rounds until
    /// `seconds` have passed since `start`) from the seeded stream; returns
    /// per-request RTTs (µs) and reply fingerprints.
    fn run(
        &mut self,
        out: &mut Outcome,
        seed: u64,
        requests: Option<usize>,
        seconds: f64,
        start: Instant,
    ) -> (Rtts, Vec<u64>) {
        let mut rng = Rng::new(seed, 7);
        let mut rtt_us = Rtts::new();
        let mut fps = Vec::new();
        let mut round = 0;
        loop {
            let done = match requests {
                Some(r) => rtt_us.count >= r,
                None => round >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds,
            };
            if done {
                break;
            }
            for _ in 0..ROUND {
                let queries = next_request(self.n, &mut rng);
                let request = Request::Batch {
                    name: NAME.into(),
                    queries: queries.clone(),
                };
                let t = Instant::now();
                let reply = {
                    let _sp = cc_obs::span("bench.client_request");
                    self.client.request(&request)
                };
                rtt_us.record(t.elapsed().as_secs_f64() * 1e6);
                let ok = match reply {
                    Ok(reply) => {
                        if let Reply::Batch(responses) = &reply {
                            self.answered += 1;
                            if self.keep_fingerprints {
                                fps.push(fingerprint(responses));
                            }
                        }
                        let ok = exact_reply(self.n, &reply, &queries, self.exact);
                        if !ok && matches!(reply, Reply::Batch(_)) {
                            out.violation("a served Dist answer is not the exact distance");
                        }
                        ok
                    }
                    Err(e) => {
                        // A wire error ends the connection; count it and
                        // carry on over a fresh one.
                        eprintln!("perfbench: request failed: {e}");
                        match Client::connect(self.addr) {
                            Ok(c) => self.client = c,
                            Err(e) => {
                                out.violation(&format!("reconnect failed: {e}"));
                                out.op(false);
                                return (rtt_us, fps);
                            }
                        }
                        false
                    }
                };
                out.op(ok);
            }
            round += 1;
        }
        (rtt_us, fps)
    }
}

/// Round-trip times in 10 ns bins up to 10 ms (slower ones land in the
/// last bin), with an exact sum: the benchmark's own memory stays the same
/// however many requests a run sends.
struct Rtts {
    bins: Vec<u32>,
    count: usize,
    sum_us: f64,
}

impl Rtts {
    const PER_US: f64 = 100.0;

    fn new() -> Self {
        Rtts {
            bins: vec![0; 1_000_000],
            count: 0,
            sum_us: 0.0,
        }
    }

    fn record(&mut self, us: f64) {
        let bin = ((us * Self::PER_US) as usize).min(self.bins.len() - 1);
        self.bins[bin] += 1;
        self.count += 1;
        self.sum_us += us;
    }

    fn mean(&self) -> f64 {
        self.sum_us / self.count as f64
    }

    /// Nearest-rank `q`-quantile, at the middle of its bin.
    fn percentile(&self, q: f64) -> f64 {
        let rank = ((self.count - 1) as f64 * q).round() as usize;
        let mut seen = 0;
        for (bin, &c) in self.bins.iter().enumerate() {
            seen += c as usize;
            if seen > rank {
                return (bin as f64 + 0.5) / Self::PER_US;
            }
        }
        f64::NAN
    }
}

/// Restricts the calling thread (and threads it spawns later) to the first
/// CPU it may run on; returns that CPU.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write at most `size` bytes of `mask`, a
    // 1024-bit cpu_set_t, and pid 0 names the calling thread only.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = (0..1024).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, size, one.as_ptr()) == 0).then_some(cpu)
    }
}

/// Median per-call µs of `f`, sampled in groups of `INNER_REPS` calls.
fn per_call_us(samples: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let (s, ()) = timed(|| (0..INNER_REPS).for_each(|_| f()));
            s * 1e6 / INNER_REPS as f64
        })
        .collect();
    median(&times)
}

pub fn run(args: &Args) -> Outcome {
    let n = args.n;
    let mut out = Outcome::new();
    let edges = inputs::gnp_connected(n, args.seed);
    eprintln!(
        "perfbench: serve-tcp n={n} m={} edges_fp={:016x} request_stream_seed={}",
        edges.len(),
        inputs::edges_fingerprint(&edges),
        args.seed
    );
    let exact = Adj::new(n, &edges).apsp();
    // Client and daemon share one core: every thread the daemon spawns
    // inherits this thread's affinity, so hand-offs between client, reader,
    // batcher and writer are same-core switches rather than cross-core
    // wake-ups, whose latency swung p50 by half between runs on a shared
    // two-vCPU box.
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("perfbench: client and daemon pinned to cpu {cpu}"),
        None => eprintln!("perfbench: could not pin to one cpu; running unpinned"),
    }

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        let (s, daemon) = timed(|| setup(n, &edges, args.seed));
        setups.push(s);
        match daemon {
            Ok(d) => {
                if let Some((handle, client)) = live.replace(d) {
                    drop(client);
                    handle.shutdown();
                }
            }
            Err(e) => {
                out.violation(&format!("daemon set-up failed: {e}"));
                out.op(false);
                return out;
            }
        }
    }
    let (handle, client) = live.expect("SETUP_REPS > 0");
    let mut drive = Drive {
        client,
        addr: handle.local_addr(),
        n,
        exact: &exact,
        answered: 0,
        keep_fingerprints: args.trace,
    };

    let start = Instant::now();
    // A traced pass spends half its time untraced, then sends the same
    // requests again with tracing on.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (rtt_us, fps) = drive.run(&mut out, args.seed, None, untraced_s, start);
    let mut traced = None;
    if args.trace {
        cc_obs::reset();
        cc_obs::enable();
        let (traced_rtt, traced_fps) =
            drive.run(&mut out, args.seed, Some(rtt_us.count), 0.0, start);
        cc_obs::disable();
        if traced_fps != fps {
            out.violation("replies differ with tracing on");
        }
        traced = Some(traced_rtt);
    }
    let answered = drive.answered;
    drop(drive);
    let sweeps = handle
        .stats()
        .sweeps
        .load(std::sync::atomic::Ordering::Relaxed);
    let served = handle
        .stats()
        .queries
        .load(std::sync::atomic::Ordering::Relaxed);
    handle.shutdown();
    if served != answered * PER_REQUEST as u64 {
        out.violation(&format!(
            "daemon counted {served} queries, client got answers to {}",
            answered * PER_REQUEST as u64
        ));
    }
    let rtt_mean = rtt_us.mean();
    eprintln!(
        "perfbench: requests={} rtt_us mean={rtt_mean:.2} p10={:.1} p50={:.1} p90={:.1} p99={:.1} sweeps={sweeps}",
        rtt_us.count,
        rtt_us.percentile(0.1),
        rtt_us.percentile(0.5),
        rtt_us.percentile(0.9),
        rtt_us.percentile(0.99)
    );

    if !args.trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("rtt_mean_us", rtt_mean, "us");
        out.metric("rtt_p90_us", rtt_us.percentile(0.9), "us");
        return out;
    }

    // In-process costs of one round trip's pieces, on this workload's
    // first request and its reply.
    let (service, id) = OracleService::single(snapshot(n, &edges, args.seed));
    let queries = next_request(n, &mut Rng::new(args.seed, 7));
    let request = Request::Batch {
        name: NAME.into(),
        queries: queries.clone(),
    };
    let reply = Reply::Batch(service.run_batch(id, &queries, ExecPolicy::Seq).responses);
    let (req_bytes, reply_bytes) = (request.to_frame().encode(), reply.to_frame().encode());
    let encode_us = per_call_us(64, || {
        std::hint::black_box((request.to_frame().encode(), reply.to_frame().encode()));
    });
    let mut decoded_ok = true;
    let decode_us = per_call_us(64, || {
        let req =
            decode_frame(&req_bytes, DEFAULT_FRAME_CAP).and_then(|(f, _)| Request::from_frame(&f));
        let rep =
            decode_frame(&reply_bytes, DEFAULT_FRAME_CAP).and_then(|(f, _)| Reply::from_frame(&f));
        decoded_ok &= req.as_ref().ok() == Some(&request) && rep.as_ref().ok() == Some(&reply);
    });
    if !decoded_ok {
        out.violation("wire frames changed in an encode/decode round trip");
    }
    let mut rng = Rng::new(args.seed, 8);
    let batches: Vec<Vec<Query>> = (0..INNER_REPS).map(|_| next_request(n, &mut rng)).collect();
    let mut next = batches.iter().cycle();
    let run_batch_us = per_call_us(256, || {
        std::hint::black_box(service.run_batch(id, next.next().expect("cycle"), ExecPolicy::Seq));
    });

    out.metric("wire.encode_us", encode_us, "us");
    out.metric("wire.decode_us", decode_us, "us");
    out.metric("run_batch.p50_us", run_batch_us, "us");
    out.metric("server.sweeps", sweeps as f64, "count");
    out.metric("server.queries", served as f64, "count");
    out.metric(
        "server.queries_per_sweep",
        served as f64 / sweeps.max(1) as f64,
        "ratio",
    );
    out.metric(
        "server.residual_mean_us",
        rtt_mean - run_batch_us - encode_us - decode_us,
        "us",
    );
    let traced = traced.expect("trace pass ran");
    out.metric("trace.overhead_rtt_us", traced.mean() - rtt_mean, "us");
    out
}
