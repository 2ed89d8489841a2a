//! perfbench — one command that runs a workload of the cc-apsp system,
//! checks every answer it measures, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gnp-1024|gnp-512> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload fixes the size of the input graphs; every run takes them
//! through three stages in turn (the Theorem 1.1 pipeline, an oracle
//! serving reads beside writes, a TCP daemon), so every metric is measured
//! on every workload. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` is a separate pass that enables `cc_obs` and
//! reports the per-layer metrics. Progress goes to stderr; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod inputs;
mod oracle_rw;
mod serve_tcp;
mod spans;
mod thm11;

use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Every operation that did not fail gave a checked, correct answer,
    /// and every whole-run invariant held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    /// Folds a stage's outcome into the run's. A metric several stages
    /// report (`setup_s`) is the sum of theirs.
    pub fn absorb(&mut self, stage: Outcome) {
        self.correct &= stage.correct;
        self.attempted += stage.attempted;
        self.failed += stage.failed;
        for m in stage.metrics {
            match self.metrics.iter_mut().find(|e| e.name == m.name) {
                Some(e) => e.value += m.value,
                None => self.metrics.push(m),
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check: the run is no longer correct.
    pub fn violation(&mut self, what: &str) {
        if self.correct {
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
        self.correct = false;
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The workloads, with the node count of their input graphs.
const WORKLOADS: [(&str, usize); 2] = [("gnp-1024", 1024), ("gnp-512", 512)];

/// A stage of a run: measures for `args.seconds` on `args.n` nodes.
type Stage = fn(&Args) -> Outcome;

/// The stages of a run, in order, with the share of `--seconds` each
/// measures for.
const STAGES: [(&str, f64, Stage); 3] = [
    ("thm11", 0.45, thm11::run),
    ("oracle-rw", 0.35, oracle_rw::run),
    ("serve-tcp", 0.20, serve_tcp::run),
];

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    /// Nodes of the workload's graphs.
    pub n: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The arguments one stage runs with: its share of the run's seconds.
    fn stage(&self, share: f64) -> Args {
        Args {
            seconds: self.seconds * share,
            ..self.clone()
        }
    }

    /// Whether a run that started at `start` has used up its time.
    pub fn expired(&self, start: Instant) -> bool {
        start.elapsed() >= Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let n = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, n)| n)
        .ok_or_else(|| format!("unknown workload {workload:?} (gnp-1024 | gnp-512)"))?;
    Ok(Args {
        workload,
        n,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank `q`-quantile of a sample; NaN (reported as a failed
/// check) when a run produced no sample at all.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Smallest value of a sample (infinite when empty).
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Seconds elapsed while running `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Peak resident set of this process in MiB (`getrusage`, no file reads).
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux, and RUSAGE_SELF (0) only writes into the struct we own.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Milliseconds taken by a fixed, dependency-chained integer loop the
/// benchmark owns. Printed beside each run (not a metric) so a slow box
/// can be told from a slow program.
fn box_calibration_ms() -> f64 {
    let (s, x) = timed(|| {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..40_000_000u64 {
            x = x.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        }
        x
    });
    std::hint::black_box(x);
    s * 1e3
}

/// Writes the span tree the traced pass recorded last as JSON under the
/// build directory, for attributing a change to a layer after the run.
fn write_trace(args: &Args, stage: &str) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let path = format!(
        "{dir}/perfbench-{}-{stage}-{}.trace.json",
        args.workload, args.seed
    );
    let json = cc_obs::render_json(&cc_obs::capture());
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("perfbench: span tree written to {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let calib_before = box_calibration_ms();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} cores_detected={cores} box_calib_ms={calib_before:.1}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::new();
    for (stage, share, run) in STAGES {
        let stage_args = args.stage(share);
        // Each stage runs on a thread of its own, so CPU affinity a stage
        // sets (serve-tcp pins itself) does not outlive it.
        let result = std::thread::scope(|s| s.spawn(|| run(&stage_args)).join());
        let Ok(result) = result else {
            eprintln!("perfbench: stage {stage} panicked");
            std::process::exit(1);
        };
        out.absorb(result);
        if args.trace {
            write_trace(&args, stage);
        }
    }
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    if out.metrics.iter().any(|m| !m.value.is_finite()) {
        out.violation("a metric is not a finite number");
    }
    let calib_after = box_calibration_ms();
    eprintln!(
        "perfbench: done attempted={} failed={} correct={} box_calib_ms={calib_after:.1}",
        out.attempted, out.failed, out.correct
    );
    println!("{}", render(&out));
}
