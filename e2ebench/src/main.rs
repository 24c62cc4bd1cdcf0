//! End-to-end benchmark of the MATE flow (GMT library → per-wire MATE
//! search → trace capture → evaluate/select → SAT certification →
//! validating fault injection).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload avr_warm_validate --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One run sets the workload up, then repeats its timed phase until
//! `--seconds` have passed, checks every output, and prints one JSON object
//! as the last line of stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from spans recorded around every layer call) with
//! `--trace 1`.  See `README.md` for the workloads and the metric map.

mod span;
mod table2;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use span::Tracer;
use workloads::Workload;

/// End-to-end metrics, printed with `--trace 0` (same order as
/// `BENCHMARK.json`).
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("masked_pct", "%"),
];

/// Per-layer metrics, printed with `--trace 1` (same order as
/// `BENCHMARK.json`).
const PER_LAYER: [(&str, &str); 43] = [
    ("mate.search.ms", "ms"),
    ("mate.search.candidates", "count"),
    ("mate.search.mates", "count"),
    ("mate.search.candidates_per_s", "1/s"),
    ("mate.search.max_wire_ms", "ms"),
    ("mate.search.thread_util", "frac"),
    ("mate.gmt.ms", "ms"),
    ("mate.gmt.entries", "count"),
    ("sim.capture.ms", "ms"),
    ("sim.capture.cycles_per_s", "1/s"),
    ("mate.eval.ms", "ms"),
    ("mate.eval.points", "count"),
    ("mate.eval.points_per_s", "1/s"),
    ("mate.select.ms", "ms"),
    ("mate.select.calls", "count"),
    ("pipeline.hits", "count"),
    ("pipeline.misses", "count"),
    ("pipeline.hit.ms", "ms"),
    ("pipeline.hit.bytes", "bytes"),
    ("pipeline.load_design.ms", "ms"),
    ("analyze.verify.ms", "ms"),
    ("analyze.verify.checks", "count"),
    ("analyze.verify.ms_per_check", "ms"),
    ("analyze.verify.conflicts", "count"),
    ("analyze.verify.conflicts_per_check", "count"),
    ("analyze.verify.proved_frac", "frac"),
    ("analyze.coverage.ms", "ms"),
    ("analyze.coverage.wires", "count"),
    ("analyze.coverage.conflicts", "count"),
    ("analyze.lint.ms", "ms"),
    ("hafi.campaign.ms", "ms"),
    ("hafi.campaign.points", "count"),
    ("hafi.campaign.faults_per_s", "1/s"),
    ("hafi.validate.ms", "ms"),
    ("hafi.validate.checked", "count"),
    ("hafi.validate.violations", "count"),
    ("hafi.collapse.skip_rate", "frac"),
    ("hafi.collapse.probes", "count"),
    ("hafi.collapse.fallback", "count"),
    ("netlist.ingest.ms", "ms"),
    ("bench.traced_wall_s", "s"),
    ("bench.span_cover_pct", "%"),
    ("bench.iterations", "count"),
];

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: mate-e2e-bench --workload <avr_warm_validate|uart_tx_campaign> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad --seconds {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// Where one run's artifact store and trace file live: inside the
/// benchmark's own directory, never the repository's shared store.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Counters of one pass (one setup or one timed iteration), keyed by
/// per-layer metric name.
pub type Pass = BTreeMap<String, f64>;

/// State shared by the workloads: the tracer, the current pass's counters,
/// the output-check tally, and the run's labels.
pub struct Ctx {
    /// Span recorder (a no-op unless `--trace 1`).
    pub tracer: Tracer,
    /// The workload seed.
    pub seed: u64,
    /// This run's private artifact store.
    pub store: PathBuf,
    /// Resolved decisions of the run (campaign path, engine, ...).
    pub labels: BTreeMap<&'static str, String>,
    /// Counters of the pass in progress.
    pub pass: Pass,
    /// Output checks attempted.
    pub attempted: u64,
    /// Output checks failed (a stage error counts as one).
    pub failed: u64,
    /// `masked_pct` of each completed iteration.
    pub masked: Vec<f64>,
}

impl Ctx {
    /// Adds `value` to the pass counter `key`.
    pub fn add(&mut self, key: &str, value: f64) {
        *self.pass.entry(key.to_owned()).or_insert(0.0) += value;
    }

    /// Records one output check.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}: {detail}");
        }
    }

    /// Runs `f` inside a span named `layer`, adding its wall time to
    /// `<layer>.ms`.
    pub fn timed<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.begin(layer);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.tracer.end(span);
        self.add(&format!("{layer}.ms"), ms(elapsed));
        out
    }

    /// Sets a label.
    pub fn label(&mut self, key: &'static str, value: impl Display) {
        self.labels.insert(key, value.to_string());
    }
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Adds the ratio metrics a pass's raw counters imply.
fn derive(pass: &mut Pass, threads: f64) {
    let raw = pass.clone();
    let get = |k: &str| raw.get(k).copied();
    let mut put = |k: &str, num: Option<f64>, den: Option<f64>| {
        if let (Some(num), Some(den)) = (num, den) {
            pass.insert(k.to_owned(), if den > 0.0 { num / den } else { 0.0 });
        }
    };
    let secs = |k: &str| get(k).map(|ms| ms / 1e3);
    let checks = get("analyze.verify.checks");
    put(
        "mate.search.candidates_per_s",
        get("mate.search.candidates"),
        secs("mate.search.ms"),
    );
    put(
        "mate.search.thread_util",
        get("mate.search.wire_ms"),
        get("mate.search.ms").map(|ms| ms * threads),
    );
    put(
        "sim.capture.cycles_per_s",
        get("sim.capture.cycles"),
        secs("sim.capture.ms"),
    );
    put(
        "mate.eval.points_per_s",
        get("mate.eval.points"),
        secs("mate.eval.ms"),
    );
    put(
        "analyze.verify.ms_per_check",
        get("analyze.verify.ms"),
        checks,
    );
    put(
        "analyze.verify.conflicts_per_check",
        get("analyze.verify.conflicts"),
        checks,
    );
    put(
        "analyze.verify.proved_frac",
        get("analyze.verify.proved"),
        checks,
    );
    put(
        "hafi.campaign.faults_per_s",
        get("hafi.campaign.points"),
        secs("hafi.campaign.ms"),
    );
    put(
        "hafi.collapse.skip_rate",
        get("hafi.collapse.skipped"),
        get("hafi.collapse.points"),
    );
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS watermark to the current resident set.
/// Returns `false` where the kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Number of CPUs the host reports, independent of affinity.
fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Measured {
    setup_times: Vec<f64>,
    setups: Vec<Pass>,
    iter_times: Vec<f64>,
    iters: Vec<Pass>,
    /// Per iteration: share of its wall time covered by layer spans (%).
    covers: Vec<f64>,
    peak_rss_mb: f64,
}

impl Measured {
    /// One set-up, timed; `false` when it failed.
    fn setup(&mut self, workload: Workload, ctx: &mut Ctx) -> bool {
        let span = ctx.tracer.begin("bench.setup");
        let start = Instant::now();
        let result = workload.setup(ctx);
        self.setup_times.push(start.elapsed().as_secs_f64());
        ctx.tracer.end(span);
        self.setups.push(std::mem::take(&mut ctx.pass));
        if let Err(e) = result {
            ctx.check("setup", false, e);
            return false;
        }
        true
    }

    /// One timed iteration; `false` when a stage failed.
    fn iteration(&mut self, workload: Workload, ctx: &mut Ctx) -> bool {
        let span = ctx.tracer.begin("bench.iteration");
        let root = span.index();
        let start = Instant::now();
        let result = workload.iteration(ctx);
        let elapsed = start.elapsed();
        ctx.tracer.end(span);
        if let Some(root) = root {
            self.covers.push(100.0 * ctx.tracer.layer_cover(root));
        }
        self.iters.push(std::mem::take(&mut ctx.pass));
        if let Err(e) = result {
            ctx.check("stage", false, e);
            return false;
        }
        if self.iter_times.is_empty() {
            self.peak_rss_mb = peak_rss_mb();
        }
        self.iter_times.push(elapsed.as_secs_f64());
        true
    }

    /// The per-layer metrics: medians over the iterations that recorded
    /// each one, or over the set-ups for a layer that only the set-up ran
    /// (the warm store fill).
    fn per_layer(&mut self, threads: f64) -> Vec<(&'static str, &'static str, f64)> {
        for pass in self.setups.iter_mut().chain(self.iters.iter_mut()) {
            derive(pass, threads);
        }
        let from = |passes: &[Pass], key: &str| -> Vec<f64> {
            passes.iter().filter_map(|p| p.get(key).copied()).collect()
        };
        PER_LAYER
            .iter()
            .map(|&(key, unit)| {
                let value = match key {
                    "bench.traced_wall_s" => median(&self.iter_times),
                    "bench.span_cover_pct" => median(&self.covers),
                    "bench.iterations" => self.iter_times.len() as f64,
                    _ => {
                        let in_iters = from(&self.iters, key);
                        if in_iters.is_empty() {
                            median(&from(&self.setups, key))
                        } else {
                            median(&in_iters)
                        }
                    }
                };
                (key, unit, value)
            })
            .collect()
    }
}

/// Sets the workload up, then runs iterations until `seconds` have passed.
/// A cold workload sets up again after every iteration, which hands each
/// one an empty store.  The warm workload, whose set-up is a full MATE
/// search, sets up once more after the last iteration.  Either way
/// `setup_s` is a median over set-ups spread across the run.
fn measure(workload: Workload, seconds: f64, ctx: &mut Ctx) -> Measured {
    let mut m = Measured::default();
    let mut ok = m.setup(workload, ctx);
    // The first iteration's peak: later ones start from whatever heap the
    // allocator kept, which varies with the iteration count.
    let scope = if reset_peak_rss() {
        "first iteration"
    } else {
        "whole run"
    };
    ctx.label("rss_scope", scope);
    let phase = Instant::now();
    while ok {
        ok = m.iteration(workload, ctx);
        // Stop where one more iteration would overshoot the budget by more
        // than half an iteration.
        let half = median(&m.iter_times) / 2.0;
        let done = phase.elapsed().as_secs_f64() + half >= seconds;
        if ok && (workload.is_cold() || done) {
            ok = m.setup(workload, ctx);
        }
        if done {
            break;
        }
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let out = out_dir();
    let store = out.join(format!("store-{name}-{}", std::process::id()));
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut ctx = Ctx {
        tracer: Tracer::new(args.trace),
        seed: args.seed,
        store: store.clone(),
        labels: BTreeMap::new(),
        pass: Pass::new(),
        attempted: 0,
        failed: 0,
        masked: Vec::new(),
    };
    ctx.label("workload", name);
    ctx.label("seed", args.seed);
    ctx.label("threads", threads);
    ctx.label("nproc", host_cpus());

    let mut m = measure(args.workload, args.seconds, &mut ctx);
    let _ = std::fs::remove_dir_all(&store);

    let masked = ctx.masked.first().copied().unwrap_or(0.0);
    let stable = ctx.masked.iter().all(|&v| v.to_bits() == masked.to_bits());
    ctx.check("masked_pct identical across iterations", stable, "");

    let metrics = if args.trace {
        m.per_layer(threads as f64)
    } else {
        let values = [
            median(&m.iter_times),
            median(&m.setup_times),
            m.peak_rss_mb,
            masked,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(key, unit), value)| (key, unit, value))
            .collect()
    };

    let labels = ctx
        .labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(",");
    if args.trace {
        let path = out.join(format!("trace-{name}-seed{}.json", args.seed));
        let body = format!(
            "{{\"workload\":{},\"labels\":{{{labels}}},\"spans\":{}}}\n",
            json_str(name),
            ctx.tracer.to_json()
        );
        let written = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, body));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("{{\"labels\":{{{labels}}}}}");
    let metrics = metrics
        .iter()
        .map(|(k, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        ctx.failed == 0,
        ctx.attempted.max(1),
        ctx.failed
    );
    ExitCode::SUCCESS
}
