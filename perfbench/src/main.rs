//! `perfbench` — the repository's end-to-end benchmark.
//!
//! One process runs one workload as a closed loop from one client thread:
//! set-up (repeated [`SETUP_REPS`] times, median reported), one discarded
//! warm-up op, then a fixed number of measured ops, each followed by an
//! untimed output check. Every call into the program runs with one
//! worker thread and one fleet shard. With `--trace 1` the same number of
//! further ops (fresh inputs) runs under the span tracer to split the
//! traced wall into per-layer self times.
//!
//! Usage:
//!   perfbench --workload NAME --seed N --seconds S --trace 0|1
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). Any failed op or check exits with code 1.

mod consumer_boot;
mod fleet_push;
mod host;
mod metrics;
mod release_churn;
mod spans;
mod stats;
mod steps;

use std::ops::Range;
use std::time::Instant;

use metrics::Metrics;
use spans::{SpanTotals, OP_SPAN};
use workload::{App, RequestMix};

/// Set-ups per untraced run; `setup_s` is their median, in seconds at
/// the calibration kernel's nominal speed.
const SETUP_REPS: u64 = 3;
/// Calibration-kernel time sampled after each op, as a share of the op's
/// own time (long ops get more samples, so the yardstick is as steady as
/// the op).
const CAL_SHARE: f64 = 0.05;
/// Calibration-kernel time sampled before the first measured op and
/// before each set-up, in ms.
const CAL_FIRST_MS: f64 = 100.0;
/// The calibration kernel's time that `setup_s` is expressed at, in ms
/// (its typical time on the 2-vCPU host the benchmark was built on,
/// which ranged 25-40 ms with the host's load).
const CAL_NOMINAL_MS: f64 = 30.0;
/// Profile-vs-bare probe repetitions in the traced run.
const PROBE_REPS: u64 = 5;
/// Requests per probe repetition (one seeder's profiling window).
const PROBE_REQUESTS: usize = 150;

/// One benchmark workload. Op `0` is the warm-up; ops `1..` are measured.
pub trait Workload: Sized {
    /// Measured ops per second of `--seconds`: the op count is fixed by
    /// the arguments, never by a clock, so a faster program finishes
    /// sooner instead of doing more work.
    const OPS_PER_SECOND: f64;

    /// Builds the inputs of ops `0..ops` from `seed`.
    fn setup(seed: u64, ops: usize) -> Self;
    /// Runs op `i` (timed).
    fn op(&mut self, i: usize) -> Result<(), String>;
    /// Checks op `i`'s outputs (untimed, right after the op).
    fn check(&mut self, i: usize) -> Result<(), String>;
    /// Sets the workload's end-to-end metrics over `ops`.
    fn end_to_end(&self, ops: Range<usize>, m: &mut Metrics);
    /// Sets the workload's per-layer counts and ratios over `ops`.
    fn per_layer(&self, ops: Range<usize>, m: &mut Metrics);
    /// Human-readable lines about `ops` (printed before the result).
    fn summary(&self, ops: Range<usize>) -> Vec<String>;
    /// The app and mix the profile-vs-bare probe replays.
    fn probe_app(&self) -> (&App, &RequestMix);
    /// Fleet event-core events processed by `ops` (zero off the fleet).
    fn fleet_events(&self, _ops: Range<usize>) -> u64 {
        0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload fleet-push|consumer-boot|release-churn \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// SplitMix64 finalizer: derives independent input seeds from the run
/// seed, so neighbouring seeds and indices share no RNG stream.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let args = parse_args();
    let code = match args.workload.as_str() {
        "fleet-push" => run::<fleet_push::FleetPush>(&args),
        "consumer-boot" => run::<consumer_boot::ConsumerBoot>(&args),
        "release-churn" => run::<release_churn::ReleaseChurn>(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            usage();
        }
    };
    std::process::exit(code);
}

/// Failed ops and checks, by op index.
#[derive(Default)]
struct Failures {
    ops: std::collections::BTreeSet<usize>,
    messages: Vec<String>,
}

impl Failures {
    fn record(&mut self, i: usize, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.ops.insert(i);
            self.messages.push(format!("op {i} {what}: {e}"));
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn run<W: Workload>(args: &Args) -> i32 {
    let host = host::HostFacts::probe();
    println!(
        "host: nproc {}, one spin loop {:.1} ms, two concurrent {:.1} ms ({:.2}x); \
         run uses 1 worker thread, 1 fleet shard",
        host.nproc,
        host.one_loop_ms,
        host.two_loops_ms,
        host.parallel_x()
    );
    let ops = ((args.seconds as f64 * W::OPS_PER_SECOND).round() as usize).max(1);
    let inputs = 1 + ops * if args.trace { 2 } else { 1 };
    let mut failures = Failures::default();

    // The calibration kernel lives for the whole run; its arena's resident
    // size is taken back out of the peak RSS.
    let rss_before = host::status_mb("VmRSS:").unwrap_or(0.0);
    let mut cal = host::Calibration::new();
    let arena_mb = host::status_mb("VmRSS:").unwrap_or(0.0) - rss_before;

    // Set-up, repeated; the last repetition's inputs (rep 0) are the
    // ones measured, so a given seed always measures the same inputs.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut setup_ref = Vec::new();
    let mut bench: Option<W> = None;
    for rep in (0..reps).rev() {
        drop(bench.take());
        let before = cal.samples_ms(CAL_FIRST_MS);
        let t = Instant::now();
        let mut w = W::setup(derive(args.seed, 0x5e7, rep), inputs);
        let warm = w.op(0);
        let took = secs(t);
        let after = cal.samples_ms(took * 1e3 * CAL_SHARE);
        setup_s.push(took);
        setup_ref.push(took * 1e3 / mean_around(&before, &after));
        failures.record(0, "warm-up", warm);
        failures.record(0, "warm-up check", w.check(0));
        bench = Some(w);
    }
    let mut w = bench.expect("at least one set-up");

    let measured = 1..ops + 1;
    let untraced = run_ops(&mut w, measured.clone(), &mut cal, &mut failures, None);
    let mut attempted = inputs;

    let mut m = if args.trace {
        Metrics::per_layer()
    } else {
        Metrics::end_to_end()
    };
    let mut lines = w.summary(measured.clone());
    lines.extend(untraced.describe(&setup_s));
    if args.trace {
        let traced = ops + 1..2 * ops + 1;
        let mut tracing = Tracing {
            totals: SpanTotals::default(),
            args,
        };
        let timed = run_ops(
            &mut w,
            traced.clone(),
            &mut cal,
            &mut failures,
            Some(&mut tracing),
        );
        let totals = tracing.totals;
        w.per_layer(1..2 * ops + 1, &mut m);
        layer_metrics(&totals, &mut m, &mut lines);
        m.set(
            "trace_overhead_pct",
            (timed.wall_ref() / untraced.wall_ref() - 1.0) * 100.0,
        );
        // The event rate of the event core alone: events over the
        // fan-out span, not over the whole push.
        let fanout_s = totals.total_of("c3-fanout") as f64 / 1e9;
        let events = w.fleet_events(traced.clone()) as f64;
        m.set(
            "fleet.events_per_s",
            if fanout_s > 0.0 {
                events / fanout_s
            } else {
                0.0
            },
        );
        let (app, mix) = w.probe_app();
        probe(app, mix, args.seed, &mut m);
        attempted += PROBE_REPS as usize;
        m.set("host.nproc", host.nproc as f64);
        m.set("host.parallel_x", host.parallel_x());
        lines.extend(w.summary(traced));
    } else {
        m.set("wall_ref", untraced.wall_ref());
        m.set("op_ref_p50", untraced.op_ref_p50());
        let setup_ref = stats::median(&setup_ref).expect("set-up ran");
        m.set("setup_s", setup_ref * CAL_NOMINAL_MS / 1e3);
        if let Some(peak) = host::status_mb("VmHWM:") {
            m.set("peak_rss_mb", peak - arena_mb);
        }
        w.end_to_end(measured, &mut m);
    }
    for line in lines {
        println!("{line}");
    }
    for msg in &failures.messages {
        eprintln!("perfbench: FAILED {msg}");
    }
    let missing = m.unset();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
        // An unmeasured metric fails the run as one more failed op.
        failures.ops.insert(usize::MAX);
    }
    let correct = failures.ops.is_empty();
    println!("{}", m.result_json(correct, attempted, failures.ops.len()));
    i32::from(!correct)
}

/// Per-op wall times and the calibration time around each op.
struct Timings {
    op_ms: Vec<f64>,
    ref_ms: Vec<f64>,
}

impl Timings {
    /// Summed op wall over summed calibration time.
    fn wall_ref(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / self.ref_ms.iter().sum::<f64>()
    }

    /// Median over ops of op wall over the calibration time around it.
    fn op_ref_p50(&self) -> f64 {
        let r: Vec<f64> = self
            .op_ms
            .iter()
            .zip(&self.ref_ms)
            .map(|(o, c)| o / c)
            .collect();
        stats::median(&r).expect("ops ran")
    }

    /// Raw seconds, printed beside the ratios.
    fn describe(&self, setup_s: &[f64]) -> Vec<String> {
        let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
        let mut lines = vec![format!(
            "ops: {} measured in {:.3} s (calibration kernel median {:.2} ms); set-ups [{}] s",
            self.op_ms.len(),
            self.op_ms.iter().sum::<f64>() / 1e3,
            stats::median(&self.ref_ms).unwrap_or(0.0),
            setups.join(", ")
        )];
        if let Some(t) = stats::tail(&self.op_ms) {
            lines.push(format!(
                "op_ms: p50 {:.2}, p{} {:.2} (n={}, {} beyond)",
                stats::median(&self.op_ms).unwrap_or(0.0),
                t.pct,
                t.value,
                t.n,
                t.beyond
            ));
        }
        lines
    }
}

/// Where a traced pass puts its spans.
struct Tracing<'a> {
    totals: SpanTotals,
    args: &'a Args,
}

/// Runs and checks ops `range`. Each op is timed on its own and
/// bracketed by calibration samples (untimed, like the checks). With
/// `tracing`, each op runs under its own `telemetry::capture` inside an
/// `op` span; the first op's Chrome trace is exported.
fn run_ops<W: Workload>(
    w: &mut W,
    range: Range<usize>,
    cal: &mut host::Calibration,
    failures: &mut Failures,
    mut tracing: Option<&mut Tracing>,
) -> Timings {
    let mut t = Timings {
        op_ms: Vec::with_capacity(range.len()),
        ref_ms: Vec::with_capacity(range.len()),
    };
    let mut ref_before = cal.samples_ms(CAL_FIRST_MS);
    for i in range.clone() {
        let timed_op = |w: &mut W| {
            let start = Instant::now();
            let r = w.op(i);
            (r, secs(start) * 1e3)
        };
        let (r, ms) = match tracing.as_deref_mut() {
            None => timed_op(w),
            Some(tr) => {
                let (out, trace) = telemetry::capture(|| {
                    let _op = telemetry::span(OP_SPAN);
                    timed_op(&mut *w)
                });
                failures.record(i, "trace", add_trace(&trace, &mut tr.totals));
                if i == range.start {
                    failures.record(i, "chrome trace", export_chrome(&trace, tr.args));
                }
                out
            }
        };
        t.op_ms.push(ms);
        failures.record(i, "", r);
        failures.record(i, "check", w.check(i));
        let ref_after = cal.samples_ms(ms * CAL_SHARE);
        let around: Vec<f64> = ref_before.iter().chain(&ref_after).copied().collect();
        t.ref_ms
            .push(around.iter().sum::<f64>() / around.len() as f64);
        ref_before = ref_after;
    }
    t
}

/// Mean of the calibration samples taken before and after one timed
/// stretch.
fn mean_around(before: &[f64], after: &[f64]) -> f64 {
    let n = (before.len() + after.len()) as f64;
    (before.iter().sum::<f64>() + after.iter().sum::<f64>()) / n
}

/// Adds one op's trace (exactly one `op` root, nothing dropped) to
/// `totals`.
fn add_trace(trace: &telemetry::Trace, totals: &mut SpanTotals) -> Result<(), String> {
    if trace.dropped > 0 {
        return Err(format!("{} events dropped", trace.dropped));
    }
    let trees = trace.trees().map_err(|e| e.to_string())?;
    let roots: Vec<&telemetry::SpanNode> = trees
        .iter()
        .flat_map(|(_, roots)| roots)
        .filter(|r| r.name == OP_SPAN)
        .collect();
    match roots.as_slice() {
        [root] => {
            totals.add_op(root);
            Ok(())
        }
        _ => Err(format!("{} op roots", roots.len())),
    }
}

/// Writes the Chrome trace of one traced op under `.perfbench_out/` and
/// schema-checks it with `telemetry::validate_chrome`.
fn export_chrome(trace: &telemetry::Trace, args: &Args) -> Result<(), String> {
    let json = trace.to_chrome_json();
    let summary = telemetry::validate_chrome(&json)?;
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, &json).map_err(|e| e.to_string())?;
    println!(
        "trace: {} ({} events, {} tracks, {} span pairs)",
        path.display(),
        summary.events,
        summary.tracks,
        summary.span_pairs
    );
    Ok(())
}

/// Per-layer shares of the traced wall plus the absolute table.
fn layer_metrics(t: &SpanTotals, m: &mut Metrics, lines: &mut Vec<String>) {
    let wall_ns = t.wall_ns.max(1);
    let pct = |ns: u64| ns as f64 * 100.0 / wall_ns as f64;
    let traced_s = t.wall_ns as f64 / 1e9;
    m.set("trace.wall_s", traced_s);
    lines.push(format!("traced wall {traced_s:.3} s; self time by layer:"));
    for (metric, ns) in t.layer_split() {
        m.set(metric, pct(ns));
        lines.push(format!(
            "  {metric:<24} {:>10.1} ms {:>6.2}%",
            ns as f64 / 1e6,
            pct(ns)
        ));
    }
    let unmapped = t.unmapped();
    if !unmapped.is_empty() {
        lines.push(format!(
            "  (unattributed includes spans {})",
            unmapped.join(", ")
        ));
    }
    let seeding = t.total_of("c2-seeding");
    let fanout = t.total_of("c3-fanout");
    m.set("fleet.seeding_pct", pct(seeding));
    lines.push(format!(
        "  subtrees: c2-seeding {:.1} ms (self {:.1} ms), c3-fanout {:.1} ms, deployment {:.1} ms",
        seeding as f64 / 1e6,
        t.self_of(&["c2-seeding"]) as f64 / 1e6,
        fanout as f64 / 1e6,
        t.total_of("deployment") as f64 / 1e6,
    ));
}

/// `workload::profile_run` against the same seeded requests on a bare
/// `vm::Vm::call`: the seeder's profiling overhead.
fn probe(app: &App, mix: &RequestMix, seed: u64, m: &mut Metrics) {
    let mut profiled = Vec::new();
    let mut bare = Vec::new();
    for r in 0..PROBE_REPS {
        let s = derive(seed, 0x9_0be, r);
        let t = Instant::now();
        std::hint::black_box(workload::profile_run(app, mix, PROBE_REQUESTS, s));
        profiled.push(secs(t) * 1e3);
        let t = Instant::now();
        let mut vm = vm::Vm::new(&app.repo);
        let mut sampler = workload::RequestSampler::new(s);
        for _ in 0..PROBE_REQUESTS {
            let (func, arg) = sampler.request(app, mix);
            vm.call(func, &[arg]).expect("generated requests execute");
            vm.take_output();
        }
        bare.push(secs(t) * 1e3);
    }
    let p = stats::median(&profiled).expect("probe ran");
    let b = stats::median(&bare).expect("probe ran");
    m.set("workload.profile_ms", p);
    m.set("vm.bare_ms", b);
    m.set("workload.profile_overhead_x", p / b.max(1e-9));
}
