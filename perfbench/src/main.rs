//! The repository's benchmark: runs one `lbc serve` or `lbc campaign`
//! workload in-process, through the same public calls the `lbc` CLI makes,
//! checks every output, and prints its metrics by name with their units.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root. With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it records spans around each call
//! into a layer and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is nonzero when any correctness check
//! fails. `perfbench/README.md` documents the workloads and metrics.

mod adversary;
mod campaign;
mod serve;
mod support;

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use support::{calib_ms, fnv1a64, median, nearest_rank, peak_rss_mb, Tracer};

/// How a workload drives the program.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Campaign,
    Serve,
}

/// The canonical report of a workload at its spec's committed seed.
#[derive(Debug)]
struct Reference {
    seed: u64,
    bytes: usize,
    fnv1a64: u64,
}

#[derive(Debug)]
struct Workload {
    name: &'static str,
    spec: &'static str,
    kind: Kind,
    reference: Reference,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_1000",
        spec: "perfbench/specs/serve_1000.json",
        kind: Kind::Serve,
        reference: Reference {
            seed: 909,
            bytes: 491397,
            fnv1a64: 0x290d_b71b_a26b_df8d,
        },
    },
    Workload {
        name: "campaign_dense_small",
        spec: "perfbench/specs/dense_small.json",
        kind: Kind::Campaign,
        reference: Reference {
            seed: 2107,
            bytes: 101533,
            fnv1a64: 0x31c3_af37_16b8_7fdc,
        },
    },
    Workload {
        name: "campaign_async_boundary",
        spec: "perfbench/specs/async_boundary.json",
        kind: Kind::Campaign,
        reference: Reference {
            seed: 2026,
            bytes: 405438,
            fnv1a64: 0x7ca4_0fef_e7d5_26de,
        },
    },
];

/// Worker threads for every workload, capped at the host's parallelism.
const WORKERS: usize = 2;

/// Set-ups timed before each pass; `setup_s` is the median of them all.
const SETUP_REPS: usize = 15;

/// The calibration loop's time, in ms, on the reference host: a quiet
/// 2-vCPU Xeon VM at 2.0 GHz. `work_norm_s` is scaled to it.
const REF_CALIB_MS: f64 = 40.0;

/// Every per-layer metric the traced run prints, with its unit.
const PER_LAYER: [(&str, &str); 27] = [
    ("host.calib_ms", "ms"),
    ("spec.expand_s", "s"),
    ("spec.cells", "count"),
    ("graph.build_s", "s"),
    ("adversary.build_s", "s"),
    ("adversary.intercept_s", "s"),
    ("adversary.tampered", "count"),
    ("adversary.omitted", "count"),
    ("adversary.equivocated", "count"),
    ("consensus.run_s.alg1", "s"),
    ("consensus.run_s.alg2", "s"),
    ("consensus.run_s.async", "s"),
    ("consensus.ns_per_delivery", "ns"),
    ("consensus.deliveries", "count"),
    ("consensus.transmissions", "count"),
    ("consensus.steps", "count"),
    ("sim.chain_over_oneshot", "ratio"),
    ("sim.arena_paths", "count"),
    ("sim.max_live_channels", "count"),
    ("sim.drained_steps", "count"),
    ("executor.self_s", "s"),
    ("executor.pool_busy_frac", "frac"),
    ("report.serialize_s", "s"),
    ("report.write_s", "s"),
    ("report.bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.replay_over_pass", "ratio"),
];

/// What one pass of a workload produced: one run call through to the
/// written reports.
#[derive(Debug)]
pub struct Pass {
    /// From the run call until the reports are written.
    pub wall_s: f64,
    /// Serializing and writing the reports, the part of `wall_s` after
    /// the run call returns.
    pub report_s: f64,
    /// The checks of every operation (serve instance or campaign cell)
    /// and of every serve lane's channel bound.
    pub checks: Checks,
    /// Operations whose checks all passed: correct serve instances, or
    /// completed cells that are correct or infeasible.
    pub decisions: u64,
    /// Per-operation wall time the program recorded, in microseconds.
    pub latencies_us: Vec<u64>,
    /// Sum of the program's per-unit run times (cells or lanes), in µs.
    pub busy_us: u64,
    /// Workers the pool kept busy: at most one per cell or lane.
    pub pool_width: usize,
    /// One line per operation (verdict, value, counts), in report order,
    /// for comparison with the replay.
    pub outcomes: Vec<String>,
    /// Exact counts; must repeat between passes, runs and the replay.
    pub counts: BTreeMap<&'static str, f64>,
    /// The canonical report as written.
    pub canonical: String,
}

/// What the one-worker traced replay measured.
#[derive(Debug)]
pub struct Replay {
    /// Per-layer metrics this workload computes (a subset of `PER_LAYER`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counts seen by the replay; each must equal the pass's count.
    pub counts: BTreeMap<&'static str, f64>,
    /// Replayed results checked against the pass's report.
    pub checks: Checks,
}

/// One workload's calls into the program.
pub trait Subject: Sized {
    /// Parses the spec text, overrides its seed and, where the CLI does so
    /// before its run call, expands it: everything before the first
    /// consensus run.
    fn prepare(text: &str, seed: Option<u64>, tracer: &mut Tracer) -> Result<Self, String>;
    fn seed(&self) -> u64;
    /// One untraced pass: run call, report serialization and writes.
    fn pass(&self, workers: usize, out: &Path, tracer: &mut Tracer) -> Result<Pass, String>;
    /// Replays the pass's work one unit at a time with spans around every
    /// layer call, and checks it against the pass.
    fn replay(&self, pass: &Pass, tracer: &mut Tracer) -> Result<Replay, String>;
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 30.0,
        trace: false,
    };
    let mut rest = std::env::args().skip(1);
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let text = value()?;
                args.seed = Some(text.parse().map_err(|_| format!("bad --seed {text}"))?);
            }
            "--seconds" => {
                let text = value()?;
                args.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {text}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload is required: one of {}",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let result = match workload.kind {
        Kind::Campaign => drive::<campaign::Campaign>(workload, &args),
        Kind::Serve => drive::<serve::Serve>(workload, &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("perfbench: {}: {err}", workload.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its metrics; `Ok(false)` when a
/// correctness check failed.
fn drive<S: Subject>(workload: &Workload, args: &Args) -> Result<bool, String> {
    let out = PathBuf::from(".perfbench_out").join(workload.name);
    fs::create_dir_all(&out).map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(WORKERS));

    // The calibration's hash map would raise the peak RSS of an untraced
    // run, so that run calibrates only once its first pass is measured.
    let mut calib = if args.trace { vec![calib_ms()] } else { Vec::new() };
    let mut tracer = if args.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let root = tracer.begin("run", None);
    let text = tracer.time("spec.read", None, || read_spec(workload.spec))?;
    let subject = S::prepare(&text, args.seed, &mut tracer)?;
    let seed = subject.seed();
    println!(
        "workload {} seed {seed} workers {workers} trace {}",
        workload.name,
        u8::from(args.trace)
    );

    let mut checks = Checks::default();
    let mut setup = Vec::new();
    let mut rss_mb = 0.0;
    // Counts checked for exact repeats across runs at this seed.
    let (passes, metrics, counts) = if args.trace {
        let pass = subject.pass(workers, &out, &mut tracer)?;
        let replay = subject.replay(&pass, &mut tracer)?;
        tracer.end(root);
        checks.merge(replay.checks);
        // Adversary counts exist only at the replay's boundaries; every
        // other count must match the timed pass exactly.
        let mut counts = pass.counts.clone();
        for (name, value) in &replay.counts {
            if let Some(timed) = counts.insert(name, *value) {
                checks.check(timed == *value, || {
                    format!("count {name}: timed pass {timed}, traced replay {value}")
                });
            }
        }
        let spans = out.join(format!("spans-seed{seed}.csv"));
        fs::write(&spans, tracer.to_csv(workload.name))
            .map_err(|err| format!("cannot write {}: {err}", spans.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            spans.display()
        );
        print_span_table(&tracer);
        calib.push(calib_ms());
        let mut values = replay.metrics;
        let run_s = tracer.total("consensus.run");
        values.insert("host.calib_ms", median(&calib));
        values.insert(
            "trace.overhead_s",
            tracer.spans().len() as f64 * Tracer::span_cost_s(),
        );
        values.insert(
            "trace.replay_over_pass",
            run_s / (pass.busy_us as f64 / 1e6),
        );
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                values
                    .remove(name)
                    .map(|value| (name, value, unit))
                    .ok_or(format!("workload computed no {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(extra) = values.keys().next() {
            return Err(format!("workload computed an undeclared metric {extra}"));
        }
        (vec![pass], Some(metrics), counts)
    } else {
        // Passes start until `--seconds` have gone by. Set-ups are timed
        // before each pass, so both sample the host over the whole run.
        let measure = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        while passes.is_empty() || measure.elapsed().as_secs_f64() < args.seconds {
            for _ in 0..SETUP_REPS {
                let started = Instant::now();
                let text = read_spec(workload.spec)?;
                black_box(S::prepare(&text, args.seed, &mut Tracer::disabled())?);
                setup.push(started.elapsed().as_secs_f64());
            }
            // Calibrations bracket every pass to track the host's speed.
            if !passes.is_empty() {
                calib.push(calib_ms());
            }
            let pass = subject.pass(workers, &out, &mut tracer)?;
            // Later passes reuse the allocator's retained memory, so the
            // peak is taken after the first, whatever the pass count.
            if passes.is_empty() {
                rss_mb = peak_rss_mb()?;
            }
            calib.push(calib_ms());
            passes.push(pass);
        }
        let counts = passes[0].counts.clone();
        (passes, None, counts)
    };

    // Exact repeats between passes and runs, and the committed reference.
    let first = &passes[0];
    for (k, pass) in passes.iter().enumerate().skip(1) {
        checks.check(pass.counts == first.counts, || {
            format!("pass {k} counts differ from pass 0")
        });
        checks.check(pass.canonical == first.canonical, || {
            format!("pass {k} canonical report differs from pass 0")
        });
    }
    if seed == workload.reference.seed {
        let (bytes, fnv) = (first.canonical.len(), fnv1a64(first.canonical.as_bytes()));
        let reference = &workload.reference;
        checks.check((bytes, fnv) == (reference.bytes, reference.fnv1a64), || {
            format!(
                "canonical report at the committed seed is {bytes} bytes fnv1a64 {fnv:016x}, \
                 reference {} bytes {:016x}",
                reference.bytes, reference.fnv1a64
            )
        });
        println!("reference check: {bytes} bytes fnv1a64 {fnv:016x}");
    }
    let recorded = out.join(format!(
        "counts-{}-seed{seed}-trace{}.txt",
        build_id()?,
        u8::from(args.trace)
    ));
    check_counts_repeat(&recorded, &counts, &mut checks)?;
    let metrics = match metrics {
        Some(metrics) => metrics,
        None => end_to_end(&passes, &setup, rss_mb, &calib, &checks),
    };
    for pass in passes {
        checks.merge(pass.checks);
    }

    for problem in &checks.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    println!(
        "host.calib_ms = {:.3} ms (samples {calib:?})",
        median(&calib)
    );
    println!(
        "failed_frac = {} ({} of {} checks failed)",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = checks.failed == 0;
    print_result(correct, checks.attempted, checks.failed, &metrics)?;
    Ok(correct)
}

/// Pass/fail tallies of correctness checks; every failure keeps its line.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

fn read_spec(path: &str) -> Result<String, String> {
    fs::read_to_string(path)
        .map_err(|err| format!("cannot read {path}: {err} (run from the repository root)"))
}

/// The end-to-end metrics of an untraced run's passes. `calib` holds the
/// run's calibration times in ms; `run_checks` are the whole-run checks,
/// and each pass carries its own.
fn end_to_end(
    passes: &[Pass],
    setup: &[f64],
    rss_mb: f64,
    calib: &[f64],
    run_checks: &Checks,
) -> Vec<(&'static str, f64, &'static str)> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.decisions as f64 / p.wall_s)
        .collect();
    let attempted: u64 =
        run_checks.attempted + passes.iter().map(|p| p.checks.attempted).sum::<u64>();
    let failed: u64 = run_checks.failed + passes.iter().map(|p| p.checks.failed).sum::<u64>();
    // The host's speed drifts by tens of percent, within seconds and over
    // minutes, so pass wall times and their medians carry that drift.
    // Every operation (serve instance or cell, and the report) runs once
    // per pass and lasts milliseconds, so in one of the passes it almost
    // always meets a quiet moment: its fastest time filters the drift
    // within the run. The median calibration gauges how fast the host
    // was over the run, and scaling by it filters the drift between runs.
    let scale = REF_CALIB_MS / median(calib);
    let mut best = passes[0].latencies_us.clone();
    for pass in &passes[1..] {
        for (fastest, &latency) in best.iter_mut().zip(&pass.latencies_us) {
            *fastest = (*fastest).min(latency);
        }
    }
    let report_s = passes.iter().map(|p| p.report_s).fold(f64::INFINITY, f64::min);
    let work_s = (best.iter().sum::<u64>() as f64 / 1e6 + report_s) * scale;
    best.sort_unstable();
    // The tail is the highest of p99, p95 and p90 that leaves at least ten
    // operations beyond it, which fixes it per workload.
    let ops = best.len();
    let tail = [99, 95, 90]
        .into_iter()
        .find(|&p| ops - (p * ops).div_ceil(100) >= 10)
        .unwrap_or(50);
    println!(
        "passes {} walls_s {walls:?}; {ops} operations, tail = p{tail}; \
         host scale {scale} (reference calibration {REF_CALIB_MS} ms)",
        passes.len()
    );
    let latency_us = |p: usize| nearest_rank(&best, p) as f64 * scale;
    // Printed for the record but not bounded: pass wall times carry the
    // host's drift, and single operations' fastest times, the shortest of
    // them 0.1 ms, move with it more than their sum does.
    println!(
        "wall_s = {} s, decisions_per_s = {} 1/s (medians over passes); \
         latency_norm_p50_us = {} us, latency_norm_tail_us = {} us (p{tail}) \
         over the fastest times of {ops} operations",
        median(&walls),
        median(&rates),
        latency_us(50),
        latency_us(tail)
    );
    vec![
        ("work_norm_s", work_s, "s"),
        ("setup_s", median(setup), "s"),
        ("ok_frac", 1.0 - failed as f64 / attempted as f64, "frac"),
        ("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// Identifies this build of the benchmark and program, so recorded counts
/// are compared only between runs of the same code.
fn build_id() -> Result<String, String> {
    let exe =
        std::env::current_exe().map_err(|err| format!("cannot locate the benchmark: {err}"))?;
    let meta = fs::metadata(&exe).map_err(|err| format!("cannot stat {}: {err}", exe.display()))?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|time| time.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |since| since.as_nanos());
    Ok(format!(
        "{:016x}",
        fnv1a64(format!("{} {modified}", meta.len()).as_bytes())
    ))
}

/// Counts must repeat across runs of one build at the same seed: the first
/// run records them, every later run compares.
fn check_counts_repeat(
    path: &Path,
    counts: &BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) -> Result<(), String> {
    let text: String = counts
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect();
    match fs::read_to_string(path) {
        Ok(recorded) => checks.check(recorded == text, || {
            format!(
                "counts differ from an earlier run recorded in {}",
                path.display()
            )
        }),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            fs::write(path, text)
                .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        }
        Err(err) => return Err(format!("cannot read {}: {err}", path.display())),
    }
    Ok(())
}

fn print_span_table(tracer: &Tracer) {
    println!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, count, total, own) in tracer.by_name() {
        println!("{name:<24} {count:>8} {total:>12.6} {own:>12.6}");
    }
}

/// The last line of output: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<(), String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}
