//! The concat-rs benchmark: end-to-end metrics of three workloads, and a
//! traced run that breaks them down layer by layer.
//!
//! ```text
//! concat-benchmark [--workload table2|fleet|walk|all] [--seed N] [--seconds S]
//!                  [--trace 0|1] [--out FILE]
//! concat-benchmark diff OLD.jsonl NEW.jsonl
//! concat-benchmark sample CPU
//! ```
//!
//! With `--trace 0` (the default) a run measures the workload for about
//! `--seconds` seconds with the benchmark's own tracing off and prints
//! every end-to-end metric. Times are wall times scaled to a nominal host
//! speed, measured during each timed interval by `sample` processes (see
//! the `host` module).
//! With `--trace 1` it runs the workload untraced and traced in
//! alternating pairs, and prints the per-layer numbers. Either
//! way the last line of standard output is one JSON object, the same
//! object (plus provenance and samples) is appended to `--out`
//! (default `benchmark/results/runs.jsonl`), and the exit code is 1 when
//! any output was wrong. `--workload all` runs each workload in a
//! process of its own and merges their result lines. `diff` compares two
//! result files.
//!
//! Run it from the repository root:
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload table2`.

mod alloc;
mod diff;
mod host;
mod json;
mod layers;
mod provenance;
mod stats;
mod trace;
mod workloads;

use json::{number, quote, Json};
use provenance::Provenance;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Check;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The repository's canonical seed.
const DEFAULT_SEED: u64 = concat_bench::SEED;

/// The benchmark package directory, where results and scratch files go.
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Command-line options of a measuring run.
#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    "usage: concat-benchmark [--workload table2|fleet|walk|all] [--seed N] [--seconds S] \
     [--trace 0|1] [--out FILE]\n       concat-benchmark diff OLD.jsonl NEW.jsonl\n       \
     concat-benchmark sample CPU"
        .into()
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: Path::new(PACKAGE_DIR).join("results").join("runs.jsonl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--out" => options.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let known = options.workload == "all" || workloads::NAMES.contains(&options.workload.as_str());
    if !known {
        return Err(format!(
            "unknown workload {:?}\n{}",
            options.workload,
            usage()
        ));
    }
    Ok(options)
}

/// One named metric of a result.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub check: Check,
    /// Metrics for the JSON result line, in print order.
    pub metrics: Vec<Metric>,
    /// Raw samples behind the metrics, for the result file.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Seeds the workload generated its inputs from.
    pub inputs: Vec<u64>,
}

/// Process high-water mark of resident memory (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Warm legs per iteration: at least this many, for at least this long.
/// `table2` gets few iterations per run, so each of its warm phases
/// spans seconds, not one burst.
fn warm_reps(workload: &str) -> (usize, Duration) {
    match workload {
        "table2" => (10, Duration::from_secs(2)),
        "walk" => (10, Duration::ZERO),
        _ => (1, Duration::ZERO),
    }
}

/// Set-ups per iteration, each timed. Cheap set-ups repeat so their
/// median rests on enough samples.
fn setup_reps(workload: &str) -> usize {
    match workload {
        "table2" | "walk" => 15,
        _ => 3,
    }
}

/// Wall seconds of each interval.
fn walls(intervals: &[(f64, f64)]) -> Vec<f64> {
    intervals.iter().map(|(start, end)| end - start).collect()
}

/// The untraced measurement of one workload: set-up, cold leg and warm
/// legs repeated until `seconds` have passed. Every iteration runs the
/// same inputs, so every iteration's verdicts must equal the first's.
/// Each timed interval is scaled to the nominal host speed by the
/// reference samples taken during it (see [`host`]); a metric is the
/// median of its scaled intervals.
fn measure(name: &str, options: &Options, dir: &Path) -> Outcome {
    let mut workload = workloads::build(name, options.seed, dir).expect("workload name checked");
    let monitor = host::Monitor::start(workload.single_threaded(), dir);
    let disabled = concat_obs::Telemetry::disabled();
    let mut check = Check::default();
    // A first iteration warms caches and lazy set-up; table2's campaign
    // is long enough that one more would cost more than it settles.
    let discard_first = name != "table2";
    // Timed intervals, as (start, end) monotonic seconds.
    let (mut setup, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    // Resident memory peak by the end of the first cold leg: set-up and
    // one campaign. Later, journal replay and the benchmark's own warm-leg
    // preparation move the peak by up to 2 MiB with the heap's layout.
    let mut peak_mb = None;
    let mut calls = 0;
    let start = Instant::now();
    for iteration in 0.. {
        let mut setup_now = Vec::new();
        for _ in 0..setup_reps(name) {
            let t = host::now();
            workload.setup(&disabled);
            setup_now.push((t, host::now()));
        }
        let t = host::now();
        let text = workload.cold(&disabled, &mut check);
        let cold_now = (t, host::now());
        peak_mb.get_or_insert_with(peak_rss_mb);
        let operations = workload.operations();
        let first = first.get_or_insert_with(|| text.clone());
        check.same(&format!("{name} repeat"), first, &text, operations);
        workload.prepare_warm(&mut check);
        let mut warm_now = Vec::new();
        let (reps, window) = warm_reps(name);
        let warm_start = Instant::now();
        while warm_now.len() < reps || warm_start.elapsed() < window {
            workload.before_warm();
            let t = host::now();
            let replay = workload.warm(&disabled, &mut check);
            warm_now.push((t, host::now()));
            workload.after_warm(&mut check);
            check.same(&format!("{name} warm"), first, &replay, operations);
        }
        calls = workload.work().walk_calls;
        workload.teardown();
        if !(discard_first && iteration == 0) {
            setup.extend(setup_now);
            cold.push(cold_now);
            warm.extend(warm_now);
        }
        // Start another iteration only if it fits in the time left.
        let elapsed = start.elapsed().as_secs_f64();
        let per_iteration = elapsed / (iteration + 1) as f64;
        if !cold.is_empty() && elapsed + per_iteration > options.seconds {
            break;
        }
    }
    let speed = monitor.stop();
    let factors = |intervals: &[(f64, f64)]| -> Vec<f64> {
        intervals.iter().map(|&(s, e)| speed.factor(s, e)).collect()
    };
    let scaled = |intervals: &[(f64, f64)]| -> f64 {
        let v: Vec<f64> = walls(intervals)
            .iter()
            .zip(factors(intervals))
            .map(|(wall, factor)| wall * factor)
            .collect();
        stats::median(&v)
    };
    println!(
        "{name:<7} host reference {:.4} ms (median of {} samples on {}), nominal {:.4} ms",
        speed.reference_s() * 1e3,
        speed.samples(),
        speed
            .cpu
            .map_or_else(|| "every CPU".to_owned(), |c| format!("CPU {c}")),
        host::NOMINAL_S * 1e3
    );
    println!(
        "{name:<7} wall medians: set-up {:.6} s, cold {:.6} s, warm {:.6} ms",
        stats::median(&walls(&setup)),
        stats::median(&walls(&cold)),
        stats::median(&walls(&warm)) * 1e3
    );
    let attempted = check.attempted.max(1);
    let failed_ratio = check.failed as f64 / attempted as f64;
    let campaign_s = scaled(&cold);
    let mut metrics = vec![
        Metric::new("setup_s", scaled(&setup), "s"),
        Metric::new("campaign_s", campaign_s, "s"),
        Metric::new("warm_rerun_ms", scaled(&warm) * 1e3, "ms"),
        Metric::new("peak_rss_mb", peak_mb.unwrap_or_default(), "MiB"),
        Metric::new("pass_ratio", 1.0 - failed_ratio, "ratio"),
    ];
    if calls > 0 {
        metrics.push(Metric::new(
            "walk_calls_per_s",
            calls as f64 / campaign_s,
            "1/s",
        ));
    }
    metrics.push(Metric::new("failed_ratio", failed_ratio, "ratio"));
    // Wall samples as measured, and the factor that scaled each.
    let samples = vec![
        ("setup_wall_s".to_owned(), walls(&setup)),
        ("setup_factor".to_owned(), factors(&setup)),
        ("campaign_wall_s".to_owned(), walls(&cold)),
        ("campaign_factor".to_owned(), factors(&cold)),
        ("warm_rerun_wall_s".to_owned(), walls(&warm)),
        ("warm_rerun_factor".to_owned(), factors(&warm)),
    ];
    Outcome {
        check,
        metrics,
        samples,
        inputs: workload.input_seeds(),
    }
}

/// Renders the contract's result line.
fn result_line(check: &Check, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&m.name),
                number(m.value),
                quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        check.correct(),
        check.attempted.max(1),
        check.failed,
        body.join(",")
    )
}

/// Appends the full record of one workload run to the result file.
fn record(
    options: &Options,
    name: &str,
    provenance: &Provenance,
    outcome: &Outcome,
) -> std::io::Result<()> {
    if let Some(parent) = options.out.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, v)| {
            let v: Vec<String> = v.iter().map(|x| number(*x)).collect();
            format!("{}:[{}]", quote(k), v.join(","))
        })
        .collect();
    let inputs: Vec<String> = outcome.inputs.iter().map(u64::to_string).collect();
    let line = format!(
        "{{\"workload\":{},\"seed\":{},\"inputs\":[{}],\"seconds\":{},\"trace\":{},\
         \"provenance\":{},\"samples\":{{{}}},\"result\":{}}}\n",
        quote(name),
        options.seed,
        inputs.join(","),
        number(options.seconds),
        options.trace,
        provenance.to_json(),
        samples.join(","),
        result_line(&outcome.check, &outcome.metrics)
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&options.out)?;
    file.write_all(line.as_bytes())?;
    file.sync_all()
}

fn print_outcome(name: &str, outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{name:<7} {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for tally in &outcome.check.tallies {
        println!("{name:<7} tally {tally}");
    }
    for problem in &outcome.check.problems {
        println!("{name:<7} WRONG OUTPUT: {problem}");
    }
}

/// Runs one workload in this process.
fn run(options: &Options) -> Result<bool, String> {
    let name = options.workload.as_str();
    let root = Path::new(PACKAGE_DIR)
        .parent()
        .ok_or("benchmark package has no parent directory")?;
    let provenance = Provenance::collect(root);
    println!(
        "host {} | {} | {} profile | git {}{} | sources {} | seed {}",
        provenance.host(),
        provenance.rustc,
        provenance.profile,
        provenance.git_rev,
        match provenance.git_dirty {
            Some(true) => " (dirty)",
            _ => "",
        },
        provenance.source_crc,
        options.seed
    );
    let dir = Path::new(PACKAGE_DIR)
        .join(".work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = if options.trace {
        trace::run(name, options.seed, options.seconds, &dir)
    } else {
        measure(name, options, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    print_outcome(name, &outcome);
    record(options, name, &provenance, &outcome)
        .map_err(|e| format!("{}: {e}", options.out.display()))?;
    // The contract's metric set: end-to-end names untraced, per-layer
    // names traced; `failed_ratio` travels as `attempted`/`failed`.
    let keep = |m: &Metric| {
        if options.trace {
            trace::PER_LAYER.contains(&m.name.as_str())
        } else {
            END_TO_END.contains(&m.name.as_str())
        }
    };
    let metrics: Vec<Metric> = outcome.metrics.into_iter().filter(keep).collect();
    println!("{}", result_line(&outcome.check, &metrics));
    Ok(outcome.check.correct() && outcome.check.failed == 0)
}

/// Runs every workload, each in a process of its own so that none
/// inherits another's heap or resident-memory high-water mark, and
/// merges their result lines, metric names prefixed by workload.
fn run_all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut overall = Check::default();
    let mut all_metrics = Vec::new();
    for name in workloads::NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&options.out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result = Json::parse(last)
            .map_err(|e| format!("{name} gave no result ({}): {e}", output.status))?;
        let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        overall.attempted += count("attempted");
        overall.failed += count("failed");
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            overall.problems.push(format!("{name}: wrong output"));
        }
        let metrics = result.get("metrics").and_then(Json::as_object);
        for (metric, m) in metrics.into_iter().flatten() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            all_metrics.push(Metric::new(format!("{name}.{metric}"), value, unit));
        }
    }
    println!("{}", result_line(&overall, &all_metrics));
    Ok(overall.correct() && overall.failed == 0)
}

/// The end-to-end metrics of the result line, as in `BENCHMARK.json`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "campaign_s",
    "warm_rerun_ms",
    "peak_rss_mb",
    "pass_ratio",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("diff") => diff::run(&args[1..]),
        Some("sample") => host::sample(&args[1..]),
        _ => parse(&args).and_then(|options| match options.workload.as_str() {
            "all" => run_all(&options),
            _ => run(&options),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("concat-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
