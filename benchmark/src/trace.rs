//! The traced run: untraced and traced passes over a workload in pairs,
//! the per-layer costs, exact work counts, the accounting of the cold
//! leg's time by layer, and the cost of tracing itself.

use crate::alloc::allocations;
use crate::host::{self, Monitor};
use crate::workloads::{self, Check, Work, Workload};
use crate::{layers, Metric, Outcome};
use concat_obs::{Histogram, MemorySink, Summary, Telemetry};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics of the result line, as in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 27] = [
    "mutation.switch.read_hit_ns",
    "mutation.switch.read_miss_ns",
    "mutation.switch.read_disarmed_ns",
    "mutation.journal.record_us",
    "mutation.journal.resume_us",
    "mutation.orchestrator.campaign_overhead_ms",
    "runtime.invoke.query_ns",
    "runtime.invoke.update_ns",
    "runtime.journal.append_us",
    "runtime.journal.scan_us",
    "bit.invariant_test_ns",
    "driver.run_suite_ms",
    "driver.compare_transcripts_ns",
    "driver.generate_walk_us",
    "driver.execute_sequence_us",
    "driver.generate_suite_ms",
    "tfm.enumerate_us",
    "obs.span.null_ns",
    "obs.span.memory_ns",
    "obs.absorb_under_ns_per_event",
    "count.mutants",
    "count.cases_executed",
    "count.cases_skipped",
    "count.journal_records",
    "count.walk_calls",
    "count.allocs_per_case",
    "trace.unaccounted_ms",
];

/// Span kinds the program emits today whose self time the run reports.
const KINDS: [&str; 8] = [
    "golden", "worker", "mutant", "probe", "suite", "case", "merge", "journal",
];

/// Per-layer work the trace cannot see from outside.
const MISSING: [(&str, &str); 1] = [(
    "mutation.switch.read_*",
    "switch reads emit no telemetry, so their count is not observable from outside",
)];

/// One leg's interval (monotonic seconds), verdicts and allocations.
struct Leg {
    interval: (f64, f64),
    text: String,
    allocations: u64,
}

fn cold_leg(workload: &mut dyn Workload, telemetry: &Telemetry, check: &mut Check) -> Leg {
    let a = allocations();
    let t = host::now();
    let text = workload.cold(telemetry, check);
    let interval = (t, host::now());
    Leg {
        interval,
        text,
        allocations: allocations() - a,
    }
}

fn self_ms(summary: &Summary, kind: &str) -> Option<f64> {
    summary
        .self_histogram(kind)
        .map(|h| h.sum_nanos() as f64 / 1e6)
}

/// Runs the traced measurement of `name`: untraced and traced cold legs
/// in alternating pairs for about `seconds` (at least one pair), then
/// the per-layer measurements. Leg times are scaled to the nominal host
/// speed (see [`crate::host`]), so that the two legs of a pair compare.
pub fn run(name: &str, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let mut check = Check::default();
    let disabled = Telemetry::disabled();
    let single_threaded = workloads::build(name, seed, dir)
        .expect("workload name checked")
        .single_threaded();
    let monitor = Monitor::start(single_threaded, dir);
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut first: Option<(Leg, Leg, Work, Arc<MemorySink>)> = None;
    let mut inputs = Vec::new();
    for pair in 0.. {
        // Untraced leg: the baseline for the tracing overhead, and the
        // allocation count (the tracer's own allocations excluded). It
        // runs first in even pairs and last in odd ones, so whatever the
        // first leg of a pair pays falls on both sides alike.
        let untraced_leg = |check: &mut Check| {
            let mut workload = workloads::build(name, seed, dir).expect("workload name checked");
            workload.setup(&disabled);
            let leg = cold_leg(workload.as_mut(), &disabled, check);
            workload.teardown();
            leg
        };
        let untraced_first = (pair % 2 == 0).then(|| untraced_leg(&mut check));

        // Traced leg: a fresh workload, so it sees the same inputs.
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        let mut workload = workloads::build(name, seed, dir).expect("workload name checked");
        let span = telemetry.span("bench.setup", name);
        workload.setup(&telemetry.at(span.id()));
        span.finish();
        let span = telemetry.span("bench.leg", name);
        let traced = cold_leg(workload.as_mut(), &telemetry.at(span.id()), &mut check);
        span.finish();
        let operations = workload.operations();
        workload.prepare_warm(&mut check);
        let work = workload.work();
        inputs = workload.input_seeds();
        workload.before_warm();
        let span = telemetry.span("bench.warm", name);
        let warm = workload.warm(&telemetry.at(span.id()), &mut check);
        span.finish();
        workload.after_warm(&mut check);
        workload.teardown();

        let untraced = untraced_first.unwrap_or_else(|| untraced_leg(&mut check));
        check.same(
            &format!("{name} traced"),
            &untraced.text,
            &traced.text,
            operations,
        );
        check.same(
            &format!("{name} traced warm"),
            &untraced.text,
            &warm,
            operations,
        );

        pairs.push((untraced.interval, traced.interval));
        match &first {
            None => first = Some((untraced, traced, work, sink)),
            Some((u0, _, w0, s0)) => {
                let cases = |s: &MemorySink| s.summary().histogram("case").map(Histogram::count);
                let differ: Vec<&str> = [
                    ("allocations", untraced.allocations != u0.allocations),
                    ("executed cases", cases(s0) != cases(&sink)),
                    ("mutants", work.mutants != w0.mutants),
                ]
                .iter()
                .filter_map(|(what, differs)| differs.then_some(*what))
                .collect();
                if !differ.is_empty() {
                    println!(
                        "{name:<7} note: {} of pair {pair} differ from pair 0",
                        differ.join(", ")
                    );
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / (pair + 1) as f64 > seconds {
            break;
        }
    }
    let (untraced, traced, work, sink) = first.expect("at least one pair ran");
    let speed = monitor.stop();
    let scaled = |(start, end): (f64, f64)| (end - start) * speed.factor(start, end);
    let overheads: Vec<f64> = pairs
        .iter()
        .map(|&(u, t)| (scaled(t) - scaled(u)) * 1e3)
        .collect();
    let (untraced_s, traced_s) = (scaled(untraced.interval), scaled(traced.interval));

    let summary = sink.summary();
    // Every workload measures the layers alike: on one CPU.
    let monitor = Monitor::start(true, dir);
    let layers = layers::measure(seed, dir, &monitor);
    monitor.stop();
    let per = |metric: &str| {
        layers
            .iter()
            .find(|m| m.name == metric)
            .map_or(0.0, |m| m.value)
    };

    let cases = summary.histogram("case").map_or(0, Histogram::count);
    let calls = summary.counter("call.ok") + summary.counter("call.raised");
    // A walk step is to `walk` what an executed case is to a campaign.
    let per_case_unit = if work.walk_calls > 0 {
        work.walk_calls
    } else {
        cases
    };
    let counts = [
        ("count.mutants", work.mutants as f64),
        ("count.cases_executed", cases as f64),
        (
            "count.cases_skipped",
            summary.counter("selection.skipped") as f64,
        ),
        ("count.journal_records", work.journal_records as f64),
        ("count.walk_calls", work.walk_calls as f64),
        (
            "count.allocs_per_case",
            untraced.allocations as f64 / per_case_unit.max(1) as f64,
        ),
    ];

    // Σ(ns/op × count) over the layers whose count the trace shows. A
    // walk's `execute_sequence` holds its invokes and invariant checks,
    // so on `walk` those are counted once, inside it.
    let inside_walks = |count: u64| if work.walks > 0 { 0.0 } else { count as f64 };
    let invoke_ns = (per("runtime.invoke.query_ns") + per("runtime.invoke.update_ns")) / 2.0;
    let terms: Vec<(&str, f64, f64)> = vec![
        (
            "runtime.invoke (mean of query, update)",
            invoke_ns,
            inside_walks(calls),
        ),
        (
            "bit.invariant_test",
            per("bit.invariant_test_ns"),
            inside_walks(summary.counter("bit.invariant.checks")),
        ),
        (
            "driver.compare_transcripts",
            per("driver.compare_transcripts_ns"),
            cases as f64,
        ),
        (
            "mutation.journal.record",
            per("mutation.journal.record_us") * 1e3,
            work.journal_records as f64,
        ),
        (
            "mutation.orchestrator.campaign_overhead",
            per("mutation.orchestrator.campaign_overhead_ms") * 1e6,
            if name == "fleet" {
                work.campaigns as f64
            } else {
                0.0
            },
        ),
        (
            "driver.generate_walk",
            per("driver.generate_walk_us") * 1e3,
            work.walks as f64,
        ),
        (
            "driver.execute_sequence",
            per("driver.execute_sequence_us") * 1e3,
            work.walks as f64,
        ),
    ];
    let accounted_ms: f64 = terms.iter().map(|(_, ns, n)| ns * n).sum::<f64>() / 1e6;
    let untraced_ms = untraced_s * 1e3;
    let overhead_ms = crate::stats::median(&overheads);

    println!(
        "{name:<7} traced run: {} pairs; first pair untraced {:.3} ms, traced {:.3} ms \
         at the nominal host speed",
        overheads.len(),
        untraced_s * 1e3,
        traced_s * 1e3
    );
    println!("{name:<7} accounting of the untraced leg (ns/op x count):");
    for (layer, ns, n) in &terms {
        if *n > 0.0 {
            println!(
                "{name:<7}   {layer:<44} {ns:>14.1} ns x {n:>10} = {:>12.3} ms",
                ns * n / 1e6
            );
        }
    }
    for (layer, why) in MISSING {
        println!("{name:<7}   {layer:<44} missing: {why}");
    }
    println!(
        "{name:<7}   accounted {accounted_ms:.3} ms of {untraced_ms:.3} ms, unaccounted {:.3} ms",
        untraced_ms - accounted_ms
    );
    let spans = summary.spans.values().map(|s| s.count).sum::<u64>();
    // One pair is a single difference between two legs, as noisy as
    // either leg: printed, but not called a median.
    let over = match overheads.len() {
        1 => "from one pair, unresolved".to_owned(),
        n => format!("median over {n} pairs"),
    };
    println!(
        "{name:<7} tracing overhead {overhead_ms:.3} ms, {over} \
         ({spans} spans; obs.span.memory_ns x spans = {:.3} ms)",
        per("obs.span.memory_ns") * spans as f64 / 1e6
    );
    println!("{name:<7} self time by span kind in the traced legs:");
    for kind in summary.self_spans.keys() {
        if !KINDS.contains(kind) && !kind.starts_with("bench.") {
            continue;
        }
        let ms = self_ms(&summary, kind).unwrap_or(0.0);
        println!("{name:<7}   trace.{kind}.self_ms {ms:>14.3}");
    }
    for kind in KINDS {
        if !summary.self_spans.contains_key(kind) {
            println!("{name:<7}   trace.{kind}.self_ms absent: this workload emits no {kind} span");
        }
    }

    let mut metrics = layers;
    metrics.extend(counts.iter().map(|(n, v)| Metric::new(*n, *v, "count")));
    metrics.push(Metric::new("trace.overhead_ms", overhead_ms, "ms"));
    metrics.push(Metric::new("trace.accounted_ms", accounted_ms, "ms"));
    metrics.push(Metric::new(
        "trace.unaccounted_ms",
        untraced_ms - accounted_ms,
        "ms",
    ));
    metrics.push(Metric::new("trace.untraced_s", untraced_s, "s"));
    metrics.push(Metric::new("trace.traced_s", traced_s, "s"));
    for kind in summary.self_spans.keys() {
        if let Some(ms) = self_ms(&summary, kind) {
            metrics.push(Metric::new(format!("trace.{kind}.self_ms"), ms, "ms"));
        }
    }
    Outcome {
        check,
        metrics,
        samples: vec![("trace.overhead_ms".to_owned(), overheads)],
        inputs,
    }
}
