//! Micro-benchmarks of the pipeline stages: transaction enumeration,
//! suite generation, suite execution, and mutation analysis throughput.
//! These are not paper artefacts (the paper reports no performance
//! numbers); they document the cost profile of the reproduction and
//! guard against performance regressions.
//!
//! The harness is hand-rolled (the build environment is offline, so no
//! criterion): each benchmark runs a timed batch repeatedly for a fixed
//! wall-clock budget and reports min/median ns per iteration. The final
//! pair of rows compares `run_suite` with telemetry disabled against
//! telemetry over a `NullSink` — the acceptance bar is that the NullSink
//! path costs nothing measurable (±5%).
//!
//! Run with: `cargo bench -p concat-bench --bench perf`

use concat_bench::{coblist_bundle, sortable_bundle, SEED};
use concat_components::{sortable_inventory, sortable_spec, CSortableObListFactory};
use concat_core::Consumer;
use concat_driver::{TestLog, TestRunner};
use concat_mutation::{
    enumerate_mutants, run_mutation_analysis, run_mutation_analysis_parallel, ClonableFactory,
    MutationConfig,
};
use concat_obs::{NullSink, Telemetry};
use concat_tfm::{enumerate_transactions, NodeKind, Tfm};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `f` repeatedly for ~`budget`, returning (min, median) nanoseconds
/// per call over the collected samples.
fn measure(budget: Duration, mut f: impl FnMut()) -> (u64, u64) {
    // warmup
    let warm_until = Instant::now() + budget / 5;
    while Instant::now() < warm_until {
        f();
    }
    let mut samples: Vec<u64> = Vec::new();
    let run_until = Instant::now() + budget;
    while Instant::now() < run_until {
        let t0 = Instant::now();
        f();
        samples.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    samples.sort_unstable();
    let min = samples.first().copied().unwrap_or(0);
    let median = samples.get(samples.len() / 2).copied().unwrap_or(0);
    (min, median)
}

fn report(name: &str, (min, median): (u64, u64)) -> u64 {
    println!("{name:<44} min {min:>12} ns    median {median:>12} ns");
    median
}

const BUDGET: Duration = Duration::from_millis(300);

/// Layered DAG with `layers` task layers of `width` nodes each, fully
/// connected layer to layer — a TFM stress shape.
fn layered_tfm(layers: usize, width: usize) -> Tfm {
    let mut tfm = Tfm::new("Layered");
    let birth = tfm.add_node("birth", NodeKind::Birth, ["New"]);
    let mut prev = vec![birth];
    for l in 0..layers {
        let mut layer = Vec::with_capacity(width);
        for w in 0..width {
            let id = tfm.add_node(format!("t{l}_{w}"), NodeKind::Task, [format!("M{l}_{w}")]);
            for p in &prev {
                tfm.add_edge(*p, id);
            }
            layer.push(id);
        }
        prev = layer;
    }
    let death = tfm.add_node("death", NodeKind::Death, ["Drop"]);
    for p in &prev {
        tfm.add_edge(*p, death);
    }
    tfm
}

fn main() {
    println!("== perf: pipeline stage micro-benchmarks ==\n");

    for (layers, width) in [(4, 2), (6, 2), (8, 2), (4, 3)] {
        let tfm = layered_tfm(layers, width);
        let paths = enumerate_transactions(&tfm).len();
        report(
            &format!("tfm/enumerate {layers}x{width} ({paths} paths)"),
            measure(BUDGET, || {
                black_box(enumerate_transactions(black_box(&tfm)).len());
            }),
        );
    }

    let bundle = sortable_bundle();
    report(
        "driver/generate_sortable_suite",
        measure(BUDGET, || {
            let consumer = Consumer::with_seed(SEED);
            black_box(consumer.generate(&bundle).unwrap().len());
        }),
    );

    for (name, bundle) in [
        ("coblist", coblist_bundle()),
        ("sortable", sortable_bundle()),
    ] {
        let consumer = Consumer::with_seed(SEED);
        let suite = consumer.generate(&bundle).unwrap();
        report(
            &format!("driver/run_suite/{name} ({} cases)", suite.len()),
            measure(BUDGET, || {
                let mut log = TestLog::new();
                let runner = TestRunner::new();
                black_box(
                    runner
                        .run_suite(bundle.factory(), &suite, &mut log)
                        .passed(),
                );
            }),
        );
    }

    // One method's mutants against a reduced suite: a unit of mutation
    // work small enough to iterate.
    let bundle = sortable_bundle();
    let consumer = Consumer::with_seed(SEED);
    let suite = consumer.generate(&bundle).unwrap();
    let small = suite.filtered(
        &suite
            .cases
            .iter()
            .map(|c| c.id)
            .take(60)
            .collect::<Vec<_>>(),
    );
    let mutants = enumerate_mutants(&sortable_inventory(), &["FindMax"]);
    report(
        &format!(
            "mutation/findmax ({} mutants x {} cases)",
            mutants.len(),
            small.len()
        ),
        measure(BUDGET, || {
            let run = run_mutation_analysis(
                bundle.factory(),
                bundle.switch().unwrap(),
                &small,
                &mutants,
                &MutationConfig::default(),
            );
            black_box(run.killed());
        }),
    );

    // Parallel engine smoke: one-shot wall-clock, workers=1 vs workers=4,
    // on the same findmax workload. This subject is CPU-bound, so the
    // figures document fleet overhead rather than a speedup (the
    // stall-prone subject in examples/mutation_demo.rs shows the speedup);
    // the verdict check guards the deterministic merge under bench load.
    let shards: Arc<dyn ClonableFactory> = Arc::new(CSortableObListFactory::default());
    let mut smoke = Vec::new();
    for workers in [1usize, 4] {
        let config = MutationConfig {
            workers,
            ..MutationConfig::default()
        };
        let t0 = Instant::now();
        let run = run_mutation_analysis_parallel(shards.clone(), &small, &mutants, &config);
        smoke.push((run, t0.elapsed()));
    }
    assert_eq!(
        smoke[0].0.results, smoke[1].0.results,
        "parallel smoke: verdicts must not depend on the worker count"
    );
    println!(
        "mutation/findmax parallel smoke: workers=1 {:?}, workers=4 {:?} (verdicts identical)",
        smoke[0].1, smoke[1].1
    );

    let spec = sortable_spec();
    report(
        "tspec/validate_sortable",
        measure(BUDGET, || {
            black_box(spec.validate().len());
        }),
    );
    report(
        "tspec/print_parse_roundtrip",
        measure(BUDGET, || {
            let text = concat_tspec::print_tspec(&spec);
            black_box(concat_tspec::parse_tspec(&text).unwrap().methods.len());
        }),
    );

    // Telemetry overhead check: a disabled handle vs. a NullSink-backed
    // handle (which must collapse to the same fast path). The two medians
    // should agree within noise; a wide gap is a regression in the
    // telemetry fast path.
    let bundle = coblist_bundle();
    let consumer = Consumer::with_seed(SEED);
    let suite = consumer.generate(&bundle).unwrap();
    let off = report(
        "obs/run_suite telemetry=disabled",
        measure(BUDGET, || {
            let mut log = TestLog::new();
            let runner = TestRunner::new();
            black_box(
                runner
                    .run_suite(bundle.factory(), &suite, &mut log)
                    .passed(),
            );
        }),
    );
    let null = report(
        "obs/run_suite telemetry=NullSink",
        measure(BUDGET, || {
            let mut log = TestLog::new();
            let runner = TestRunner::new().with_telemetry(Telemetry::new(Arc::new(NullSink)));
            black_box(
                runner
                    .run_suite(bundle.factory(), &suite, &mut log)
                    .passed(),
            );
        }),
    );
    let delta_pct = if off == 0 {
        0.0
    } else {
        (null as f64 - off as f64) * 100.0 / off as f64
    };
    println!("\nobs/null-sink overhead: {delta_pct:+.2}% (bar: within ±5%)");
}
