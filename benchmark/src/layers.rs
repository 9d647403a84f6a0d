//! Per-layer costs, timed from outside around calls into each layer's
//! public functions. Every measurement times batches of calls for a fixed
//! budget and reports the median batch time per call, scaled to the
//! nominal host speed over that budget (see [`crate::host`]).

use crate::host::{self, Monitor};
use crate::Metric;
use concat_bench::{coblist_bundle, coblist_bundle_sharded, sortable_bundle};
use concat_bit::{BitControl, ComponentFactory, TestableComponent};
use concat_components::{sortable_spec, CSortableObListFactory};
use concat_core::Consumer;
use concat_driver::{
    compare_transcripts, execute_sequence, generate_walk, TestLog, TestRunner, WalkConfig,
};
use concat_mutation::{
    CampaignEnd, CampaignJournal, FaultPlan, KillReason, MutantStatus, MutationSwitch,
    Orchestrator, OrchestratorConfig, Replacement, VarEnv,
};
use concat_obs::{MemorySink, NullSink, Telemetry};
use concat_runtime::{scan_journal, Journal, Value};
use concat_tfm::enumerate_transactions;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measuring time per metric, after one untimed warm-up batch.
const BUDGET: Duration = Duration::from_millis(250);

/// Verdict records in the finished journal the resume and scan
/// measurements read: one `CObList` campaign's worth.
pub const FINISHED_RECORDS: usize = 157;

/// Walk shape of the walk measurements, the `walk` workload's.
const WALK_CALLS: usize = crate::workloads::CALLS_PER_WALK;

/// Runs `prepare` (untimed) then `batch` calls of `op` (timed), until
/// `BUDGET` has passed, and returns the median nanoseconds per call at
/// the nominal host speed.
fn per_call<S>(
    monitor: &Monitor,
    batch: usize,
    mut prepare: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, usize),
) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    let begin = host::now();
    let mut warmed = false;
    while !warmed || samples.len() < 3 || start.elapsed() < BUDGET {
        let mut state = prepare();
        let t = Instant::now();
        for i in 0..batch {
            op(&mut state, i);
        }
        let nanos = t.elapsed().as_nanos() as f64 / batch as f64;
        black_box(&state);
        if warmed {
            samples.push(nanos);
        }
        warmed = true;
    }
    crate::stats::median(&samples) * monitor.speed().factor(begin, host::now())
}

/// A sortable list holding `n` elements, BIT on as in a campaign.
fn sortable_list(n: i64) -> Box<dyn TestableComponent> {
    let factory = CSortableObListFactory::default();
    let mut list = factory
        .construct("CSortableObList", &[], BitControl::new_enabled())
        .expect("default constructor exists");
    for i in 0..n {
        list.invoke("AddTail", &[Value::Int(i)])
            .expect("AddTail accepts an int");
    }
    list
}

/// A `CObList`-sized finished campaign journal at `path`: header plus
/// [`FINISHED_RECORDS`] verdicts.
pub fn finished_journal(path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let (mut journal, _) = CampaignJournal::resume(path, 0xC0B1_157D, FINISHED_RECORDS)?;
    for id in 0..FINISHED_RECORDS {
        journal.record(id, &verdict(id))?;
    }
    Ok(())
}

fn verdict(id: usize) -> MutantStatus {
    match id % 16 {
        0 => MutantStatus::PresumedEquivalent,
        1 => MutantStatus::Killed {
            reason: KillReason::Assertion,
            by_case: id,
        },
        _ => MutantStatus::Killed {
            reason: KillReason::OutputDiff,
            by_case: id % 40,
        },
    }
}

/// Measures every per-layer metric. `seed` feeds the generated inputs;
/// `dir` holds the journal files.
pub fn measure(seed: u64, dir: &Path, monitor: &Monitor) -> Vec<Metric> {
    let mut out = Vec::new();
    mutation(&mut out, dir, monitor);
    runtime(&mut out, dir, monitor);
    driver(&mut out, seed, monitor);
    obs(&mut out, monitor);
    out
}

fn mutation(out: &mut Vec<Metric>, dir: &Path, monitor: &Monitor) {
    let switch = MutationSwitch::new();
    let env = VarEnv::new();
    let read = |switch: &MutationSwitch| {
        per_call(
            monitor,
            10_000,
            || (),
            |_, i| {
                black_box(switch.read_int("Sort1", 0, "i", black_box(i as i64), &env));
            },
        )
    };
    let plan = |site| FaultPlan {
        method: "Sort1".into(),
        site,
        replacement: Replacement::BitNeg,
    };
    switch.arm(plan(0));
    out.push(Metric::new(
        "mutation.switch.read_hit_ns",
        read(&switch),
        "ns",
    ));
    switch.arm(plan(1));
    out.push(Metric::new(
        "mutation.switch.read_miss_ns",
        read(&switch),
        "ns",
    ));
    switch.disarm();
    out.push(Metric::new(
        "mutation.switch.read_disarmed_ns",
        read(&switch),
        "ns",
    ));

    let path = dir.join("layer-record.journal");
    let record = per_call(
        monitor,
        20,
        || {
            let _ = std::fs::remove_file(&path);
            CampaignJournal::resume(&path, 1, 20)
                .expect("journal opens")
                .0
        },
        |journal, id| journal.record(id, &verdict(id)).expect("record appends"),
    );
    out.push(Metric::new(
        "mutation.journal.record_us",
        record / 1e3,
        "us",
    ));

    let finished = dir.join("layer-finished.journal");
    finished_journal(&finished).expect("finished journal written");
    let resume = per_call(
        monitor,
        5,
        || (),
        |_, _| {
            let (_, replayed) = CampaignJournal::resume(&finished, 0xC0B1_157D, FINISHED_RECORDS)
                .expect("journal resumes");
            assert_eq!(replayed.len(), FINISHED_RECORDS, "every verdict replays");
        },
    );
    out.push(Metric::new(
        "mutation.journal.resume_us",
        resume / 1e3,
        "us",
    ));

    // Submit→wait of a one-mutant, one-case campaign on a two-slot fleet.
    let orch = Orchestrator::start(OrchestratorConfig {
        slots: 2,
        lease_size: 4,
        ..OrchestratorConfig::default()
    });
    let bundle = coblist_bundle_sharded();
    let consumer = Consumer::with_seed(concat_bench::SEED);
    let full = consumer.generate(&bundle).expect("coblist spec generates");
    let one_case = full.filtered(&[full.cases[0].id]);
    let overhead = per_call(
        monitor,
        1,
        || {
            let mut request = consumer
                .campaign_request(&bundle, &one_case, &["AddHead"], &[])
                .expect("bundle carries shards");
            request.mutants.truncate(1);
            Some(request)
        },
        |request, _| {
            let request = request.take().expect("one submit per request");
            let id = orch.submit(request).expect("fleet admits the campaign");
            let outcome = orch.wait(id).expect("campaign ends");
            assert!(
                matches!(outcome.end, CampaignEnd::Completed(_)),
                "one-mutant campaign completes"
            );
        },
    );
    orch.shutdown();
    out.push(Metric::new(
        "mutation.orchestrator.campaign_overhead_ms",
        overhead / 1e6,
        "ms",
    ));
}

fn runtime(out: &mut Vec<Metric>, dir: &Path, monitor: &Monitor) {
    let query = per_call(
        monitor,
        10_000,
        || sortable_list(32),
        |list, _| {
            black_box(list.invoke("GetCount", &[]).expect("GetCount answers"));
        },
    );
    out.push(Metric::new("runtime.invoke.query_ns", query, "ns"));
    let update = per_call(
        monitor,
        256,
        || sortable_list(0),
        |list, i| {
            let arg = [Value::Int(i as i64)];
            black_box(list.invoke("AddTail", &arg).expect("AddTail accepts"));
        },
    );
    out.push(Metric::new("runtime.invoke.update_ns", update, "ns"));

    let path = dir.join("layer-append.journal");
    let append = per_call(
        monitor,
        20,
        || {
            let _ = std::fs::remove_file(&path);
            Journal::open(&path).expect("journal opens")
        },
        |journal, i| {
            journal
                .append(&format!("verdict {i} killed output-diff {i}"))
                .expect("append succeeds");
        },
    );
    out.push(Metric::new("runtime.journal.append_us", append / 1e3, "us"));

    let finished = dir.join("layer-finished.journal");
    let scan = per_call(
        monitor,
        10,
        || (),
        |_, _| {
            let scan = scan_journal(&finished).expect("journal scans");
            assert_eq!(
                scan.records.len(),
                FINISHED_RECORDS + 1,
                "header + verdicts"
            );
        },
    );
    out.push(Metric::new("runtime.journal.scan_us", scan / 1e3, "us"));

    let list = sortable_list(32);
    let invariant = per_call(
        monitor,
        1_000,
        || (),
        |_, _| {
            black_box(list.invariant_test()).expect("invariant holds");
        },
    );
    out.push(Metric::new("bit.invariant_test_ns", invariant, "ns"));
}

fn driver(out: &mut Vec<Metric>, seed: u64, monitor: &Monitor) {
    let coblist = coblist_bundle();
    let consumer = Consumer::with_seed(seed);
    let suite = consumer.generate(&coblist).expect("coblist spec generates");
    let run_suite = per_call(
        monitor,
        1,
        || (),
        |_, _| {
            let mut log = TestLog::new();
            black_box(TestRunner::new().run_suite(coblist.factory(), &suite, &mut log));
        },
    );
    out.push(Metric::new("driver.run_suite_ms", run_suite / 1e6, "ms"));

    // Golden against observed, per case, over the sortable suite.
    let sortable = sortable_bundle();
    let sortable_suite = consumer
        .generate(&sortable)
        .expect("sortable spec generates");
    let golden =
        TestRunner::new().run_suite(sortable.factory(), &sortable_suite, &mut TestLog::new());
    let observed = golden.clone();
    let cases = golden.cases.len();
    let compare = per_call(
        monitor,
        cases,
        || (),
        |_, i| {
            black_box(compare_transcripts(
                &golden.cases[i].transcript,
                &observed.cases[i].transcript,
            ));
        },
    );
    out.push(Metric::new("driver.compare_transcripts_ns", compare, "ns"));

    let spec = sortable_spec();
    let config = WalkConfig::new(seed)
        .with_walks(1)
        .with_calls_per_walk(WALK_CALLS)
        .with_objects(crate::workloads::WALK_OBJECTS);
    let generate = per_call(
        monitor,
        2,
        || (),
        |_, i| {
            black_box(generate_walk(&spec, &config, config.walk_seed(i)));
        },
    );
    out.push(Metric::new("driver.generate_walk_us", generate / 1e3, "us"));
    let walk = generate_walk(&spec, &config, config.walk_seed(0));
    let factory = CSortableObListFactory::default();
    let ctl = BitControl::new_enabled();
    let execute = per_call(
        monitor,
        1,
        || (),
        |_, _| {
            let outcome = execute_sequence(&factory, &spec, &walk, &ctl, None);
            assert!(outcome.failure.is_none(), "unseeded walk is clean");
        },
    );
    out.push(Metric::new(
        "driver.execute_sequence_us",
        execute / 1e3,
        "us",
    ));

    let generate_suite = per_call(
        monitor,
        1,
        || (),
        |_, _| {
            black_box(
                consumer
                    .generate(&sortable)
                    .expect("sortable spec generates"),
            );
        },
    );
    out.push(Metric::new(
        "driver.generate_suite_ms",
        generate_suite / 1e6,
        "ms",
    ));

    let enumerate = per_call(
        monitor,
        10,
        || (),
        |_, _| {
            black_box(enumerate_transactions(&spec.tfm));
        },
    );
    out.push(Metric::new("tfm.enumerate_us", enumerate / 1e3, "us"));
}

fn obs(out: &mut Vec<Metric>, monitor: &Monitor) {
    let null = Telemetry::new(Arc::new(NullSink));
    let span_null = per_call(
        monitor,
        10_000,
        || (),
        |_, _| null.span("case", "c0").finish(),
    );
    out.push(Metric::new("obs.span.null_ns", span_null, "ns"));

    let sink = Arc::new(MemorySink::new());
    let memory = Telemetry::new(sink.clone());
    let span_memory = per_call(
        monitor,
        2_000,
        || sink.clear(),
        |_, _| memory.span("case", "c0").finish(),
    );
    out.push(Metric::new("obs.span.memory_ns", span_memory, "ns"));

    // Events as a worker records them: mutant → case spans and counters.
    sink.clear();
    for m in 0..50 {
        let mutant = memory.span("mutant", &format!("m{m}"));
        let scoped = memory.at(mutant.id());
        for c in 0..8 {
            scoped.span("case", &format!("c{c}")).finish();
            scoped.incr_by("call.ok", 5);
        }
        mutant.finish();
    }
    let events = sink.events();
    let target = Arc::new(MemorySink::new());
    let campaign = Telemetry::new(target.clone());
    let graft = campaign.span("mutation", "campaign");
    let absorb = per_call(
        monitor,
        1,
        || target.clear(),
        |_, _| campaign.absorb_under(&events, graft.id()),
    );
    graft.finish();
    out.push(Metric::new(
        "obs.absorb_under_ns_per_event",
        absorb / events.len() as f64,
        "ns",
    ));
}
