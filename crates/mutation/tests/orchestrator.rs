//! Orchestrator integration tests: the fault-tolerant campaign service
//! under a seeded chaos schedule. Several concurrent campaigns share one
//! slot fleet while the tests kill process shards, cancel a campaign
//! mid-run, and exhaust another's mutant budget — and every surviving
//! campaign's verdicts must stay byte-identical to a solo
//! [`run_mutation_analysis_parallel`] run of the same campaign, while a
//! cancelled campaign resumes (same service, same journal) to the same
//! final run.
//!
//! Process leases re-exec *this test binary* with a libtest filter that
//! lands in [`shard_worker_entry`]; `CONCAT_TEST_ORCH_SUBJECT` (threaded
//! through [`ProcessIsolation::env`]) names the campaign to rebuild.

use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat_driver::{MethodCall, SuiteStats, TestCase, TestSuite};
use concat_mutation::{
    enumerate_mutants, run_mutation_analysis_parallel, run_shard_worker, CampaignEnd,
    CampaignPhase, CampaignRequest, ClassInventory, ClonableFactory, DegradeReason, IsolationMode,
    MethodInventory, Mutant, MutantStatus, MutationConfig, MutationRun, MutationSwitch,
    Orchestrator, OrchestratorConfig, ProcessIsolation, QuarantineReason, SubmitError, VarEnv,
};
use concat_obs::{MemorySink, Telemetry};
use concat_runtime::{
    args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Env var naming the campaign a re-executed shard worker rebuilds.
const SUBJECT_ENV: &str = "CONCAT_TEST_ORCH_SUBJECT";

/// Serializes the tests that spawn shard processes, so one test's
/// external kill can never hit another test's child.
static PROCESS_TESTS: Mutex<()> = Mutex::new(());

fn process_lock() -> MutexGuard<'static, ()> {
    PROCESS_TESTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------
// Chaos: the instrumented subject every campaign runs on
// ---------------------------------------------------------------------

/// `Chaos::Step(q)` adds `q` through two instrumented sites; site 1
/// feeds a table index, so MAXINT/MININT replacements crash (kill by
/// crash) and the invariant bounds the total (kill by assertion). The
/// per-call sleep stretches a campaign enough for cancellations and
/// shard kills to land mid-run.
struct Chaos {
    total: i64,
    limit: i64,
    millis: u64,
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Component for Chaos {
    fn class_name(&self) -> &'static str {
        "Chaos"
    }
    fn method_names(&self) -> Vec<&'static str> {
        vec!["Step", "Total", "~Chaos"]
    }
    fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
        match m {
            "Step" => {
                let q = args::int(m, a, 0)?;
                std::thread::sleep(Duration::from_millis(self.millis));
                let env = VarEnv::new()
                    .bind("delta", q)
                    .bind("total", self.total)
                    .bind("limit", self.limit);
                let s1 = self.switch.read_int("Step", 0, "delta", q, &env);
                self.total += s1;
                let idx = self.switch.read_int("Step", 1, "delta", q, &env);
                let table = [0i64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
                let bonus = table[usize::try_from(idx).expect("index")];
                self.total += q + bonus - bonus;
                Ok(Value::Int(self.total))
            }
            "Total" => Ok(Value::Int(self.total)),
            "~Chaos" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), m)),
        }
    }
}

impl BuiltInTest for Chaos {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }
    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        concat_bit::check(
            &self.ctl,
            concat_runtime::AssertionKind::Invariant,
            "Chaos",
            "",
            "total <= limit",
            self.total <= self.limit,
        )
    }
    fn reporter(&self) -> StateReport {
        let mut r = StateReport::new();
        r.set("total", Value::Int(self.total));
        r
    }
}

struct ChaosFactory {
    millis: u64,
    switch: MutationSwitch,
}

impl ComponentFactory for ChaosFactory {
    fn class_name(&self) -> &str {
        "Chaos"
    }
    fn construct(
        &self,
        constructor: &str,
        _args: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Chaos" => Ok(Box::new(Chaos {
                total: 0,
                limit: 1_000,
                millis: self.millis,
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method("Chaos", other)),
        }
    }
}

/// The sharding seam; `millis` tunes campaign duration without touching
/// the verdicts (sleep length is behaviour-neutral).
struct ChaosShards {
    millis: u64,
}

impl ClonableFactory for ChaosShards {
    fn class_name(&self) -> &str {
        "Chaos"
    }
    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(ChaosFactory {
            millis: self.millis,
            switch: switch.clone(),
        })
    }
}

fn chaos_inventory() -> ClassInventory {
    ClassInventory::new("Chaos")
        .globals(["total", "limit"])
        .method(
            MethodInventory::new("Step")
                .locals(["delta"])
                .globals_used(["total", "limit"])
                .site(0, "delta", "first add")
                .site(1, "delta", "table index"),
        )
}

/// One campaign's suite; `variant` shifts the argument pattern so
/// distinct campaigns produce distinct (solo-verifiable) verdict sets.
fn chaos_suite(variant: i64) -> TestSuite {
    let cases = (0..10)
        .map(|id| TestCase {
            id,
            transaction_index: 0,
            node_path: vec![],
            constructor: MethodCall::generated("m1", "Chaos", vec![]),
            calls: vec![
                MethodCall::generated(
                    "m2",
                    "Step",
                    vec![Value::Int((id as i64 + variant) % 5 + 1)],
                ),
                MethodCall::generated("m3", "Total", vec![]),
                MethodCall::generated("m4", "~Chaos", vec![]),
            ],
        })
        .collect();
    TestSuite {
        class_name: "Chaos".into(),
        seed: 0,
        cases,
        stats: SuiteStats::default(),
    }
}

fn chaos_mutants() -> Vec<Mutant> {
    enumerate_mutants(&chaos_inventory(), &["Step"])
}

/// The fingerprint-relevant half of a chaos campaign config — identical
/// in the service and every shard worker; journal path and isolation
/// mode are layered on by the submitter only (both fingerprint-excluded).
fn chaos_config() -> MutationConfig {
    MutationConfig {
        silence_panics: true,
        ..MutationConfig::default()
    }
}

fn chaos_isolation() -> ProcessIsolation {
    ProcessIsolation::new(["shard_worker_entry", "--exact", "--nocapture"])
        .env(SUBJECT_ENV, "chaos")
}

/// The solo golden the orchestrated campaign must reproduce
/// byte-for-byte.
fn solo_run(variant: i64, millis: u64) -> MutationRun {
    run_mutation_analysis_parallel(
        Arc::new(ChaosShards { millis }),
        &chaos_suite(variant),
        &chaos_mutants(),
        &MutationConfig {
            workers: 2,
            ..chaos_config()
        },
    )
}

/// A campaign request for suite `variant` over a `millis`-paced subject.
fn chaos_request(name: &str, variant: i64, millis: u64) -> CampaignRequest {
    CampaignRequest {
        name: name.to_owned(),
        shards: Arc::new(ChaosShards { millis }),
        suite: chaos_suite(variant),
        mutants: chaos_mutants(),
        config: chaos_config(),
        priority: 0,
        mutant_budget: None,
    }
}

/// Unwraps a completed outcome into its final run.
fn completed(end: CampaignEnd) -> MutationRun {
    match end {
        CampaignEnd::Completed(run) => *run,
        other => panic!("campaign did not complete: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The re-exec entry point
// ---------------------------------------------------------------------

/// The hidden worker half: a no-op under a normal `cargo test` run, but
/// when the service re-execs this binary with `CONCAT_SHARD_*` and
/// `CONCAT_TEST_ORCH_SUBJECT` set, it rebuilds the named campaign,
/// classifies its assigned mutants, streams verdict frames to stdout and
/// exits without returning to libtest.
#[test]
fn shard_worker_entry() {
    let Ok(subject) = std::env::var(SUBJECT_ENV) else {
        return;
    };
    let code = match subject.as_str() {
        "chaos" => run_shard_worker(
            &ChaosShards { millis: 1 },
            &chaos_suite(0),
            &chaos_mutants(),
            &chaos_config(),
        ),
        _ => 2,
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn concurrent_campaigns_complete_byte_identical_to_solo_runs() {
    let sink = Arc::new(MemorySink::new());
    let orch = Orchestrator::start(OrchestratorConfig {
        slots: 4,
        lease_size: 2,
        telemetry: Telemetry::new(sink.clone()),
        ..OrchestratorConfig::default()
    });
    // Three campaigns with distinct suites and priorities, multiplexed
    // over one fleet; each must end exactly as its solo run does.
    let ids: Vec<_> = (0..3)
        .map(|variant| {
            let mut request = chaos_request(&format!("c{variant}"), variant, 1);
            request.priority = (2 - variant) as u8;
            orch.submit(request).expect("admitted")
        })
        .collect();
    for (variant, id) in ids.iter().enumerate() {
        let outcome = orch.wait(*id).expect("campaign tracked");
        let run = completed(outcome.end);
        let golden = solo_run(variant as i64, 1);
        assert_eq!(
            run.results, golden.results,
            "campaign {variant}: orchestrated verdicts must match the solo run"
        );
        assert_eq!(run.score(), golden.score());
        let status = orch.status(*id).expect("status retained");
        assert_eq!(status.phase, CampaignPhase::Completed);
        assert_eq!(status.done, status.total);
    }
    drop(orch);
    let summary = sink.summary();
    assert_eq!(summary.counters.get("orchestrator.admitted"), Some(&3));
    assert_eq!(summary.counters.get("orchestrator.completed"), Some(&3));
    assert_eq!(summary.counters.get("orchestrator.degraded"), None);
    assert_eq!(summary.gauge("orchestrator.slots"), Some(4));
}

#[test]
fn admission_control_rejects_submits_past_capacity() {
    let sink = Arc::new(MemorySink::new());
    let orch = Orchestrator::start(OrchestratorConfig {
        slots: 1,
        capacity: 2,
        telemetry: Telemetry::new(sink.clone()),
        ..OrchestratorConfig::default()
    });
    let a = orch
        .submit(chaos_request("a", 0, 1))
        .expect("first admitted");
    let b = orch
        .submit(chaos_request("b", 1, 1))
        .expect("second admitted");
    assert_eq!(
        orch.submit(chaos_request("c", 2, 1)),
        Err(SubmitError::QueueFull { capacity: 2 }),
        "the third live campaign must be refused, not queued unboundedly"
    );
    // Rejection is typed and non-destructive: the admitted campaigns
    // still complete normally.
    for id in [a, b] {
        let outcome = orch.wait(id).expect("campaign tracked");
        assert!(matches!(outcome.end, CampaignEnd::Completed(_)));
    }
    // With a slot free again, the retry is admitted.
    let c = orch
        .submit(chaos_request("c", 2, 1))
        .expect("retry admitted");
    let run = completed(orch.wait(c).expect("campaign tracked").end);
    assert_eq!(run.results, solo_run(2, 1).results);
    drop(orch);
    let summary = sink.summary();
    assert_eq!(summary.counters.get("orchestrator.rejected"), Some(&1));
    assert_eq!(summary.counters.get("orchestrator.admitted"), Some(&3));
}

#[test]
fn cancelled_campaign_resumes_in_service_to_the_solo_run() {
    let dir = std::env::temp_dir().join("concat-orchestrator-cancel");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("cancel.journal");
    let sink = Arc::new(MemorySink::new());
    let orch = Orchestrator::start(OrchestratorConfig {
        slots: 2,
        lease_size: 1,
        telemetry: Telemetry::new(sink.clone()),
        ..OrchestratorConfig::default()
    });
    // A slow-paced campaign (3 ms per instrumented call) so the cancel
    // lands mid-run with verdicts already journaled; a fast neighbor
    // that must not notice any of it.
    let mut slow = chaos_request("slow", 0, 3);
    slow.config.journal_path = Some(journal.clone());
    let slow_id = orch.submit(slow).expect("admitted");
    let neighbor_id = orch
        .submit(chaos_request("neighbor", 1, 1))
        .expect("admitted");

    // Wait for real progress, then cancel mid-flight.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = orch.status(slow_id).expect("status");
        if status.done >= 2 || status.phase.is_terminal() {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never progressed");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(orch.cancel(slow_id), "cancel lands on a live campaign");
    let outcome = orch.wait(slow_id).expect("campaign tracked");
    assert!(
        matches!(outcome.end, CampaignEnd::Cancelled),
        "the campaign reports cancellation, not a partial result"
    );
    let cancelled_status = orch.status(slow_id).expect("status retained");
    assert_eq!(cancelled_status.phase, CampaignPhase::Cancelled);
    assert!(
        cancelled_status.done < cancelled_status.total,
        "cancel landed mid-run ({}/{} merged)",
        cancelled_status.done,
        cancelled_status.total
    );

    // Resubmit the same campaign (same journal) to the same service: it
    // replays the verified prefix and finishes to the solo run.
    let mut resumed = chaos_request("slow", 0, 3);
    resumed.config.journal_path = Some(journal);
    let resumed_id = orch.submit(resumed).expect("resubmit admitted");
    let run = completed(orch.wait(resumed_id).expect("campaign tracked").end);
    assert_eq!(
        run.results,
        solo_run(0, 3).results,
        "the resumed campaign ends byte-identical to an undisturbed solo run"
    );
    let resumed_status = orch.status(resumed_id).expect("status retained");
    assert!(
        resumed_status.replayed >= cancelled_status.done as u64,
        "the resume replays at least the cancelled run's merged prefix \
         ({} replayed, {} were merged)",
        resumed_status.replayed,
        cancelled_status.done
    );

    // The neighbor never noticed.
    let neighbor = completed(orch.wait(neighbor_id).expect("campaign tracked").end);
    assert_eq!(neighbor.results, solo_run(1, 1).results);
    drop(orch);
    let summary = sink.summary();
    assert_eq!(summary.counters.get("orchestrator.cancelled"), Some(&1));
    assert_eq!(summary.counters.get("orchestrator.resumed"), Some(&1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_exhaustion_degrades_only_its_own_campaign() {
    let sink = Arc::new(MemorySink::new());
    let orch = Orchestrator::start(OrchestratorConfig {
        slots: 2,
        lease_size: 2,
        telemetry: Telemetry::new(sink.clone()),
        ..OrchestratorConfig::default()
    });
    let mut capped = chaos_request("capped", 0, 1);
    capped.mutant_budget = Some(3);
    let capped_id = orch.submit(capped).expect("admitted");
    let neighbor_id = orch
        .submit(chaos_request("neighbor", 2, 1))
        .expect("admitted");

    let outcome = orch.wait(capped_id).expect("campaign tracked");
    let CampaignEnd::Degraded { reason, partial } = outcome.end else {
        panic!("the capped campaign must degrade, got {:?}", outcome.end);
    };
    assert_eq!(reason, DegradeReason::BudgetExhausted);
    let golden = solo_run(0, 1);
    assert_eq!(
        partial.total(),
        golden.total(),
        "the partial run still covers every mutant slot"
    );
    // Exactly the budgeted number of verdicts were executed and merged;
    // each merged verdict matches the solo run at the same index, and
    // every unfinished mutant carries the fail-safe quarantine.
    let mut merged = 0usize;
    for (index, result) in partial.results.iter().enumerate() {
        if result.status
            == (MutantStatus::Quarantined {
                reason: QuarantineReason::WorkerCrash,
            })
        {
            continue;
        }
        merged += 1;
        assert_eq!(
            result, &golden.results[index],
            "merged verdict {index} must match the solo run"
        );
    }
    assert_eq!(merged, 3, "the budget bounds executed+merged verdicts");
    let status = orch.status(capped_id).expect("status retained");
    assert_eq!(
        status.phase,
        CampaignPhase::Degraded(DegradeReason::BudgetExhausted)
    );

    // The neighbor completes untouched.
    let neighbor = completed(orch.wait(neighbor_id).expect("campaign tracked").end);
    assert_eq!(neighbor.results, solo_run(2, 1).results);
    drop(orch);
    let summary = sink.summary();
    assert_eq!(summary.counters.get("orchestrator.degraded"), Some(&1));
    assert_eq!(summary.counters.get("orchestrator.completed"), Some(&1));
}

#[test]
fn service_shutdown_cancels_live_campaigns_cleanly() {
    let orch = Orchestrator::start(OrchestratorConfig {
        slots: 1,
        lease_size: 1,
        ..OrchestratorConfig::default()
    });
    let id = orch
        .submit(chaos_request("doomed", 0, 3))
        .expect("admitted");
    // Shut the service down while the campaign is live; the returned
    // statuses report it cancelled, never lost.
    let statuses = orch.shutdown();
    let doomed = statuses
        .iter()
        .find(|s| s.id == id)
        .expect("shutdown reports every campaign");
    assert_eq!(doomed.phase, CampaignPhase::Cancelled);
}

/// Child pids of this process, from a Linux `/proc` scan — the live
/// shards of whatever campaign is running. Field 4 of
/// `/proc/<pid>/stat` (the second field after the parenthesized comm) is
/// the ppid.
fn child_pids() -> Vec<u32> {
    let own = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids = Vec::new();
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|name| name.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let ppid = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .and_then(|rest| rest.split_whitespace().nth(1))
            .and_then(|p| p.parse::<u32>().ok());
        if ppid == Some(own) {
            pids.push(pid);
        }
    }
    pids
}

#[test]
fn killed_process_shard_changes_no_verdict_in_any_campaign() {
    let _guard = process_lock();
    let orch = Orchestrator::start(OrchestratorConfig {
        slots: 2,
        lease_size: 4,
        ..OrchestratorConfig::default()
    });
    // One campaign on process leases (the kill target) and one thread
    // neighbor sharing the fleet.
    let mut process = chaos_request("process", 0, 1);
    process.config.isolation = IsolationMode::Process(chaos_isolation());
    let process_id = orch.submit(process).expect("admitted");
    let neighbor_id = orch
        .submit(chaos_request("neighbor", 1, 1))
        .expect("admitted");

    // SIGKILL one live shard once it exists. On a fast machine the
    // campaign may already be done — then the kill is a no-op and the
    // parity assertion still holds.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let shards = child_pids();
        if let Some(pid) = shards.first() {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
            break;
        }
        if Instant::now() >= deadline
            || orch
                .status(process_id)
                .is_some_and(|s| s.phase.is_terminal())
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let run = completed(orch.wait(process_id).expect("campaign tracked").end);
    assert_eq!(
        run.results,
        solo_run(0, 1).results,
        "an externally killed shard must not change a single verdict"
    );
    let neighbor = completed(orch.wait(neighbor_id).expect("campaign tracked").end);
    assert_eq!(neighbor.results, solo_run(1, 1).results);
}
