//! The mutation analysis engine: execute, classify, score.
//!
//! Reproduces the paper's §4 procedure. A mutant is **killed** when
//!
//! 1. the program crashed while running the test cases (panic),
//! 2. an exception was raised due to assertion violation "given that this
//!    was not the case with the original program", or
//! 3. the output differs from the original program's output
//!    (golden-transcript comparison).
//!
//! Mutants alive after the suite are re-attacked with caller-supplied
//! *probe suites* (randomized amplification); mutants that not even the
//! probes distinguish are classified **presumed equivalent** — the
//! mechanical stand-in for the paper's manual equivalence analysis
//! (DESIGN.md §2). The mutation score is `killed / (total - equivalent)`.

use crate::enumerate::Mutant;
use crate::fault::MutationSwitch;
use crate::journal::{CampaignJournal, CampaignText};
use concat_bit::ComponentFactory;
use concat_driver::{
    differing_cases, CaseStatus, CoverageMatrix, SuiteResult, TestLog, TestRunner, TestSuite,
};
use concat_obs::{SpanId, Telemetry};
use concat_runtime::{recommended_workers, write_atomic, Budget, RetryPolicy};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Why a mutant died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillReason {
    /// The mutant panicked (the paper's "program crashed").
    Crash,
    /// An assertion violation not present in the original run.
    Assertion,
    /// Outputs (return values, exceptions, final state) differ.
    OutputDiff,
}

impl fmt::Display for KillReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KillReason::Crash => "crash",
            KillReason::Assertion => "assertion violation",
            KillReason::OutputDiff => "output difference",
        };
        f.write_str(s)
    }
}

/// Why a mutant was quarantined instead of scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// The mutant hit the per-case wall-clock deadline (e.g. an induced
    /// infinite loop interrupted by the watchdog).
    Timeout,
    /// The mutant exhausted an execution budget (calls, transcript bytes).
    Budget,
    /// The mutant crashed in at least the configured number of cases —
    /// environment-threatening rather than informative.
    RepeatedCrash,
    /// The worker executing this mutant panicked outside the runner's
    /// catch boundary (an engine-adjacent crash, e.g. a panicking
    /// reporter). The supervisor contained the crash: only this in-flight
    /// mutant is quarantined and the campaign continues.
    WorkerCrash,
    /// Under [`IsolationMode::Process`], the shard executing this mutant
    /// died of SIGABRT — the signature of a mutant calling
    /// `std::process::abort()` (or an allocator/runtime abort). The
    /// process boundary contained it: only this mutant is quarantined.
    ShardAbort,
    /// Under [`IsolationMode::Process`], the shard executing this mutant
    /// died of another signal (SIGSEGV, an external SIGKILL, …) or a
    /// deliberate nonzero exit, twice in a row — the mutant reproducibly
    /// takes its host process down.
    ShardSignal,
    /// Under [`IsolationMode::Process`], the shard executing this mutant
    /// stopped emitting heartbeat frames — a tight loop with no
    /// cooperative checkpoint — and the supervisor killed it
    /// (SIGTERM→SIGKILL) after the heartbeat deadline, twice in a row.
    ShardUnresponsive,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuarantineReason::Timeout => "timeout",
            QuarantineReason::Budget => "budget",
            QuarantineReason::RepeatedCrash => "repeated crash",
            QuarantineReason::WorkerCrash => "worker crash",
            QuarantineReason::ShardAbort => "shard abort",
            QuarantineReason::ShardSignal => "shard signal",
            QuarantineReason::ShardUnresponsive => "shard unresponsive",
        };
        f.write_str(s)
    }
}

/// Terminal classification of one mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutantStatus {
    /// Killed by the test suite.
    Killed {
        /// Why it died.
        reason: KillReason,
        /// Id of the first distinguishing test case.
        by_case: usize,
    },
    /// Alive after the suite but distinguished by a probe suite: a genuine
    /// test-suite escape (counts against the score).
    Survived,
    /// Not even probing distinguishes it: presumed equivalent (excluded
    /// from the score denominator, like the paper's equivalents).
    PresumedEquivalent,
    /// The harness stopped the mutant (deadline, budget, repeated crash):
    /// the execution tells us about the environment, not the suite's
    /// adequacy, so — like equivalents — quarantined mutants are excluded
    /// from the score denominator and reported separately.
    Quarantined {
        /// Why it was quarantined.
        reason: QuarantineReason,
    },
}

impl MutantStatus {
    /// True when the suite killed the mutant.
    pub fn is_killed(&self) -> bool {
        matches!(self, MutantStatus::Killed { .. })
    }

    /// True for presumed-equivalent mutants.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, MutantStatus::PresumedEquivalent)
    }

    /// True for quarantined mutants.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, MutantStatus::Quarantined { .. })
    }
}

/// One analyzed mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutantResult {
    /// The mutant.
    pub mutant: Mutant,
    /// What happened to it.
    pub status: MutantStatus,
}

/// Which kind of lease the fleet runs a campaign's mutants on; see
/// [`run_mutation_analysis_parallel`](crate::run_mutation_analysis_parallel)
/// and the [`Orchestrator`](crate::Orchestrator).
#[derive(Debug, Clone)]
pub enum IsolationMode {
    /// Thread leases in this process (the default). Cheap, and
    /// `catch_unwind` contains everything that unwinds — but a mutant
    /// that aborts, overflows the stack, or spins without reaching a
    /// cooperative checkpoint takes the whole campaign process down.
    InThread,
    /// Process leases: each lease is a child process (a self-exec of the
    /// current binary; see [`ProcessIsolation::worker_args`]) streaming
    /// verdicts back over a checksummed frame protocol. A mutant can do
    /// *anything* — abort, segfault, spin forever — and lose only
    /// itself: the fleet classifies the shard's exit, retries the
    /// in-flight mutant once on a fresh lease, and quarantines it if it
    /// kills its host again.
    Process(ProcessIsolation),
}

impl IsolationMode {
    /// True for [`IsolationMode::Process`].
    pub fn is_process(&self) -> bool {
        matches!(self, IsolationMode::Process(_))
    }
}

/// Settings of process leases.
#[derive(Debug, Clone)]
pub struct ProcessIsolation {
    /// Arguments appended to a self-exec of [`std::env::current_exe`] to
    /// reach the hidden shard-worker entry point (e.g.
    /// `["shard-worker", "campaign"]` for `mutation_demo`, or a
    /// `--exact`-filtered test name for a test binary). The entry point
    /// must rebuild the identical campaign and call
    /// [`crate::run_shard_worker`].
    pub worker_args: Vec<String>,
    /// Extra environment variables for shard processes, on top of the
    /// inherited environment and the protocol's own `CONCAT_SHARD_*`
    /// variables — how a multi-campaign binary knows which campaign to
    /// rebuild.
    pub worker_env: Vec<(String, String)>,
    /// Steady-state heartbeat deadline: a shard that emits no frame for
    /// this long is presumed stuck in a non-cooperative loop and gets the
    /// SIGTERM→SIGKILL ladder. Must exceed the longest single mutant
    /// execution (every `shard-begin`/verdict frame is a heartbeat).
    pub heartbeat_timeout: Duration,
    /// First-frame deadline, covering process spawn plus the shard's own
    /// golden run. Generous by default.
    pub startup_grace: Duration,
    /// How long the SIGTERM rung of the escalation ladder waits before
    /// SIGKILL.
    pub term_grace: Duration,
    /// Backoff envelope for shard respawns; the actual delay per respawn
    /// is full-jitter ([`RetryPolicy::jittered_delay`]) under this
    /// envelope, drawn from a SplitMix64 stream seeded with
    /// [`ProcessIsolation::backoff_seed`].
    pub respawn_backoff: RetryPolicy,
    /// Seed of the respawn-jitter stream — campaigns stay deterministic.
    pub backoff_seed: u64,
}

impl ProcessIsolation {
    /// Process isolation reached through `worker_args`, with default
    /// deadlines (10 s heartbeat, 30 s startup, 500 ms SIGTERM grace) and
    /// a 10 ms–200 ms jittered respawn envelope.
    pub fn new<I, S>(worker_args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ProcessIsolation {
            worker_args: worker_args.into_iter().map(Into::into).collect(),
            worker_env: Vec::new(),
            heartbeat_timeout: Duration::from_secs(10),
            startup_grace: Duration::from_secs(30),
            term_grace: Duration::from_millis(500),
            respawn_backoff: RetryPolicy {
                max_attempts: u32::MAX,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(200),
            },
            backoff_seed: 0x5AD_CAFE,
        }
    }

    /// Adds one environment variable for shard processes.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.worker_env.push((key.into(), value.into()));
        self
    }
}

/// Configuration of a mutation run.
#[derive(Clone)]
pub struct MutationConfig {
    /// Suites used to re-attack survivors for equivalence probing
    /// (generated by the caller, typically with different seeds and a
    /// higher cycle bound). Empty = every survivor stays `Survived`.
    pub probe_suites: Vec<TestSuite>,
    /// Run with built-in test capabilities enabled (the paper's test
    /// mode). Setting this to `false` is the assertions-off ablation: the
    /// partial oracle disappears and only crashes and golden-output
    /// differences can kill.
    pub bit_enabled: bool,
    /// Telemetry handle for the run: a `mutation` span over the whole
    /// analysis, a `golden` span over the golden runs, a `mutant` span
    /// per mutant, `mutant.killed.*` / `mutant.survived` /
    /// `mutation.quarantined` counters and a `mutant.equivalent` gauge.
    /// Also handed to the inner [`TestRunner`] (suite/case spans).
    /// Disabled — and free — by default.
    pub telemetry: Telemetry,
    /// Per-case execution budget applied to every run (golden, mutant,
    /// probe). A deadline here is what turns an infinite-loop mutant into
    /// [`MutantStatus::Quarantined`] instead of a hung analysis.
    /// Unlimited by default — the paper's semantics.
    pub budget: Budget,
    /// Quarantine a mutant whose run crashes in at least this many test
    /// cases (crashes the *golden* run also has are not counted). `None`
    /// (default) keeps the paper's semantics: every crash is a kill.
    pub crash_quarantine_threshold: Option<usize>,
    /// Worker count for
    /// [`run_mutation_analysis_parallel`](crate::run_mutation_analysis_parallel):
    /// the number of fleet slots, each lease owning its own factory,
    /// switch, runner, watchdog and cancel token. Defaults to the
    /// machine's available parallelism ([`recommended_workers`]); clamped
    /// to `1..=mutants.len()` at run time. The sequential entry point
    /// ignores it (it runs the inline slot alone), and verdicts are
    /// byte-identical for every value.
    pub workers: usize,
    /// Path of the durable per-campaign verdict journal. When set, every
    /// verdict is appended (checksummed, fsynced) as its mutant finishes,
    /// and a rerun over the same campaign replays the journal's verified
    /// prefix instead of re-executing finished mutants — the resumed run
    /// is byte-identical to an uninterrupted one. The journal also
    /// records one `feature` line per mutated method (its sub-fingerprint
    /// and mutant ids; see [`CampaignJournal`]), so a rerun of
    /// a *changed* campaign salvages the verdicts of every method whose
    /// sub-fingerprint is unchanged (remapped onto the shifted ids,
    /// counted once as `mutation.incremental_rebuild`) and re-executes
    /// only the changed methods' mutants. `None` (default) keeps the
    /// analysis purely in-memory. Journal I/O failures degrade (the
    /// campaign continues without durability, counting `harden.degraded`)
    /// rather than aborting the run.
    pub journal_path: Option<PathBuf>,
    /// Coverage-matrix selection (the fast path): per mutant, execute
    /// only the cases whose transactions statically invoke the mutated
    /// method — every other case cannot reach an armed site (see
    /// DESIGN.md §12 for the coverage contract) and is skipped, counted
    /// under the `selection.skipped` telemetry counter. Verdicts are
    /// identical with the flag on or off (and it is deliberately absent
    /// from the campaign fingerprint, so journals stay interchangeable);
    /// `true` by default.
    pub coverage_selection: bool,
    /// The lease kind the fleet runs this campaign on: threads (default)
    /// or supervised child processes. Verdicts are byte-identical across
    /// modes and shard counts, so — like `workers` — the mode is
    /// deliberately absent from the campaign fingerprint and journals
    /// interchange freely. The sequential entry point ignores it.
    pub isolation: IsolationMode,
    /// Fingerprint of the parent campaign, for derived journals: the
    /// amplifier stamps each round journal (`<journal>.r<round>`) with
    /// the parent campaign's fingerprint so a stale round journal left at
    /// the same path by a *different* campaign can never replay into this
    /// one. Folded into [`crate::campaign_fingerprint`] when set. `None`
    /// (default) for top-level campaigns.
    pub lineage: Option<u32>,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            probe_suites: Vec::new(),
            bit_enabled: true,
            telemetry: Telemetry::disabled(),
            budget: Budget::unlimited(),
            crash_quarantine_threshold: None,
            workers: recommended_workers(),
            journal_path: None,
            coverage_selection: true,
            isolation: IsolationMode::InThread,
            lineage: None,
        }
    }
}

impl fmt::Debug for MutationConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutationConfig")
            .field("probe_suites", &self.probe_suites.len())
            .field("telemetry_enabled", &self.telemetry.is_enabled())
            .field("budget", &self.budget)
            .field(
                "crash_quarantine_threshold",
                &self.crash_quarantine_threshold,
            )
            .field("workers", &self.workers)
            .field("journal_path", &self.journal_path)
            .field("coverage_selection", &self.coverage_selection)
            .field("isolation", &self.isolation)
            .field("lineage", &self.lineage)
            .finish()
    }
}

/// The complete outcome of a mutation analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRun {
    /// Per-mutant classifications, in enumeration order.
    pub results: Vec<MutantResult>,
    /// The golden suite result the mutants were compared against.
    pub golden: SuiteResult,
}

impl MutationRun {
    /// Total mutants analyzed.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Mutants killed by the suite.
    pub fn killed(&self) -> usize {
        self.results.iter().filter(|r| r.status.is_killed()).count()
    }

    /// Presumed-equivalent mutants.
    pub fn equivalent(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status.is_equivalent())
            .count()
    }

    /// Genuine survivors (escapes).
    pub fn survived(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status == MutantStatus::Survived)
            .count()
    }

    /// Quarantined mutants (deadline/budget/repeated-crash stops).
    pub fn quarantined(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status.is_quarantined())
            .count()
    }

    /// Kills attributable to assertion violations (the paper reports 59 of
    /// 652 for Table 2).
    pub fn killed_by_assertion(&self) -> usize {
        self.results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Killed {
                        reason: KillReason::Assertion,
                        ..
                    }
                )
            })
            .count()
    }

    /// The mutation score `killed / (total - equivalent - quarantined)`,
    /// in `[0, 1]`. Quarantined mutants yielded no verdict about the
    /// suite, so — like equivalents — they leave the denominator.
    /// Returns 1.0 when the denominator is zero.
    pub fn score(&self) -> f64 {
        let denom = self.total() - self.equivalent() - self.quarantined();
        if denom == 0 {
            1.0
        } else {
            self.killed() as f64 / denom as f64
        }
    }
}

/// The golden (original-program) results: computed once per analysis and
/// shared read-only by every executor.
pub(crate) struct GoldenBaseline {
    pub(crate) golden: SuiteResult,
    golden_index: StatusIndex,
    probes: Vec<SuiteResult>,
    probe_indexes: Vec<StatusIndex>,
    /// Case × feature coverage of the golden run, persisted alongside
    /// the campaign journal for post-mortem inspection.
    coverage: CoverageMatrix,
    /// Per-feature filtered execution scopes (one per distinct mutated
    /// method), built when [`MutationConfig::coverage_selection`] is on.
    views: HashMap<String, FeatureView>,
}

/// The filtered execution scope for mutants of one feature (interface
/// method): the sub-suite of cases whose transactions statically invoke
/// the method, with the matching slice of the golden results. Cases
/// outside the view can never reach an armed site of the feature (the
/// coverage contract), so running only the view yields the exact verdict
/// of a full run while skipping `skipped` case executions per mutant.
struct FeatureView {
    suite: TestSuite,
    golden: SuiteResult,
    golden_index: StatusIndex,
    probes: Vec<TestSuite>,
    probe_goldens: Vec<SuiteResult>,
    probe_indexes: Vec<StatusIndex>,
    /// Main-suite cases this view skips per mutant execution.
    skipped: u64,
    /// Cases skipped per probe suite, by probe index.
    probe_skipped: Vec<u64>,
}

/// Filters a golden [`SuiteResult`] down to the cases in `ids`. Valid
/// because the runner constructs a fresh component per case: a case's
/// result does not depend on which other cases ran around it.
fn filter_golden(golden: &SuiteResult, ids: &BTreeSet<usize>) -> SuiteResult {
    SuiteResult {
        class_name: golden.class_name.clone(),
        cases: golden
            .cases
            .iter()
            .filter(|c| ids.contains(&c.case_id))
            .cloned()
            .collect(),
        notes: golden.notes.clone(),
    }
}

/// Builds the per-feature views for every distinct mutated method.
fn build_feature_views(
    suite: &TestSuite,
    golden: &SuiteResult,
    probes_in: &[TestSuite],
    probe_goldens: &[SuiteResult],
    coverage: &CoverageMatrix,
    probe_coverage: &[CoverageMatrix],
    mutants: &[Mutant],
) -> HashMap<String, FeatureView> {
    let features: BTreeSet<&str> = mutants.iter().map(|m| m.method()).collect();
    let mut views = HashMap::new();
    for feature in features {
        let ids: BTreeSet<usize> = suite
            .iter()
            .filter(|c| coverage.covers(c.id, feature))
            .map(|c| c.id)
            .collect();
        let id_list: Vec<usize> = ids.iter().copied().collect();
        let view_golden = filter_golden(golden, &ids);
        let mut view = FeatureView {
            suite: suite.filtered(&id_list),
            golden_index: StatusIndex::of(&view_golden),
            golden: view_golden,
            probes: Vec::with_capacity(probes_in.len()),
            probe_goldens: Vec::with_capacity(probes_in.len()),
            probe_indexes: Vec::with_capacity(probes_in.len()),
            skipped: (suite.len() - ids.len()) as u64,
            probe_skipped: Vec::with_capacity(probes_in.len()),
        };
        for ((probe, probe_golden), matrix) in probes_in
            .iter()
            .zip(probe_goldens.iter())
            .zip(probe_coverage.iter())
        {
            let probe_ids: BTreeSet<usize> = probe
                .iter()
                .filter(|c| matrix.covers(c.id, feature))
                .map(|c| c.id)
                .collect();
            let probe_id_list: Vec<usize> = probe_ids.iter().copied().collect();
            let filtered = filter_golden(probe_golden, &probe_ids);
            view.probe_skipped
                .push((probe.len() - probe_ids.len()) as u64);
            view.probes.push(probe.filtered(&probe_id_list));
            view.probe_indexes.push(StatusIndex::of(&filtered));
            view.probe_goldens.push(filtered);
        }
        views.insert(feature.to_owned(), view);
    }
    views
}

/// Case statuses of one golden run indexed by `case_id`, built once per
/// baseline so per-mutant classification stays O(cases) — a linear scan
/// per observed case would be O(cases²) per mutant.
struct StatusIndex {
    by_case: HashMap<usize, CaseStatus>,
}

impl StatusIndex {
    fn of(suite: &SuiteResult) -> Self {
        StatusIndex {
            by_case: suite
                .cases
                .iter()
                .map(|c| (c.case_id, c.status.clone()))
                .collect(),
        }
    }

    fn status(&self, id: usize) -> Option<&CaseStatus> {
        self.by_case.get(&id)
    }
}

/// The read-only inputs every executor classifies from: the suite, the
/// campaign config and the golden baseline. Free to build, so thread
/// leases, shard workers and the inline slot each make their own.
pub(crate) struct Engine<'a> {
    suite: &'a TestSuite,
    config: &'a MutationConfig,
    baseline: &'a GoldenBaseline,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        suite: &'a TestSuite,
        config: &'a MutationConfig,
        baseline: &'a GoldenBaseline,
    ) -> Self {
        Engine {
            suite,
            config,
            baseline,
        }
    }

    /// The feature view for `mutant`, when coverage selection built one
    /// for its method.
    fn view_of(&self, mutant: &Mutant) -> Option<&'a FeatureView> {
        self.baseline.views.get(mutant.method())
    }

    /// Classifies one mutant with crash containment: the per-mutant step
    /// thread leases, shard workers and the inline slot share. The runner
    /// catches case panics itself; this `catch_unwind` contains the ones
    /// that escape it (an engine-adjacent crash such as a panicking
    /// reporter). Such a crash costs exactly this mutant: it is
    /// quarantined as [`QuarantineReason::WorkerCrash`] and counted under
    /// `mutation.worker_crash`. The returned flag is `true` after a
    /// crash, so a thread lease can retire its possibly corrupted harness.
    pub(crate) fn execute(
        &self,
        factory: &dyn ComponentFactory,
        switch: &MutationSwitch,
        runner: &TestRunner,
        telemetry: &Telemetry,
        mutant: &Mutant,
    ) -> (MutantStatus, bool) {
        match catch_unwind(AssertUnwindSafe(|| {
            self.classify(factory, switch, runner, telemetry, mutant)
        })) {
            Ok(status) => (status, false),
            Err(_panic) => {
                telemetry.incr("mutation.worker_crash");
                let status = MutantStatus::Quarantined {
                    reason: QuarantineReason::WorkerCrash,
                };
                (status, true)
            }
        }
    }

    /// Runs one mutant through the suite (and, if it stays alive, the
    /// probe suites) and classifies it.
    fn classify(
        &self,
        factory: &dyn ComponentFactory,
        switch: &MutationSwitch,
        runner: &TestRunner,
        telemetry: &Telemetry,
        mutant: &Mutant,
    ) -> MutantStatus {
        let mutant_span = telemetry.span_with("mutant", || mutant.to_string());
        switch.arm(mutant.plan.clone());
        // Coverage-matrix selection: mutants with a feature view execute
        // only the cases that can reach the mutated method; the rest are
        // statically identical to golden and skipped.
        let scoped = self.view_of(mutant);
        let (scope_suite, scope_golden, scope_index) = match scoped {
            Some(view) => (&view.suite, &view.golden, &view.golden_index),
            None => (
                self.suite,
                &self.baseline.golden,
                &self.baseline.golden_index,
            ),
        };
        if let Some(view) = scoped {
            if view.skipped > 0 {
                telemetry.incr_by("selection.skipped", view.skipped);
            }
        }
        let observed =
            runner.run_suite_under(factory, scope_suite, &mut TestLog::new(), mutant_span.id());
        // Harness stops describe the execution environment, not the
        // component's behaviour — quarantine before the kill classifier
        // so a timed-out mutant is never miscounted as a crash kill.
        let status = match quarantine_reason(
            scope_index,
            &observed,
            self.config.crash_quarantine_threshold,
        ) {
            Some(reason) => MutantStatus::Quarantined { reason },
            None => match first_difference(scope_golden, &observed) {
                Some((case_id, reason)) => MutantStatus::Killed {
                    reason,
                    by_case: case_id,
                },
                None => self.probe(factory, runner, telemetry, mutant, mutant_span.id()),
            },
        };
        mutant_span.finish();
        status
    }

    /// Re-attacks a mutant that survived the suite with the probe suites.
    /// The same quarantine-before-kill discipline applies here: a mutant
    /// that hangs or blows its budget only under probing yielded no
    /// behavioural verdict and lands in quarantine — previously its
    /// deadline-truncated transcript counted as a "difference" and the
    /// mutant was misfiled as `Survived`.
    fn probe(
        &self,
        factory: &dyn ComponentFactory,
        runner: &TestRunner,
        telemetry: &Telemetry,
        mutant: &Mutant,
        parent: SpanId,
    ) -> MutantStatus {
        // The probe phase gets its own span under the mutant, so the
        // attribution table can split first-suite time from re-attack
        // time.
        let probe_span = telemetry.at(parent).span("probe", mutant.method());
        let (probes, probe_goldens, probe_indexes, probe_skipped) = match self.view_of(mutant) {
            Some(view) => (
                view.probes.as_slice(),
                view.probe_goldens.as_slice(),
                view.probe_indexes.as_slice(),
                Some(view.probe_skipped.as_slice()),
            ),
            None => (
                self.config.probe_suites.as_slice(),
                self.baseline.probes.as_slice(),
                self.baseline.probe_indexes.as_slice(),
                None,
            ),
        };
        for (probe_pos, ((probe, probe_golden), probe_index)) in probes
            .iter()
            .zip(probe_goldens.iter())
            .zip(probe_indexes.iter())
            .enumerate()
        {
            if let Some(skipped) = probe_skipped.and_then(|s| s.get(probe_pos)) {
                if *skipped > 0 {
                    telemetry.incr_by("selection.skipped", *skipped);
                }
            }
            let probed =
                runner.run_suite_under(factory, probe, &mut TestLog::new(), probe_span.id());
            if let Some(reason) =
                quarantine_reason(probe_index, &probed, self.config.crash_quarantine_threshold)
            {
                return MutantStatus::Quarantined { reason };
            }
            if first_difference(probe_golden, &probed).is_some() {
                return MutantStatus::Survived;
            }
        }
        MutantStatus::PresumedEquivalent
    }
}

/// Builds an executor's runner: BIT mode, telemetry, budget — and, when
/// the budget carries a deadline, that runner's own watchdog thread.
pub(crate) fn build_runner(config: &MutationConfig, telemetry: &Telemetry) -> TestRunner {
    let runner = if config.bit_enabled {
        TestRunner::new()
    } else {
        TestRunner::without_bit()
    };
    runner
        .with_telemetry(telemetry.clone())
        .with_budget(config.budget)
}

/// Runs the golden suite and golden probe suites (switch disarmed — the
/// original program), records their case × feature coverage, and builds
/// the per-feature views when coverage selection is enabled.
pub(crate) fn run_golden(
    runner: &TestRunner,
    factory: &dyn ComponentFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    telemetry: &Telemetry,
) -> GoldenBaseline {
    let golden_span = telemetry.span("golden", factory.class_name());
    let (golden, coverage) =
        runner.run_suite_with_coverage_under(factory, suite, &mut TestLog::new(), golden_span.id());
    let mut probes = Vec::with_capacity(config.probe_suites.len());
    let mut probe_coverage = Vec::with_capacity(config.probe_suites.len());
    for probe in &config.probe_suites {
        let (result, matrix) = runner.run_suite_with_coverage_under(
            factory,
            probe,
            &mut TestLog::new(),
            golden_span.id(),
        );
        probes.push(result);
        probe_coverage.push(matrix);
    }
    golden_span.finish();
    let views = if config.coverage_selection {
        build_feature_views(
            suite,
            &golden,
            &config.probe_suites,
            &probes,
            &coverage,
            &probe_coverage,
            mutants,
        )
    } else {
        HashMap::new()
    };
    GoldenBaseline {
        golden_index: StatusIndex::of(&golden),
        golden,
        probe_indexes: probes.iter().map(StatusIndex::of).collect(),
        probes,
        coverage,
        views,
    }
}

/// Persists the golden run's coverage matrix next to the campaign
/// journal (`<journal>.coverage`), atomically, stamped with the campaign
/// fingerprint (`campaign <fp>` first line) so a stale sidecar left by a
/// previous campaign at the same path is detectable — see
/// [`load_campaign_coverage`]. Like every other durability consumer, a
/// write failure degrades instead of aborting the campaign — but loudly:
/// `harden.degraded` plus a dedicated `coverage.write_failed` counter
/// (surfaced in the harness-health table), and a `coverage.write_failed`
/// span naming the path and error in the flight recorder, so a silently
/// missing `.coverage` file can't masquerade as a healthy run.
pub(crate) fn persist_coverage(
    config: &MutationConfig,
    baseline: &GoldenBaseline,
    fingerprint: Option<u32>,
    telemetry: &Telemetry,
) {
    let Some(path) = &config.journal_path else {
        return;
    };
    let coverage_path = PathBuf::from(format!("{}.coverage", path.display()));
    let mut text = match fingerprint {
        Some(fp) => format!("campaign {fp:08x}\n"),
        None => String::new(),
    };
    text.push_str(&baseline.coverage.to_text());
    if let Err(error) = write_atomic(&coverage_path, text.as_bytes()) {
        telemetry.incr("harden.degraded");
        telemetry.incr("coverage.write_failed");
        telemetry
            .span_with("coverage.write_failed", || {
                format!("{}: {error}", coverage_path.display())
            })
            .finish();
    }
}

/// Loads a coverage sidecar persisted by a journaled campaign, validating
/// its provenance: the file's `campaign <fp>` stamp must match
/// `fingerprint`. A stamp mismatch — a stale sidecar left by a different
/// campaign at the same path — is refused rather than returned, and an
/// unstamped file (written before provenance stamping) is likewise
/// refused, so callers never mistake another campaign's matrix for this
/// one's.
///
/// # Errors
///
/// `Err` with a human-readable reason on read failure, a missing or
/// mismatched stamp, or a malformed matrix body.
pub fn load_campaign_coverage(
    path: impl AsRef<std::path::Path>,
    fingerprint: u32,
) -> Result<CoverageMatrix, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
    let Some((first, body)) = text.split_once('\n') else {
        return Err(format!("{}: empty coverage sidecar", path.display()));
    };
    let Some(stamp) = first.strip_prefix("campaign ") else {
        return Err(format!(
            "{}: missing `campaign <fingerprint>` stamp",
            path.display()
        ));
    };
    let stamped = u32::from_str_radix(stamp, 16)
        .map_err(|_| format!("{}: malformed fingerprint stamp {stamp:?}", path.display()))?;
    if stamped != fingerprint {
        return Err(format!(
            "{}: stale coverage sidecar (stamped {stamped:08x}, campaign is {fingerprint:08x})",
            path.display()
        ));
    }
    CoverageMatrix::from_text(body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Emits the per-status counters for one classified mutant.
fn record_status(telemetry: &Telemetry, status: &MutantStatus) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.incr(match status {
        MutantStatus::Killed {
            reason: KillReason::Crash,
            ..
        } => "mutant.killed.crash",
        MutantStatus::Killed {
            reason: KillReason::Assertion,
            ..
        } => "mutant.killed.assertion",
        MutantStatus::Killed {
            reason: KillReason::OutputDiff,
            ..
        } => "mutant.killed.output_diff",
        MutantStatus::Survived => "mutant.survived",
        MutantStatus::PresumedEquivalent => "mutant.equivalent.presumed",
        MutantStatus::Quarantined {
            reason: QuarantineReason::Timeout,
        } => "mutant.quarantined.timeout",
        MutantStatus::Quarantined {
            reason: QuarantineReason::Budget,
        } => "mutant.quarantined.budget",
        MutantStatus::Quarantined {
            reason: QuarantineReason::RepeatedCrash,
        } => "mutant.quarantined.repeated_crash",
        MutantStatus::Quarantined {
            reason: QuarantineReason::WorkerCrash,
        } => "mutant.quarantined.worker_crash",
        MutantStatus::Quarantined {
            reason: QuarantineReason::ShardAbort,
        } => "mutant.quarantined.shard_abort",
        MutantStatus::Quarantined {
            reason: QuarantineReason::ShardSignal,
        } => "mutant.quarantined.shard_signal",
        MutantStatus::Quarantined {
            reason: QuarantineReason::ShardUnresponsive,
        } => "mutant.quarantined.shard_unresponsive",
    });
    if status.is_quarantined() {
        telemetry.incr("mutation.quarantined");
    }
}

/// The verdict ledger of one campaign: the one place a verdict is
/// merged, whichever executor produced it. It holds the merge slots in
/// enumeration order (the merge that makes every worker count, isolation
/// mode and interleaving byte-identical), the write-ahead journal, the
/// per-status counters, per-slot tallies for the progress heartbeat, and
/// the death ladder's blame record.
///
/// Journal I/O failures *degrade*: the campaign continues without
/// durability and `harden.degraded` is counted, because losing the
/// journal must never lose the run (the in-memory slots stay
/// authoritative).
pub(crate) struct Ledger {
    slots: Vec<Option<MutantStatus>>,
    done: usize,
    /// Campaign-scoped telemetry: counters, `journal` spans, heartbeats.
    telemetry: Telemetry,
    /// True once [`Ledger::open_journal`] ran (whether or not a journal
    /// path was configured).
    opened: bool,
    journal: Option<CampaignJournal>,
    /// The campaign fingerprint, computed whenever a journal path is
    /// configured (even if opening it later degraded): the provenance
    /// stamp for the coverage sidecar and derived round journals.
    fingerprint: Option<u32>,
    /// Verdicts merged per fleet slot, for the heartbeat.
    done_by_slot: Vec<u64>,
    /// Process-lease deaths charged per mutant, with the reason of the
    /// latest one.
    blame: HashMap<usize, (u32, QuarantineReason)>,
}

impl Ledger {
    /// An empty ledger for `total` mutants merged from `slots` fleet
    /// slots (0 for the inline slot alone), with no journal open yet.
    pub(crate) fn new(total: usize, slots: usize, telemetry: Telemetry) -> Ledger {
        Ledger {
            slots: vec![None; total],
            done: 0,
            telemetry,
            opened: false,
            journal: None,
            fingerprint: None,
            done_by_slot: vec![0; slots],
            blame: HashMap::new(),
        }
    }

    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Opens the journal at `config.journal_path` (with torn-tail
    /// recovery and method-level salvage; see [`CampaignJournal`]), when
    /// one is configured, and replays its verified verdicts into the
    /// slots. Replayed verdicts re-emit their
    /// classification counters, plus one `mutation.replayed` each, so a
    /// resumed run's counter totals match an uninterrupted run's.
    pub(crate) fn open_journal(
        &mut self,
        class_name: &str,
        suite: &TestSuite,
        mutants: &[Mutant],
        config: &MutationConfig,
    ) {
        self.opened = true;
        let Some(path) = &config.journal_path else {
            return;
        };
        let open_span = self.telemetry.span("journal", "open");
        let text = CampaignText::new(class_name, suite, mutants, config);
        let fingerprint = text.fingerprint();
        self.fingerprint = Some(fingerprint);
        let opened = CampaignJournal::open(path, fingerprint, mutants.len(), || text.features());
        open_span.finish();
        let Ok((journal, replayed, salvaged)) = opened else {
            self.telemetry.incr("harden.degraded");
            return;
        };
        if salvaged {
            self.telemetry.incr("mutation.incremental_rebuild");
        }
        self.journal = Some(journal);
        for (index, status) in replayed {
            if self.is_done(index) || index >= self.slots.len() {
                continue;
            }
            record_status(&self.telemetry, &status);
            self.telemetry.incr("mutation.replayed");
            self.slots[index] = Some(status);
            self.done += 1;
        }
    }

    /// Closes the journal. Every append was fsynced, so nothing is lost.
    pub(crate) fn close_journal(&mut self) {
        self.journal = None;
    }

    /// True once [`Ledger::open_journal`] ran.
    pub(crate) fn is_open(&self) -> bool {
        self.opened
    }

    /// The campaign fingerprint (`Some` whenever a journal path was
    /// configured).
    pub(crate) fn fingerprint(&self) -> Option<u32> {
        self.fingerprint
    }

    pub(crate) fn total(&self) -> usize {
        self.slots.len()
    }

    /// Mutants with a verdict (executed, replayed or convicted).
    pub(crate) fn done(&self) -> usize {
        self.done
    }

    pub(crate) fn unfinished(&self) -> usize {
        self.slots.len() - self.done
    }

    pub(crate) fn is_done(&self, index: usize) -> bool {
        self.slots.get(index).is_some_and(Option::is_some)
    }

    /// Merges one verdict: journaled first (write-ahead), then counted
    /// and slotted. `slot` is the fleet slot that produced it (`None` for
    /// the inline slot). Returns `false`, merging nothing, for an index
    /// out of range or a mutant that already has its verdict.
    pub(crate) fn merge(
        &mut self,
        index: usize,
        status: MutantStatus,
        slot: Option<usize>,
    ) -> bool {
        if index >= self.slots.len() || self.is_done(index) {
            return false;
        }
        if let Some(journal) = &mut self.journal {
            let _span = self.telemetry.span("journal", "append");
            if journal.record(index, &status).is_err() {
                self.telemetry.incr("harden.degraded");
                self.journal = None;
            }
        }
        record_status(&self.telemetry, &status);
        self.slots[index] = Some(status);
        self.done += 1;
        if let Some(count) = slot.and_then(|slot| self.done_by_slot.get_mut(slot)) {
            *count += 1;
        }
        true
    }

    /// The death ladder: charges a process-lease death to its in-flight
    /// mutant and records how the shard died. A first death only
    /// records the blame, because an innocent mutant killed from outside
    /// must re-execute for byte-identical reports; a second death
    /// convicts it, quarantined with that reason. Returns `false` when
    /// the mutant already had its verdict, so the death charged nothing.
    pub(crate) fn blame(&mut self, index: usize, reason: QuarantineReason, slot: usize) -> bool {
        if index >= self.slots.len() || self.is_done(index) {
            return false;
        }
        let deaths = self.blame.entry(index).or_insert((0, reason));
        *deaths = (deaths.0 + 1, reason);
        if deaths.0 >= 2 {
            self.merge(index, MutantStatus::Quarantined { reason }, Some(slot));
        }
        true
    }

    /// Quarantines every unfinished mutant ever blamed for a shard death,
    /// with the reason recorded at blame time: a known process-killer is
    /// never run in-process.
    pub(crate) fn convict_blamed(&mut self) {
        let mut blamed: Vec<(usize, QuarantineReason)> = self
            .blame
            .iter()
            .map(|(&index, &(_, reason))| (index, reason))
            .collect();
        blamed.sort_by_key(|&(index, _)| index);
        for (index, reason) in blamed {
            self.merge(index, MutantStatus::Quarantined { reason }, None);
        }
    }

    /// Emits the `campaign.progress` heartbeat: mutants done / queued /
    /// quarantined, plus each fleet slot's verdict count. The readings
    /// closure is lazy, so a disabled handle pays nothing.
    pub(crate) fn heartbeat(&self) {
        self.telemetry.snapshot("campaign.progress", || {
            let quarantined = self
                .slots
                .iter()
                .filter(|s| s.as_ref().is_some_and(MutantStatus::is_quarantined))
                .count() as i64;
            let mut readings = vec![
                ("done".to_owned(), self.done as i64),
                ("queued".to_owned(), self.unfinished() as i64),
                ("quarantined".to_owned(), quarantined),
            ];
            for (slot, count) in self.done_by_slot.iter().enumerate() {
                readings.push((format!("w{slot}.done"), *count as i64));
            }
            readings
        });
    }

    /// The verdicts in enumeration order. A mutant without one is
    /// quarantined as [`QuarantineReason::WorkerCrash`] (fail-safe): that
    /// is how a degraded fleet campaign's partial run shows its
    /// unfinished mutants, and a completed campaign has none.
    pub(crate) fn results(&self, mutants: &[Mutant]) -> Vec<MutantResult> {
        mutants
            .iter()
            .zip(&self.slots)
            .map(|(mutant, slot)| MutantResult {
                mutant: mutant.clone(),
                status: slot.clone().unwrap_or(MutantStatus::Quarantined {
                    reason: QuarantineReason::WorkerCrash,
                }),
            })
            .collect()
    }

    /// The completed run, with the `mutant.equivalent` gauge recorded.
    pub(crate) fn finish(&self, mutants: &[Mutant], golden: SuiteResult) -> MutationRun {
        let results = self.results(mutants);
        let equivalents = results.iter().filter(|r| r.status.is_equivalent()).count();
        self.telemetry
            .gauge("mutant.equivalent", equivalents as i64);
        MutationRun { results, golden }
    }
}

/// Inline-slot heartbeat cadence: one `campaign.progress` snapshot per
/// this many verdicts (plus a final one).
const HEARTBEAT_EVERY_VERDICTS: usize = 32;

/// The inline slot: classifies every unfinished mutant in enumeration
/// order on the calling thread, with one harness, merging each verdict
/// through `ledger`. It is the whole sequential path, and it finishes a
/// solo campaign whose fleet degraded. A contained crash costs only its
/// own mutant and the harness keeps going: every crash consumes (and
/// quarantines) exactly one mutant, so the loop always ends.
pub(crate) fn run_inline(
    engine: &Engine<'_>,
    factory: &dyn ComponentFactory,
    switch: &MutationSwitch,
    runner: &TestRunner,
    mutants: &[Mutant],
    ledger: &mut Ledger,
) {
    let telemetry = ledger.telemetry().clone();
    let mut since_beat = 0usize;
    for (index, mutant) in mutants.iter().enumerate() {
        if ledger.is_done(index) {
            continue;
        }
        let (status, _crashed) = engine.execute(factory, switch, runner, &telemetry, mutant);
        ledger.merge(index, status, None);
        since_beat += 1;
        if since_beat >= HEARTBEAT_EVERY_VERDICTS {
            since_beat = 0;
            ledger.heartbeat();
        }
    }
    switch.disarm();
    ledger.heartbeat();
}

/// Runs a full mutation analysis, sequentially, on the inline slot.
///
/// `switch` must be the same [`MutationSwitch`] the factory's components
/// read through — arming it is how a mutant becomes "compiled in". This
/// is the inline slot a degraded solo fleet campaign falls back to: same
/// per-mutant step, same ledger, same verdicts as
/// [`run_mutation_analysis_parallel`](crate::run_mutation_analysis_parallel)
/// — it merely borrows the caller's factory/switch pair instead of
/// building per-lease ones.
///
/// # Examples
///
/// See the `concat-components` integration tests and the Table 2/3 benches
/// for end-to-end usage with real subjects.
pub fn run_mutation_analysis(
    factory: &dyn ComponentFactory,
    switch: &MutationSwitch,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> MutationRun {
    let _hook_guard = PanicSilencer::install();
    let run_span = config.telemetry.span("mutation", factory.class_name());
    // Everything inside the campaign emits through the scoped handle, so
    // golden/journal/mutant spans nest under the `mutation` root.
    let telemetry = config.telemetry.at(run_span.id());
    let mut ledger = Ledger::new(mutants.len(), 0, telemetry.clone());
    ledger.open_journal(factory.class_name(), suite, mutants, config);
    let runner = build_runner(config, &telemetry);
    // Instrumented reads double as cancellation points: the watchdog's
    // token must be visible to the switch for a hung mutant to unwind.
    switch.set_cancel_token(runner.cancel_token().clone());
    switch.disarm();
    let baseline = run_golden(&runner, factory, suite, mutants, config, &telemetry);
    persist_coverage(config, &baseline, ledger.fingerprint(), &telemetry);
    let engine = Engine::new(suite, config, &baseline);
    run_inline(&engine, factory, switch, &runner, mutants, &mut ledger);
    switch.clear_cancel_token();
    ledger.finish(mutants, baseline.golden)
}

/// Decides whether an observed run must be quarantined: any harness stop
/// (deadline/budget) the golden run does not share, or — when a threshold
/// is configured — enough mutant-only crashes to look
/// environment-threatening. `golden` is the pre-built [`StatusIndex`] of
/// the matching golden run.
fn quarantine_reason(
    golden: &StatusIndex,
    observed: &SuiteResult,
    crash_threshold: Option<usize>,
) -> Option<QuarantineReason> {
    for case in &observed.cases {
        match &case.status {
            CaseStatus::DeadlineExceeded { .. }
                if !matches!(
                    golden.status(case.case_id),
                    Some(CaseStatus::DeadlineExceeded { .. })
                ) =>
            {
                return Some(QuarantineReason::Timeout);
            }
            CaseStatus::BudgetExhausted { .. }
                if !matches!(
                    golden.status(case.case_id),
                    Some(CaseStatus::BudgetExhausted { .. })
                ) =>
            {
                return Some(QuarantineReason::Budget);
            }
            _ => {}
        }
    }
    let threshold = crash_threshold?;
    let mutant_only_crashes = observed
        .cases
        .iter()
        .filter(|c| {
            matches!(c.status, CaseStatus::Panicked { .. })
                && !matches!(golden.status(c.case_id), Some(CaseStatus::Panicked { .. }))
        })
        .count();
    (threshold > 0 && mutant_only_crashes >= threshold).then_some(QuarantineReason::RepeatedCrash)
}

/// Finds the first distinguishing case and derives the kill reason per the
/// paper's three criteria.
fn first_difference(golden: &SuiteResult, observed: &SuiteResult) -> Option<(usize, KillReason)> {
    let diff = differing_cases(golden, observed);
    let case_id = *diff.first()?;
    let g = golden.cases.iter().find(|c| c.case_id == case_id)?;
    let o = observed.cases.iter().find(|c| c.case_id == case_id)?;
    let reason = match (&o.status, &g.status) {
        (CaseStatus::Panicked { .. }, _) => KillReason::Crash,
        (CaseStatus::AssertionViolated { .. }, CaseStatus::AssertionViolated { .. }) => {
            // Both runs violate an assertion but transcripts differ: the
            // distinguishing signal is the output, not the assertion.
            KillReason::OutputDiff
        }
        (CaseStatus::AssertionViolated { .. }, _) => KillReason::Assertion,
        _ => KillReason::OutputDiff,
    };
    Some((case_id, reason))
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// The live silencers and the hook the first of them replaced.
static SILENCERS: Mutex<(usize, Option<PanicHook>)> = Mutex::new((0, None));

/// Keeps the process-wide panic hook silent while any campaign runs.
///
/// Mutant executions are *expected* to panic (that is a kill signal);
/// without this, a Table-2 scale run prints thousands of backtraces. The
/// hook is process-global and campaigns overlap on other threads, so
/// silencers are counted: the first one swaps the silent hook in and the
/// last one to drop puts the saved hook back, in whatever order they end.
pub(crate) struct PanicSilencer(());

impl PanicSilencer {
    pub(crate) fn install() -> Self {
        // Every update below leaves the pair consistent, so a poisoned
        // lock holds valid state.
        let mut silencers = SILENCERS.lock().unwrap_or_else(PoisonError::into_inner);
        if silencers.0 == 0 {
            let current = std::panic::take_hook();
            // A hook still saved (its last silencer dropped mid-panic)
            // is the one to restore; the current one is silent.
            silencers.1.get_or_insert(current);
            std::panic::set_hook(Box::new(|_| {}));
        }
        silencers.0 += 1;
        PanicSilencer(())
    }
}

impl Drop for PanicSilencer {
    fn drop(&mut self) {
        let mut silencers = SILENCERS.lock().unwrap_or_else(PoisonError::into_inner);
        silencers.0 -= 1;
        // `set_hook` panics on a panicking thread: there the saved hook
        // stays saved, and the next silencer keeps it.
        if silencers.0 == 0 && !std::thread::panicking() {
            if let Some(previous) = silencers.1.take() {
                std::panic::set_hook(previous);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_mutants;
    use crate::fault::{ClonableFactory, VarEnv};
    use crate::inventory::{ClassInventory, MethodInventory};
    use crate::orchestrator::{run_mutation_analysis_parallel, WORKER_RESTARTS};
    use concat_bit::{BitControl, BuiltInTest, StateReport, TestableComponent};
    use concat_driver::{MethodCall, SuiteStats, TestCase};
    use concat_obs::MemorySink;
    use concat_runtime::{
        args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
    };
    use std::sync::Arc;

    /// Accumulator with one instrumented method: `AddTwice(q)` adds `q`
    /// twice using a local `step` read through two sites.
    struct Acc {
        total: i64,
        limit: i64,
        ctl: BitControl,
        switch: MutationSwitch,
    }

    impl Component for Acc {
        fn class_name(&self) -> &'static str {
            "Acc"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["AddTwice", "Total", "~Acc"]
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            match m {
                "AddTwice" => {
                    let q = args::int(m, a, 0)?;
                    let step = q; // local L = {step}; G = {total, limit}
                    let env = VarEnv::new()
                        .bind("step", step)
                        .bind("total", self.total)
                        .bind("limit", self.limit);
                    let s1 = self.switch.read_int("AddTwice", 0, "step", step, &env);
                    self.total += s1;
                    let s2 = self.switch.read_int("AddTwice", 1, "step", step, &env);
                    // Site 2 feeds an array index to provoke crashes on
                    // wild replacements.
                    let idx = self.switch.read_int("AddTwice", 2, "step", step, &env);
                    let table = [0i64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
                    let bonus = table[usize::try_from(idx).expect("index")];
                    self.total += s2 + bonus - bonus;
                    Ok(Value::Int(self.total))
                }
                "Total" => Ok(Value::Int(self.total)),
                "~Acc" => Ok(Value::Null),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for Acc {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            concat_bit::check(
                &self.ctl,
                concat_runtime::AssertionKind::Invariant,
                "Acc",
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

    struct AccFactory {
        switch: MutationSwitch,
    }

    impl ComponentFactory for AccFactory {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Acc" => Ok(Box::new(Acc {
                    total: 0,
                    limit: 1_000,
                    ctl,
                    switch: self.switch.clone(),
                })),
                other => Err(unknown_method("Acc", other)),
            }
        }
    }

    fn inventory() -> ClassInventory {
        ClassInventory::new("Acc")
            .globals(["total", "limit"])
            .method(
                MethodInventory::new("AddTwice")
                    .locals(["step"])
                    .globals_used(["total", "limit"])
                    .site(0, "step", "first add")
                    .site(1, "step", "second add")
                    .site(2, "step", "table index"),
            )
    }

    fn suite(q: i64) -> TestSuite {
        TestSuite {
            class_name: "Acc".into(),
            seed: 0,
            cases: vec![TestCase {
                id: 0,
                transaction_index: 0,
                node_path: vec![],
                constructor: MethodCall::generated("m1", "Acc", vec![]),
                calls: vec![
                    MethodCall::generated("m2", "AddTwice", vec![Value::Int(q)]),
                    MethodCall::generated("m3", "Total", vec![]),
                    MethodCall::generated("m4", "~Acc", vec![]),
                ],
            }],
            stats: SuiteStats::default(),
        }
    }

    fn analyze(q: i64, probes: Vec<TestSuite>) -> MutationRun {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        run_mutation_analysis(
            &factory,
            &switch,
            &suite(q),
            &mutants,
            &MutationConfig {
                probe_suites: probes,
                ..MutationConfig::default()
            },
        )
    }

    #[test]
    fn most_mutants_die_with_a_distinguishing_input() {
        let run = analyze(5, vec![]);
        assert!(run.total() > 20);
        // With q = 5, replacing step by 0/1/-1/total/limit or negating it
        // changes the returned totals; MAXINT / MININT crash on the table
        // index.
        assert!(run.score() > 0.8, "score was {}", run.score());
        assert!(run.killed() + run.survived() + run.equivalent() == run.total());
    }

    #[test]
    fn crash_kills_detected() {
        let run = analyze(5, vec![]);
        let crash_kills = run
            .results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Killed {
                        reason: KillReason::Crash,
                        ..
                    }
                )
            })
            .count();
        assert!(crash_kills > 0, "MAXINT/MININT table index must crash");
    }

    #[test]
    fn assertion_kills_detected() {
        // limit = 1000; replacing step with `limit` makes total exceed the
        // invariant bound after two adds.
        let run = analyze(5, vec![]);
        assert!(run.killed_by_assertion() > 0);
    }

    #[test]
    fn zero_input_leaves_equivalent_like_survivors() {
        // With q = 0, "replace step by 0" and "replace step by total(=0)"
        // are indistinguishable on this suite.
        let run = analyze(0, vec![]);
        assert!(run.equivalent() > 0);
        assert!(run.score() < 1.0 || run.equivalent() > 0);
    }

    #[test]
    fn probing_separates_survivors_from_equivalents() {
        // Suite with q = 0 leaves many alive; probing with q = 7
        // distinguishes the non-equivalent ones.
        let run_without = analyze(0, vec![]);
        let run_with = analyze(0, vec![suite(7)]);
        assert!(run_with.survived() > 0, "probe must expose genuine escapes");
        assert!(
            run_with.equivalent() < run_without.equivalent(),
            "probing must demote some presumed equivalents"
        );
    }

    #[test]
    fn score_formula() {
        let run = analyze(5, vec![]);
        let expected = run.killed() as f64 / (run.total() - run.equivalent()) as f64;
        assert!((run.score() - expected).abs() < 1e-12);
    }

    #[test]
    fn golden_suite_passes() {
        let run = analyze(5, vec![]);
        assert_eq!(run.golden.failed(), 0);
    }

    #[test]
    fn kill_reason_display() {
        assert_eq!(KillReason::Crash.to_string(), "crash");
        assert_eq!(KillReason::Assertion.to_string(), "assertion violation");
        assert_eq!(KillReason::OutputDiff.to_string(), "output difference");
        assert_eq!(QuarantineReason::Timeout.to_string(), "timeout");
        assert_eq!(QuarantineReason::Budget.to_string(), "budget");
        assert_eq!(
            QuarantineReason::RepeatedCrash.to_string(),
            "repeated crash"
        );
        assert_eq!(QuarantineReason::WorkerCrash.to_string(), "worker crash");
    }

    #[test]
    fn crash_threshold_quarantines_instead_of_killing() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let run = run_mutation_analysis(
            &factory,
            &switch,
            &suite(5),
            &mutants,
            &MutationConfig {
                crash_quarantine_threshold: Some(1),
                ..MutationConfig::default()
            },
        );
        // Every crash-killing mutant (MAXINT/MININT table index) now lands
        // in quarantine instead.
        assert!(run.quarantined() > 0);
        let crash_kills = run
            .results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Killed {
                        reason: KillReason::Crash,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(crash_kills, 0);
        assert!(run
            .results
            .iter()
            .filter(|r| r.status.is_quarantined())
            .all(|r| r.status
                == MutantStatus::Quarantined {
                    reason: QuarantineReason::RepeatedCrash
                }));
        assert_eq!(
            run.killed() + run.survived() + run.equivalent() + run.quarantined(),
            run.total()
        );
        // Quarantined mutants leave the score denominator.
        let expected =
            run.killed() as f64 / (run.total() - run.equivalent() - run.quarantined()) as f64;
        assert!((run.score() - expected).abs() < 1e-12);
    }

    #[test]
    fn default_config_keeps_paper_semantics() {
        let run = analyze(5, vec![]);
        assert_eq!(
            run.quarantined(),
            0,
            "no budget, no threshold: no quarantine"
        );
    }

    #[test]
    fn switch_is_disarmed_after_analysis() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let _ = run_mutation_analysis(
            &factory,
            &switch,
            &suite(3),
            &mutants,
            &MutationConfig::default(),
        );
        assert!(switch.armed().is_none());
    }

    /// The sharding seam for `Acc`: builds a fresh factory bound to the
    /// worker's own switch.
    struct AccShards;

    impl ClonableFactory for AccShards {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
            Box::new(AccFactory {
                switch: switch.clone(),
            })
        }
    }

    #[test]
    fn parallel_verdicts_match_sequential_for_every_worker_count() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let sequential = analyze(5, vec![suite(7)]);
        for workers in [1, 2, 8] {
            let run = run_mutation_analysis_parallel(
                Arc::new(AccShards),
                &suite(5),
                &mutants,
                &MutationConfig {
                    workers,
                    probe_suites: vec![suite(7)],
                    ..MutationConfig::default()
                },
            );
            assert_eq!(
                run.results, sequential.results,
                "workers = {workers}: verdict vector must be byte-identical"
            );
            assert_eq!(run.score(), sequential.score(), "workers = {workers}");
            assert_eq!(run.golden.cases.len(), sequential.golden.cases.len());
        }
    }

    #[test]
    fn parallel_telemetry_aggregates_across_workers() {
        let sink = Arc::new(MemorySink::new());
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let run = run_mutation_analysis_parallel(
            Arc::new(AccShards),
            &suite(5),
            &mutants,
            &MutationConfig {
                workers: 4,
                telemetry: Telemetry::new(sink.clone()),
                ..MutationConfig::default()
            },
        );
        // One "mutant" span per mutant, regardless of which worker ran it.
        assert_eq!(sink.span_count("mutant"), run.total());
        assert_eq!(sink.span_count("golden"), 1);
        assert_eq!(sink.gauge_value("mutation.workers"), Some(4));
        let classified = sink.counter_total("mutant.killed.crash")
            + sink.counter_total("mutant.killed.assertion")
            + sink.counter_total("mutant.killed.output_diff")
            + sink.counter_total("mutant.survived")
            + sink.counter_total("mutant.equivalent.presumed")
            + sink.counter_total("mutant.quarantined.timeout")
            + sink.counter_total("mutant.quarantined.budget")
            + sink.counter_total("mutant.quarantined.repeated_crash");
        assert_eq!(classified as usize, run.total());
    }

    /// `Acc` behind a reporter that panics when the accumulated total has
    /// gone negative. The reporter runs *outside* the runner's
    /// `catch_unwind` boundary, so a mutant driving the total negative
    /// (BitNeg/MININT on the add sites) takes the whole worker down —
    /// the crash-containment vehicle.
    struct GrenadeAcc {
        inner: Acc,
    }

    impl Component for GrenadeAcc {
        fn class_name(&self) -> &'static str {
            self.inner.class_name()
        }
        fn method_names(&self) -> Vec<&'static str> {
            self.inner.method_names()
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            self.inner.invoke(m, a)
        }
    }

    impl BuiltInTest for GrenadeAcc {
        fn bit_control(&self) -> &BitControl {
            self.inner.bit_control()
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            self.inner.invariant_test()
        }
        fn reporter(&self) -> StateReport {
            assert!(
                self.inner.total >= 0,
                "grenade reporter: total went negative"
            );
            self.inner.reporter()
        }
    }

    struct GrenadeFactory {
        switch: MutationSwitch,
    }

    impl ComponentFactory for GrenadeFactory {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Acc" => Ok(Box::new(GrenadeAcc {
                    inner: Acc {
                        total: 0,
                        limit: 1_000,
                        ctl,
                        switch: self.switch.clone(),
                    },
                })),
                other => Err(unknown_method("Acc", other)),
            }
        }
    }

    struct GrenadeShards;

    impl ClonableFactory for GrenadeShards {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
            Box::new(GrenadeFactory {
                switch: switch.clone(),
            })
        }
    }

    /// Indices of the grenade run's worker-crash quarantines, after
    /// checking they exist and every other verdict matches the panic-free
    /// baseline.
    fn assert_contained(run: &MutationRun, baseline: &MutationRun) -> Vec<usize> {
        let crashed: Vec<usize> = run
            .results
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.status
                    == MutantStatus::Quarantined {
                        reason: QuarantineReason::WorkerCrash,
                    }
            })
            .map(|(index, _)| index)
            .collect();
        assert!(!crashed.is_empty(), "grenade mutants must crash a worker");
        assert_eq!(run.results.len(), baseline.results.len());
        for (index, (got, want)) in run.results.iter().zip(&baseline.results).enumerate() {
            if crashed.contains(&index) {
                continue;
            }
            assert_eq!(got, want, "non-crashing mutant {index} must be unaffected");
        }
        crashed
    }

    #[test]
    fn sequential_worker_crash_quarantines_only_inflight_mutant() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let baseline = analyze(5, vec![]);
        let switch = MutationSwitch::new();
        let factory = GrenadeFactory {
            switch: switch.clone(),
        };
        let sink = Arc::new(MemorySink::new());
        let run = run_mutation_analysis(
            &factory,
            &switch,
            &suite(5),
            &mutants,
            &MutationConfig {
                telemetry: Telemetry::new(sink.clone()),
                ..MutationConfig::default()
            },
        );
        let crashed = assert_contained(&run, &baseline);
        assert_eq!(
            sink.counter_total("mutation.worker_crash") as usize,
            crashed.len()
        );
        assert_eq!(
            sink.counter_total("mutant.quarantined.worker_crash") as usize,
            crashed.len()
        );
        assert!(switch.armed().is_none(), "switch disarmed after crashes");
    }

    #[test]
    fn parallel_worker_crashes_are_contained_and_respawned() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let baseline = analyze(5, vec![]);
        for workers in [1, 2, 4] {
            let sink = Arc::new(MemorySink::new());
            let run = run_mutation_analysis_parallel(
                Arc::new(GrenadeShards),
                &suite(5),
                &mutants,
                &MutationConfig {
                    workers,
                    telemetry: Telemetry::new(sink.clone()),
                    ..MutationConfig::default()
                },
            );
            let crashed = assert_contained(&run, &baseline);
            assert_eq!(
                sink.counter_total("mutation.worker_crash") as usize,
                crashed.len(),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn exhausted_restart_budget_degrades_but_still_completes() {
        // The AddTwice mutants twice over: twice the grenades, so more
        // thread leases crash than the restart budget absorbs.
        let once = enumerate_mutants(&inventory(), &["AddTwice"]);
        let mutants: Vec<Mutant> = once
            .iter()
            .chain(&once)
            .enumerate()
            .map(|(id, mutant)| Mutant {
                id,
                ..mutant.clone()
            })
            .collect();
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let baseline = run_mutation_analysis(
            &factory,
            &switch,
            &suite(5),
            &mutants,
            &MutationConfig::default(),
        );
        let sink = Arc::new(MemorySink::new());
        let run = run_mutation_analysis_parallel(
            Arc::new(GrenadeShards),
            &suite(5),
            &mutants,
            &MutationConfig {
                workers: 2,
                telemetry: Telemetry::new(sink.clone()),
                ..MutationConfig::default()
            },
        );
        // A spent restart budget is flagged, not fatal: the fleet keeps
        // leasing (each crash costs only its own mutant), and the campaign
        // completes — never aborting with partial results discarded.
        let crashed = assert_contained(&run, &baseline);
        assert!(crashed.len() as u64 > WORKER_RESTARTS);
        let summary = sink.summary();
        assert_eq!(summary.counter("mutation.restarts_exhausted"), 1);
        let degraded: Vec<_> = summary
            .snapshots
            .iter()
            .filter(|s| s.name == "campaign.degraded")
            .collect();
        assert_eq!(degraded.len(), 1, "one campaign.degraded snapshot");
        let spent = ("restarts_spent".to_owned(), WORKER_RESTARTS as i64);
        assert!(degraded[0].readings.contains(&spent));
    }

    /// `Acc` shards that fleet slots can build only `spare` times: every
    /// later build off the calling thread panics. With `spare = 0` the
    /// fleet's golden run fails; with `spare = 1` the golden run works and
    /// every lease setup fails. Either way the fleet degrades the campaign.
    struct HomeBoundShards {
        home: std::thread::ThreadId,
        spare: std::sync::atomic::AtomicUsize,
    }

    impl ClonableFactory for HomeBoundShards {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
            use std::sync::atomic::Ordering::SeqCst;
            let spare = self
                .spare
                .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
            assert!(
                std::thread::current().id() == self.home || spare.is_ok(),
                "this subject cannot be built on a fleet slot"
            );
            Box::new(AccFactory {
                switch: switch.clone(),
            })
        }
    }

    #[test]
    fn degraded_solo_campaign_finishes_on_the_inline_slot() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let sequential = analyze(5, vec![]);
        for spare in [0, 1] {
            let sink = Arc::new(MemorySink::new());
            let shards = HomeBoundShards {
                home: std::thread::current().id(),
                spare: spare.into(),
            };
            let run = run_mutation_analysis_parallel(
                Arc::new(shards),
                &suite(5),
                &mutants,
                &MutationConfig {
                    workers: 2,
                    telemetry: Telemetry::new(sink.clone()),
                    ..MutationConfig::default()
                },
            );
            assert_eq!(
                run.results, sequential.results,
                "spare = {spare}: the solo API finishes inline, never a partial run"
            );
            assert_eq!(sink.span_count("mutant"), run.total(), "spare = {spare}");
            assert!(
                sink.counter_total("mutation.worker_crash") > 0,
                "spare = {spare}: the fleet slots really failed"
            );
        }
    }

    #[test]
    fn journaled_campaign_resumes_byte_identical() {
        let dir = std::env::temp_dir().join("concat-mutation-analysis-resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("acc.journal");
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let config = |sink: &Arc<MemorySink>| MutationConfig {
            workers: 2,
            journal_path: Some(path.clone()),
            telemetry: Telemetry::new(sink.clone()),
            ..MutationConfig::default()
        };
        let sink = Arc::new(MemorySink::new());
        let first = run_mutation_analysis_parallel(
            Arc::new(AccShards),
            &suite(5),
            &mutants,
            &config(&sink),
        );
        assert_eq!(sink.counter_total("mutation.replayed"), 0);

        // The journal now holds every verdict: a rerun replays them all
        // and produces a byte-identical run without re-executing mutants.
        let sink = Arc::new(MemorySink::new());
        let again = run_mutation_analysis_parallel(
            Arc::new(AccShards),
            &suite(5),
            &mutants,
            &config(&sink),
        );
        assert_eq!(again.results, first.results);
        assert_eq!(again.score(), first.score());
        assert_eq!(
            sink.counter_total("mutation.replayed") as usize,
            mutants.len()
        );
        assert_eq!(sink.gauge_value("mutation.workers"), Some(2));

        // A different campaign fingerprint (different suite) resets the
        // journal instead of replaying foreign verdicts.
        let sink = Arc::new(MemorySink::new());
        let other = run_mutation_analysis_parallel(
            Arc::new(AccShards),
            &suite(7),
            &mutants,
            &config(&sink),
        );
        assert_eq!(sink.counter_total("mutation.replayed"), 0);
        assert_eq!(other.total(), mutants.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Component whose instrumented site is reached only by `Spin`: the
    /// main suite exercises just `Idle`, so a spin-inducing mutant stays
    /// alive until the equivalence probes call `Spin`.
    struct Napper {
        ctl: BitControl,
        switch: MutationSwitch,
    }

    impl Component for Napper {
        fn class_name(&self) -> &'static str {
            "Napper"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["Idle", "Spin", "~Napper"]
        }
        fn invoke(&mut self, m: &str, _a: &[Value]) -> InvokeResult {
            match m {
                "Idle" => Ok(Value::Int(0)),
                "Spin" => {
                    let env = VarEnv::new().bind("go", 1);
                    loop {
                        // The instrumented read is a cancellation point:
                        // a mutant forcing `go <= 0` loops here until the
                        // watchdog fires.
                        let go = self.switch.read_int("Spin", 0, "go", 1, &env);
                        if go > 0 {
                            return Ok(Value::Int(go));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                "~Napper" => Ok(Value::Null),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for Napper {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            Ok(())
        }
        fn reporter(&self) -> StateReport {
            StateReport::new()
        }
    }

    struct NapperFactory {
        switch: MutationSwitch,
    }

    impl ComponentFactory for NapperFactory {
        fn class_name(&self) -> &str {
            "Napper"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Napper" => Ok(Box::new(Napper {
                    ctl,
                    switch: self.switch.clone(),
                })),
                other => Err(unknown_method("Napper", other)),
            }
        }
    }

    fn napper_suite(call: &str) -> TestSuite {
        TestSuite {
            class_name: "Napper".into(),
            seed: 0,
            cases: vec![TestCase {
                id: 0,
                transaction_index: 0,
                node_path: vec![],
                constructor: MethodCall::generated("m1", "Napper", vec![]),
                calls: vec![
                    MethodCall::generated("m2", call, vec![]),
                    MethodCall::generated("m3", "~Napper", vec![]),
                ],
            }],
            stats: SuiteStats::default(),
        }
    }

    #[test]
    fn mutant_hanging_only_under_probes_is_quarantined_not_survived() {
        let switch = MutationSwitch::new();
        let factory = NapperFactory {
            switch: switch.clone(),
        };
        let inventory = ClassInventory::new("Napper").method(
            MethodInventory::new("Spin")
                .locals(["go"])
                .site(0, "go", "loop guard"),
        );
        let mutants = enumerate_mutants(&inventory, &["Spin"]);
        let run = run_mutation_analysis(
            &factory,
            &switch,
            &napper_suite("Idle"),
            &mutants,
            &MutationConfig {
                probe_suites: vec![napper_suite("Spin")],
                budget: Budget::unlimited().with_deadline(std::time::Duration::from_millis(100)),
                ..MutationConfig::default()
            },
        );
        // The main suite never reaches the instrumented site, so every
        // mutant reaches the probe phase; the ones forcing `go <= 0` hang
        // there. Those hangs are harness stops, not behavioural evidence:
        // they must land in quarantine, not be misfiled as `Survived`
        // because the deadline truncated the probe transcript.
        assert!(
            run.quarantined() > 0,
            "probe-phase hangs must be quarantined: {:?}",
            run.results
        );
        for result in &run.results {
            if result.status.is_quarantined() {
                assert_eq!(
                    result.status,
                    MutantStatus::Quarantined {
                        reason: QuarantineReason::Timeout
                    }
                );
            }
        }
        // Before the fix every hang above was misfiled as `Survived`; the
        // genuine survivors (e.g. `go -> MAXINT`, which exits with a
        // different return value) are the only ones allowed to remain.
        assert!(
            run.quarantined() >= 2,
            "both `go -> 0` and `go -> -1` hang under probing: {:?}",
            run.results
        );
    }
}
