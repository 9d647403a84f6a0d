//! The mutant executor: a supervised fleet of slot workers that leases
//! mutants from any number of campaigns.
//!
//! Every parallel or process-isolated campaign runs here. A component
//! vendor qualifying a family of self-testable components runs many
//! campaigns at once through a long-running [`Orchestrator`], and must
//! not let one pathological subject starve, corrupt, or take down the
//! rest. A solo campaign ([`run_mutation_analysis_parallel`]) is an
//! ephemeral fleet of `workers` slots serving that one campaign; the
//! sequential [`run_mutation_analysis`](crate::run_mutation_analysis)
//! is the inline slot, which also finishes a solo campaign whose fleet
//! degraded.
//!
//! * **Queue** — [`Orchestrator::submit`] / [`Orchestrator::status`] /
//!   [`Orchestrator::cancel`] / [`Orchestrator::list`]. Each submitted
//!   [`CampaignRequest`] carries its own [`MutationConfig`] (budget,
//!   journal path, isolation), a priority, and an optional campaign-level
//!   mutant budget. Admission is bounded: a full queue rejects with
//!   [`SubmitError::QueueFull`] instead of growing without limit.
//! * **Leases** — [`IsolationMode`] picks the lease kind. A thread lease
//!   builds its own factory/switch/runner in the slot thread; a process
//!   lease spawns a shard worker ([`crate::run_shard_worker`]) and relays
//!   its verdict frames under heartbeat liveness. Both classify with the
//!   same per-mutant step and stream verdicts to the supervisor.
//! * **Scheduler** — work-stealing over fleet slots: any free slot takes
//!   a lease of mutants from any runnable campaign. Fairness is
//!   starvation-free by aging (a campaign passed over gains effective
//!   priority each round), so a low-priority campaign always progresses.
//! * **Isolation of failure** — a crashed or hung lease costs its owning
//!   campaign at most the in-flight mutant (retried once, then
//!   quarantined), a cancelled campaign tears down
//!   cleanly with its journal flushed (resumable via the incremental
//!   path), budget exhaustion degrades only its own campaign to
//!   [`DegradeReason::BudgetExhausted`], and cancelling the service-level
//!   [`CancelToken`] (see [`Orchestrator::service_token`]) checkpoints
//!   every campaign's journal — every verdict is write-ahead fsynced, so
//!   resubmitting after a crash replays finished verdicts and re-executes
//!   only unfinished mutants.
//!
//! The non-negotiable invariant: every campaign's verdicts, score, and
//! report are **byte-identical** to running that campaign alone, for any
//! interleaving, fleet size, lease kind, and cancel/crash schedule of its
//! neighbors. Verdicts are deterministic per mutant and merged by
//! enumeration index through the campaign's one verdict ledger, and a
//! verdict is only merged while its campaign is healthy — a draining
//! campaign discards late verdicts so its journal holds exactly the
//! verified prefix a resume replays.

use crate::analysis::{
    build_runner, persist_coverage, run_golden, run_inline, Engine, GoldenBaseline, IsolationMode,
    Ledger, MutantStatus, MutationConfig, MutationRun, PanicSilencer, ProcessIsolation,
    QuarantineReason,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::journal::campaign_fingerprint;
use crate::shard::{
    death_reason, parse_frame, ShardFrame, SHARD_FINGERPRINT_ENV, SHARD_INDICES_ENV,
};
use concat_driver::{SuiteResult, TestSuite};
use concat_obs::{Span, Telemetry};
use concat_runtime::{
    classify_exit, terminate_child, wait_with_deadline, CancelToken, ExitClass, FrameDecoder,
    Liveness, Rng,
};
use std::collections::HashMap;
use std::fmt;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Stdio;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-slot supervision deadlines, taken per campaign so one
/// slow-starting subject is not falsely convicted `ShardUnresponsive` by
/// deadlines tuned for its faster neighbors. A campaign whose config
/// carries a process isolation spec runs under that spec's deadlines;
/// thread campaigns show the defaults, which mirror
/// [`ProcessIsolation::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotConfig {
    /// First-frame deadline for a process lease: spawn plus the shard's
    /// own golden run.
    pub startup_grace: Duration,
    /// Steady-state heartbeat deadline: a shard silent for this long gets
    /// the SIGTERM→SIGKILL ladder.
    pub heartbeat_timeout: Duration,
    /// How long the SIGTERM rung waits before SIGKILL.
    pub term_grace: Duration,
}

impl Default for SlotConfig {
    fn default() -> Self {
        SlotConfig {
            startup_grace: Duration::from_secs(30),
            heartbeat_timeout: Duration::from_secs(10),
            term_grace: Duration::from_millis(500),
        }
    }
}

impl SlotConfig {
    /// The deadlines a campaign's leases run under: its process
    /// isolation spec's, else the defaults.
    fn effective(config: &MutationConfig) -> SlotConfig {
        match &config.isolation {
            IsolationMode::Process(spec) => SlotConfig {
                startup_grace: spec.startup_grace,
                heartbeat_timeout: spec.heartbeat_timeout,
                term_grace: spec.term_grace,
            },
            IsolationMode::InThread => SlotConfig::default(),
        }
    }
}

/// Configuration of the orchestration service.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Fleet size: how many slot workers lease mutants concurrently.
    pub slots: usize,
    /// Admission bound: the maximum number of non-terminal campaigns;
    /// submits past it are rejected with [`SubmitError::QueueFull`].
    pub capacity: usize,
    /// Mutants handed out per lease. Small leases interleave campaigns
    /// finely (better fairness); large leases amortize per-lease setup —
    /// in particular a process lease pays one shard golden run. `0`
    /// sizes leases per campaign from the fleet and the work left, as a
    /// solo campaign does: one mutant per thread lease, and
    /// `ceil(unfinished / slots)` per process lease, so each slot spawns
    /// one shard.
    pub lease_size: usize,
    /// Fleet-level telemetry: `orchestrator.*` counters and the
    /// `orchestrator.progress` snapshot. Per-campaign telemetry lives on
    /// each request's [`MutationConfig::telemetry`]. Disabled by default.
    pub telemetry: Telemetry,
    /// Install a process-global silent panic hook for the service's
    /// lifetime (mutant panics are expected kill signals, not noise).
    pub silence_panics: bool,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            slots: 2,
            capacity: 16,
            lease_size: 8,
            telemetry: Telemetry::disabled(),
            silence_panics: true,
        }
    }
}

/// Opaque campaign handle returned by [`Orchestrator::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(u64);

impl CampaignId {
    /// The numeric id (stable within one service instance, in submit
    /// order).
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One campaign submitted to the service: the same inputs
/// [`run_mutation_analysis_parallel`] takes, plus scheduling metadata.
pub struct CampaignRequest {
    /// Human-readable campaign name (status listings, the demo server's
    /// manifest). Not required to be unique — [`CampaignId`] is.
    pub name: String,
    /// The factory seam the per-lease workers build their components
    /// through.
    pub shards: Arc<dyn ClonableFactory>,
    /// The generated test suite under measurement.
    pub suite: TestSuite,
    /// The enumerated mutants.
    pub mutants: Vec<Mutant>,
    /// Per-campaign configuration: budget, journal path, probe suites,
    /// isolation mode (thread or process leases), incremental resume.
    /// `config.workers` is ignored — the fleet owns parallelism.
    pub config: MutationConfig,
    /// Scheduling priority (higher runs first); aging guarantees lower
    /// priorities still progress.
    pub priority: u8,
    /// Campaign-level execution budget: at most this many mutants are
    /// *executed* (journal-replayed verdicts are free). Exhaustion
    /// degrades this campaign — and only this campaign — to
    /// [`DegradeReason::BudgetExhausted`]; unfinished mutants stay
    /// unfinished in the journal, so a resubmit with a bigger budget
    /// resumes where it stopped.
    pub mutant_budget: Option<u64>,
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded campaign queue is full; retry after a campaign
    /// finishes.
    QueueFull {
        /// The configured admission bound.
        capacity: usize,
    },
    /// The service has shut down (or its supervisor died).
    ServiceStopped,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "campaign queue full (capacity {capacity})")
            }
            SubmitError::ServiceStopped => write!(f, "orchestrator stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a campaign degraded instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The campaign's own [`CampaignRequest::mutant_budget`] ran out with
    /// unfinished mutants left.
    BudgetExhausted,
    /// The campaign's harness is unusable: its golden baseline panicked,
    /// its shard workers rebuild a different campaign (fingerprint
    /// mismatch), or its leases die repeatedly without any progress.
    HarnessFailure,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::BudgetExhausted => write!(f, "budget-exhausted"),
            DegradeReason::HarnessFailure => write!(f, "harness-failure"),
        }
    }
}

/// Lifecycle of a campaign inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPhase {
    /// Admitted, waiting for a slot to run its golden baseline.
    Queued,
    /// A slot is computing the golden baseline.
    Preparing,
    /// Leases are being scheduled.
    Running,
    /// A terminal decision was made (cancel, budget, degrade); waiting
    /// for in-flight leases to stand down. Verdicts arriving now are
    /// discarded — the journal keeps exactly the verified prefix.
    Draining,
    /// All mutants have verdicts; the final [`MutationRun`] is available
    /// through [`Orchestrator::wait`].
    Completed,
    /// Cancelled (explicitly or by service shutdown). The journal is
    /// flushed; resubmitting the same campaign resumes it.
    Cancelled,
    /// Degraded: see [`DegradeReason`].
    Degraded(DegradeReason),
}

impl CampaignPhase {
    /// True once the campaign reached a terminal phase.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignPhase::Completed | CampaignPhase::Cancelled | CampaignPhase::Degraded(_)
        )
    }
}

impl fmt::Display for CampaignPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignPhase::Queued => write!(f, "queued"),
            CampaignPhase::Preparing => write!(f, "preparing"),
            CampaignPhase::Running => write!(f, "running"),
            CampaignPhase::Draining => write!(f, "draining"),
            CampaignPhase::Completed => write!(f, "completed"),
            CampaignPhase::Cancelled => write!(f, "cancelled"),
            CampaignPhase::Degraded(reason) => write!(f, "degraded({reason})"),
        }
    }
}

/// A point-in-time view of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// The campaign's id.
    pub id: CampaignId,
    /// The submitted name.
    pub name: String,
    /// Current lifecycle phase.
    pub phase: CampaignPhase,
    /// Mutants with a merged verdict (executed, replayed, or convicted).
    pub done: usize,
    /// Total mutants in the campaign.
    pub total: usize,
    /// Verdicts obtained by execution in this service instance.
    pub executed: u64,
    /// Verdicts replayed from the journal at admission.
    pub replayed: u64,
    /// The submitted priority.
    pub priority: u8,
    /// The effective per-slot deadlines this campaign's leases run under
    /// (surfaced in the fleet harness-health table).
    pub slot: SlotConfig,
}

/// How a campaign ended.
#[derive(Debug, Clone)]
pub enum CampaignEnd {
    /// Every mutant has a verdict; the run is byte-identical to a solo
    /// run of the same campaign.
    Completed(Box<MutationRun>),
    /// Cancelled; the journal holds the verified prefix for a resume.
    Cancelled,
    /// Degraded; `partial` holds the verdicts obtained so far (unfinished
    /// mutants appear as `WorkerCrash` quarantines, the fail-safe the
    /// slot merge uses).
    Degraded {
        /// Why the campaign degraded.
        reason: DegradeReason,
        /// Verdicts merged before the degrade decision.
        partial: Box<MutationRun>,
    },
}

/// Terminal report for one campaign, returned by [`Orchestrator::wait`].
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign's id.
    pub id: CampaignId,
    /// The submitted name.
    pub name: String,
    /// How it ended.
    pub end: CampaignEnd,
}

// ---------------------------------------------------------------------
// Internal wiring
// ---------------------------------------------------------------------

/// Immutable campaign inputs shared with lease threads.
struct CampaignData {
    id: CampaignId,
    shards: Arc<dyn ClonableFactory>,
    suite: TestSuite,
    mutants: Vec<Mutant>,
    config: MutationConfig,
    /// Child of the service token: cancelling the service cancels every
    /// campaign; cancelling this campaign never touches the fleet.
    token: CancelToken,
}

/// Campaign inputs plus the prepared golden baseline, shared read-only
/// with every subsequent lease.
struct CampaignRuntime {
    data: Arc<CampaignData>,
    baseline: GoldenBaseline,
    fingerprint: u32,
}

/// What a degraded solo campaign hands back to
/// [`run_mutation_analysis_parallel`] so the inline slot can finish it:
/// the ledger (merged verdicts, journal, blame), the golden baseline when
/// one was prepared, and the still-open campaign span the inline
/// verdicts nest under.
struct Handback {
    ledger: Ledger,
    runtime: Option<Arc<CampaignRuntime>>,
    root: Option<Span>,
}

/// Client → supervisor commands.
enum Command {
    /// A campaign, plus the channel a solo campaign's ledger is handed
    /// back on should it degrade.
    Submit(
        Box<CampaignRequest>,
        Option<mpsc::Sender<Handback>>,
        mpsc::Sender<Result<CampaignId, SubmitError>>,
    ),
    Cancel(CampaignId, mpsc::Sender<bool>),
    Status(CampaignId, mpsc::Sender<Option<CampaignStatus>>),
    List(mpsc::Sender<Vec<CampaignStatus>>),
    Wait(CampaignId, mpsc::Sender<Option<CampaignOutcome>>),
    Shutdown(mpsc::Sender<Vec<CampaignStatus>>),
}

/// How one lease ended, from the slot's point of view.
enum LeaseOutcome {
    /// Every leased mutant got a verdict.
    Drained,
    /// The campaign (or service) token cancelled the lease; unemitted
    /// verdicts were discarded.
    Aborted,
    /// The lease died: a thread lease's harness panicked, or a process
    /// lease's shard exited with work left.
    Crashed {
        /// The mutant named by the last `shard-begin` without a verdict —
        /// the one the death is blamed on (process leases only; thread
        /// leases emit the quarantine verdict themselves).
        in_flight: Option<usize>,
        /// The quarantine reason a repeated death convicts with.
        reason: QuarantineReason,
        /// The shard rebuilt a different campaign (hello fingerprint
        /// mismatch) — deterministic on retry, so the campaign degrades.
        poisoned: bool,
        /// Verdicts emitted before the death (progress signal for the
        /// futility guard).
        emitted: u64,
    },
}

/// Everything the supervisor receives: commands and slot events, one
/// channel so per-slot FIFO ordering (verdicts before lease end) holds.
enum Msg {
    Cmd(Command),
    Prepared {
        slot: usize,
        id: CampaignId,
        baseline: Option<Box<GoldenBaseline>>,
    },
    Verdict {
        slot: usize,
        id: CampaignId,
        index: usize,
        status: MutantStatus,
    },
    LeaseEnded {
        slot: usize,
        id: CampaignId,
        outcome: LeaseOutcome,
    },
}

/// Supervisor → slot worker commands. Each carries the campaign
/// telemetry the slot emits into directly: scoped at the campaign span
/// for the golden run, at the slot's `worker` span for leases.
enum SlotCmd {
    Prepare {
        data: Arc<CampaignData>,
        telemetry: Telemetry,
    },
    ThreadLease {
        rt: Arc<CampaignRuntime>,
        indices: Vec<usize>,
        telemetry: Telemetry,
    },
    ProcessLease {
        rt: Arc<CampaignRuntime>,
        indices: Vec<usize>,
        spec: ProcessIsolation,
        slot_cfg: SlotConfig,
        telemetry: Telemetry,
    },
    Shutdown,
}

/// Supervisor-side state of one campaign.
struct Campaign {
    data: Arc<CampaignData>,
    name: String,
    priority: u8,
    mutant_budget: Option<u64>,
    slot_cfg: SlotConfig,
    spec: Option<ProcessIsolation>,
    phase: CampaignPhase,
    rt: Option<Arc<CampaignRuntime>>,
    /// Merged verdicts, journal and blame; its telemetry is the campaign
    /// telemetry scoped at the root span.
    ledger: Ledger,
    leased: Vec<bool>,
    /// Mutants per lease, fixed once the campaign is prepared.
    lease_size: usize,
    executed: u64,
    replayed: u64,
    crashes: u64,
    /// Consecutive leases that died without emitting a verdict or
    /// charging an in-flight mutant — the signature of a harness that
    /// will never progress.
    futile: u32,
    exhaustion_flagged: bool,
    active_leases: usize,
    /// Crash backoff: no new lease for this campaign before this instant.
    next_lease_at: Instant,
    backoff_rng: Rng,
    respawns: u32,
    /// Scheduling rounds this campaign was runnable but passed over;
    /// added to priority so nobody starves.
    starved: u32,
    /// The terminal phase to enter once in-flight leases stand down.
    pending_end: Option<CampaignPhase>,
    outcome: Option<CampaignOutcome>,
    waiters: Vec<mpsc::Sender<Option<CampaignOutcome>>>,
    /// Campaign root span on the campaign's own telemetry.
    root: Option<Span>,
    /// Per fleet slot, the `worker` span this campaign's leases on that
    /// slot nest under: opened at the slot's first lease, closed at
    /// finalize — one trace track per slot.
    workers: Vec<Option<Span>>,
    /// Set for a solo campaign: where its ledger goes if it degrades.
    handback: Option<mpsc::Sender<Handback>>,
    last_beat: Instant,
}

impl Campaign {
    fn status(&self) -> CampaignStatus {
        CampaignStatus {
            id: self.data.id,
            name: self.name.clone(),
            phase: self.phase,
            done: self.ledger.done(),
            total: self.ledger.total(),
            executed: self.executed,
            replayed: self.replayed,
            priority: self.priority,
            slot: self.slot_cfg,
        }
    }

    /// True when the scheduler may hand this campaign a lease now.
    fn runnable(&self, now: Instant) -> bool {
        self.phase == CampaignPhase::Running
            && !self.data.token.is_cancelled()
            && now >= self.next_lease_at
            && (0..self.leased.len())
                .any(|index| !self.leased[index] && !self.ledger.is_done(index))
    }

    /// The next `lease_size` unfinished, unleased mutant indices.
    fn take_lease(&mut self) -> Vec<usize> {
        let mut indices = Vec::with_capacity(self.lease_size);
        for index in 0..self.leased.len() {
            if !self.leased[index] && !self.ledger.is_done(index) {
                self.leased[index] = true;
                indices.push(index);
                if indices.len() == self.lease_size {
                    break;
                }
            }
        }
        indices
    }
}

// ---------------------------------------------------------------------
// Slot workers
// ---------------------------------------------------------------------

/// A slot worker's main loop: block for a command, run it, report back.
/// The worker thread is persistent — lease bodies run under
/// `catch_unwind`, so no campaign can cost the fleet a slot.
fn slot_main(slot: usize, rx: mpsc::Receiver<SlotCmd>, tx: mpsc::Sender<Msg>) {
    while let Ok(cmd) = rx.recv() {
        let msg = match cmd {
            SlotCmd::Prepare { data, telemetry } => {
                let baseline = catch_unwind(AssertUnwindSafe(|| {
                    let switch = MutationSwitch::new();
                    let factory = data.shards.build_factory(&switch);
                    let runner = build_runner(&data.config, &telemetry)
                        .with_cancel_token(data.token.child());
                    switch.set_cancel_token(runner.cancel_token().clone());
                    let baseline = run_golden(
                        &runner,
                        factory.as_ref(),
                        &data.suite,
                        &data.mutants,
                        &data.config,
                        &telemetry,
                    );
                    switch.clear_cancel_token();
                    baseline
                }))
                .ok()
                .map(Box::new);
                Msg::Prepared {
                    slot,
                    id: data.id,
                    baseline,
                }
            }
            SlotCmd::ThreadLease {
                rt,
                indices,
                telemetry,
            } => Msg::LeaseEnded {
                slot,
                id: rt.data.id,
                outcome: thread_lease(slot, &rt, &indices, &telemetry, &tx),
            },
            SlotCmd::ProcessLease {
                rt,
                indices,
                spec,
                slot_cfg,
                telemetry,
            } => Msg::LeaseEnded {
                slot,
                id: rt.data.id,
                outcome: process_lease(slot, &rt, &indices, &spec, slot_cfg, &telemetry, &tx),
            },
            SlotCmd::Shutdown => return,
        };
        if tx.send(msg).is_err() {
            return;
        }
    }
}

/// One in-thread lease: build a private factory/switch/runner, classify
/// each leased mutant, stream verdicts to the supervisor. The runner's
/// token is a child of the campaign token, so campaign or service
/// cancellation interrupts the in-flight case like a watchdog deadline —
/// and a verdict finished *after* the cancellation is discarded, never
/// merged, because a case interrupted mid-flight classifies differently
/// than a solo run would.
fn thread_lease(
    slot: usize,
    rt: &Arc<CampaignRuntime>,
    indices: &[usize],
    telemetry: &Telemetry,
    tx: &mpsc::Sender<Msg>,
) -> LeaseOutcome {
    let data = &rt.data;
    let token = &data.token;
    let lease_span = telemetry.span_with("lease", || format!("{} thread", data.id));
    let scoped = telemetry.at(lease_span.id());
    let setup = catch_unwind(AssertUnwindSafe(|| {
        let switch = MutationSwitch::new();
        let factory = data.shards.build_factory(&switch);
        let runner = build_runner(&data.config, &scoped).with_cancel_token(token.child());
        switch.set_cancel_token(runner.cancel_token().clone());
        (switch, factory, runner)
    }));
    let Ok((switch, factory, runner)) = setup else {
        scoped.incr("mutation.worker_crash");
        return LeaseOutcome::Crashed {
            in_flight: None,
            reason: QuarantineReason::WorkerCrash,
            poisoned: false,
            emitted: 0,
        };
    };
    let engine = Engine::new(&data.suite, &data.config, &rt.baseline);
    let mut emitted = 0u64;
    for &index in indices {
        if token.is_cancelled() {
            return LeaseOutcome::Aborted;
        }
        let Some(mutant) = data.mutants.get(index) else {
            continue;
        };
        let (status, crashed) = engine.execute(factory.as_ref(), &switch, &runner, &scoped, mutant);
        if token.is_cancelled() && !crashed {
            // The cancellation raced the classification: the verdict may
            // reflect an interrupted case. Discard it — the mutant stays
            // unfinished and re-executes on resume, keeping the journal
            // byte-identical to a solo run's prefix.
            return LeaseOutcome::Aborted;
        }
        let _ = tx.send(Msg::Verdict {
            slot,
            id: data.id,
            index,
            status,
        });
        emitted += 1;
        if crashed {
            // The panicking mutant is quarantined as WorkerCrash (its
            // verdict in a solo run too), and the lease retires its
            // suspect harness so the supervisor can decide what the
            // crash cost.
            return LeaseOutcome::Crashed {
                in_flight: None,
                reason: QuarantineReason::WorkerCrash,
                poisoned: false,
                emitted,
            };
        }
    }
    switch.disarm();
    switch.clear_cancel_token();
    LeaseOutcome::Drained
}

/// What a process lease's reader thread reports.
enum PipeEvent {
    Frame(String),
    Eof { dropped: u64, torn: bool },
}

/// One process-isolated lease: spawn a shard worker (a self-exec of the
/// current binary that lands in [`crate::run_shard_worker`]), hand it the
/// leased indices, and relay its verdict frames. Liveness runs under the
/// *campaign's* [`SlotConfig`] deadlines, so a slow-starting subject is
/// judged by its own grace, not its neighbors'.
fn process_lease(
    slot: usize,
    rt: &Arc<CampaignRuntime>,
    indices: &[usize],
    spec: &ProcessIsolation,
    slot_cfg: SlotConfig,
    telemetry: &Telemetry,
    tx: &mpsc::Sender<Msg>,
) -> LeaseOutcome {
    let data = &rt.data;
    let token = &data.token;
    let lease_span = telemetry.span_with("lease", || format!("{} process", data.id));
    let scoped = telemetry.at(lease_span.id());
    let crash = |reason| LeaseOutcome::Crashed {
        in_flight: None,
        reason,
        poisoned: false,
        emitted: 0,
    };
    let Ok(exe) = std::env::current_exe() else {
        scoped.incr("harden.degraded");
        return crash(QuarantineReason::WorkerCrash);
    };
    let csv = indices
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut command = std::process::Command::new(exe);
    command
        .args(&spec.worker_args)
        .env(SHARD_INDICES_ENV, csv)
        .env(SHARD_FINGERPRINT_ENV, format!("{:08x}", rt.fingerprint))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, value) in &spec.worker_env {
        command.env(key, value);
    }
    let Ok(mut child) = command.spawn() else {
        scoped.incr("harden.degraded");
        return crash(QuarantineReason::WorkerCrash);
    };
    let Some(stdout) = child.stdout.take() else {
        let _ = terminate_child(&mut child, slot_cfg.term_grace);
        scoped.incr("harden.degraded");
        return crash(QuarantineReason::WorkerCrash);
    };
    let (ptx, prx) = mpsc::channel::<PipeEvent>();
    let reader = std::thread::spawn(move || {
        let mut stdout = stdout;
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stdout.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    for payload in decoder.push(&chunk[..n]) {
                        if ptx.send(PipeEvent::Frame(payload)).is_err() {
                            return;
                        }
                    }
                }
            }
        }
        let _ = ptx.send(PipeEvent::Eof {
            dropped: decoder.dropped(),
            torn: decoder.pending_bytes() > 0,
        });
    });

    let mut liveness = Liveness::new(slot_cfg.startup_grace, slot_cfg.heartbeat_timeout);
    let mut in_flight: Option<usize> = None;
    let mut killed_unresponsive = false;
    let mut poisoned = false;
    let mut aborted = false;
    let mut emitted = 0u64;
    loop {
        match prx.recv_timeout(Duration::from_millis(50)) {
            Ok(PipeEvent::Frame(payload)) => {
                liveness.beat();
                match parse_frame(&payload) {
                    ShardFrame::Hello(fp) if fp == rt.fingerprint => {}
                    ShardFrame::Hello(_) => {
                        // The worker rebuilt a different campaign — a
                        // config bug, deterministic on retry. Degrade
                        // this campaign; the fleet is unaffected.
                        poisoned = true;
                        scoped.incr("harden.degraded");
                        let _ = terminate_child(&mut child, slot_cfg.term_grace);
                    }
                    ShardFrame::Begin(index) => in_flight = Some(index),
                    ShardFrame::Verdict(index, status) => {
                        if !token.is_cancelled() {
                            let _ = tx.send(Msg::Verdict {
                                slot,
                                id: data.id,
                                index,
                                status,
                            });
                            emitted += 1;
                        }
                        if in_flight == Some(index) {
                            in_flight = None;
                        }
                    }
                    ShardFrame::Done | ShardFrame::Foreign => {}
                }
            }
            Ok(PipeEvent::Eof { dropped, torn }) => {
                let torn_frames = dropped + u64::from(torn);
                if torn_frames > 0 {
                    scoped.incr_by("mutation.frames_dropped", torn_frames);
                }
                break;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if token.is_cancelled() && !aborted {
            aborted = true;
            let _ = terminate_child(&mut child, slot_cfg.term_grace);
        }
        if !killed_unresponsive && !aborted && liveness.expired() {
            killed_unresponsive = true;
            scoped.incr("mutation.shard_kill");
            let _ = terminate_child(&mut child, slot_cfg.term_grace);
        }
    }
    let _ = reader.join();
    let class = match wait_with_deadline(&mut child, slot_cfg.term_grace) {
        Ok(status) => classify_exit(status),
        Err(_) => ExitClass::Signal(-1),
    };
    if aborted || token.is_cancelled() {
        return LeaseOutcome::Aborted;
    }
    if emitted as usize == indices.len() && !poisoned {
        return LeaseOutcome::Drained;
    }
    LeaseOutcome::Crashed {
        in_flight,
        reason: death_reason(class, killed_unresponsive),
        poisoned,
        emitted,
    }
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// How many consecutive zero-progress lease deaths degrade a campaign to
/// [`DegradeReason::HarnessFailure`].
const FUTILE_LEASES: u32 = 3;

/// Campaign heartbeat cadence: the supervisor emits a snapshot when at
/// least this long has passed since the previous one.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// How long the supervisor blocks on its message channel before waking
/// to schedule and consider a heartbeat.
const SUPERVISOR_POLL: Duration = Duration::from_millis(100);

struct Supervisor {
    config: OrchestratorConfig,
    service_token: CancelToken,
    rx: mpsc::Receiver<Msg>,
    slot_tx: Vec<mpsc::Sender<SlotCmd>>,
    slot_handles: Vec<std::thread::JoinHandle<()>>,
    /// Per slot: the campaign and indices of the lease it is running.
    slot_lease: Vec<Option<(CampaignId, Vec<usize>)>>,
    campaigns: HashMap<CampaignId, Campaign>,
    next_id: u64,
    shutting_down: bool,
    shutdown_reply: Option<mpsc::Sender<Vec<CampaignStatus>>>,
    last_fleet_beat: Instant,
}

impl Supervisor {
    fn run(mut self) {
        let _hook_guard = self.config.silence_panics.then(PanicSilencer::install);
        loop {
            match self.rx.recv_timeout(SUPERVISOR_POLL) {
                Ok(msg) => self.handle(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            // Drain bursts without blocking so verdict floods never
            // outpace the scheduler.
            while let Ok(msg) = self.rx.try_recv() {
                self.handle(msg);
            }
            self.schedule();
            self.heartbeats();
            if self.shutting_down && self.slot_lease.iter().all(|l| l.is_none()) {
                self.finish_shutdown();
                return;
            }
        }
    }

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Cmd(cmd) => self.handle_cmd(cmd),
            Msg::Prepared { slot, id, baseline } => self.handle_prepared(slot, id, baseline),
            Msg::Verdict {
                slot,
                id,
                index,
                status,
            } => self.handle_verdict(slot, id, index, status),
            Msg::LeaseEnded { slot, id, outcome } => self.handle_lease_ended(slot, id, outcome),
        }
    }

    fn handle_cmd(&mut self, cmd: Command) {
        match cmd {
            Command::Submit(request, handback, reply) => {
                let _ = reply.send(self.admit(*request, handback));
            }
            Command::Cancel(id, reply) => {
                let _ = reply.send(self.cancel(id));
            }
            Command::Status(id, reply) => {
                let _ = reply.send(self.campaigns.get(&id).map(Campaign::status));
            }
            Command::List(reply) => {
                let mut statuses: Vec<CampaignStatus> =
                    self.campaigns.values().map(Campaign::status).collect();
                statuses.sort_by_key(|s| s.id);
                let _ = reply.send(statuses);
            }
            Command::Wait(id, reply) => match self.campaigns.get_mut(&id) {
                Some(campaign) => match &campaign.outcome {
                    Some(outcome) => {
                        let _ = reply.send(Some(outcome.clone()));
                    }
                    None => campaign.waiters.push(reply),
                },
                None => {
                    let _ = reply.send(None);
                }
            },
            Command::Shutdown(reply) => {
                self.shutting_down = true;
                self.shutdown_reply = Some(reply);
                self.service_token.cancel();
                let ids: Vec<CampaignId> = self.campaigns.keys().copied().collect();
                for id in ids {
                    let campaign = match self.campaigns.get_mut(&id) {
                        Some(c) if !c.phase.is_terminal() => c,
                        _ => continue,
                    };
                    if campaign.pending_end.is_none() {
                        campaign.pending_end = Some(CampaignPhase::Cancelled);
                    }
                    if campaign.active_leases == 0 {
                        self.finalize(id);
                    } else {
                        campaign.phase = CampaignPhase::Draining;
                    }
                }
            }
        }
    }

    fn admit(
        &mut self,
        request: CampaignRequest,
        handback: Option<mpsc::Sender<Handback>>,
    ) -> Result<CampaignId, SubmitError> {
        if self.shutting_down {
            return Err(SubmitError::ServiceStopped);
        }
        let live = self
            .campaigns
            .values()
            .filter(|c| !c.phase.is_terminal())
            .count();
        if live >= self.config.capacity {
            self.config.telemetry.incr("orchestrator.rejected");
            return Err(SubmitError::QueueFull {
                capacity: self.config.capacity,
            });
        }
        let id = CampaignId(self.next_id);
        self.next_id += 1;
        let slot_cfg = SlotConfig::effective(&request.config);
        let spec = match &request.config.isolation {
            IsolationMode::Process(spec) => Some(spec.clone()),
            IsolationMode::InThread => None,
        };
        let backoff_seed = spec.as_ref().map(|s| s.backoff_seed).unwrap_or(0) ^ id.0;
        let total = request.mutants.len();
        let campaign_telemetry = request.config.telemetry.clone();
        let root = campaign_telemetry.span_with("campaign", || format!("{id} {}", request.name));
        let scoped = campaign_telemetry.at(root.id());
        let data = Arc::new(CampaignData {
            id,
            shards: request.shards,
            suite: request.suite,
            mutants: request.mutants,
            config: request.config,
            token: self.service_token.child(),
        });
        let slots = self.slot_tx.len();
        let campaign = Campaign {
            data,
            name: request.name,
            priority: request.priority,
            mutant_budget: request.mutant_budget,
            slot_cfg,
            spec,
            phase: CampaignPhase::Queued,
            rt: None,
            ledger: Ledger::new(total, slots, scoped),
            leased: vec![false; total],
            lease_size: 1,
            executed: 0,
            replayed: 0,
            crashes: 0,
            futile: 0,
            exhaustion_flagged: false,
            active_leases: 0,
            next_lease_at: Instant::now(),
            backoff_rng: Rng::seed_from_u64(backoff_seed),
            respawns: 0,
            starved: 0,
            pending_end: None,
            outcome: None,
            waiters: Vec::new(),
            root: Some(root),
            workers: (0..slots).map(|_| None).collect(),
            handback,
            last_beat: Instant::now(),
        };
        self.campaigns.insert(id, campaign);
        self.config.telemetry.incr("orchestrator.admitted");
        Ok(id)
    }

    fn cancel(&mut self, id: CampaignId) -> bool {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return false;
        };
        if campaign.phase.is_terminal() {
            return false;
        }
        self.config.telemetry.incr("orchestrator.cancelled");
        campaign.data.token.cancel();
        if campaign.pending_end.is_none() {
            campaign.pending_end = Some(CampaignPhase::Cancelled);
        }
        if campaign.active_leases == 0 {
            self.finalize(id);
        } else {
            campaign.phase = CampaignPhase::Draining;
        }
        true
    }

    fn handle_prepared(
        &mut self,
        slot: usize,
        id: CampaignId,
        baseline: Option<Box<GoldenBaseline>>,
    ) {
        self.slot_lease[slot] = None;
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        campaign.active_leases -= 1;
        if campaign.phase == CampaignPhase::Draining || campaign.data.token.is_cancelled() {
            if campaign.pending_end.is_none() {
                campaign.pending_end = Some(CampaignPhase::Cancelled);
            }
            if campaign.active_leases == 0 {
                self.finalize(id);
            }
            return;
        }
        let Some(baseline) = baseline else {
            // The golden run panicked: the subject's harness is broken
            // and every lease would fail the same way.
            campaign.ledger.telemetry().incr("mutation.worker_crash");
            campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
            self.finalize(id);
            return;
        };
        let data = campaign.data.clone();
        let class_name = data.shards.class_name();
        campaign
            .ledger
            .open_journal(class_name, &data.suite, &data.mutants, &data.config);
        persist_coverage(
            &data.config,
            &baseline,
            campaign.ledger.fingerprint(),
            campaign.ledger.telemetry(),
        );
        let fingerprint =
            campaign_fingerprint(class_name, &data.suite, &data.mutants, &data.config);
        campaign.replayed = campaign.ledger.done() as u64;
        if campaign.replayed > 0 {
            self.config.telemetry.incr("orchestrator.resumed");
        }
        // A process lease pays a shard spawn and a shard golden run, so
        // by default each slot gets one lease covering its share of the
        // work left; a thread lease is cheap, so by default leases are
        // single mutants and slow ones never hold up the rest.
        let slots = self.slot_tx.len();
        campaign.lease_size = match (self.config.lease_size, &campaign.spec) {
            (0, Some(_)) => campaign.ledger.unfinished().div_ceil(slots).max(1),
            (0, None) => 1,
            (size, _) => size,
        };
        campaign.rt = Some(Arc::new(CampaignRuntime {
            data,
            baseline: *baseline,
            fingerprint,
        }));
        campaign.phase = CampaignPhase::Running;
        campaign
            .ledger
            .telemetry()
            .gauge("mutation.workers", self.config.slots as i64);
        if campaign.ledger.unfinished() == 0 {
            campaign.pending_end = Some(CampaignPhase::Completed);
            self.finalize(id);
            return;
        }
        // A zero budget with work left degrades immediately.
        self.check_budget(id);
    }

    fn handle_verdict(&mut self, slot: usize, id: CampaignId, index: usize, status: MutantStatus) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        // Merges happen only while the campaign is healthy: a draining
        // campaign's late verdicts are discarded so its journal (and so a
        // resumed run) stays byte-identical to a solo run's prefix.
        if campaign.phase != CampaignPhase::Running || campaign.data.token.is_cancelled() {
            return;
        }
        if !campaign.ledger.merge(index, status, Some(slot)) {
            return;
        }
        campaign.executed += 1;
        if campaign.ledger.unfinished() == 0 {
            // Completion is finalized when the owning lease ends, but the
            // phase no longer accepts verdicts-after-complete.
            return;
        }
        self.check_budget(id);
    }

    /// Degrades `id` to `BudgetExhausted` when its campaign-level mutant
    /// budget is spent with unfinished mutants left.
    fn check_budget(&mut self, id: CampaignId) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        let Some(budget) = campaign.mutant_budget else {
            return;
        };
        if campaign.phase != CampaignPhase::Running
            || campaign.executed < budget
            || campaign.ledger.unfinished() == 0
        {
            return;
        }
        campaign.data.token.cancel();
        campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::BudgetExhausted));
        let executed = campaign.executed;
        let queued = campaign.ledger.unfinished();
        campaign
            .ledger
            .telemetry()
            .snapshot("campaign.degraded", || {
                vec![
                    ("executed".to_owned(), executed as i64),
                    ("queued".to_owned(), queued as i64),
                ]
            });
        if campaign.active_leases == 0 {
            self.finalize(id);
        } else {
            campaign.phase = CampaignPhase::Draining;
        }
    }

    fn handle_lease_ended(&mut self, slot: usize, id: CampaignId, outcome: LeaseOutcome) {
        let lease = self.slot_lease[slot].take();
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        campaign.active_leases -= 1;
        // Return unmerged leased indices to the pool.
        if let Some((lease_id, indices)) = lease {
            if lease_id == id {
                for index in indices {
                    if !campaign.ledger.is_done(index) {
                        campaign.leased[index] = false;
                    }
                }
            }
        }
        if campaign.phase == CampaignPhase::Running {
            match outcome {
                LeaseOutcome::Drained => campaign.futile = 0,
                LeaseOutcome::Aborted => {}
                LeaseOutcome::Crashed {
                    in_flight,
                    reason,
                    poisoned,
                    emitted,
                } => handle_crash(campaign, slot, in_flight, reason, poisoned, emitted),
            }
        }
        if campaign.phase == CampaignPhase::Running && campaign.ledger.unfinished() == 0 {
            campaign.pending_end = Some(CampaignPhase::Completed);
        }
        if campaign.pending_end.is_some() && campaign.active_leases == 0 {
            self.finalize(id);
        } else if campaign.pending_end.is_some() {
            campaign.phase = CampaignPhase::Draining;
        }
    }

    /// Moves a campaign into its pending terminal phase, builds its
    /// outcome, wakes waiters, and releases its runtime.
    fn finalize(&mut self, id: CampaignId) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        let end_phase = campaign
            .pending_end
            .take()
            .unwrap_or(CampaignPhase::Cancelled);
        campaign.phase = end_phase;
        campaign.ledger.heartbeat();
        campaign.workers.clear();
        let golden = campaign
            .rt
            .as_ref()
            .map(|rt| rt.baseline.golden.clone())
            .unwrap_or_else(|| SuiteResult {
                class_name: campaign.data.shards.class_name().to_owned(),
                cases: Vec::new(),
                notes: Vec::new(),
            });
        let mutants = &campaign.data.mutants;
        let end = match end_phase {
            CampaignPhase::Completed => {
                self.config.telemetry.incr("orchestrator.completed");
                CampaignEnd::Completed(Box::new(campaign.ledger.finish(mutants, golden)))
            }
            CampaignPhase::Degraded(reason) => {
                self.config.telemetry.incr("orchestrator.degraded");
                let results = campaign.ledger.results(mutants);
                CampaignEnd::Degraded {
                    reason,
                    partial: Box::new(MutationRun { results, golden }),
                }
            }
            _ => CampaignEnd::Cancelled,
        };
        // A degraded solo campaign is finished inline by its caller: hand
        // the ledger, baseline and open campaign span back before any
        // waiter wakes.
        if let (CampaignEnd::Degraded { .. }, Some(handback)) = (&end, campaign.handback.take()) {
            let total = campaign.ledger.total();
            let telemetry = campaign.ledger.telemetry().clone();
            let _ = handback.send(Handback {
                ledger: std::mem::replace(&mut campaign.ledger, Ledger::new(total, 0, telemetry)),
                runtime: campaign.rt.clone(),
                root: campaign.root.take(),
            });
        }
        let outcome = CampaignOutcome {
            id,
            name: campaign.name.clone(),
            end,
        };
        for waiter in campaign.waiters.drain(..) {
            let _ = waiter.send(Some(outcome.clone()));
        }
        campaign.outcome = Some(outcome);
        // Release the heavyweight state; the journal was fsynced per
        // append, so the campaign is already checkpointed.
        campaign.rt = None;
        campaign.ledger.close_journal();
        if let Some(root) = campaign.root.take() {
            root.finish();
        }
    }

    /// Hands free slots leases: queued campaigns prepare first (FIFO),
    /// then the runnable campaign with the highest aged priority wins.
    fn schedule(&mut self) {
        if self.shutting_down {
            return;
        }
        let now = Instant::now();
        for slot in 0..self.slot_tx.len() {
            if self.slot_lease[slot].is_some() {
                continue;
            }
            // Queued campaigns prepare in submit order.
            let queued = self
                .campaigns
                .values()
                .filter(|c| c.phase == CampaignPhase::Queued)
                .map(|c| c.data.id)
                .min();
            if let Some(id) = queued {
                if let Some(campaign) = self.campaigns.get_mut(&id) {
                    campaign.phase = CampaignPhase::Preparing;
                    campaign.active_leases += 1;
                    self.slot_lease[slot] = Some((id, Vec::new()));
                    let _ = self.slot_tx[slot].send(SlotCmd::Prepare {
                        data: campaign.data.clone(),
                        telemetry: campaign.ledger.telemetry().clone(),
                    });
                }
                continue;
            }
            // Work stealing with aged priorities: highest effective
            // priority wins; ties go to the campaign with fewer leases in
            // flight, then to the older campaign.
            let winner = self
                .campaigns
                .values()
                .filter(|c| c.runnable(now))
                .max_by_key(|c| {
                    (
                        u64::from(c.priority) + u64::from(c.starved),
                        std::cmp::Reverse(c.active_leases),
                        std::cmp::Reverse(c.data.id),
                    )
                })
                .map(|c| c.data.id);
            let Some(id) = winner else {
                continue;
            };
            // Aging: everyone else runnable gains a round.
            for campaign in self.campaigns.values_mut() {
                if campaign.data.id != id && campaign.runnable(now) {
                    campaign.starved = campaign.starved.saturating_add(1);
                }
            }
            let Some(campaign) = self.campaigns.get_mut(&id) else {
                continue;
            };
            campaign.starved = 0;
            let Some(rt) = campaign.rt.clone() else {
                continue;
            };
            let indices = campaign.take_lease();
            if indices.is_empty() {
                continue;
            }
            campaign.active_leases += 1;
            self.slot_lease[slot] = Some((id, indices.clone()));
            self.config.telemetry.incr("orchestrator.leases");
            let ledger = &campaign.ledger;
            let worker = campaign.workers[slot].get_or_insert_with(|| {
                ledger
                    .telemetry()
                    .span_with("worker", || format!("w{slot}"))
            });
            let telemetry = ledger.telemetry().at(worker.id());
            let cmd = match campaign.spec.clone() {
                Some(spec) => SlotCmd::ProcessLease {
                    rt,
                    indices,
                    spec,
                    slot_cfg: campaign.slot_cfg,
                    telemetry,
                },
                None => SlotCmd::ThreadLease {
                    rt,
                    indices,
                    telemetry,
                },
            };
            let _ = self.slot_tx[slot].send(cmd);
        }
    }

    fn heartbeats(&mut self) {
        let now = Instant::now();
        for campaign in self.campaigns.values_mut() {
            if campaign.phase == CampaignPhase::Running
                && campaign.ledger.telemetry().is_enabled()
                && now.duration_since(campaign.last_beat) >= HEARTBEAT_INTERVAL
            {
                campaign.last_beat = now;
                campaign.ledger.heartbeat();
            }
        }
        if self.config.telemetry.is_enabled()
            && now.duration_since(self.last_fleet_beat) >= HEARTBEAT_INTERVAL
        {
            self.last_fleet_beat = now;
            let active = self
                .campaigns
                .values()
                .filter(|c| !c.phase.is_terminal())
                .count() as i64;
            let queued = self
                .campaigns
                .values()
                .filter(|c| c.phase == CampaignPhase::Queued)
                .count() as i64;
            let busy = self.slot_lease.iter().filter(|l| l.is_some()).count() as i64;
            self.config.telemetry.snapshot("orchestrator.progress", || {
                vec![
                    ("active".to_owned(), active),
                    ("queued".to_owned(), queued),
                    ("busy_slots".to_owned(), busy),
                ]
            });
        }
    }

    /// Every slot is idle and the service is stopping: finalize what's
    /// left, answer the shutdown caller, and retire the fleet.
    fn finish_shutdown(&mut self) {
        let ids: Vec<CampaignId> = self.campaigns.keys().copied().collect();
        for id in ids {
            let terminal = self
                .campaigns
                .get(&id)
                .map(|c| c.phase.is_terminal())
                .unwrap_or(true);
            if !terminal {
                self.finalize(id);
            }
        }
        let mut statuses: Vec<CampaignStatus> =
            self.campaigns.values().map(Campaign::status).collect();
        statuses.sort_by_key(|s| s.id);
        if let Some(reply) = self.shutdown_reply.take() {
            let _ = reply.send(statuses);
        }
        for tx in &self.slot_tx {
            let _ = tx.send(SlotCmd::Shutdown);
        }
        for handle in self.slot_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The death ladder's campaign side: a lease crash charges its in-flight
/// mutant through [`Ledger::blame`] (retried once, convicted on the
/// second death). Leases that die repeatedly with no progress at all
/// degrade the campaign instead of spinning forever, and a poisoned
/// shard (wrong campaign fingerprint) degrades it at once.
fn handle_crash(
    campaign: &mut Campaign,
    slot: usize,
    in_flight: Option<usize>,
    reason: QuarantineReason,
    poisoned: bool,
    emitted: u64,
) {
    campaign.crashes += 1;
    if poisoned {
        campaign.data.token.cancel();
        campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
        return;
    }
    let charged = in_flight.is_some_and(|index| campaign.ledger.blame(index, reason, slot));
    if emitted > 0 || charged {
        campaign.futile = 0;
    } else {
        campaign.futile += 1;
        if campaign.futile >= FUTILE_LEASES {
            campaign.data.token.cancel();
            campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
            return;
        }
    }
    // Process campaigns back off before their next lease, on a jittered
    // envelope.
    if let Some(spec) = &campaign.spec {
        campaign.respawns += 1;
        campaign.ledger.telemetry().incr("mutation.shard_respawn");
        let delay = spec
            .respawn_backoff
            .jittered_delay(campaign.respawns, &mut campaign.backoff_rng);
        campaign.next_lease_at = Instant::now() + delay;
    }
    let budget = campaign.data.config.worker_restarts;
    if campaign.crashes > budget as u64 && !campaign.exhaustion_flagged {
        // Past the restart budget the campaign keeps leasing — it still
        // ends, by conviction or futility — but the harness-health table
        // gets a `mutation.restarts_exhausted` row and the flight
        // recorder a `campaign.degraded` event with the work left.
        campaign.exhaustion_flagged = true;
        let queued = campaign.ledger.unfinished();
        let telemetry = campaign.ledger.telemetry();
        telemetry.incr("mutation.restarts_exhausted");
        telemetry.snapshot("campaign.degraded", || {
            vec![
                ("restarts_spent".to_owned(), budget as i64),
                ("queued".to_owned(), queued as i64),
            ]
        });
    }
}

// ---------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------

/// A running campaign-orchestration service; see the [module docs](self).
///
/// # Examples
///
/// ```no_run
/// use concat_mutation::{Orchestrator, OrchestratorConfig};
///
/// let service = Orchestrator::start(OrchestratorConfig::default());
/// // let id = service.submit(request)?;
/// // let outcome = service.wait(id);
/// let _statuses = service.shutdown();
/// ```
pub struct Orchestrator {
    tx: mpsc::Sender<Msg>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    service_token: CancelToken,
}

impl Orchestrator {
    /// Starts the service: one supervisor thread plus `config.slots`
    /// persistent slot workers.
    pub fn start(config: OrchestratorConfig) -> Orchestrator {
        let slots = config.slots.max(1);
        let service_token = CancelToken::new();
        let (tx, rx) = mpsc::channel::<Msg>();
        let mut slot_tx = Vec::with_capacity(slots);
        let mut slot_handles = Vec::with_capacity(slots);
        for slot in 0..slots {
            let (cmd_tx, cmd_rx) = mpsc::channel::<SlotCmd>();
            let msg_tx = tx.clone();
            slot_tx.push(cmd_tx);
            slot_handles.push(std::thread::spawn(move || {
                slot_main(slot, cmd_rx, msg_tx);
            }));
        }
        config.telemetry.gauge("orchestrator.slots", slots as i64);
        let supervisor = Supervisor {
            config,
            service_token: service_token.clone(),
            rx,
            slot_tx,
            slot_handles,
            slot_lease: {
                let mut v = Vec::new();
                v.resize_with(slots, || None);
                v
            },
            campaigns: HashMap::new(),
            next_id: 1,
            shutting_down: false,
            shutdown_reply: None,
            last_fleet_beat: Instant::now(),
        };
        let handle = std::thread::spawn(move || supervisor.run());
        Orchestrator {
            tx,
            supervisor: Some(handle),
            service_token,
        }
    }

    /// Submits a campaign.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] past the admission bound,
    /// [`SubmitError::ServiceStopped`] after shutdown.
    pub fn submit(&self, request: CampaignRequest) -> Result<CampaignId, SubmitError> {
        self.submit_with(request, None)
    }

    fn submit_with(
        &self,
        request: CampaignRequest,
        handback: Option<mpsc::Sender<Handback>>,
    ) -> Result<CampaignId, SubmitError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Msg::Cmd(Command::Submit(
                Box::new(request),
                handback,
                reply_tx,
            )))
            .is_err()
        {
            return Err(SubmitError::ServiceStopped);
        }
        reply_rx.recv().unwrap_or(Err(SubmitError::ServiceStopped))
    }

    /// Cancels a campaign. Returns `true` when the campaign existed and
    /// was not already terminal. The campaign's journal keeps its
    /// verified verdicts; resubmitting the same campaign resumes it.
    pub fn cancel(&self, id: CampaignId) -> bool {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Msg::Cmd(Command::Cancel(id, reply_tx)))
            .is_err()
        {
            return false;
        }
        reply_rx.recv().unwrap_or(false)
    }

    /// A point-in-time status of one campaign (`None` for unknown ids).
    pub fn status(&self, id: CampaignId) -> Option<CampaignStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Msg::Cmd(Command::Status(id, reply_tx)))
            .is_err()
        {
            return None;
        }
        reply_rx.recv().unwrap_or(None)
    }

    /// Statuses of every campaign this service instance has seen, in
    /// submit order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Cmd(Command::List(reply_tx))).is_err() {
            return Vec::new();
        }
        reply_rx.recv().unwrap_or_default()
    }

    /// Blocks until `id` reaches a terminal phase and returns its
    /// outcome (`None` for unknown ids or a stopped service).
    pub fn wait(&self, id: CampaignId) -> Option<CampaignOutcome> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Cmd(Command::Wait(id, reply_tx))).is_err() {
            return None;
        }
        reply_rx.recv().unwrap_or(None)
    }

    /// The service-level cancellation token. Campaign tokens are
    /// children of it: cancelling it (a SIGTERM handler, a test harness)
    /// aborts every in-flight lease, while each campaign's journal
    /// already holds its verified verdicts — the durable checkpoint a
    /// `--resume` replays.
    pub fn service_token(&self) -> &CancelToken {
        &self.service_token
    }

    /// Stops the service: cancels every campaign, waits for in-flight
    /// leases to stand down, finalizes all campaigns (non-terminal ones
    /// as [`CampaignPhase::Cancelled`], journals flushed), and returns
    /// the final statuses.
    pub fn shutdown(mut self) -> Vec<CampaignStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Cmd(Command::Shutdown(reply_tx))).is_err() {
            return Vec::new();
        }
        let statuses = reply_rx.recv().unwrap_or_default();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        statuses
    }
}

impl Drop for Orchestrator {
    fn drop(&mut self) {
        if let Some(handle) = self.supervisor.take() {
            let (reply_tx, reply_rx) = mpsc::channel();
            if self.tx.send(Msg::Cmd(Command::Shutdown(reply_tx))).is_ok() {
                let _ = reply_rx.recv();
            }
            let _ = handle.join();
        }
    }
}

/// Runs a full mutation analysis on an ephemeral fleet of
/// `config.workers` slots (clamped to `1..=mutants.len()`).
///
/// Every lease owns its own component factory (built through the
/// [`ClonableFactory`] seam), [`MutationSwitch`], runner and — when the
/// budget carries a deadline — watchdog thread and cancel token, so a
/// hanging mutant stalls only the slot that leased it. Verdicts merge
/// back in enumeration order, which makes the output **byte-identical
/// for every worker count and lease kind**: same verdict vector, same
/// score, same report tables. [`MutationConfig::isolation`] picks thread
/// or process leases; process leases are sized so each slot spawns one
/// shard (see [`OrchestratorConfig::lease_size`]).
///
/// The golden run is computed once, up front, and shared immutably.
/// Telemetry goes straight into `config.telemetry`: a `mutation` span over
/// the whole campaign (its wall time), the fleet's `campaign` span under
/// it, and one `worker` span per slot (`w0`, `w1`, …) with that slot's
/// leases and mutants beneath it; a `mutation.workers` gauge records the
/// slot count.
///
/// # Supervision and durability
///
/// Each verdict is journaled (when `config.journal_path` is set) before
/// it is merged. A crash costs at most its in-flight mutant: a panicking
/// classification is quarantined as [`QuarantineReason::WorkerCrash`],
/// and a shard killed mid-mutant retries that mutant once and
/// quarantines it on a second death. Should the fleet give up on the
/// campaign (a broken harness, a shard that rebuilds a different
/// campaign, or leases that keep dying without progress), the calling
/// thread finishes the unfinished mutants inline — a mutant already
/// blamed for a shard death is quarantined with its recorded reason
/// rather than run in-process — so partial results are never returned.
/// On restart with the same journal path, verified verdicts are replayed
/// and only unfinished mutants re-execute; the merged output stays
/// byte-identical to an uninterrupted run.
pub fn run_mutation_analysis_parallel(
    shards: Arc<dyn ClonableFactory>,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> MutationRun {
    let _hook_guard = config.silence_panics.then(PanicSilencer::install);
    let run_span = config.telemetry.span("mutation", shards.class_name());
    let telemetry = config.telemetry.at(run_span.id());
    let service = Orchestrator::start(OrchestratorConfig {
        slots: config.workers.clamp(1, mutants.len().max(1)),
        capacity: 1,
        lease_size: 0,
        telemetry: Telemetry::disabled(),
        silence_panics: false,
    });
    let request = CampaignRequest {
        name: shards.class_name().to_owned(),
        shards: shards.clone(),
        suite: suite.clone(),
        mutants: mutants.to_vec(),
        config: MutationConfig {
            telemetry: telemetry.clone(),
            ..config.clone()
        },
        priority: 0,
        mutant_budget: None,
    };
    let (handback_tx, handback_rx) = mpsc::channel();
    let end = service
        .submit_with(request, Some(handback_tx))
        .ok()
        .and_then(|id| service.wait(id))
        .map(|outcome| outcome.end);
    service.shutdown();
    if let Some(CampaignEnd::Completed(run)) = end {
        return *run;
    }
    let handback = handback_rx.recv().unwrap_or_else(|_| Handback {
        ledger: Ledger::new(mutants.len(), 0, telemetry),
        runtime: None,
        root: None,
    });
    finish_inline(shards.as_ref(), suite, mutants, config, handback)
}

/// Finishes a degraded solo campaign on the inline slot: blamed mutants
/// are convicted with their recorded reasons, the rest run on the calling
/// thread against the fleet's golden baseline (or a fresh one, if the
/// fleet never prepared it).
fn finish_inline(
    shards: &dyn ClonableFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    handback: Handback,
) -> MutationRun {
    let Handback {
        mut ledger,
        runtime,
        root,
    } = handback;
    if !ledger.is_open() {
        ledger.open_journal(shards.class_name(), suite, mutants, config);
    }
    ledger.convict_blamed();
    let telemetry = ledger.telemetry().clone();
    let switch = MutationSwitch::new();
    let factory = shards.build_factory(&switch);
    let runner = build_runner(config, &telemetry);
    switch.set_cancel_token(runner.cancel_token().clone());
    let fresh;
    let baseline = match &runtime {
        Some(rt) => &rt.baseline,
        None => {
            fresh = run_golden(
                &runner,
                factory.as_ref(),
                suite,
                mutants,
                config,
                &telemetry,
            );
            persist_coverage(config, &fresh, ledger.fingerprint(), &telemetry);
            &fresh
        }
    };
    let engine = Engine::new(suite, config, baseline);
    run_inline(
        &engine,
        factory.as_ref(),
        &switch,
        &runner,
        mutants,
        &mut ledger,
    );
    switch.clear_cancel_token();
    let run = ledger.finish(mutants, baseline.golden.clone());
    drop(root);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_config_defaults_match_process_isolation_defaults() {
        let default = SlotConfig::default();
        let spec = ProcessIsolation::new(["x"]);
        assert_eq!(default.startup_grace, spec.startup_grace);
        assert_eq!(default.heartbeat_timeout, spec.heartbeat_timeout);
        assert_eq!(default.term_grace, spec.term_grace);
    }

    #[test]
    fn slot_config_inherits_campaign_isolation_spec() {
        let mut spec = ProcessIsolation::new(["worker"]);
        spec.startup_grace = Duration::from_secs(120);
        spec.heartbeat_timeout = Duration::from_secs(60);
        spec.term_grace = Duration::from_millis(50);
        let config = MutationConfig {
            isolation: IsolationMode::Process(spec),
            ..MutationConfig::default()
        };
        let effective = SlotConfig::effective(&config);
        assert_eq!(effective.startup_grace, Duration::from_secs(120));
        assert_eq!(effective.heartbeat_timeout, Duration::from_secs(60));
        assert_eq!(effective.term_grace, Duration::from_millis(50));
    }

    #[test]
    fn phase_and_error_displays_are_stable() {
        assert_eq!(CampaignPhase::Queued.to_string(), "queued");
        assert_eq!(
            CampaignPhase::Degraded(DegradeReason::BudgetExhausted).to_string(),
            "degraded(budget-exhausted)"
        );
        assert_eq!(
            CampaignPhase::Degraded(DegradeReason::HarnessFailure).to_string(),
            "degraded(harness-failure)"
        );
        assert!(SubmitError::QueueFull { capacity: 3 }
            .to_string()
            .contains("capacity 3"));
        assert_eq!(CampaignId(7).to_string(), "c7");
        assert!(CampaignPhase::Completed.is_terminal());
        assert!(!CampaignPhase::Draining.is_terminal());
    }

    #[test]
    fn unknown_ids_are_handled() {
        let service = Orchestrator::start(OrchestratorConfig {
            slots: 1,
            ..OrchestratorConfig::default()
        });
        let ghost = CampaignId(999);
        assert!(service.status(ghost).is_none());
        assert!(!service.cancel(ghost));
        assert!(service.wait(ghost).is_none());
        assert!(service.list().is_empty());
        let statuses = service.shutdown();
        assert!(statuses.is_empty());
    }
}
