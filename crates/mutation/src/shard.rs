//! The worker half of process leases ([`IsolationMode::Process`]), and
//! the frame protocol both halves speak.
//!
//! Thread leases contain everything that *unwinds*; they cannot contain a
//! mutant that calls `std::process::abort()`, overflows the stack, or
//! spins in a loop with no cooperative checkpoint. Process leases put a
//! kernel-enforced boundary around each lease:
//!
//! * The fleet's process lease (in the orchestrator) self-execs the
//!   current binary ([`ProcessIsolation::worker_args`] names the hidden
//!   entry point), hands the child its leased indices via
//!   `CONCAT_SHARD_*` environment variables, and reads verdicts off the
//!   child's stdout through the runtime's checksummed frame codec — a
//!   SIGKILL mid-frame tears at a frame boundary, detected and dropped
//!   exactly like a torn journal tail.
//! * The **worker** ([`run_shard_worker`]) rebuilds the identical
//!   campaign (the fingerprint is verified before any mutant runs),
//!   computes its own golden baseline, and classifies its assigned
//!   mutants with the same per-mutant step thread leases use, framing
//!   each verdict with [`encode_verdict`].
//!
//! Liveness is heartbeat-based: every frame is proof of life, and a
//! `shard-begin` frame additionally names the in-flight mutant, so when a
//! shard dies — abort, signal, or a missed heartbeat deadline answered
//! with the SIGTERM→SIGKILL ladder — the fleet knows exactly which
//! mutant to blame. Blame is charged on the *second* death (the mutant is
//! retried once first), so an innocent mutant whose shard was killed from
//! outside re-executes and the campaign stays byte-identical to an
//! uninterrupted one; a mutant that reproducibly kills its host is
//! quarantined with a process-level [`QuarantineReason`] (see
//! [`death_reason`]) and the campaign completes without it.
//!
//! [`IsolationMode::Process`]: crate::IsolationMode::Process

use crate::analysis::{
    build_runner, Engine, MutantStatus, MutationConfig, PanicSilencer, QuarantineReason,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::journal::{campaign_fingerprint, decode_verdict, encode_verdict};
use concat_driver::TestSuite;
use concat_obs::Telemetry;
use concat_runtime::{encode_frame, ExitClass};
use std::io::Write;

/// Environment variable carrying a shard's assigned mutant indices
/// (comma-separated enumeration indices).
pub const SHARD_INDICES_ENV: &str = "CONCAT_SHARD_INDICES";

/// Environment variable carrying the supervisor's campaign fingerprint
/// (8 hex digits); the worker recomputes and must match before running
/// anything.
pub const SHARD_FINGERPRINT_ENV: &str = "CONCAT_SHARD_FINGERPRINT";

/// Worker exit codes (all nonzero codes are supervision failures, not
/// mutant verdicts).
const EXIT_OK: i32 = 0;
const EXIT_BAD_ENV: i32 = 2;
const EXIT_FINGERPRINT_MISMATCH: i32 = 3;
const EXIT_PIPE_CLOSED: i32 = 4;

/// True when the current process was launched as a shard worker (the
/// protocol environment variables are present). Entry points call this
/// to decide between normal operation and [`run_shard_worker`].
pub fn shard_worker_requested() -> bool {
    std::env::var_os(SHARD_INDICES_ENV).is_some()
}

/// One frame from worker to supervisor, parsed.
pub(crate) enum ShardFrame {
    /// First frame: the worker's recomputed campaign fingerprint.
    Hello(u32),
    /// The worker is about to execute this mutant index (doubles as the
    /// heartbeat between mutants).
    Begin(usize),
    /// One classified mutant.
    Verdict(usize, MutantStatus),
    /// The worker finished its slice and is exiting cleanly.
    Done,
    /// A verified frame that is none of ours (ignored).
    Foreign,
}

pub(crate) fn parse_frame(payload: &str) -> ShardFrame {
    if let Some(rest) = payload.strip_prefix("shard-hello ") {
        if let Ok(fp) = u32::from_str_radix(rest, 16) {
            return ShardFrame::Hello(fp);
        }
    }
    if let Some(rest) = payload.strip_prefix("shard-begin ") {
        if let Ok(index) = rest.parse() {
            return ShardFrame::Begin(index);
        }
    }
    if let Some((index, status)) = decode_verdict(payload) {
        return ShardFrame::Verdict(index, status);
    }
    if payload == "shard-done" {
        return ShardFrame::Done;
    }
    ShardFrame::Foreign
}

/// Writes protocol frames straight to the process's stdout (bypassing
/// any capture the host harness installed) and flushes per frame, so a
/// kill between frames never tears one.
struct FrameWriter {
    out: std::io::Stdout,
}

impl FrameWriter {
    fn new() -> Self {
        FrameWriter {
            out: std::io::stdout(),
        }
    }

    /// Emits one frame; `false` when the pipe is gone (supervisor died —
    /// the worker should exit, there is nobody left to report to).
    fn emit(&mut self, payload: &str) -> bool {
        let Ok(frame) = encode_frame(payload) else {
            return false;
        };
        let mut lock = self.out.lock();
        lock.write_all(frame.as_bytes()).is_ok() && lock.flush().is_ok()
    }
}

/// The worker half: rebuilds the campaign, runs the assigned slice, and
/// streams frames to stdout. Returns the process exit code — callers
/// (hidden `shard-worker` entry points) pass it to [`std::process::exit`].
///
/// The caller must rebuild `suite`, `mutants` and `config` **exactly** as
/// the supervising campaign did (same seeds, budget, probes); the
/// fingerprint handshake aborts the shard before any mutant runs if they
/// diverge. Telemetry and the journal are supervisor concerns: the worker
/// runs with telemetry detached and never touches the journal file (two
/// writers would corrupt it) regardless of `config`.
pub fn run_shard_worker(
    shards: &dyn ClonableFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> i32 {
    let _hook_guard = config.silence_panics.then(PanicSilencer::install);
    let Ok(indices_var) = std::env::var(SHARD_INDICES_ENV) else {
        return EXIT_BAD_ENV;
    };
    let Ok(expected_var) = std::env::var(SHARD_FINGERPRINT_ENV) else {
        return EXIT_BAD_ENV;
    };
    let Ok(expected) = u32::from_str_radix(&expected_var, 16) else {
        return EXIT_BAD_ENV;
    };
    let indices: Vec<usize> = indices_var
        .split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();

    let mut out = FrameWriter::new();
    let fingerprint = campaign_fingerprint(shards.class_name(), suite, mutants, config);
    if !out.emit(&format!("shard-hello {fingerprint:08x}")) {
        return EXIT_PIPE_CLOSED;
    }
    if fingerprint != expected {
        return EXIT_FINGERPRINT_MISMATCH;
    }

    let telemetry = Telemetry::disabled();
    let switch = MutationSwitch::new();
    let factory = shards.build_factory(&switch);
    let runner = build_runner(config, &telemetry);
    switch.set_cancel_token(runner.cancel_token().clone());
    switch.disarm();
    let baseline = crate::analysis::run_golden(
        &runner,
        factory.as_ref(),
        suite,
        mutants,
        config,
        &telemetry,
    );
    let engine = Engine::new(suite, config, &baseline);

    for index in indices {
        let Some(mutant) = mutants.get(index) else {
            continue;
        };
        if !out.emit(&format!("shard-begin {index}")) {
            return EXIT_PIPE_CLOSED;
        }
        // The same two containment layers as a thread lease: the runner
        // catches case panics, and `execute` contains engine-adjacent
        // ones. What neither can catch — abort, stack overflow, a loop
        // with no checkpoint — is exactly what the process boundary and
        // the fleet's heartbeat deadline exist for.
        let (status, _crashed) =
            engine.execute(factory.as_ref(), &switch, &runner, &telemetry, mutant);
        if !out.emit(&encode_verdict(index, &status)) {
            return EXIT_PIPE_CLOSED;
        }
    }
    switch.disarm();
    switch.clear_cancel_token();
    if !out.emit("shard-done") {
        return EXIT_PIPE_CLOSED;
    }
    EXIT_OK
}

/// Maps how a shard died to the quarantine reason its in-flight mutant
/// earns on repeated deaths. A kill for a missed heartbeat outranks the
/// corpse's exit class, which would only show the fleet's own signal.
pub(crate) fn death_reason(class: ExitClass, killed_unresponsive: bool) -> QuarantineReason {
    if killed_unresponsive {
        return QuarantineReason::ShardUnresponsive;
    }
    match class {
        ExitClass::Abort => QuarantineReason::ShardAbort,
        _ => QuarantineReason::ShardSignal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_parse_and_reject() {
        assert!(matches!(
            parse_frame("shard-hello 00ffaa12"),
            ShardFrame::Hello(0x00FF_AA12)
        ));
        assert!(matches!(parse_frame("shard-begin 7"), ShardFrame::Begin(7)));
        assert!(matches!(parse_frame("shard-done"), ShardFrame::Done));
        assert!(matches!(
            parse_frame("verdict 3 survived"),
            ShardFrame::Verdict(3, MutantStatus::Survived)
        ));
        assert!(matches!(
            parse_frame("verdict 9 quarantined shard-abort"),
            ShardFrame::Verdict(
                9,
                MutantStatus::Quarantined {
                    reason: QuarantineReason::ShardAbort
                }
            )
        ));
        for foreign in [
            "",
            "shard-hello xx",
            "shard-begin -1",
            "running 2 tests",
            "verdict nine survived",
        ] {
            assert!(
                matches!(parse_frame(foreign), ShardFrame::Foreign),
                "{foreign:?}"
            );
        }
    }

    #[test]
    fn death_reasons_map_exit_classes() {
        assert_eq!(
            death_reason(ExitClass::Abort, false),
            QuarantineReason::ShardAbort
        );
        assert_eq!(
            death_reason(ExitClass::Signal(9), false),
            QuarantineReason::ShardSignal
        );
        assert_eq!(
            death_reason(ExitClass::Exit(1), false),
            QuarantineReason::ShardSignal
        );
        // A supervisor kill for a missed heartbeat outranks the corpse's
        // signal (which would just be our own SIGTERM/SIGKILL).
        assert_eq!(
            death_reason(ExitClass::Signal(9), true),
            QuarantineReason::ShardUnresponsive
        );
        assert_eq!(
            death_reason(ExitClass::Abort, true),
            QuarantineReason::ShardUnresponsive
        );
    }
}
