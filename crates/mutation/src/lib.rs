//! # concat-mutation
//!
//! Interface mutation analysis for self-testable components.
//!
//! Part of the `concat-rs` reproduction of *"Constructing Self-Testable
//! Software Components"* (Martins, Toyota & Yanagawa, DSN 2001). The
//! paper's empirical evaluation (§4) measures the fault-revealing power of
//! generated test suites with the essential *interface mutation* operators
//! of Table 1. This crate provides the whole pipeline:
//!
//! * [`MutationOperator`] / [`ReqConst`] — the Table-1 operator catalogue;
//! * [`ClassInventory`] / [`MethodInventory`] / [`UseSite`] — where faults
//!   can be injected (the mechanical form of the paper's manual insertion
//!   rules; see DESIGN.md §2 for the substitution argument);
//! * [`enumerate_mutants`] — deterministic mutant enumeration per operator;
//! * [`MutationSwitch`] / [`FaultPlan`] — runtime activation of exactly one
//!   mutant (components read instrumented variables through the switch);
//! * [`run_mutation_analysis`] — golden run, per-mutant execution, kill
//!   classification (crash / assertion violation / output difference),
//!   equivalence probing, and the [`MutationRun`] scores, all on the
//!   calling thread (the *inline slot*);
//! * [`Orchestrator`] — the one parallel executor: a supervised fleet of
//!   slot workers leasing mutants from any number of campaigns, with
//!   crash containment (a crash costs at most its in-flight mutant),
//!   priorities, admission control, cancellation and budgets;
//! * [`run_mutation_analysis_parallel`] / [`ClonableFactory`] — a solo
//!   campaign on an ephemeral fleet of `workers` slots, each lease owning
//!   its own factory/switch/runner/watchdog, merged by enumeration index
//!   so every worker count yields byte-identical verdicts; a campaign the
//!   fleet gives up on is finished on the inline slot;
//! * [`IsolationMode`] / [`ProcessIsolation`] / [`run_shard_worker`] —
//!   the lease kind: thread leases, or process leases whose shards are
//!   child processes streaming verdicts over a checksummed frame
//!   protocol, so a mutant that aborts or spins without a checkpoint
//!   loses only itself (quarantined with a shard-level
//!   [`QuarantineReason`]), never the campaign;
//! * [`CampaignJournal`] / [`campaign_fingerprint`] — the durable
//!   write-ahead verdict journal behind resumable campaigns (the paper's
//!   §3.4 test-history mandate): set `MutationConfig::journal_path` and a
//!   killed campaign resumes with only unfinished mutants re-executed,
//!   while a changed campaign keeps the verdicts of every method whose
//!   per-method sub-fingerprint still matches and re-executes the rest;
//! * [`MutationMatrix`] — the method × operator aggregation behind the
//!   paper's Tables 2 and 3.
//!
//! # Examples
//!
//! ```
//! use concat_mutation::{enumerate_mutants, ClassInventory, MethodInventory};
//!
//! let inv = ClassInventory::new("C")
//!     .globals(["count"])
//!     .method(
//!         MethodInventory::new("M")
//!             .locals(["i"])
//!             .globals_used(["count"])
//!             .site(0, "i", "index"),
//!     );
//! let mutants = enumerate_mutants(&inv, &["M"]);
//! assert!(!mutants.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod amplify;
mod analysis;
mod enumerate;
mod fault;
mod inventory;
mod journal;
mod matrix;
mod operators;
mod orchestrator;
mod shard;

pub use amplify::{
    amplify_suite, amplify_suite_parallel, AmplifyConfig, AmplifyOutcome, RoundReport,
};
pub use analysis::{
    load_campaign_coverage, run_mutation_analysis, IsolationMode, KillReason, MutantResult,
    MutantStatus, MutationConfig, MutationRun, ProcessIsolation, QuarantineReason,
};
pub use enumerate::{enumerate_mutants, expected_count, Mutant};
pub use fault::{
    coerce_int, ClonableFactory, FaultPlan, MutationSwitch, Replacement, Scope, VarEnv,
};
pub use inventory::{ClassInventory, MethodInventory, UseSite};
pub use journal::{campaign_fingerprint, decode_verdict, encode_verdict, CampaignJournal};
pub use matrix::{CellStats, MutationMatrix};
pub use operators::{MutationOperator, ReqConst};
pub use orchestrator::{
    run_mutation_analysis_parallel, CampaignEnd, CampaignId, CampaignOutcome, CampaignPhase,
    CampaignRequest, CampaignStatus, DegradeReason, Orchestrator, OrchestratorConfig, SlotConfig,
    SubmitError,
};
pub use shard::{
    run_shard_worker, shard_worker_requested, SHARD_FINGERPRINT_ENV, SHARD_INDICES_ENV,
};
