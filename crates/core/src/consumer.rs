//! The consumer workflow (paper §3.1, second half).
//!
//! "To use a self-testable component, a consumer should: generate test
//! cases based on the t-spec; compile the component in test mode; execute
//! tests; analyze the results obtained." [`Consumer::self_test`] runs all
//! four steps; [`Consumer::evaluate_quality`] additionally runs the §4
//! mutation analysis when the bundle carries an inventory; and
//! [`Consumer::subclass_plan`] applies the §3.4.2 incremental reuse rule.

use crate::bundle::SelfTestable;
use concat_driver::{
    save_suite_to_path, DriverGenerator, GenerateError, GeneratorConfig, ReusePlan, SuiteResult,
    TestLog, TestRunner, TestSuite, TestingHistory,
};
use concat_mutation::{
    amplify_suite, amplify_suite_parallel, enumerate_mutants, run_mutation_analysis,
    run_mutation_analysis_parallel, AmplifyConfig, AmplifyOutcome, CampaignRequest, IsolationMode,
    MutationConfig, MutationRun,
};
use concat_obs::Telemetry;
use concat_runtime::{recommended_workers, Budget, IoPolicy};
use std::fmt;
use std::path::{Path, PathBuf};

/// The outcome of one consumer self-test session.
#[derive(Debug, Clone)]
pub struct SelfTestReport {
    /// The generated suite (seed recorded inside).
    pub suite: TestSuite,
    /// Per-case execution results.
    pub result: SuiteResult,
    /// The `Result.txt`-style log.
    pub log: TestLog,
    /// Assertions evaluated during the session.
    pub assertion_checks: u64,
    /// Assertion violations observed during the session.
    pub assertion_violations: u64,
}

impl SelfTestReport {
    /// True when every test case passed.
    pub fn all_passed(&self) -> bool {
        self.result.failed() == 0
    }

    /// Harness-degradation notes from the run (budget stops, watchdog
    /// deadlines); empty on a healthy run. See [`SuiteResult::notes`].
    pub fn notes(&self) -> &[String] {
        &self.result.notes
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: {} case(s), {} passed, {} failed ({} by assertion); {} assertion check(s)",
            self.suite.class_name,
            self.result.cases.len(),
            self.result.passed(),
            self.result.failed(),
            self.result.assertion_failures(),
            self.assertion_checks
        );
        let stops = self.result.harness_stops();
        if stops > 0 {
            s.push_str(&format!("; {stops} harness stop(s)"));
        }
        s
    }
}

impl fmt::Display for SelfTestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Errors of the consumer workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsumerError {
    /// Test generation failed.
    Generate(GenerateError),
    /// Quality evaluation requested but the bundle has no mutation
    /// inventory/switch.
    NoMutationSupport,
    /// Reuse planning requested but the bundle has no inheritance map.
    NoInheritanceMap,
    /// Process isolation requested but the bundle has no sharding seam
    /// ([`SelfTestable::shards`]) — process shards are rebuilt from the
    /// clonable factory, so a non-sharded bundle cannot be isolated.
    NoShardSupport,
}

impl fmt::Display for ConsumerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsumerError::Generate(e) => write!(f, "generation failed: {e}"),
            ConsumerError::NoMutationSupport => {
                f.write_str("bundle carries no mutation inventory/switch")
            }
            ConsumerError::NoInheritanceMap => f.write_str("bundle carries no inheritance map"),
            ConsumerError::NoShardSupport => {
                f.write_str("process isolation needs a sharded bundle (no clonable factory)")
            }
        }
    }
}

impl std::error::Error for ConsumerError {}

impl From<GenerateError> for ConsumerError {
    fn from(e: GenerateError) -> Self {
        ConsumerError::Generate(e)
    }
}

/// The consumer-side test session driver.
#[derive(Debug, Clone)]
pub struct Consumer {
    config: GeneratorConfig,
    telemetry: Telemetry,
    budget: Budget,
    workers: Option<usize>,
    journal: Option<PathBuf>,
    isolation: IsolationMode,
    corpus: Option<PathBuf>,
}

impl Consumer {
    /// A consumer with the default generation configuration.
    pub fn new() -> Self {
        Consumer {
            config: GeneratorConfig::default(),
            telemetry: Telemetry::disabled(),
            budget: Budget::unlimited(),
            workers: None,
            journal: None,
            isolation: IsolationMode::InThread,
            corpus: None,
        }
    }

    /// A consumer with an explicit generation configuration.
    pub fn with_config(config: GeneratorConfig) -> Self {
        Consumer {
            config,
            telemetry: Telemetry::disabled(),
            budget: Budget::unlimited(),
            workers: None,
            journal: None,
            isolation: IsolationMode::InThread,
            corpus: None,
        }
    }

    /// A consumer with the default configuration but a chosen seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_config(GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        })
    }

    /// Attaches a telemetry handle. It propagates through the whole
    /// session: the driver generator (`generate` spans, `gen.*` counters),
    /// the runner (`suite`/`case` spans, `case.*`/`call.*`/`bit.*`
    /// counters), mutation analysis (`mutant` spans, `mutant.*` counters)
    /// and reuse planning (`reuse.*` counters). Disabled — and free — by
    /// default.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Caps test-case execution with `budget` (call count, transcript
    /// bytes, wall-clock deadline). It propagates to the runner of every
    /// session this consumer drives — including golden, mutant and probe
    /// runs during quality evaluation, where mutants that blow the budget
    /// are quarantined instead of hanging the analysis. Unlimited — the
    /// paper's semantics — by default.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The execution budget this consumer applies per test case.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Sets the worker count for quality evaluation. Only takes effect
    /// when the bundle carries a sharding seam
    /// ([`SelfTestable::shards`]); verdicts are identical for every
    /// value. Defaults to [`recommended_workers`] (the machine's
    /// available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The worker count quality evaluation will use on a sharded bundle.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(recommended_workers)
    }

    /// Journals quality-evaluation verdicts to `path` (the paper's §3.4
    /// test-history mandate): each mutant verdict is durably appended as
    /// it lands, and a killed campaign rerun with the same journal path
    /// replays the recorded verdicts and re-executes only unfinished
    /// mutants — the resumed run's verdicts, score and report are
    /// byte-identical to an uninterrupted one. When the campaign changed
    /// since the journal was written, the verdicts of methods whose
    /// per-method sub-fingerprint is unchanged are salvaged
    /// (`mutation.incremental_rebuild`) and only the changed methods'
    /// mutants re-execute, again byte-identical to a cold run for every
    /// worker count and isolation mode. No journal — and no extra I/O —
    /// by default.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// The verdict-journal path quality evaluation will use, if any.
    pub fn journal(&self) -> Option<&Path> {
        self.journal.as_deref()
    }

    /// Chooses how quality evaluation isolates mutant execution.
    /// [`IsolationMode::InThread`] (the default) runs shards as threads;
    /// [`IsolationMode::Process`] runs them as supervised child processes
    /// so a mutant that aborts or spins without a checkpoint loses only
    /// itself. Process isolation requires a sharded bundle
    /// ([`SelfTestable::shards`]) and an entry point in the current binary
    /// that calls [`Consumer::run_shard_worker`]; verdicts, score and
    /// report are byte-identical across modes.
    pub fn with_isolation(mut self, isolation: IsolationMode) -> Self {
        self.isolation = isolation;
        self
    }

    /// The isolation mode quality evaluation will use.
    pub fn isolation(&self) -> &IsolationMode {
        &self.isolation
    }

    /// Attaches a persistent cross-campaign corpus at `dir` (a
    /// [`concat_runtime::CorpusStore`] directory, created on first use).
    /// During [`Consumer::amplify_quality`], previously deposited killer
    /// cases for the same class are replayed as round-1 candidates ahead
    /// of synthesized ones (`corpus.seeded`), and the kept killers of
    /// this run are deposited back, content-addressed and stamped with
    /// the campaign fingerprint (`corpus.deposited`). No corpus — and no
    /// extra I/O — by default.
    pub fn with_corpus(mut self, dir: impl Into<PathBuf>) -> Self {
        self.corpus = Some(dir.into());
        self
    }

    /// The corpus directory amplification will seed from, if any.
    pub fn corpus(&self) -> Option<&Path> {
        self.corpus.as_deref()
    }

    /// The telemetry handle this consumer propagates.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The generation configuration in use.
    pub fn config(&self) -> GeneratorConfig {
        self.config
    }

    /// Generates the transaction-covering suite for the bundle
    /// (step 1 of the workflow).
    ///
    /// # Errors
    ///
    /// Propagates [`GenerateError`] from the driver generator.
    pub fn generate(&self, component: &SelfTestable) -> Result<TestSuite, ConsumerError> {
        let mut gen = DriverGenerator::new(self.config).with_telemetry(self.telemetry.clone());
        if spec_uses_provider(component.spec()) {
            concat_components_provider_shim(gen.inputs_mut());
        }
        Ok(gen.generate(component.spec())?)
    }

    /// Runs the full self-test: generate, switch to test mode, execute,
    /// analyze (steps 1–4).
    ///
    /// # Errors
    ///
    /// Propagates [`GenerateError`] from the driver generator.
    pub fn self_test(&self, component: &SelfTestable) -> Result<SelfTestReport, ConsumerError> {
        let suite = self.generate(component)?;
        self.run_suite(component, &suite)
    }

    /// Executes a pre-generated suite (used by reuse flows that run a
    /// filtered suite).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` keeps the signature
    /// uniform with [`Consumer::self_test`].
    pub fn run_suite(
        &self,
        component: &SelfTestable,
        suite: &TestSuite,
    ) -> Result<SelfTestReport, ConsumerError> {
        // test mode ON — "compile in test mode"
        let runner = TestRunner::new()
            .with_telemetry(self.telemetry.clone())
            .with_budget(self.budget);
        runner.bit_control().reset_counters();
        let mut log = TestLog::new();
        let result = runner.run_suite(component.factory(), suite, &mut log);
        Ok(SelfTestReport {
            suite: suite.clone(),
            result,
            log,
            assertion_checks: runner.bit_control().checks(),
            assertion_violations: runner.bit_control().violations(),
        })
    }

    /// Runs the §4 mutation analysis over the bundle's inventory for the
    /// given target methods, using `suite` as the killing test set.
    ///
    /// # Errors
    ///
    /// [`ConsumerError::NoMutationSupport`] when the bundle lacks an
    /// inventory or switch; generation errors when probe suites cannot be
    /// built.
    pub fn evaluate_quality(
        &self,
        component: &SelfTestable,
        suite: &TestSuite,
        target_methods: &[&str],
        probe_seeds: &[u64],
    ) -> Result<MutationRun, ConsumerError> {
        self.evaluate_quality_with(component, suite, target_methods, probe_seeds, true)
    }

    /// Like [`Consumer::evaluate_quality`], with an explicit BIT switch —
    /// `bit_enabled: false` is the assertions-off ablation.
    ///
    /// # Errors
    ///
    /// As for [`Consumer::evaluate_quality`].
    pub fn evaluate_quality_with(
        &self,
        component: &SelfTestable,
        suite: &TestSuite,
        target_methods: &[&str],
        probe_seeds: &[u64],
        bit_enabled: bool,
    ) -> Result<MutationRun, ConsumerError> {
        let (inventory, switch) = match (component.inventory(), component.switch()) {
            (Some(i), Some(s)) => (i, s),
            _ => return Err(ConsumerError::NoMutationSupport),
        };
        let mutants = enumerate_mutants(inventory, target_methods);
        let config = self.mutation_config(component, probe_seeds, bit_enabled)?;
        Ok(match component.shards_handle() {
            // A sharded bundle analyzes on a fleet of `workers` slots; the
            // merge is deterministic, so the run is byte-identical to the
            // sequential path below.
            Some(shards) => run_mutation_analysis_parallel(shards, suite, &mutants, &config),
            None if config.isolation.is_process() => {
                return Err(ConsumerError::NoShardSupport);
            }
            None => run_mutation_analysis(component.factory(), switch, suite, &mutants, &config),
        })
    }

    /// The child half of process-isolated quality evaluation: rebuilds
    /// the campaign this consumer would run (same suite, targets, probes,
    /// budget) and executes the mutant slice assigned through the
    /// `CONCAT_SHARD_*` environment, streaming verdicts to stdout.
    ///
    /// Call this from the hidden entry point named by
    /// [`concat_mutation::ProcessIsolation::worker_args`] and pass the
    /// returned code to [`std::process::exit`]. The consumer driving the
    /// worker must be configured identically to the supervising one
    /// (seed, budget, probe seeds) — journal path, worker count and
    /// isolation mode are excluded from the campaign fingerprint and may
    /// differ.
    ///
    /// # Errors
    ///
    /// [`ConsumerError::NoShardSupport`] when the bundle lacks a sharding
    /// seam; otherwise as for [`Consumer::evaluate_quality`].
    pub fn run_shard_worker(
        &self,
        component: &SelfTestable,
        suite: &TestSuite,
        target_methods: &[&str],
        probe_seeds: &[u64],
    ) -> Result<i32, ConsumerError> {
        let inventory = component
            .inventory()
            .ok_or(ConsumerError::NoMutationSupport)?;
        let shards = component.shards().ok_or(ConsumerError::NoShardSupport)?;
        let mutants = enumerate_mutants(inventory, target_methods);
        let config = self.mutation_config(component, probe_seeds, true)?;
        Ok(concat_mutation::run_shard_worker(
            shards, suite, &mutants, &config,
        ))
    }

    /// Packages the campaign this consumer would run as a
    /// [`CampaignRequest`] for submission to a
    /// [`concat_mutation::Orchestrator`] — the multi-campaign analogue of
    /// [`Consumer::evaluate_quality`]. The request carries the exact
    /// inputs the solo path uses (same suite, mutants, probes, budget,
    /// journal, isolation), so the orchestrated run's verdicts, score,
    /// and report are byte-identical to the solo run's; scheduling
    /// metadata (`priority`, `mutant_budget`) starts at its defaults and
    /// can be adjusted on the returned request.
    ///
    /// # Errors
    ///
    /// [`ConsumerError::NoMutationSupport`] without an inventory,
    /// [`ConsumerError::NoShardSupport`] without a sharding seam (fleet
    /// workers each build their own factory), and generation errors when
    /// probe suites cannot be built.
    pub fn campaign_request(
        &self,
        component: &SelfTestable,
        suite: &TestSuite,
        target_methods: &[&str],
        probe_seeds: &[u64],
    ) -> Result<CampaignRequest, ConsumerError> {
        let inventory = component
            .inventory()
            .ok_or(ConsumerError::NoMutationSupport)?;
        let shards = component
            .shards_handle()
            .ok_or(ConsumerError::NoShardSupport)?;
        let mutants = enumerate_mutants(inventory, target_methods);
        let config = self.mutation_config(component, probe_seeds, true)?;
        Ok(CampaignRequest {
            name: component.class_name().to_owned(),
            shards,
            suite: suite.clone(),
            mutants,
            config,
            priority: 0,
            mutant_budget: None,
        })
    }

    /// Runs [`Consumer::evaluate_quality`] and then the mutation-driven
    /// amplification loop: surviving mutants direct the driver generator
    /// to synthesize targeted candidates (boundary values, re-seeded
    /// draws, deeper TFM paths through the mutated feature), and each
    /// candidate that kills a survivor joins the amplified suite. The
    /// loop is deterministic per (consumer seed, suite, targets) and
    /// byte-identical across worker counts on sharded bundles; with a
    /// journal configured, every round journals and resumes like a plain
    /// campaign.
    ///
    /// # Errors
    ///
    /// As for [`Consumer::evaluate_quality`], plus generation errors from
    /// candidate synthesis.
    pub fn amplify_quality(
        &self,
        component: &SelfTestable,
        suite: &TestSuite,
        target_methods: &[&str],
        probe_seeds: &[u64],
        amplify: &AmplifyConfig,
    ) -> Result<AmplifyOutcome, ConsumerError> {
        let (inventory, switch) = match (component.inventory(), component.switch()) {
            (Some(i), Some(s)) => (i, s),
            _ => return Err(ConsumerError::NoMutationSupport),
        };
        let mutants = enumerate_mutants(inventory, target_methods);
        let mut config = self.mutation_config(component, probe_seeds, true)?;
        // Amplification rounds rebuild their own per-round configs, which
        // a shard worker spawned with this consumer's base config could
        // never fingerprint-match; rounds are short and thread isolation
        // contains everything they run, so force it here.
        config.isolation = IsolationMode::InThread;
        let spec = component.spec();
        let base = self.config;
        let needs_provider = spec_uses_provider(spec);
        // Corpus seed tier: killer cases deposited by earlier campaigns
        // on this class replay as round-1 candidates ahead of synthesis.
        let corpus_payloads: Vec<String> = match &self.corpus {
            Some(dir) => match concat_runtime::CorpusStore::open(dir) {
                Ok(store) => store.load(&spec.class_name).payloads,
                Err(_) => {
                    self.telemetry.incr("harden.degraded");
                    Vec::new()
                }
            },
            None => Vec::new(),
        };
        let telemetry = self.telemetry.clone();
        let mut synth = |existing: &TestSuite,
                         features: &[String],
                         round: usize,
                         max: usize|
         -> Result<TestSuite, GenerateError> {
            let seeded = if round == 1 && !corpus_payloads.is_empty() {
                let replay =
                    concat_driver::corpus_candidates(existing, &corpus_payloads, features, max);
                if !replay.suite.cases.is_empty() {
                    telemetry.incr_by("corpus.seeded", replay.suite.len() as u64);
                }
                Some(replay.suite)
            } else {
                None
            };
            // Synthesis dedups and renumbers against existing + corpus
            // candidates, so the two tiers never collide.
            let (existing, remaining) = match &seeded {
                Some(corpus_suite) => {
                    let mut merged = existing.clone();
                    merged.cases.extend(corpus_suite.cases.iter().cloned());
                    (merged, max.saturating_sub(corpus_suite.len()))
                }
                None => (existing.clone(), max),
            };
            let synthesis = concat_driver::synthesize_candidates(
                spec,
                base,
                &existing,
                features,
                round,
                remaining,
                |inputs| {
                    if needs_provider {
                        concat_components_provider_shim(inputs);
                    }
                },
            )?;
            Ok(match seeded {
                Some(mut corpus_suite) => {
                    corpus_suite
                        .cases
                        .extend(synthesis.suite.cases.iter().cloned());
                    corpus_suite.stats.cases = corpus_suite.cases.len();
                    corpus_suite
                }
                None => synthesis.suite,
            })
        };
        let outcome = match component.shards_handle() {
            Some(shards) => {
                amplify_suite_parallel(shards, suite, &mutants, &config, amplify, &mut synth)?
            }
            None => amplify_suite(
                component.factory(),
                switch,
                suite,
                &mutants,
                &config,
                amplify,
                &mut synth,
            )?,
        };
        // Deposit this run's kept killers back into the corpus, stamped
        // with the campaign fingerprint as provenance. Best-effort: a
        // failed deposit degrades, never aborts a finished amplification.
        if let Some(dir) = &self.corpus {
            let kept = &outcome.suite.cases[suite.cases.len()..];
            if !kept.is_empty() {
                match concat_runtime::CorpusStore::open(dir) {
                    Ok(mut store) => {
                        let fingerprint = concat_mutation::campaign_fingerprint(
                            &spec.class_name,
                            suite,
                            &mutants,
                            &config,
                        );
                        for case in kept {
                            // The case id is an artifact of this run's
                            // renumbering; normalize it so behaviourally
                            // identical killers content-hash identically.
                            let mut case = case.clone();
                            case.id = 0;
                            let one = TestSuite {
                                class_name: outcome.suite.class_name.clone(),
                                seed: outcome.suite.seed,
                                cases: vec![case],
                                stats: concat_driver::SuiteStats {
                                    cases: 1,
                                    ..outcome.suite.stats
                                },
                            };
                            let payload = concat_driver::save_suite(&one);
                            match store.deposit(&spec.class_name, fingerprint, &payload) {
                                Ok(true) => self.telemetry.incr("corpus.deposited"),
                                Ok(false) => {}
                                Err(_) => self.telemetry.incr("harden.degraded"),
                            }
                        }
                    }
                    Err(_) => self.telemetry.incr("harden.degraded"),
                }
            }
        }
        Ok(outcome)
    }

    /// Builds the analysis configuration shared by quality evaluation and
    /// amplification: probe suites generated per seed, this consumer's
    /// telemetry/budget/workers/journal threaded through.
    fn mutation_config(
        &self,
        component: &SelfTestable,
        probe_seeds: &[u64],
        bit_enabled: bool,
    ) -> Result<MutationConfig, ConsumerError> {
        let mut probe_suites = Vec::with_capacity(probe_seeds.len());
        for seed in probe_seeds {
            let consumer = Consumer::with_config(GeneratorConfig {
                seed: *seed,
                ..self.config
            })
            .with_telemetry(self.telemetry.clone());
            probe_suites.push(consumer.generate(component)?);
        }
        Ok(MutationConfig {
            probe_suites,
            bit_enabled,
            telemetry: self.telemetry.clone(),
            budget: self.budget,
            workers: self.workers(),
            journal_path: self.journal.clone(),
            isolation: self.isolation.clone(),
            ..MutationConfig::default()
        })
    }

    /// Applies the §3.4.2 incremental reuse rule: partitions a parent
    /// suite's history against this bundle's inheritance map.
    ///
    /// # Errors
    ///
    /// [`ConsumerError::NoInheritanceMap`] when the bundle lacks a map.
    pub fn subclass_plan(
        &self,
        component: &SelfTestable,
        suite: &TestSuite,
    ) -> Result<ReusePlan, ConsumerError> {
        let map = component
            .inheritance()
            .ok_or(ConsumerError::NoInheritanceMap)?;
        let history = TestingHistory::from_suite(suite);
        let plan = ReusePlan::analyze(&history, map);
        if self.telemetry.is_enabled() {
            let (skip, retest, obsolete) = plan.counts();
            self.telemetry.incr_by("reuse.skip_retest", skip as u64);
            self.telemetry.incr_by("reuse.retest_reused", retest as u64);
            self.telemetry.incr_by("reuse.obsolete", obsolete as u64);
        }
        Ok(plan)
    }

    /// Persists a session's artefacts — the `Result.txt`-style log and the
    /// suite — under `dir`, with retrying I/O and graceful degradation.
    ///
    /// This never fails: transient write errors are retried under
    /// `policy`, and an artefact whose writes are exhausted is *skipped*
    /// with a note in [`PersistedSession::notes`] rather than aborting the
    /// session (the in-memory report stays authoritative). Retries bump
    /// the `harden.retry` counter; each skipped artefact bumps
    /// `harden.degraded`.
    pub fn persist_session(
        &self,
        report: &SelfTestReport,
        dir: impl AsRef<Path>,
        policy: &IoPolicy,
    ) -> PersistedSession {
        let dir = dir.as_ref();
        let mut session = PersistedSession {
            log_path: None,
            suite_path: None,
            retries: 0,
            notes: Vec::new(),
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            session
                .notes
                .push(format!("could not create {}: {e}", dir.display()));
            self.telemetry.incr("harden.degraded");
            return session;
        }
        let log_path = dir.join("Result.txt");
        let attempt = report.log.write_to_path_guarded(&log_path, policy);
        session.retries += attempt.retries;
        match attempt.result {
            Ok(()) => session.log_path = Some(log_path),
            Err(e) => {
                session.notes.push(format!("log not persisted: {e}"));
                self.telemetry.incr("harden.degraded");
            }
        }
        let suite_path = dir.join("suite.txt");
        match save_suite_to_path(&report.suite, &suite_path, policy) {
            Ok(retries) => {
                session.retries += retries;
                session.suite_path = Some(suite_path);
            }
            Err(e) => {
                session.notes.push(format!("suite not persisted: {e}"));
                self.telemetry.incr("harden.degraded");
            }
        }
        if session.retries > 0 {
            self.telemetry
                .incr_by("harden.retry", session.retries as u64);
        }
        session
    }
}

/// What [`Consumer::persist_session`] managed to write. A `None` path
/// means that artefact was skipped after its retries were exhausted; the
/// reason is in [`PersistedSession::notes`].
#[derive(Debug, Clone)]
pub struct PersistedSession {
    /// Where the `Result.txt` log landed, if it did.
    pub log_path: Option<PathBuf>,
    /// Where the suite file landed, if it did.
    pub suite_path: Option<PathBuf>,
    /// Total I/O retries spent across both artefacts.
    pub retries: u32,
    /// One entry per degradation (skipped artefact or unusable directory).
    pub notes: Vec<String>,
}

impl PersistedSession {
    /// True when every artefact was written (possibly after retries).
    pub fn is_complete(&self) -> bool {
        self.log_path.is_some() && self.suite_path.is_some() && self.notes.is_empty()
    }
}

impl Default for Consumer {
    fn default() -> Self {
        Self::new()
    }
}

/// True when the spec takes `Provider*` parameters (the warehouse demo
/// family), which the consumer satisfies from the demo provider pool.
fn spec_uses_provider(spec: &concat_tspec::ClassSpec) -> bool {
    spec.methods
        .iter()
        .flat_map(|m| &m.params)
        .any(|p| matches!(p.domain, concat_tspec::Domain::Pointer { ref class_name, .. } if class_name == "Provider"))
}

/// Registers the demo provider pool for `Provider*` parameters so the
/// warehouse example self-tests out of the box. Kept here (not in the
/// driver) because which objects satisfy a pointer domain is a consumer
/// decision.
fn concat_components_provider_shim(inputs: &mut concat_driver::InputGenerator) {
    inputs.register_provider(
        "Provider",
        Box::new(|rng| {
            let id = rng.int_in(1, 3);
            concat_runtime::Value::Obj(concat_runtime::ObjRef::new("Provider", format!("p{id}")))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::SelfTestableBuilder;
    use concat_components::*;
    use std::rc::Rc;

    fn stack_bundle() -> SelfTestable {
        SelfTestableBuilder::new(bounded_stack_spec(), Rc::new(BoundedStackFactory)).build()
    }

    fn sortable_bundle() -> SelfTestable {
        let switch = concat_mutation::MutationSwitch::new();
        SelfTestableBuilder::new(
            sortable_spec(),
            Rc::new(CSortableObListFactory::new(switch.clone())),
        )
        .mutation(sortable_inventory(), switch)
        .inheritance(sortable_inheritance_map())
        .build()
    }

    #[test]
    fn stack_self_test_passes() {
        let report = Consumer::with_seed(7).self_test(&stack_bundle()).unwrap();
        assert!(report.all_passed(), "{}", report.summary());
        assert!(report.assertion_checks > 0, "invariants were evaluated");
        assert_eq!(report.assertion_violations, 0);
        assert!(report.log.render().contains("OK!"));
        assert!(report.summary().contains("BoundedStack"));
    }

    #[test]
    fn product_self_test_uses_provider_pool() {
        let bundle =
            SelfTestableBuilder::new(product_spec(), Rc::new(ProductFactory::new())).build();
        let report = Consumer::with_seed(9).self_test(&bundle).unwrap();
        // Some transactions are error-recovery ones (database precondition
        // violations); the bulk passes.
        assert!(report.result.passed() > report.result.failed());
        assert_eq!(
            report.suite.stats.manual_args, 0,
            "provider pool fills Provider*"
        );
    }

    #[test]
    fn quality_evaluation_requires_mutation_support() {
        let consumer = Consumer::with_seed(1);
        let bundle = stack_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        assert_eq!(
            consumer
                .evaluate_quality(&bundle, &suite, &["Push"], &[])
                .unwrap_err(),
            ConsumerError::NoMutationSupport
        );
    }

    #[test]
    fn quality_evaluation_runs_on_sortable() {
        let consumer = Consumer::with_seed(3);
        let bundle = sortable_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        // Keep the unit test fast: one method, a slice of the suite.
        let ids: Vec<usize> = suite.cases.iter().map(|c| c.id).take(40).collect();
        let small = suite.filtered(&ids);
        let run = consumer
            .evaluate_quality(&bundle, &small, &["FindMax"], &[])
            .unwrap();
        assert!(run.total() > 10);
        assert!(run.killed() > 0);
    }

    fn sharded_sortable_bundle() -> SelfTestable {
        let switch = concat_mutation::MutationSwitch::new();
        SelfTestableBuilder::new(
            sortable_spec(),
            Rc::new(CSortableObListFactory::new(switch.clone())),
        )
        .mutation(sortable_inventory(), switch)
        .mutation_shards(std::sync::Arc::new(CSortableObListFactory::default()))
        .inheritance(sortable_inheritance_map())
        .build()
    }

    #[test]
    fn sharded_quality_evaluation_matches_sequential() {
        let consumer = Consumer::with_seed(3);
        let bundle = sortable_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        let ids: Vec<usize> = suite.cases.iter().map(|c| c.id).take(40).collect();
        let small = suite.filtered(&ids);
        let sequential = consumer
            .evaluate_quality(&bundle, &small, &["FindMax"], &[])
            .unwrap();
        for workers in [1, 3] {
            let run = Consumer::with_seed(3)
                .with_workers(workers)
                .evaluate_quality(&sharded_sortable_bundle(), &small, &["FindMax"], &[])
                .unwrap();
            assert_eq!(
                run.results, sequential.results,
                "workers = {workers}: sharded run must match the sequential verdicts"
            );
            assert_eq!(run.score(), sequential.score());
        }
    }

    #[test]
    fn journaled_quality_evaluation_replays_on_rerun() {
        let dir = std::env::temp_dir().join("concat-core-journal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.journal");
        let consumer = Consumer::with_seed(3).with_workers(2).with_journal(&path);
        assert_eq!(consumer.journal(), Some(path.as_path()));
        let bundle = sharded_sortable_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        let ids: Vec<usize> = suite.cases.iter().map(|c| c.id).take(40).collect();
        let small = suite.filtered(&ids);
        let first = consumer
            .evaluate_quality(&bundle, &small, &["FindMax"], &[])
            .unwrap();
        // Rerun against the completed journal: every verdict replays and
        // the run is byte-identical.
        let again = consumer
            .evaluate_quality(&sharded_sortable_bundle(), &small, &["FindMax"], &[])
            .unwrap();
        assert_eq!(again.results, first.results);
        assert_eq!(again.score(), first.score());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn amplification_improves_quality_on_sortable() {
        let consumer = Consumer::with_seed(3);
        let bundle = sortable_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        // A deliberately thin base suite so mutants survive it.
        let ids: Vec<usize> = suite.cases.iter().map(|c| c.id).take(8).collect();
        let small = suite.filtered(&ids);
        let amplify = AmplifyConfig {
            max_rounds: 2,
            max_candidates_per_round: 24,
            ..AmplifyConfig::default()
        };
        let outcome = consumer
            .amplify_quality(&bundle, &small, &["FindMax"], &[4242], &amplify)
            .unwrap();
        assert!(outcome.final_score() >= outcome.baseline_score);
        assert_eq!(
            outcome.suite.len(),
            small.len() + outcome.total_kept(),
            "amplified suite = base + kept candidates"
        );
        // Determinism: the same consumer reproduces the outcome exactly.
        let again = Consumer::with_seed(3)
            .amplify_quality(&sortable_bundle(), &small, &["FindMax"], &[4242], &amplify)
            .unwrap();
        assert_eq!(again.run.results, outcome.run.results);
        assert_eq!(again.rounds, outcome.rounds);
    }

    #[test]
    fn corpus_amplification_deposits_and_reseeds_killers() {
        use concat_obs::{MemorySink, Summary, Telemetry};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join("concat-core-corpus");
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = dir.join("corpus");
        let amplify = AmplifyConfig {
            max_rounds: 2,
            max_candidates_per_round: 24,
            ..AmplifyConfig::default()
        };
        let run = |seed| {
            let sink = Arc::new(MemorySink::new());
            let consumer = Consumer::with_seed(seed)
                .with_corpus(&corpus)
                .with_telemetry(Telemetry::new(sink.clone()));
            assert_eq!(consumer.corpus(), Some(corpus.as_path()));
            let bundle = sortable_bundle();
            let suite = consumer.generate(&bundle).unwrap();
            let ids: Vec<usize> = suite.cases.iter().map(|c| c.id).take(8).collect();
            let small = suite.filtered(&ids);
            let outcome = consumer
                .amplify_quality(&bundle, &small, &["FindMax"], &[4242], &amplify)
                .unwrap();
            (outcome, Summary::from_events(&sink.events()))
        };
        let (first, stats) = run(3);
        assert!(first.total_kept() > 0, "fixture must amplify");
        assert!(
            stats.counters.get("corpus.deposited").copied().unwrap_or(0) >= 1,
            "kept killers are deposited: {:?}",
            stats.counters
        );
        // A second campaign over the same thin base replays the deposited
        // killers as round-1 candidates and lands on at least as good a
        // score without having to resynthesize them.
        let (second, stats) = run(3);
        assert!(
            stats.counters.get("corpus.seeded").copied().unwrap_or(0) >= 1,
            "corpus cases seed the next campaign: {:?}",
            stats.counters
        );
        assert!(second.final_score() >= first.final_score());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subclass_plan_partitions() {
        let consumer = Consumer::with_seed(4);
        let bundle = sortable_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        let plan = consumer.subclass_plan(&bundle, &suite).unwrap();
        let (skip, retest, obsolete) = plan.counts();
        assert!(skip > 0, "inherited-only transactions exist");
        assert!(retest > 0, "new-method transactions exist");
        assert_eq!(obsolete, 0);
        assert_eq!(skip + retest, suite.len());
    }

    #[test]
    fn subclass_plan_requires_map() {
        let consumer = Consumer::with_seed(4);
        let bundle = stack_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        assert_eq!(
            consumer.subclass_plan(&bundle, &suite).unwrap_err(),
            ConsumerError::NoInheritanceMap
        );
    }

    #[test]
    fn budget_propagates_to_the_runner() {
        use concat_runtime::Budget;
        let report = Consumer::with_seed(7)
            .with_budget(Budget::unlimited().with_max_calls(0))
            .self_test(&stack_bundle())
            .unwrap();
        assert!(report.result.harness_stops() > 0);
        assert!(!report.notes().is_empty());
        assert!(
            report.summary().contains("harness stop(s)"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn persist_session_round_trips_artifacts() {
        let consumer = Consumer::with_seed(7);
        let report = consumer.self_test(&stack_bundle()).unwrap();
        let dir = std::env::temp_dir().join("concat-core-persist-ok");
        let _ = std::fs::remove_dir_all(&dir);
        let session = consumer.persist_session(&report, &dir, &IoPolicy::default());
        assert!(session.is_complete(), "{:?}", session.notes);
        assert_eq!(session.retries, 0);
        let log = std::fs::read_to_string(session.log_path.as_ref().unwrap()).unwrap();
        assert!(log.contains("OK!"));
        let (suite, _) = concat_driver::load_suite_from_path(
            session.suite_path.as_ref().unwrap(),
            &IoPolicy::default(),
        )
        .unwrap();
        assert_eq!(suite.len(), report.suite.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_session_degrades_instead_of_failing() {
        use concat_obs::{MemorySink, Telemetry};
        use concat_runtime::{FaultInjector, FaultKind, RetryPolicy};
        let sink = std::sync::Arc::new(MemorySink::new());
        let consumer = Consumer::with_seed(7).with_telemetry(Telemetry::new(sink.clone()));
        let report = consumer.self_test(&stack_bundle()).unwrap();
        let dir = std::env::temp_dir().join("concat-core-persist-degraded");
        let _ = std::fs::remove_dir_all(&dir);
        let injector = FaultInjector::seeded(1);
        injector.fail_always(concat_driver::LOG_WRITE_OP, FaultKind::Transient);
        injector.fail_nth(concat_driver::SUITE_SAVE_OP, 1, FaultKind::Transient);
        let policy = IoPolicy::with_retry(RetryPolicy::no_delay(2)).injector(injector);
        let session = consumer.persist_session(&report, &dir, &policy);
        assert!(session.log_path.is_none(), "log writes were exhausted");
        assert!(
            session.suite_path.is_some(),
            "suite recovered after one transient: {:?}",
            session.notes
        );
        assert_eq!(session.notes.len(), 1);
        assert!(session.retries > 0);
        let summary = concat_obs::Summary::from_events(&sink.events());
        assert!(
            summary
                .counters
                .get("harden.degraded")
                .copied()
                .unwrap_or(0)
                >= 1
        );
        assert!(summary.counters.get("harden.retry").copied().unwrap_or(0) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display() {
        assert!(ConsumerError::NoMutationSupport
            .to_string()
            .contains("inventory"));
        assert!(ConsumerError::NoInheritanceMap
            .to_string()
            .contains("inheritance"));
        assert!(ConsumerError::NoShardSupport
            .to_string()
            .contains("sharded"));
    }

    #[test]
    fn process_isolation_requires_a_sharded_bundle() {
        use concat_mutation::{IsolationMode, ProcessIsolation};
        let consumer = Consumer::with_seed(3)
            .with_isolation(IsolationMode::Process(ProcessIsolation::new(["worker"])));
        assert!(consumer.isolation().is_process());
        // Mutation support but no sharding seam: process shards cannot be
        // rebuilt, so the request is an error rather than a silent
        // fallback to thread isolation.
        let bundle = sortable_bundle();
        let suite = consumer.generate(&bundle).unwrap();
        assert_eq!(
            consumer
                .evaluate_quality(&bundle, &suite, &["FindMax"], &[])
                .unwrap_err(),
            ConsumerError::NoShardSupport
        );
        assert_eq!(
            consumer
                .run_shard_worker(&bundle, &suite, &["FindMax"], &[])
                .unwrap_err(),
            ConsumerError::NoShardSupport
        );
    }
}
