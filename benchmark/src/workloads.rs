//! The three workloads: what each sets up, runs cold, and re-runs warm,
//! and the output checks every leg must pass.
//!
//! Each leg is a closed loop: one caller submits a campaign and starts
//! the next only after the previous one returned.

use concat_bench::{
    coblist_bundle_sharded, sortable_bundle, sortable_bundle_sharded, PROBE_SEEDS, TABLE2_METHODS,
    TABLE3_METHODS,
};
use concat_core::{Consumer, SelfTestable};
use concat_driver::{TestSuite, WalkConfig};
use concat_mutation::{
    campaign_fingerprint, encode_verdict, CampaignEnd, CampaignJournal, CampaignRequest,
    MutationRun, Orchestrator, OrchestratorConfig,
};
use concat_obs::{MemorySink, Telemetry};
use concat_runtime::scan_journal;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["table2", "fleet", "walk"];

/// Campaigns per `fleet` leg.
pub const FLEET_CAMPAIGNS: usize = 16;

/// `walk` shape: walks × calls per walk over interleaved objects.
pub const WALKS: usize = 100;
/// Steps per walk.
pub const CALLS_PER_WALK: usize = 2_000;
/// Objects one walk interleaves.
pub const WALK_OBJECTS: usize = 2;

/// Tallies pinned when the benchmark was created, one line per campaign.
const EXPECTED: &str = include_str!("../expected.txt");

/// Mutant tallies of one campaign, as pinned in `expected.txt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Mutants analysed.
    pub total: usize,
    /// Mutants killed.
    pub killed: usize,
    /// Mutants presumed equivalent.
    pub equivalent: usize,
    /// Kills by a BIT assertion.
    pub by_assertion: usize,
}

impl Tally {
    fn of(run: &MutationRun) -> Tally {
        Tally {
            total: run.total(),
            killed: run.killed(),
            equivalent: run.equivalent(),
            by_assertion: run.killed_by_assertion(),
        }
    }
}

/// The pinned tally of `campaign` of `workload` at `seed`, if any.
fn expected(workload: &str, seed: u64, campaign: &str) -> Option<Tally> {
    EXPECTED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 7 || f[0] != workload || f[1] != seed.to_string() || f[2] != campaign {
            return None;
        }
        let n = |i: usize| f[i].parse::<usize>().ok();
        Some(Tally {
            total: n(3)?,
            killed: n(4)?,
            equivalent: n(5)?,
            by_assertion: n(6)?,
        })
    })
}

/// Output checks of one run: operations attempted and failed, and what
/// went wrong. Any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations attempted: mutants analysed or walks executed.
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
    /// One line per problem found.
    pub problems: Vec<String>,
    /// Campaign tallies seen, in the format of `expected.txt`.
    pub tallies: BTreeSet<String>,
}

impl Check {
    fn fail(&mut self, operations: u64, problem: String) {
        self.failed += operations;
        self.problems.push(problem);
    }

    /// True when every output matched.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Checks campaign `campaign` of `workload` at `seed`: nothing
    /// quarantined and, where `expected.txt` pins a tally, that tally.
    fn campaign(&mut self, workload: &str, seed: u64, campaign: &str, run: &MutationRun) {
        self.attempted += run.total() as u64;
        let got = Tally::of(run);
        self.tallies.insert(format!(
            "{workload} {seed} {campaign} {} {} {} {}",
            got.total, got.killed, got.equivalent, got.by_assertion
        ));
        let quarantined = run.quarantined() as u64;
        if quarantined > 0 {
            self.fail(
                quarantined,
                format!("{workload} {campaign}: {quarantined} mutants quarantined"),
            );
        }
        if let Some(want) = expected(workload, seed, campaign) {
            if got != want {
                self.fail(
                    run.total() as u64,
                    format!("{workload} {campaign}: tally {got:?}, pinned {want:?}"),
                );
            }
        }
    }

    /// Checks that a leg's verdicts equal the reference byte for byte.
    /// `operations` is how many operations the verdict text covers.
    pub fn same(&mut self, what: &str, reference: &str, got: &str, operations: u64) {
        if reference != got {
            self.fail(
                operations,
                format!("{what}: verdicts differ from the reference"),
            );
        }
    }
}

/// Renders a run's verdicts one per line, in mutant order: the byte
/// string the cold, warm, repeated and traced legs must agree on.
fn verdict_text(run: &MutationRun) -> String {
    let mut text = String::new();
    for (id, result) in run.results.iter().enumerate() {
        text.push_str(&encode_verdict(id, &result.status));
        text.push('\n');
    }
    text
}

/// Work the last cold leg did, as far as the workload can see it from
/// outside: the traced run adds the rest from the trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Mutants analysed.
    pub mutants: u64,
    /// Campaigns run.
    pub campaigns: u64,
    /// Journal records written (header lines included).
    pub journal_records: u64,
    /// Walks executed.
    pub walks: u64,
    /// Walk steps executed.
    pub walk_calls: u64,
}

/// One workload: a set-up, a timed cold leg, and a timed warm leg that
/// re-runs the cold leg's campaign(s) against finished journals.
pub trait Workload {
    /// Builds everything the cold leg needs.
    fn setup(&mut self, telemetry: &Telemetry);
    /// Runs the cold leg and returns its verdict text.
    fn cold(&mut self, telemetry: &Telemetry, check: &mut Check) -> String;
    /// Leaves finished journals for the warm legs and counts what the
    /// cold leg wrote (not timed).
    fn prepare_warm(&mut self, check: &mut Check);
    /// Builds what one warm leg consumes and snapshots the journals it
    /// must leave untouched (not timed).
    fn before_warm(&mut self) {}
    /// Re-runs the campaign(s) as pure journal replay and returns the
    /// verdict text, which must equal the cold leg's.
    fn warm(&mut self, telemetry: &Telemetry, check: &mut Check) -> String;
    /// Checks that the warm leg appended nothing to its journals (not
    /// timed).
    fn after_warm(&mut self, _check: &mut Check) {}
    /// Work done by the last cold leg, once `prepare_warm` ran.
    fn work(&self) -> Work;
    /// Operations one leg's verdict text covers.
    fn operations(&self) -> u64;
    /// The seeds the workload generates its inputs from. Every
    /// iteration of a run uses the same ones.
    fn input_seeds(&self) -> Vec<u64>;
    /// Releases what the set-up built (threads, journals).
    fn teardown(&mut self) {}
    /// True when every leg runs on the calling thread alone.
    fn single_threaded(&self) -> bool {
        true
    }
}

/// Builds the named workload; `dir` is its private scratch directory.
pub fn build(name: &str, seed: u64, dir: &Path) -> Option<Box<dyn Workload>> {
    match name {
        "table2" => Some(Box::new(Table2::new(seed, dir))),
        "fleet" => Some(Box::new(Fleet::new(seed, dir))),
        "walk" => Some(Box::new(Walk::new(seed, dir))),
        _ => None,
    }
}

/// Journal bytes, for proving a warm leg appended nothing.
fn journal_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

/// Fails `check` unless the journal still holds `before`.
fn check_replay(check: &mut Check, path: &Path, before: &[u8], what: &str) {
    if journal_bytes(path) != before {
        check.fail(0, format!("{what}: warm leg was not a pure journal replay"));
    }
}

// ---------------------------------------------------------------------
// table2
// ---------------------------------------------------------------------

/// The paper's Table 2 campaign, built as `concat_bench::run_table2`
/// builds it: unsharded `CSortableObList`, sequential engine, telemetry
/// off, no journal.
struct Table2 {
    seed: u64,
    journal: PathBuf,
    journal_before: Vec<u8>,
    bundle: Option<SelfTestable>,
    suite: Option<TestSuite>,
    last: Option<MutationRun>,
}

impl Table2 {
    fn new(seed: u64, dir: &Path) -> Table2 {
        Table2 {
            seed,
            journal: dir.join("table2.journal"),
            journal_before: Vec::new(),
            bundle: None,
            suite: None,
            last: None,
        }
    }

    fn parts(&self) -> (&SelfTestable, &TestSuite) {
        (
            self.bundle.as_ref().expect("setup ran"),
            self.suite.as_ref().expect("setup ran"),
        )
    }
}

impl Workload for Table2 {
    fn setup(&mut self, telemetry: &Telemetry) {
        let bundle = sortable_bundle();
        let consumer = Consumer::with_seed(self.seed).with_telemetry(telemetry.clone());
        let suite = consumer.generate(&bundle).expect("sortable spec generates");
        self.bundle = Some(bundle);
        self.suite = Some(suite);
    }

    fn cold(&mut self, telemetry: &Telemetry, check: &mut Check) -> String {
        let (bundle, suite) = self.parts();
        let consumer = Consumer::with_seed(self.seed).with_telemetry(telemetry.clone());
        let run = consumer
            .evaluate_quality(bundle, suite, &TABLE2_METHODS, &PROBE_SEEDS)
            .expect("bundle carries mutation support");
        check.campaign("table2", self.seed, "-", &run);
        let text = verdict_text(&run);
        self.last = Some(run);
        text
    }

    fn prepare_warm(&mut self, check: &mut Check) {
        // The finished journal a journaled cold run would have left: the
        // campaign's fingerprint header plus every verdict. The sharded
        // twin of the bundle yields the request the fingerprint is over;
        // the worker count it carries is not part of the fingerprint.
        let (_, suite) = self.parts();
        let request = Consumer::with_seed(self.seed)
            .campaign_request(
                &sortable_bundle_sharded(),
                suite,
                &TABLE2_METHODS,
                &PROBE_SEEDS,
            )
            .expect("sharded bundle carries mutation support");
        let fingerprint =
            campaign_fingerprint("CSortableObList", suite, &request.mutants, &request.config);
        let run = self.last.as_ref().expect("cold leg ran");
        let _ = std::fs::remove_file(&self.journal);
        let written = CampaignJournal::resume(&self.journal, fingerprint, run.total()).and_then(
            |(mut journal, _)| {
                run.results
                    .iter()
                    .enumerate()
                    .try_for_each(|(id, r)| journal.record(id, &r.status))
            },
        );
        if let Err(e) = written {
            check.fail(0, format!("table2: writing the warm journal: {e}"));
        }
    }

    fn before_warm(&mut self) {
        self.journal_before = journal_bytes(&self.journal);
    }

    fn warm(&mut self, telemetry: &Telemetry, _check: &mut Check) -> String {
        let (bundle, suite) = self.parts();
        let run = Consumer::with_seed(self.seed)
            .with_telemetry(telemetry.clone())
            .with_journal(&self.journal)
            .evaluate_quality(bundle, suite, &TABLE2_METHODS, &PROBE_SEEDS)
            .expect("bundle carries mutation support");
        verdict_text(&run)
    }

    fn after_warm(&mut self, check: &mut Check) {
        check_replay(check, &self.journal, &self.journal_before, "table2");
    }

    fn work(&self) -> Work {
        Work {
            mutants: self.last.as_ref().map_or(0, |r| r.total() as u64),
            campaigns: 1,
            ..Work::default()
        }
    }

    fn operations(&self) -> u64 {
        self.last.as_ref().map_or(0, |r| r.total() as u64)
    }

    fn input_seeds(&self) -> Vec<u64> {
        vec![self.seed]
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_file(&self.journal);
    }
}

// ---------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------

/// Sixteen journaled `CObList` campaigns on one two-slot orchestrator,
/// configured like `mutation_demo campaign-server`.
struct Fleet {
    seed: u64,
    dir: PathBuf,
    orchestrator: Option<Orchestrator>,
    requests: Vec<CampaignRequest>,
    last: Vec<MutationRun>,
    journal_records: u64,
    journals_before: Vec<Vec<u8>>,
}

impl Fleet {
    fn new(seed: u64, dir: &Path) -> Fleet {
        Fleet {
            seed,
            dir: dir.to_path_buf(),
            orchestrator: None,
            requests: Vec::new(),
            last: Vec::new(),
            journal_records: 0,
            journals_before: Vec::new(),
        }
    }

    /// Campaign `i`'s suite seed: campaign 0 runs at the workload seed,
    /// the rest at distinct seeds derived from it.
    fn campaign_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_add(i as u64)
    }

    fn journal(&self, i: usize) -> PathBuf {
        self.dir.join(format!("c{i:02}.journal"))
    }

    fn requests(&self, telemetry: &Telemetry) -> Vec<CampaignRequest> {
        (0..FLEET_CAMPAIGNS)
            .map(|i| {
                let bundle = coblist_bundle_sharded();
                let consumer = Consumer::with_seed(self.campaign_seed(i))
                    .with_telemetry(telemetry.clone())
                    .with_journal(self.journal(i));
                let suite = consumer.generate(&bundle).expect("coblist spec generates");
                let mut request = consumer
                    .campaign_request(&bundle, &suite, &TABLE3_METHODS, &PROBE_SEEDS)
                    .expect("bundle carries mutation support and shards");
                request.name = format!("c{i:02}");
                request
            })
            .collect()
    }

    /// Submits every request, waits for each, and returns the runs of the
    /// campaigns that completed (recording the rest as failures).
    fn submit_all(
        &mut self,
        requests: Vec<CampaignRequest>,
        telemetry: &Telemetry,
        check: &mut Check,
    ) -> Vec<MutationRun> {
        let orch = self.orchestrator.as_ref().expect("setup ran");
        let ids: Vec<_> = requests
            .into_iter()
            .map(|mut request| {
                request.config.telemetry = telemetry.clone();
                orch.submit(request).expect("fleet admits the campaign")
            })
            .collect();
        let mut runs = Vec::with_capacity(ids.len());
        for id in ids {
            match orch.wait(id).map(|outcome| (outcome.name, outcome.end)) {
                Some((_, CampaignEnd::Completed(run))) => runs.push(*run),
                Some((name, end)) => {
                    let end = match end {
                        CampaignEnd::Cancelled => "cancelled".to_owned(),
                        CampaignEnd::Degraded { reason, .. } => format!("degraded: {reason:?}"),
                        CampaignEnd::Completed(_) => unreachable!("matched above"),
                    };
                    check.fail(1, format!("fleet: campaign {name} {end}"));
                }
                None => check.fail(1, format!("fleet: campaign {id} vanished")),
            }
        }
        runs
    }

    fn text(runs: &[MutationRun]) -> String {
        let mut text = String::new();
        for (i, run) in runs.iter().enumerate() {
            let _ = writeln!(text, "campaign c{i:02}");
            text.push_str(&verdict_text(run));
        }
        text
    }
}

impl Workload for Fleet {
    fn setup(&mut self, telemetry: &Telemetry) {
        self.teardown();
        self.requests = self.requests(telemetry);
        self.orchestrator = Some(Orchestrator::start(OrchestratorConfig {
            slots: 2,
            lease_size: 4,
            telemetry: Telemetry::new(Arc::new(MemorySink::new())),
            ..OrchestratorConfig::default()
        }));
    }

    fn cold(&mut self, telemetry: &Telemetry, check: &mut Check) -> String {
        let requests = std::mem::take(&mut self.requests);
        let runs = self.submit_all(requests, telemetry, check);
        for (i, run) in runs.iter().enumerate() {
            check.campaign("fleet", self.seed, &format!("c{i:02}"), run);
        }
        let text = Fleet::text(&runs);
        self.last = runs;
        text
    }

    fn prepare_warm(&mut self, _check: &mut Check) {
        // The cold leg journaled every verdict already.
        self.journal_records = (0..FLEET_CAMPAIGNS)
            .map(|i| scan_journal(self.journal(i)).map_or(0, |s| s.records.len() as u64))
            .sum();
    }

    fn before_warm(&mut self) {
        // Built here so the warm leg times only the service.
        self.requests = self.requests(&Telemetry::disabled());
        self.journals_before = (0..FLEET_CAMPAIGNS)
            .map(|i| journal_bytes(&self.journal(i)))
            .collect();
    }

    fn warm(&mut self, telemetry: &Telemetry, check: &mut Check) -> String {
        let requests = std::mem::take(&mut self.requests);
        let runs = self.submit_all(requests, telemetry, check);
        Fleet::text(&runs)
    }

    fn after_warm(&mut self, check: &mut Check) {
        for (i, before) in self.journals_before.iter().enumerate() {
            check_replay(check, &self.journal(i), before, &format!("fleet c{i:02}"));
        }
    }

    fn work(&self) -> Work {
        Work {
            mutants: self.last.iter().map(|r| r.total() as u64).sum(),
            campaigns: self.last.len() as u64,
            journal_records: self.journal_records,
            ..Work::default()
        }
    }

    fn operations(&self) -> u64 {
        self.last.iter().map(|r| r.total() as u64).sum()
    }

    fn input_seeds(&self) -> Vec<u64> {
        (0..FLEET_CAMPAIGNS)
            .map(|i| self.campaign_seed(i))
            .collect()
    }

    fn single_threaded(&self) -> bool {
        false
    }

    fn teardown(&mut self) {
        self.requests.clear();
        if let Some(orch) = self.orchestrator.take() {
            orch.shutdown();
        }
        for i in 0..FLEET_CAMPAIGNS {
            let _ = std::fs::remove_file(self.journal(i));
        }
    }
}

// ---------------------------------------------------------------------
// walk
// ---------------------------------------------------------------------

/// An invariant-fuzzing campaign of seeded TFM walks over the unseeded
/// `CSortableObList`: no mutant armed, no journal on the cold leg. The
/// warm legs replay the journal of one journaled run of the same walks.
struct Walk {
    seed: u64,
    journal: PathBuf,
    journal_before: Vec<u8>,
    bundle: Option<SelfTestable>,
    walks: u64,
    calls: u64,
}

impl Walk {
    fn new(seed: u64, dir: &Path) -> Walk {
        Walk {
            seed,
            journal: dir.join("walk.journal"),
            journal_before: Vec::new(),
            bundle: None,
            walks: 0,
            calls: 0,
        }
    }

    fn config(seed: u64) -> WalkConfig {
        WalkConfig::new(seed)
            .with_walks(WALKS)
            .with_calls_per_walk(CALLS_PER_WALK)
            .with_objects(WALK_OBJECTS)
    }

    fn campaign(&self, seed: u64, consumer: &Consumer, check: &mut Check, leg: &str) -> String {
        let bundle = self.bundle.as_ref().expect("setup ran");
        let campaign = consumer.invariant_campaign(bundle, &Walk::config(seed));
        let s = &campaign.summary;
        let want_calls = (WALKS * CALLS_PER_WALK) as u64;
        if !campaign.clean() || s.failures > 0 {
            check.fail(
                s.failures.max(1),
                format!("walk {leg}: {} walks failed", s.failures),
            );
        }
        if s.stopped || s.walks != WALKS as u64 || s.calls != want_calls {
            check.fail(
                (WALKS as u64).saturating_sub(s.walks).max(1),
                format!(
                    "walk {leg}: {} walks / {} calls, want {WALKS} / {want_calls}",
                    s.walks, s.calls
                ),
            );
        }
        format!(
            "walks {} calls {} checks {} failures {}\n",
            s.walks, s.calls, s.checks, s.failures
        )
    }
}

impl Workload for Walk {
    fn setup(&mut self, _telemetry: &Telemetry) {
        self.bundle = Some(sortable_bundle());
    }

    fn cold(&mut self, telemetry: &Telemetry, check: &mut Check) -> String {
        check.attempted += WALKS as u64;
        let seed = self.seed;
        let consumer = Consumer::with_seed(seed).with_telemetry(telemetry.clone());
        let text = self.campaign(seed, &consumer, check, "cold");
        self.walks = WALKS as u64;
        self.calls = (WALKS * CALLS_PER_WALK) as u64;
        text
    }

    fn prepare_warm(&mut self, check: &mut Check) {
        // One journaled run of the campaign leaves the finished journal
        // every warm leg of the run replays.
        if self.journal.exists() {
            return;
        }
        let consumer = Consumer::with_seed(self.seed).with_journal(&self.journal);
        self.campaign(self.seed, &consumer, check, "journaled");
    }

    fn before_warm(&mut self) {
        self.journal_before = journal_bytes(&self.journal);
    }

    fn warm(&mut self, telemetry: &Telemetry, check: &mut Check) -> String {
        let consumer = Consumer::with_seed(self.seed)
            .with_telemetry(telemetry.clone())
            .with_journal(&self.journal);
        self.campaign(self.seed, &consumer, check, "warm")
    }

    fn after_warm(&mut self, check: &mut Check) {
        check_replay(check, &self.journal, &self.journal_before, "walk");
    }

    fn work(&self) -> Work {
        Work {
            campaigns: 1,
            walks: self.walks,
            walk_calls: self.calls,
            ..Work::default()
        }
    }

    fn operations(&self) -> u64 {
        WALKS as u64
    }

    fn input_seeds(&self) -> Vec<u64> {
        vec![self.seed]
    }
}
