//! The durable verdict journal behind resumable mutation campaigns.
//!
//! The paper's test infrastructure mandates "test history creation and
//! maintenance" and "test retrieval" (§3.4): a consumer can stop testing
//! a component and pick it back up later. For mutation analysis the unit
//! of history is the per-mutant verdict, so the engine appends one
//! checksummed record to a [`concat_runtime::Journal`] as each mutant
//! finishes (write-ahead: the record is fsynced before the verdict is
//! merged). On restart the journal's verified prefix is replayed and only
//! unfinished mutants re-execute — with a deterministic engine the
//! resumed run is byte-identical to an uninterrupted one.
//!
//! Journal layout (each line checksum-framed by the runtime journal; see
//! `concat_runtime::scan_journal` for the `crc32 payload` framing):
//!
//! ```text
//! campaign <fingerprint, 8 hex digits>
//! feature <method> <sub-fingerprint> <mutant id…>
//! ...
//! verdict <mutant id> killed crash <case id>
//! verdict <mutant id> survived
//! verdict <mutant id> quarantined worker-crash
//! ...
//! ```
//!
//! The header fingerprint binds the journal to one campaign — subject
//! class, suite, probe suites, budget, mutant list — and each `feature`
//! record binds one mutated method's verdicts to what determines them. A
//! journal whose header matches replays as it is. Any other journal is
//! salvaged method by method: a method whose feature record still
//! matches keeps its verdicts, everything else re-executes.

use crate::analysis::{KillReason, MutantStatus, MutationConfig, QuarantineReason};
use crate::enumerate::Mutant;
use concat_driver::{CoverageMatrix, TestSuite};
use concat_runtime::{crc32, open_bound_journal, Journal};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::ops::Range;
use std::path::Path;

/// A campaign's fingerprint text, rendered once, with where each
/// killing-suite and probe-suite case sits in it: the per-method features
/// hash the same case renderings as the campaign fingerprint.
pub(crate) struct CampaignText<'a> {
    class_name: &'a str,
    suite: &'a TestSuite,
    mutants: &'a [Mutant],
    config: &'a MutationConfig,
    text: String,
    cases: Vec<Range<usize>>,
    probe_cases: Vec<Vec<Range<usize>>>,
}

/// The verdict-relevant configuration both fingerprints cover.
fn write_config(text: &mut String, config: &MutationConfig) {
    let _ = writeln!(text, "bit {}", config.bit_enabled);
    let _ = writeln!(
        text,
        "crash_threshold {:?}",
        config.crash_quarantine_threshold
    );
    let _ = writeln!(text, "budget {:?}", config.budget);
}

/// Appends one `<tag> <case>` line per case of `suite` and returns where
/// each case's rendering sits in `text`.
fn render_cases(text: &mut String, tag: &str, suite: &TestSuite) -> Vec<Range<usize>> {
    suite
        .cases
        .iter()
        .map(|case| {
            let _ = write!(text, "{tag} ");
            let start = text.len();
            let _ = writeln!(text, "{case:?}");
            start..text.len() - 1
        })
        .collect()
}

impl<'a> CampaignText<'a> {
    pub(crate) fn new(
        class_name: &'a str,
        suite: &'a TestSuite,
        mutants: &'a [Mutant],
        config: &'a MutationConfig,
    ) -> CampaignText<'a> {
        let mut text = String::new();
        let _ = writeln!(text, "class {class_name}");
        let _ = writeln!(text, "suite {} {}", suite.seed, suite.cases.len());
        let cases = render_cases(&mut text, "case", suite);
        let mut probe_cases = Vec::with_capacity(config.probe_suites.len());
        for probe in &config.probe_suites {
            let _ = writeln!(text, "probe {} {}", probe.seed, probe.cases.len());
            probe_cases.push(render_cases(&mut text, "probe-case", probe));
        }
        write_config(&mut text, config);
        for mutant in mutants {
            let _ = writeln!(text, "mutant {mutant}");
        }
        if let Some(lineage) = config.lineage {
            let _ = writeln!(text, "lineage {lineage:08x}");
        }
        CampaignText {
            class_name,
            suite,
            mutants,
            config,
            text,
            cases,
            probe_cases,
        }
    }

    /// See [`campaign_fingerprint`].
    pub(crate) fn fingerprint(&self) -> u32 {
        crc32(self.text.as_bytes())
    }

    /// The per-method sub-fingerprints (see [`FeatureFingerprint`]). A
    /// method's sub-fingerprint covers exactly what can change its
    /// mutants' verdicts: the method's own mutant list (rendered without
    /// campaign-global ids, which are an artifact of enumeration order),
    /// the cases that statically cover the method in the killing suite
    /// and in each probe suite (the coverage contract says no other case
    /// can arm its mutants), and the verdict-relevant configuration.
    /// Suite seeds and campaign-global structure are deliberately
    /// excluded so an unrelated method's change never invalidates this
    /// one.
    pub(crate) fn features(&self) -> Vec<FeatureFingerprint> {
        let config = self.config;
        let coverage = CoverageMatrix::from_suite(self.suite);
        let probe_coverage: Vec<CoverageMatrix> = config
            .probe_suites
            .iter()
            .map(CoverageMatrix::from_suite)
            .collect();
        // Group mutants by method, keeping first-appearance order; each
        // entry is `(global id, id-free rendering)` — ids are an artifact
        // of enumeration order and must not influence the sub-fingerprint.
        let mut order: Vec<&str> = Vec::new();
        let mut by_method: BTreeMap<&str, Vec<(usize, String)>> = BTreeMap::new();
        for mutant in self.mutants {
            let method = mutant.method();
            if !by_method.contains_key(method) {
                order.push(method);
            }
            by_method
                .entry(method)
                .or_default()
                .push((mutant.id, format!("[{}] {}", mutant.operator, mutant.plan)));
        }
        order
            .into_iter()
            .map(|method| {
                let mut text = String::new();
                let _ = writeln!(text, "class {}", self.class_name);
                let _ = writeln!(text, "method {method}");
                let covering: BTreeSet<usize> =
                    coverage.cases_covering(method).into_iter().collect();
                for (case, range) in self.suite.cases.iter().zip(&self.cases) {
                    if covering.contains(&case.id) {
                        let _ = writeln!(text, "case {}", &self.text[range.clone()]);
                    }
                }
                for (index, probe) in config.probe_suites.iter().enumerate() {
                    let _ = writeln!(text, "probe {index}");
                    let covering: BTreeSet<usize> = probe_coverage[index]
                        .cases_covering(method)
                        .into_iter()
                        .collect();
                    for (case, range) in probe.cases.iter().zip(&self.probe_cases[index]) {
                        if covering.contains(&case.id) {
                            let _ = writeln!(text, "probe-case {}", &self.text[range.clone()]);
                        }
                    }
                }
                write_config(&mut text, config);
                if let Some(lineage) = config.lineage {
                    let _ = writeln!(text, "lineage {lineage:08x}");
                }
                let entries = by_method.remove(method).unwrap_or_default();
                for (_, rendered) in &entries {
                    let _ = writeln!(text, "mutant {rendered}");
                }
                FeatureFingerprint {
                    method: method.to_owned(),
                    fingerprint: crc32(text.as_bytes()),
                    mutant_ids: entries.into_iter().map(|(id, _)| id).collect(),
                }
            })
            .collect()
    }
}

/// Computes the campaign fingerprint recorded in the journal header:
/// a CRC-32 over everything that determines the verdict vector — the
/// subject class, the killing suite, the probe suites, the BIT/budget/
/// threshold configuration, and the enumerated mutant list. The worker
/// count and the isolation mode are deliberately excluded (verdicts are
/// byte-identical for every worker count and for thread vs. process
/// shards, so a journal written by a 4-worker run resumes cleanly under
/// 1 worker — or under process isolation — and vice versa).
pub fn campaign_fingerprint(
    class_name: &str,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> u32 {
    CampaignText::new(class_name, suite, mutants, config).fingerprint()
}

fn header(fingerprint: u32) -> String {
    format!("campaign {fingerprint:08x}")
}

/// One feature's share of the campaign: the mutated method, the
/// sub-fingerprint of everything that determines *its* mutants' verdicts,
/// and the campaign-global ids of those mutants (in enumeration order).
///
/// Resume compares sub-fingerprints method by method: a method whose
/// sub-fingerprint is unchanged keeps its verdicts (remapped positionally
/// onto the new ids, which shift when an earlier method's mutant
/// inventory grows or shrinks); a changed method re-executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FeatureFingerprint {
    /// The mutated interface method.
    pub method: String,
    /// CRC-32 over the method's mutants (id-free), its covering cases
    /// from the killing and probe suites, and the verdict-relevant
    /// configuration.
    pub fingerprint: u32,
    /// Campaign-global mutant ids belonging to this method, in order.
    pub mutant_ids: Vec<usize>,
}

/// Encodes one feature record for the journal:
/// `feature <method> <sub-fingerprint> <mutant id…>`.
fn encode_feature(feature: &FeatureFingerprint) -> String {
    let mut record = format!("feature {} {:08x}", feature.method, feature.fingerprint);
    for id in &feature.mutant_ids {
        let _ = write!(record, " {id}");
    }
    record
}

/// Decodes a feature record; `None` for anything that is not one
/// (verdict records, the header, foreign payloads).
fn decode_feature(record: &str) -> Option<FeatureFingerprint> {
    let mut parts = record.split(' ');
    if parts.next()? != "feature" {
        return None;
    }
    let method = parts.next()?;
    if method.is_empty() {
        return None;
    }
    let fingerprint = u32::from_str_radix(parts.next()?, 16).ok()?;
    let mutant_ids = parts
        .map(|p| p.parse().ok())
        .collect::<Option<Vec<usize>>>()?;
    Some(FeatureFingerprint {
        method: method.to_owned(),
        fingerprint,
        mutant_ids,
    })
}

/// Encodes one mutant verdict as a journal record payload.
pub fn encode_verdict(id: usize, status: &MutantStatus) -> String {
    let code = match status {
        MutantStatus::Killed { reason, by_case } => {
            let reason = match reason {
                KillReason::Crash => "crash",
                KillReason::Assertion => "assertion",
                KillReason::OutputDiff => "output",
            };
            format!("killed {reason} {by_case}")
        }
        MutantStatus::Survived => "survived".to_owned(),
        MutantStatus::PresumedEquivalent => "equivalent".to_owned(),
        MutantStatus::Quarantined { reason } => {
            let reason = match reason {
                QuarantineReason::Timeout => "timeout",
                QuarantineReason::Budget => "budget",
                QuarantineReason::RepeatedCrash => "repeated-crash",
                QuarantineReason::WorkerCrash => "worker-crash",
                QuarantineReason::ShardAbort => "shard-abort",
                QuarantineReason::ShardSignal => "shard-signal",
                QuarantineReason::ShardUnresponsive => "shard-unresponsive",
            };
            format!("quarantined {reason}")
        }
    };
    format!("verdict {id} {code}")
}

/// Decodes a journal record payload back into `(mutant id, status)`;
/// `None` for anything that is not a well-formed verdict record (the
/// checksum already passed, so this only rejects foreign payloads).
pub fn decode_verdict(record: &str) -> Option<(usize, MutantStatus)> {
    let mut parts = record.split(' ');
    if parts.next()? != "verdict" {
        return None;
    }
    let id: usize = parts.next()?.parse().ok()?;
    let status = match parts.next()? {
        "killed" => {
            let reason = match parts.next()? {
                "crash" => KillReason::Crash,
                "assertion" => KillReason::Assertion,
                "output" => KillReason::OutputDiff,
                _ => return None,
            };
            let by_case: usize = parts.next()?.parse().ok()?;
            MutantStatus::Killed { reason, by_case }
        }
        "survived" => MutantStatus::Survived,
        "equivalent" => MutantStatus::PresumedEquivalent,
        "quarantined" => {
            let reason = match parts.next()? {
                "timeout" => QuarantineReason::Timeout,
                "budget" => QuarantineReason::Budget,
                "repeated-crash" => QuarantineReason::RepeatedCrash,
                "worker-crash" => QuarantineReason::WorkerCrash,
                "shard-abort" => QuarantineReason::ShardAbort,
                "shard-signal" => QuarantineReason::ShardSignal,
                "shard-unresponsive" => QuarantineReason::ShardUnresponsive,
                _ => return None,
            };
            MutantStatus::Quarantined { reason }
        }
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some((id, status))
}

/// `(mutant id, verdict)` pairs, in journal order.
type Verdicts = Vec<(usize, MutantStatus)>;

/// A per-campaign verdict journal: opened (with recovery, replay and
/// salvage) by [`CampaignJournal::resume`], appended to as each mutant
/// finishes.
#[derive(Debug)]
pub struct CampaignJournal {
    journal: Journal,
}

/// Keeps the stale journal's verdicts of every method in `features` whose
/// stored feature record has the same sub-fingerprint and mutant count,
/// remapped positionally onto the new ids.
fn salvage(stale: &[String], features: &[FeatureFingerprint], mutant_count: usize) -> Verdicts {
    let mut old_features: BTreeMap<String, (u32, Vec<usize>)> = BTreeMap::new();
    let mut old_verdicts: BTreeMap<usize, MutantStatus> = BTreeMap::new();
    for record in stale {
        if let Some(feature) = decode_feature(record) {
            old_features
                .entry(feature.method)
                .or_insert((feature.fingerprint, feature.mutant_ids));
        } else if let Some((id, status)) = decode_verdict(record) {
            old_verdicts.entry(id).or_insert(status);
        }
    }
    let mut salvaged = Vec::new();
    for feature in features {
        let Some((old_fp, old_ids)) = old_features.get(&feature.method) else {
            continue;
        };
        if *old_fp != feature.fingerprint || old_ids.len() != feature.mutant_ids.len() {
            continue;
        }
        for (&new_id, old_id) in feature.mutant_ids.iter().zip(old_ids) {
            if new_id < mutant_count {
                if let Some(status) = old_verdicts.get(old_id) {
                    salvaged.push((new_id, status.clone()));
                }
            }
        }
    }
    salvaged.sort_by_key(|(id, _)| *id);
    salvaged
}

impl CampaignJournal {
    /// Opens the journal at `path`, repairing any torn/corrupt tail, and
    /// returns it with the verdicts to replay and whether any of them
    /// were salvaged from another campaign's journal.
    ///
    /// * Matching header: every verified verdict record for a known
    ///   mutant id replays, and the journal is not rewritten.
    /// * Missing file, or a header from a *different* campaign: the
    ///   journal is rewritten as header + `features` + the verdicts
    ///   salvaged from it (see [`FeatureFingerprint`]). `features` is
    ///   called only here, so a header match never computes them.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from recovery or the rewrite.
    pub(crate) fn open(
        path: &Path,
        fingerprint: u32,
        mutant_count: usize,
        features: impl FnOnce() -> Vec<FeatureFingerprint>,
    ) -> io::Result<(CampaignJournal, Verdicts, bool)> {
        let mut salvaged = false;
        let (journal, records) = open_bound_journal(path, &header(fingerprint), |stale| {
            let features = features();
            let kept = salvage(stale, &features, mutant_count);
            salvaged = !kept.is_empty();
            features
                .iter()
                .map(encode_feature)
                .chain(kept.iter().map(|(id, status)| encode_verdict(*id, status)))
                .collect()
        })?;
        let replayed = records
            .iter()
            .filter_map(|record| decode_verdict(record))
            .filter(|(id, _)| *id < mutant_count)
            .collect();
        let journal = CampaignJournal { journal };
        Ok((journal, replayed, salvaged))
    }

    /// Opens the journal at `path` like the engine does, but writes no
    /// `feature` records: a matching header replays every verified
    /// verdict for a known mutant id without rewriting the journal, and
    /// anything else resets it to a fresh header (with no features to
    /// compare, nothing is salvaged).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from recovery or the rewrite.
    pub fn resume(
        path: &Path,
        fingerprint: u32,
        mutant_count: usize,
    ) -> io::Result<(CampaignJournal, Vec<(usize, MutantStatus)>)> {
        let (journal, replayed, _) = Self::open(path, fingerprint, mutant_count, Vec::new)?;
        Ok((journal, replayed))
    }

    /// Durably appends one verdict; when this returns `Ok` the verdict
    /// survives a process kill.
    ///
    /// # Errors
    ///
    /// Propagates the append/fsync error.
    pub fn record(&mut self, id: usize, status: &MutantStatus) -> io::Result<()> {
        self.journal.append(&encode_verdict(id, status))
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("concat-mutation-journal-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn all_statuses() -> Vec<MutantStatus> {
        vec![
            MutantStatus::Killed {
                reason: KillReason::Crash,
                by_case: 3,
            },
            MutantStatus::Killed {
                reason: KillReason::Assertion,
                by_case: 0,
            },
            MutantStatus::Killed {
                reason: KillReason::OutputDiff,
                by_case: 17,
            },
            MutantStatus::Survived,
            MutantStatus::PresumedEquivalent,
            MutantStatus::Quarantined {
                reason: QuarantineReason::Timeout,
            },
            MutantStatus::Quarantined {
                reason: QuarantineReason::Budget,
            },
            MutantStatus::Quarantined {
                reason: QuarantineReason::RepeatedCrash,
            },
            MutantStatus::Quarantined {
                reason: QuarantineReason::WorkerCrash,
            },
            MutantStatus::Quarantined {
                reason: QuarantineReason::ShardAbort,
            },
            MutantStatus::Quarantined {
                reason: QuarantineReason::ShardSignal,
            },
            MutantStatus::Quarantined {
                reason: QuarantineReason::ShardUnresponsive,
            },
        ]
    }

    #[test]
    fn every_status_round_trips() {
        for (id, status) in all_statuses().into_iter().enumerate() {
            let record = encode_verdict(id, &status);
            assert_eq!(
                decode_verdict(&record),
                Some((id, status)),
                "record {record:?}"
            );
        }
    }

    #[test]
    fn malformed_records_are_rejected() {
        for bad in [
            "",
            "verdict",
            "verdict x survived",
            "verdict 1",
            "verdict 1 killed",
            "verdict 1 killed crash",
            "verdict 1 killed crash x",
            "verdict 1 killed slowly 2",
            "verdict 1 quarantined",
            "verdict 1 quarantined vibes",
            "verdict 1 survived extra",
            "campaign deadbeef",
        ] {
            assert_eq!(decode_verdict(bad), None, "{bad:?} must not decode");
        }
    }

    #[test]
    fn resume_replays_matching_campaign_and_resets_foreign_one() {
        let dir = scratch("resume");
        let path = dir.join("campaign.journal");
        let (mut journal, replayed) = CampaignJournal::resume(&path, 0xABCD, 10).unwrap();
        assert!(replayed.is_empty());
        journal.record(2, &MutantStatus::Survived).unwrap();
        journal
            .record(
                5,
                &MutantStatus::Quarantined {
                    reason: QuarantineReason::WorkerCrash,
                },
            )
            .unwrap();
        // Out-of-range record is ignored on replay, not an error.
        journal.record(99, &MutantStatus::Survived).unwrap();
        drop(journal);

        let (_journal, replayed) = CampaignJournal::resume(&path, 0xABCD, 10).unwrap();
        assert_eq!(
            replayed,
            vec![
                (2, MutantStatus::Survived),
                (
                    5,
                    MutantStatus::Quarantined {
                        reason: QuarantineReason::WorkerCrash
                    }
                ),
            ]
        );

        // A different fingerprint discards the stored verdicts.
        let (_journal, replayed) = CampaignJournal::resume(&path, 0x1234, 10).unwrap();
        assert!(replayed.is_empty());
        let (_journal, replayed) = CampaignJournal::resume(&path, 0x1234, 10).unwrap();
        assert!(replayed.is_empty(), "old campaign's verdicts are gone");
        fs::remove_dir_all(&dir).unwrap();
    }

    use crate::fault::{FaultPlan, Replacement};
    use crate::operators::MutationOperator;
    use concat_driver::{MethodCall, TestCase, TestSuite};

    fn mutant(id: usize, method: &str, site: u32) -> Mutant {
        Mutant {
            id,
            operator: MutationOperator::IndVarBitNeg,
            plan: FaultPlan {
                method: method.into(),
                site,
                replacement: Replacement::BitNeg,
            },
        }
    }

    fn case(id: usize, methods: &[&str]) -> TestCase {
        TestCase {
            id,
            transaction_index: id,
            node_path: Vec::new(),
            constructor: MethodCall::generated("m0", "New", Vec::new()),
            calls: methods
                .iter()
                .map(|m| MethodCall::generated("m1", *m, Vec::new()))
                .collect(),
        }
    }

    fn suite(cases: Vec<TestCase>) -> TestSuite {
        let mut suite = TestSuite {
            class_name: "Acc".into(),
            seed: 7,
            cases,
            stats: Default::default(),
        };
        suite.stats.cases = suite.cases.len();
        suite
    }

    #[test]
    fn feature_records_round_trip_and_reject_malformed() {
        let feature = FeatureFingerprint {
            method: "Scale".into(),
            fingerprint: 0xDEAD_BEEF,
            mutant_ids: vec![0, 1, 5],
        };
        let record = encode_feature(&feature);
        assert_eq!(record, "feature Scale deadbeef 0 1 5");
        assert_eq!(decode_feature(&record), Some(feature));
        for bad in [
            "",
            "feature",
            "feature Scale",
            "feature Scale nothex 1",
            "feature Scale 00ff00ff one",
            "verdict 1 survived",
        ] {
            assert_eq!(decode_feature(bad), None, "{bad:?} must not decode");
        }
    }

    #[test]
    fn method_fingerprints_ignore_id_shifts_but_track_covering_cases() {
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"]), case(1, &["Bump"])]);
        let mutants = vec![mutant(0, "Scale", 0), mutant(1, "Bump", 0)];
        let features = CampaignText::new("Acc", &base, &mutants, &config).features();
        assert_eq!(features.len(), 2);
        assert_eq!(features[0].method, "Scale");
        assert_eq!(features[0].mutant_ids, vec![0]);
        assert_eq!(features[1].method, "Bump");
        assert_eq!(features[1].mutant_ids, vec![1]);

        // An extra Scale mutant shifts Bump's global id, but Bump's
        // sub-fingerprint must not move.
        let grown = vec![
            mutant(0, "Scale", 0),
            mutant(1, "Scale", 1),
            mutant(2, "Bump", 0),
        ];
        let regrown = CampaignText::new("Acc", &base, &grown, &config).features();
        assert_eq!(regrown[1].method, "Bump");
        assert_eq!(regrown[1].mutant_ids, vec![2]);
        assert_eq!(regrown[1].fingerprint, features[1].fingerprint);
        assert_ne!(regrown[0].fingerprint, features[0].fingerprint);

        // Changing a case that covers only Bump leaves Scale alone.
        let retouched = suite(vec![case(0, &["Scale"]), case(1, &["Bump", "Bump"])]);
        let touched = CampaignText::new("Acc", &retouched, &mutants, &config).features();
        assert_eq!(touched[0].fingerprint, features[0].fingerprint);
        assert_ne!(touched[1].fingerprint, features[1].fingerprint);
    }

    #[test]
    fn open_salvages_unchanged_methods_across_id_shifts() {
        let dir = scratch("salvage");
        let path = dir.join("campaign.journal");
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"]), case(1, &["Bump"])]);
        let old_mutants = vec![mutant(0, "Scale", 0), mutant(1, "Bump", 0)];
        let old_fp = campaign_fingerprint("Acc", &base, &old_mutants, &config);
        let old_features = CampaignText::new("Acc", &base, &old_mutants, &config).features();

        let (mut journal, replayed, salvaged) =
            CampaignJournal::open(&path, old_fp, 2, || old_features.clone()).unwrap();
        assert!(replayed.is_empty());
        assert!(!salvaged);
        journal
            .record(
                0,
                &MutantStatus::Killed {
                    reason: KillReason::Crash,
                    by_case: 0,
                },
            )
            .unwrap();
        journal.record(1, &MutantStatus::Survived).unwrap();
        drop(journal);

        // Warm re-run of the identical campaign: pure replay, no rewrite.
        let (_, replayed, salvaged) =
            CampaignJournal::open(&path, old_fp, 2, || old_features.clone()).unwrap();
        assert_eq!(replayed.len(), 2);
        assert!(!salvaged);

        // Scale grows a mutant: Bump's ids shift 1 -> 2 but its verdict
        // must be salvaged; Scale's verdict is dropped.
        let new_mutants = vec![
            mutant(0, "Scale", 0),
            mutant(1, "Scale", 1),
            mutant(2, "Bump", 0),
        ];
        let new_fp = campaign_fingerprint("Acc", &base, &new_mutants, &config);
        assert_ne!(new_fp, old_fp);
        let new_features = CampaignText::new("Acc", &base, &new_mutants, &config).features();
        let (_, replayed, salvaged) =
            CampaignJournal::open(&path, new_fp, 3, || new_features.clone()).unwrap();
        assert_eq!(replayed, vec![(2, MutantStatus::Survived)]);
        assert!(salvaged);

        // The rewritten journal replays cleanly as the new campaign, also
        // through `resume`, which skips the feature records.
        let (_, replayed, salvaged) =
            CampaignJournal::open(&path, new_fp, 3, || new_features.clone()).unwrap();
        assert_eq!(replayed, vec![(2, MutantStatus::Survived)]);
        assert!(!salvaged);
        let (_, replayed) = CampaignJournal::resume(&path, new_fp, 3).unwrap();
        assert_eq!(replayed, vec![(2, MutantStatus::Survived)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_match_never_rewrites_a_journal_without_features() {
        let dir = scratch("featureless");
        let path = dir.join("campaign.journal");
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"])]);
        let mutants = vec![mutant(0, "Scale", 0)];
        let fp = campaign_fingerprint("Acc", &base, &mutants, &config);

        // `resume` writes header + verdicts, no features.
        let (mut journal, _) = CampaignJournal::resume(&path, fp, 1).unwrap();
        journal.record(0, &MutantStatus::Survived).unwrap();
        drop(journal);
        let before = fs::read(&path).unwrap();

        // The engine's opener replays it as it is: the features are never
        // computed and the file is not touched.
        let (_, replayed, salvaged) =
            CampaignJournal::open(&path, fp, 1, || panic!("features computed on a match")).unwrap();
        assert_eq!(replayed, vec![(0, MutantStatus::Survived)]);
        assert!(!salvaged);
        assert_eq!(fs::read(&path).unwrap(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_discards_changed_methods() {
        let dir = scratch("discard");
        let path = dir.join("campaign.journal");
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"]), case(1, &["Bump"])]);
        let mutants = vec![mutant(0, "Scale", 0), mutant(1, "Bump", 0)];
        let fp = campaign_fingerprint("Acc", &base, &mutants, &config);
        let features = CampaignText::new("Acc", &base, &mutants, &config).features();
        let (mut journal, _, _) = CampaignJournal::open(&path, fp, 2, || features).unwrap();
        journal.record(0, &MutantStatus::Survived).unwrap();
        journal.record(1, &MutantStatus::Survived).unwrap();
        drop(journal);

        // A new covering case for Bump changes its sub-fingerprint: only
        // Scale's verdict survives the resume.
        let touched = suite(vec![case(0, &["Scale"]), case(1, &["Bump", "Bump"])]);
        let new_fp = campaign_fingerprint("Acc", &touched, &mutants, &config);
        let new_features = CampaignText::new("Acc", &touched, &mutants, &config).features();
        let (_, replayed, salvaged) =
            CampaignJournal::open(&path, new_fp, 2, || new_features).unwrap();
        assert_eq!(replayed, vec![(0, MutantStatus::Survived)]);
        assert!(salvaged);
        fs::remove_dir_all(&dir).unwrap();
    }
}
