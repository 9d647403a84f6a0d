//! `diff OLD NEW`: compares two result files metric by metric.
//!
//! For each workload and metric it prints both sides' median and
//! quartiles over their runs and the ratio of the medians. A metric is
//! `unresolved` when either side's quartile spread, as a share of its
//! median, is wider than the metric's bound in `BENCHMARK.json`. Files
//! from different hosts, or with different seeds or input seeds for a
//! workload, are not compared.

use crate::json::Json;
use crate::provenance::Provenance;
use crate::stats::{median, quartiles};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Runs of one result file, keyed by `(workload, traced)`.
struct Side {
    host: BTreeSet<String>,
    seeds: BTreeMap<String, BTreeSet<u64>>,
    inputs: BTreeMap<String, BTreeSet<u64>>,
    values: BTreeMap<String, BTreeMap<String, (Vec<f64>, String)>>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side {
        host: BTreeSet::new(),
        seeds: BTreeMap::new(),
        inputs: BTreeMap::new(),
        values: BTreeMap::new(),
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |key: &str| run.get(key).ok_or(format!("{path}:{}: no {key}", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let traced = field("trace")?.as_bool().unwrap_or(false);
        let seed = field("seed")?.as_f64().unwrap_or(-1.0) as u64;
        let provenance = Provenance::from_json(field("provenance")?)
            .ok_or(format!("{path}:{}: bad provenance", n + 1))?;
        side.host.insert(provenance.host());
        let key = if traced {
            format!("{workload} (traced)")
        } else {
            workload
        };
        side.seeds.entry(key.clone()).or_default().insert(seed);
        let inputs = run
            .get("inputs")
            .and_then(Json::as_array)
            .unwrap_or_default();
        side.inputs
            .entry(key.clone())
            .or_default()
            .extend(inputs.iter().filter_map(Json::as_f64).map(|s| s as u64));
        let metrics = field("result")?
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{path}:{}: no metrics", n + 1))?;
        let entry = side.values.entry(key).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            if let Some(v) = value {
                let slot = entry
                    .entry(name.clone())
                    .or_insert_with(|| (Vec::new(), unit.to_owned()));
                slot.0.push(v);
            }
        }
    }
    Ok(side)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, f64> {
    let path = Path::new(crate::PACKAGE_DIR)
        .join("..")
        .join("BENCHMARK.json");
    let Some(spec) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        return BTreeMap::new();
    };
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect()
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Runs the `diff` mode: prints the comparison, or refuses it.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [old_path, new_path] = args else {
        return Err("usage: concat-benchmark diff OLD.jsonl NEW.jsonl".into());
    };
    let (old, new) = (load(old_path)?, load(new_path)?);
    if old.host != new.host || old.host.len() > 1 {
        return Err(format!(
            "refusing to compare results from different hosts: {:?} vs {:?}",
            old.host, new.host
        ));
    }
    let bounds = bounds();
    println!(
        "{:<16} {:<44} {:>30} {:>30} {:>9}",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "new/old"
    );
    for (workload, old_metrics) in &old.values {
        let Some(new_metrics) = new.values.get(workload) else {
            println!("{workload:<16} only in {old_path}");
            continue;
        };
        if old.seeds.get(workload) != new.seeds.get(workload) {
            return Err(format!(
                "refusing to compare {workload}: seeds {:?} vs {:?}",
                old.seeds.get(workload),
                new.seeds.get(workload)
            ));
        }
        if old.inputs.get(workload) != new.inputs.get(workload) {
            return Err(format!(
                "refusing to compare {workload}: input seeds {:?} vs {:?}",
                old.inputs.get(workload),
                new.inputs.get(workload)
            ));
        }
        for (metric, (a, unit)) in old_metrics {
            let Some((b, _)) = new_metrics.get(metric) else {
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            let ((a1, a3), (b1, b3)) = (quartiles(a), quartiles(b));
            let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
            let note = match bounds.get(metric) {
                Some(bound) if spread(a) > *bound || spread(b) > *bound => {
                    format!("unresolved (spread above bound {bound})")
                }
                Some(bound) => format!("bound {bound}"),
                None => String::new(),
            };
            println!(
                "{workload:<16} {:<44} {:>30} {:>30} {ratio:>9.4} {note}",
                format!("{metric} [{unit}]"),
                format!("{ma:.6} [{a1:.6}, {a3:.6}]"),
                format!("{mb:.6} [{b1:.6}, {b3:.6}]"),
            );
        }
    }
    for workload in new.values.keys().filter(|w| !old.values.contains_key(*w)) {
        println!("{workload:<16} only in {new_path}");
    }
    Ok(true)
}
