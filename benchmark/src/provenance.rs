//! Where a result came from: host, toolchain, source revision, build
//! profile and seed. Two result files are comparable only when host and
//! seeds agree.

use crate::json::{quote, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The provenance block written into every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_rev: String,
    /// Whether `git status` shows changes; `null` outside a git checkout.
    pub git_dirty: Option<bool>,
    /// CRC-32 over the workspace sources and the benchmark itself, so
    /// a checkout without git history still names the code it measured.
    pub source_crc: String,
    /// Cargo build profile of the benchmark binary.
    pub profile: String,
}

impl Provenance {
    /// Collects the provenance of this process, rooted at the repository
    /// checkout `root`.
    pub fn collect(root: &Path) -> Provenance {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .current_dir(root)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        };
        let git_rev = git(&["rev-parse", "HEAD"]);
        let git_dirty = git_rev
            .as_ref()
            .and_then(|_| git(&["status", "--porcelain"]))
            .map(|status| !status.is_empty());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: cpu_model(),
            rustc: env!("BENCH_RUSTC_VERSION").to_owned(),
            git_rev: git_rev.unwrap_or_else(|| "none".into()),
            git_dirty,
            source_crc: format!("{:08x}", source_crc(root)),
            profile: env!("BENCH_PROFILE").to_owned(),
        }
    }

    /// The host part of the provenance: results from different hosts are
    /// never compared.
    pub fn host(&self) -> String {
        format!("{} x {}", self.nproc, self.cpu)
    }

    /// Renders the block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"git_dirty\":{},\
             \"source_crc\":{},\"profile\":{}}}",
            self.nproc,
            quote(&self.cpu),
            quote(&self.rustc),
            quote(&self.git_rev),
            self.git_dirty.map_or("null".into(), |d| d.to_string()),
            quote(&self.source_crc),
            quote(&self.profile)
        )
    }

    /// Reads the block back from a result line.
    pub fn from_json(value: &Json) -> Option<Provenance> {
        let text = |key: &str| value.get(key)?.as_str().map(str::to_owned);
        Some(Provenance {
            nproc: value.get("nproc")?.as_f64()? as usize,
            cpu: text("cpu")?,
            rustc: text("rustc")?,
            git_rev: text("git_rev")?,
            git_dirty: value.get("git_dirty").and_then(Json::as_bool),
            source_crc: text("source_crc")?,
            profile: text("profile")?,
        })
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CRC-32 over the sorted source files of the workspace and the
/// benchmark (paths and contents).
fn source_crc(root: &Path) -> u32 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "benchmark"] {
        collect(root, Path::new(top), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(root.join(&file)).unwrap_or_default());
    }
    concat_runtime::crc32(&bytes)
}

fn collect(root: &Path, relative: &Path, out: &mut Vec<PathBuf>) {
    let path = root.join(relative);
    let Ok(meta) = std::fs::symlink_metadata(&path) else {
        return;
    };
    if meta.is_file() {
        let source = matches!(
            relative.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock" | "txt" | "tspec")
        );
        if source {
            out.push(relative.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(&path) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        // Build outputs, results and scratch files are not sources.
        let skip = name == "target" || name == "results" || name.to_string_lossy().starts_with('.');
        if !skip {
            collect(root, &relative.join(name), out);
        }
    }
}
