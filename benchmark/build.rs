//! Records the compiler and build profile the benchmark was built with,
//! for the provenance block of every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_owned());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
