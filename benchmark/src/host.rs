//! The host's speed while a run measures, so that runs made at different
//! moments on a shared host compare.
//!
//! The benchmark's hosts are shared. On the 2-vCPU VM it was made on,
//! each vCPU switches on its own, every few seconds and sometimes for
//! minutes, between a fast state and one about 1.7 times slower (a
//! fixed CPU exercise, sampled twice a second on both vCPUs for 20 s).
//! Thread CPU time slows alike, so it is no way out. Over ten 40 s runs
//! per workload the medians of the wall times spread (quartile distance
//! over median) 0.28 on `table2` and 0.30 on `walk`, above the 0.24
//! bound in `BENCHMARK.json`.
//!
//! A [`Monitor`] therefore runs sampler processes (`concat-benchmark
//! sample CPU`), each pinned to one CPU the workload runs on, which time
//! a fixed reference exercise every [`PERIOD`]. Each timed interval is
//! then scaled to what it would have taken at [`NOMINAL_S`] per
//! reference, from the samples taken during it. A single-threaded
//! workload is pinned to one CPU, so one sampler follows it. Samplers are
//! processes, not threads: a second thread in the benchmark's process,
//! even one that only sleeps, made `table2`'s campaign 20–35% slower.
//!
//! Over ten 40 s runs per workload (seeds 101–110), `campaign_s` then
//! spread 0.032, 0.113 and 0.027 on `table2`, `fleet` and `walk`, where
//! the wall times of the same runs spread 0.113, 0.211 and 0.100. What
//! the reference cannot see is not corrected: two of those `fleet` runs
//! took a third longer at an unchanged reference speed, while their
//! single-threaded set-up scaled true.

use crate::stats::median;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The reference's time on an unloaded vCPU of the host the benchmark
/// was made on (2-vCPU Xeon VM at 2.1 GHz). Scaled times read as wall
/// times on a host running at that speed.
pub const NOMINAL_S: f64 = 0.000_15;

/// Time between two samples on one CPU.
const PERIOD: Duration = Duration::from_millis(25);

/// Samples this close to a short interval's ends count for it.
const WINDOW: f64 = 0.05;

/// Words of a CPU mask (1024 CPUs), as the kernel's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// `CLOCK_MONOTONIC`, shared by every process of the host.
const CLOCK_MONOTONIC: i32 = 1;

/// The kernel's `struct timespec` where `time_t` and `long` are 64-bit.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const _: () = assert!(
    std::mem::size_of::<std::ffi::c_long>() == 8,
    "Timespec assumes a 64-bit target"
);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Seconds on the monotonic clock, comparable across processes.
pub fn now() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a writable `struct timespec` (64-bit Linux).
    unsafe { clock_gettime(CLOCK_MONOTONIC, &mut time) };
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpus`; false if the kernel refused.
fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// One reference sample: the wall time of a fixed CPU exercise that uses
/// none of the program's code and no heap: seeded random updates of a
/// 64 KiB table on the stack.
fn reference_s() -> f64 {
    let t = now();
    let mut table = [0u64; 1 << 13];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..100_000u32 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        table[(z as usize) & ((1 << 13) - 1)] ^= z;
    }
    std::hint::black_box(&table);
    now() - t
}

/// `concat-benchmark sample CPU`: pins itself to `CPU` and prints one
/// line `<monotonic seconds> <reference seconds>` every [`PERIOD`] until
/// killed or its parent exits.
pub fn sample(args: &[String]) -> Result<bool, String> {
    let cpu: usize = args
        .first()
        .and_then(|c| c.parse().ok())
        .ok_or("usage: concat-benchmark sample CPU")?;
    if !pin(&[cpu]) {
        return Err(format!("cannot pin to CPU {cpu}"));
    }
    let parent = std::os::unix::process::parent_id();
    let mut out = std::io::stdout().lock();
    while std::os::unix::process::parent_id() == parent {
        let seconds = reference_s();
        writeln!(out, "{} {seconds}", now())
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
        std::thread::sleep(PERIOD);
    }
    Ok(true)
}

/// Sampler processes following the CPUs a workload runs on.
pub struct Monitor {
    samplers: Vec<(Child, PathBuf)>,
    /// The CPU a single-threaded workload was pinned to.
    cpu: Option<usize>,
    /// The CPUs the process could use before.
    allowed: Vec<usize>,
}

impl Monitor {
    /// Pins a single-threaded workload (the calling thread and every
    /// thread it starts from now on) to one CPU, and starts a sampler on
    /// each CPU the workload may run on; their output goes to `dir`. A
    /// CPU whose sampler cannot start goes unsampled.
    pub fn start(single_threaded: bool, dir: &Path) -> Monitor {
        let allowed = allowed_cpus();
        let mut cpus = allowed.clone();
        let mut cpu = None;
        if single_threaded {
            cpus.truncate(1);
            cpu = cpus.first().copied().filter(|c| pin(&[*c]));
        }
        let exe = std::env::current_exe().ok();
        let samplers = cpus
            .iter()
            .filter_map(|c| {
                let path = dir.join(format!("sampler-{c}.txt"));
                let out = std::fs::File::create(&path).ok()?;
                let child = Command::new(exe.as_ref()?)
                    .args(["sample", &c.to_string()])
                    .stdin(Stdio::null())
                    .stdout(out)
                    .spawn()
                    .ok()?;
                Some((child, path))
            })
            .collect();
        Monitor {
            samplers,
            cpu,
            allowed,
        }
    }

    /// What the samplers saw so far.
    pub fn speed(&self) -> Speed {
        let mut samples = Vec::new();
        for (_, path) in &self.samplers {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            // A line being written is incomplete and does not parse.
            samples.extend(text.lines().filter_map(|line| {
                let (at, seconds) = line.split_once(' ')?;
                Some((at.parse().ok()?, seconds.parse().ok()?))
            }));
        }
        Speed {
            samples,
            cpu: self.cpu,
        }
    }

    /// Stops the samplers, waits for them, lets the calling thread run
    /// on every CPU again, and returns what the samplers saw.
    pub fn stop(mut self) -> Speed {
        if self.cpu.is_some() {
            pin(&self.allowed);
        }
        for (child, _) in &mut self.samplers {
            let _ = child.kill();
            let _ = child.wait();
        }
        let speed = self.speed();
        for (_, path) in std::mem::take(&mut self.samplers) {
            let _ = std::fs::remove_file(path);
        }
        speed
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        for (child, _) in &mut self.samplers {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The host's speed over a run: reference samples, as (monotonic
/// seconds, reference seconds), of the CPUs the workload ran on.
pub struct Speed {
    samples: Vec<(f64, f64)>,
    /// The CPU a single-threaded workload was pinned to.
    pub cpu: Option<usize>,
}

impl Speed {
    /// Reference samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median reference time over the whole run.
    pub fn reference_s(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The factor that scales a time measured from `start` to `end`
    /// (monotonic seconds) to the nominal host speed. A sample's speed is
    /// the inverse of its reference time, and the work an interval did is
    /// its length times the mean speed over it, so the factor is
    /// [`NOMINAL_S`] times the mean inverse reference time of the samples
    /// taken during the interval. A short interval takes the samples
    /// within [`WINDOW`] of it instead, the window doubled until it holds
    /// three. 1 if no sampler ran.
    pub fn factor(&self, start: f64, end: f64) -> f64 {
        let mut window = 0.0;
        loop {
            let speeds: Vec<f64> = self
                .samples
                .iter()
                .filter(|(at, _)| *at >= start - window && *at <= end + window)
                .map(|s| 1.0 / s.1)
                .collect();
            if speeds.len() >= 3 || speeds.len() == self.samples.len() {
                return if speeds.is_empty() {
                    1.0
                } else {
                    NOMINAL_S * speeds.iter().sum::<f64>() / speeds.len() as f64
                };
            }
            window = if window == 0.0 { WINDOW } else { window * 2.0 };
        }
    }
}
