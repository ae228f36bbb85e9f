//! The machine descriptor carried by every result file, so that two
//! result files can be told apart by more than their numbers.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Logical CPUs available to this process (the pool's worker count).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Whether the engine's AVX2 batch kernels can run here (the engine's
/// own runtime probe, so the descriptor says what the kernels see).
pub fn avx2() -> bool {
    s2d::KernelIsa::avx2_available()
}

/// Size of cpu0's cache at `index` (2 = L2, 3 = L3) as sysfs spells it
/// ("2048K"), or "unknown".
fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size"))
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// First line of a command's output, or "unknown" when it cannot run
/// (no `git` metadata in an exported checkout, no `rustc` on PATH).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`);
/// `NaN` where `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One triad pass `a = b + s·c` over arrays of `len` doubles.
pub fn triad_pass(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
        *ai = bi + s * ci;
    }
}

/// Single-thread triad bandwidth in GB/s over three arrays of
/// `total_bytes / 3` each: best of `passes`, counting 24 bytes per
/// element (computed traffic; write-allocate is not counted).
pub fn triad_gbytes_per_s(total_bytes: usize, passes: usize) -> f64 {
    let len = (total_bytes / 24).max(1024);
    let (mut a, b, c) = (vec![0.0; len], vec![1.0; len], vec![2.0; len]);
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        triad_pass(&mut a, &b, &c, 3.0);
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (len * 24) as f64 / best / 1e9
}

/// The descriptor written at the head of a result file.
pub fn descriptor(seed: u64) -> Json {
    // 256 MiB: four times the largest L3 seen on the development box
    // would be 1 GiB, more than is reasonable to touch for a header
    // line; the per-workload triad in the traced run is the reference
    // the kernels are judged against, this one only labels the box.
    let triad = triad_gbytes_per_s(256 << 20, 3);
    let mut d = Json::obj();
    d.set("nproc", nproc())
        .set("avx2", avx2())
        .set("l2", cache_size(2))
        .set("l3", cache_size(3))
        .set("triad_gbytes_per_s", triad)
        .set("rustc", first_line("rustc", &["-V"]))
        .set("git_commit", first_line("git", &["rev-parse", "HEAD"]))
        .set("seed", seed);
    d
}
