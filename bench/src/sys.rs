//! What the benchmark reads from the machine: process CPU time, peak
//! memory from `/proc`, the cost of a clock read, and the cost of a bare
//! append+fsync on the data directory's filesystem.

use crate::stats::median;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's benchmark epoch. Generators stamp
/// this into the rows they write; consumers subtract it on receipt.
pub fn now_ns() -> i64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as i64
}

/// The same clock in whole microseconds, for span boundaries.
pub fn now_us() -> i64 {
    now_ns() / 1_000
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's id of the clock that counts the CPU time of every thread of
/// the process, ended ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the whole process has used, user and system, microseconds.
/// Read from the scheduler's own accounting: `/proc/self/stat` counts in
/// 10 ms ticks, too coarse for a one-second segment.
pub fn cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` as 64-bit Linux
    // lays it out (two 64-bit fields), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// Peak resident set size of the process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Soft limit on open files (the fan-out workload needs ~3 per
/// subscriber because both socket ends live in this process).
pub fn fd_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(1024)
}

/// Filesystem type of the mount holding `path`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in mounts.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = left.split_whitespace().nth(4) else {
            continue;
        };
        if path.starts_with(mount_point) && mount_point.len() >= best.0 {
            if let Some(ty) = right.split_whitespace().next() {
                best = (mount_point.len(), ty.to_string());
            }
        }
    }
    best.1
}

/// Median cost of one `Instant::now()`, nanoseconds.
pub fn clock_ns() -> f64 {
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..10_000 {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    median(&batches)
}

/// Median cost of appending 128 bytes to a fresh file in `dir` and
/// syncing it, microseconds. Run before and after a workload: drift
/// between the two flags a noisy run.
pub fn fsync_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut f) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let block = [0x5au8; 128];
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t0 = Instant::now();
        if f.write_all(&block).and_then(|_| f.sync_data()).is_err() {
            break;
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
    median(&us)
}

/// A data directory made fresh on creation and removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, name: &str) -> std::io::Result<ScratchDir> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes held by the regular files directly inside the directory.
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
