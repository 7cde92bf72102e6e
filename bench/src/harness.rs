//! What the four workloads share: the run configuration, the closed
//! measuring loop, and the shape of a result.

use crate::stats::{Segment, Segments};
use crate::sys::{self, ScratchDir};
use hipac::{ActiveDatabase, EngineStats};
use hipac_common::Value;
use hipac_net::{HipacServer, ServerConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The thread budget every workload runs under, on any machine: the
/// numbers are only comparable if the program is given the same shape.
pub const SERVER_WORKERS: usize = 2;
pub const REACTOR_SHARDS: usize = 1;
pub const ENGINE_WORKERS: usize = 2;
pub const FIRING_PARALLELISM: usize = 1;
/// Unacked pushes a handler may hold before delivery back-pressures
/// the rule action. Sized so a closed-loop producer never reaches it.
pub const OUTBOX_CAP: usize = 4096;

#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Population divisor: 1 for a full run, 20 for `--smoke`.
    pub shrink: usize,
    /// Set the workload up, report how long that took, and stop: how the
    /// parent run takes further set-up samples, each in a fresh process.
    pub setup_only: bool,
    /// Where data directories are created (fresh per workload, removed
    /// on exit).
    pub data_root: PathBuf,
}

impl Cfg {
    pub fn scaled(&self, full: usize) -> usize {
        (full / self.shrink).max(1)
    }

    pub fn scaled_ops(&self, full: u64) -> u64 {
        (full / self.shrink as u64).max(1)
    }

    pub fn scratch(&self, name: &str) -> Res<ScratchDir> {
        ScratchDir::new(&self.data_root, &format!("{name}-{}", std::process::id()))
            .map_err(|e| format!("create data dir under {}: {e}", self.data_root.display()))
    }
}

/// Result of one workload run (traced or not).
#[derive(Debug, Default)]
pub struct Outcome {
    /// From an empty data directory to a warmed-up world ready for its
    /// first measured operation.
    pub setup_s: f64,
    /// The writer's transactions.
    pub txn: Segments,
    /// What the workload's observer saw: stamp → action received on the
    /// reaction workloads, read-only transaction latency on `store_rw`.
    pub observe: Segments,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Audit findings; each one is also counted in `failed`.
    pub findings: Vec<String>,
    /// Counters and probes the workload itself can supply to the
    /// per-layer table (deltas of engine/server/storage statistics).
    pub layer: BTreeMap<&'static str, f64>,
    /// Sizes worth printing in the run header.
    pub sizes: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// Check a whole-run invariant: one more operation attempted, and
    /// failed if it does not hold.
    pub fn audit(&mut self, ok: bool, finding: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.findings.push(finding());
        }
    }
}

/// Time `setup`, which ends with the workload's warm-up.
pub fn timed_setup<W>(out: &mut Outcome, setup: impl FnOnce() -> Res<W>) -> Res<W> {
    let t0 = Instant::now();
    let world = setup()?;
    out.setup_s = t0.elapsed().as_secs_f64();
    Ok(world)
}

/// The measured phase of a closed loop.
pub struct Driven {
    pub segments: Segments,
    /// Ordinal of the first measured operation (the warm-up ran
    /// `0..first`).
    pub first: u64,
    /// Exclusive end ordinal of each segment.
    pub bounds: Vec<u64>,
    /// `[start, end)` of each segment on the [`sys::now_us`] clock, for
    /// bucketing what another thread did meanwhile.
    pub times: Vec<(i64, i64)>,
    pub failed: u64,
    pub wall_s: f64,
}

impl Driven {
    pub fn end(&self) -> u64 {
        self.bounds.last().copied().unwrap_or(self.first)
    }
}

/// Run `op(ordinal)` back to back from ordinal `first` (the warm-up ran
/// the ones before it): a fixed number of segments of `seg_ops` timed
/// operations each. The caller waits for each reply before the next
/// request; nothing in the loop sleeps or paces. `settle(ordinal)` runs
/// after each operation, outside its latency sample but inside the
/// segment: what the caller waits for before it may send again.
///
/// The work is fixed, not the time: `seconds × nominal_per_s` operations,
/// rounded to whole segments, where `nominal_per_s` is the workload's
/// rate at the seed commit on the reference runner, frozen. The phase
/// then lasts about `seconds` there, and — what matters — covers the same
/// stretch of every checkpoint cycle and backlog in every run.
pub fn drive(
    seconds: f64,
    nominal_per_s: f64,
    first: u64,
    seg_ops: u64,
    mut op: impl FnMut(u64) -> Res<()>,
    mut settle: impl FnMut(u64) -> Res<()>,
) -> Driven {
    let seg_ops = seg_ops.max(1);
    let n_segments = ((seconds * nominal_per_s / seg_ops as f64).round() as u64).max(1);
    let mut failed = 0;
    let mut n = first;
    let t0 = Instant::now();
    let mut segments = Vec::new();
    let mut bounds = Vec::new();
    let mut times = Vec::new();
    for _ in 0..n_segments {
        let mut samples_us = Vec::with_capacity(seg_ops as usize);
        let (s0, s0_us, c0) = (Instant::now(), sys::now_us(), sys::cpu_us());
        for _ in 0..seg_ops {
            let o0 = Instant::now();
            let r = op(n);
            samples_us.push(o0.elapsed().as_secs_f64() * 1e6);
            failed += u64::from(r.and_then(|()| settle(n)).is_err());
            n += 1;
        }
        segments.push(Segment {
            ops: seg_ops,
            wall_s: s0.elapsed().as_secs_f64(),
            cpu_us: sys::cpu_us() - c0,
            samples_us,
        });
        bounds.push(n);
        times.push((s0_us, sys::now_us()));
    }
    Driven {
        segments: Segments(segments),
        first,
        bounds,
        times,
        failed,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The Rule Manager's counters over the measured phase, per transaction:
/// every workload has an engine, so every traced run reports them (all
/// zero where no rule exists).
pub fn rule_counters(out: &mut Outcome, before: &EngineStats, after: &EngineStats, txns: u64) {
    let per_txn = |a: u64, b: u64| (a - b) as f64 / txns.max(1) as f64;
    let probes = (after.match_probes - before.match_probes).max(1) as f64;
    let delta = after.delta_evaluations - before.delta_evaluations;
    let evals = ((after.store_evaluations - before.store_evaluations) + delta).max(1) as f64;
    out.layer.extend([
        (
            "rules.triggered_per_txn",
            per_txn(after.rules_triggered, before.rules_triggered),
        ),
        (
            "rules.satisfied_per_txn",
            per_txn(after.conditions_satisfied, before.conditions_satisfied),
        ),
        (
            "rules.actions_per_txn",
            per_txn(after.actions_executed, before.actions_executed),
        ),
        (
            "rules.pruned_per_probe",
            (after.match_pruned - before.match_pruned) as f64 / probes,
        ),
        ("rules.delta_eval_frac", delta as f64 / evals),
        (
            "rules.memo_hit_frac",
            (after.memo_hits - before.memo_hits) as f64 / evals,
        ),
        ("rules.separate_retries", after.separate_retries as f64),
        ("rules.dead_letters", after.separate_dead_letters as f64),
    ]);
}

/// A wire workload's server counters; all but the first must stay 0.
pub fn server_counters(out: &mut Outcome, server: &HipacServer) {
    out.layer.extend([
        ("net.unacked_pushes", server.unacked_pushes() as f64),
        ("net.pushes_redelivered", server.pushes_redelivered() as f64),
        ("net.dedup_hits", server.dedup_hits() as f64),
        ("net.shed_requests", server.shed_requests() as f64),
    ]);
}

/// The engine every workload runs on: pinned firing threads, and on a
/// durable store group commit with a 0 µs window.
pub fn engine(workers: usize, durable: Option<&Path>) -> Res<Arc<ActiveDatabase>> {
    let builder = ActiveDatabase::builder()
        .workers(workers)
        .firing_parallelism(FIRING_PARALLELISM);
    let builder = match durable {
        Some(dir) => builder
            .durable(dir)
            .group_commit(true)
            .group_commit_window(Duration::ZERO),
        None => builder,
    };
    builder.build().map(Arc::new).map_err(e)
}

/// The server every wire workload runs behind; callers add what is
/// theirs (auth, connection caps) with struct-update syntax.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        reactor_shards: REACTOR_SHARDS,
        sync_repl: false,
        max_inflight: 0,
        outbox_cap: OUTBOX_CAP,
        ..ServerConfig::default()
    }
}

/// Poll `done` until it holds or `timeout` passes; whether it held.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// An integer argument of a pushed application request; -1 if absent.
pub fn int_arg(args: &HashMap<String, Value>, name: &str) -> i64 {
    args.get(name).and_then(|v| v.as_int().ok()).unwrap_or(-1)
}

/// How many of the ordinals `0..total` do not occur exactly once.
pub fn not_exactly_once(ordinals: impl Iterator<Item = u64>, total: u64) -> usize {
    let mut seen = vec![0u8; total as usize];
    for n in ordinals {
        if let Some(c) = seen.get_mut(n as usize) {
            *c = c.saturating_add(1);
        }
    }
    seen.iter().filter(|&&c| c != 1).count()
}

pub type Res<T> = std::result::Result<T, String>;

pub fn e(err: impl std::fmt::Display) -> String {
    err.to_string()
}
