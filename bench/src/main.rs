//! `hipac-perf` — the repository's benchmark. See `bench/README.md`.
//!
//! One invocation is one run of one workload:
//!
//! ```text
//! hipac-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the
//! per-layer metrics; either prints a header, a table, and as the last
//! line of standard output one JSON object. Without `--workload` it
//! runs every workload both ways, each in a process of its own;
//! `--calibrate N` and `--aa` repeat the suite and judge its spread.

mod gen;
mod harness;
mod layers;
mod push_fanout;
mod rule_wall;
mod saa_wire;
mod stats;
mod store_rw;
mod suite;
mod sys;
mod trace;

use harness::{Cfg, Outcome, Res};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trace::Tracer;

/// A workload and why it exists (the `why` goes into `BENCHMARK.json`).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    run: fn(&Cfg, &Arc<Tracer>) -> Res<Outcome>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "saa_wire",
        why: "the paper's SAA over loopback with auth and a replica: every layer is crossed once; wire round trips and the fsync dominate",
        run: saa_wire::run,
    },
    Workload {
        name: "rule_wall",
        why: "in-process, in-memory, 100000 guarded rules: matching, conditions and subtransactions do all the work; net, WAL and repl do none (their bypass)",
        run: rule_wall::run,
    },
    Workload {
        name: "store_rw",
        why: "in-process, durable, no rules: one writer and one reader share a class; WAL, fsync, apply, checkpoint and the lock manager dominate",
        run: store_rw::run,
    },
    Workload {
        name: "push_fanout",
        why: "one signaller, one rule, 1000 subscribed sockets: per-subscriber delivery cost dominates; saa_wire with one subscriber is its bypass",
        run: push_fanout::run,
    },
];

/// A reported metric: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    higher("txn_per_s", "1/s"),
    lower("txn_p50_us", "us"),
    lower("observe_p50_us", "us"),
    lower("cpu_us_per_txn", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, named after the modules; no bound applies to them.
/// Every traced run of every workload measures every one: the layer
/// probes and ladder, the engine's counters, the tracing overhead and the
/// tails of the untraced phase.
pub const PER_LAYER: &[Metric] = &[
    lower("net.proto_encode_ns", "ns"),
    lower("net.proto_decode_ns", "ns"),
    lower("net.rtt_us", "us"),
    lower("net.txn_us", "us"),
    lower("net.push_us", "us"),
    lower("net.fanout_per_sub_us", "us"),
    lower("db.txn_us", "us"),
    lower("db.txn_mem_us", "us"),
    lower("txn.begin_commit_us", "us"),
    lower("txn.child_us", "us"),
    lower("txn.lock_acquire_ns", "ns"),
    lower("object.update_us", "us"),
    lower("object.insert_us", "us"),
    lower("object.query_point_us", "us"),
    lower("object.query_range_us", "us"),
    lower("event.signal_us", "us"),
    lower("rules.probe_us", "us"),
    lower("rules.condition_us", "us"),
    lower("rules.fire_us", "us"),
    lower("rules.create_us", "us"),
    lower("rules.triggered_per_txn", "count"),
    lower("rules.satisfied_per_txn", "count"),
    lower("rules.actions_per_txn", "count"),
    higher("rules.pruned_per_probe", "count"),
    higher("rules.memo_hit_frac", "frac"),
    higher("rules.delta_eval_frac", "frac"),
    lower("rules.separate_retries", "count"),
    lower("rules.dead_letters", "count"),
    lower("storage.fsync_us", "us"),
    lower("storage.commit_us", "us"),
    lower("storage.commit_2t_us", "us"),
    lower("repl.lag_p50_us", "us"),
    lower("repl.apply_us", "us"),
    lower("repl.view_query_us", "us"),
    lower("repl.snapshot_install_ms", "ms"),
    lower("bench.clock_ns", "ns"),
    lower("trace.overhead_frac", "frac"),
    higher("ladder.coverage_frac", "frac"),
    lower("e2e.txn_p95_us", "us"),
    lower("e2e.txn_p99_us", "us"),
    lower("e2e.observe_p95_us", "us"),
    lower("e2e.observe_p99_us", "us"),
    lower("e2e.wall_s", "s"),
];

/// What only some workloads have — a server, a WAL, a replica, a reader
/// beside the writer. A traced run prints the ones its workload
/// measured; they are not in the result line, which holds the same
/// metrics for every workload.
pub const OWN_LAYER: &[Metric] = &[
    lower("net.unacked_pushes", "count"),
    lower("net.pushes_redelivered", "count"),
    lower("net.dedup_hits", "count"),
    lower("net.shed_requests", "count"),
    lower("txn.lock_wait_us", "us"),
    lower("object.short_range_reads", "count"),
    higher("storage.mean_cohort", "count"),
    lower("storage.wal_bytes_per_txn", "B"),
    lower("storage.checkpoints", "count"),
    lower("storage.checkpoint_ms", "ms"),
    lower("storage.bytes_per_user_byte", "frac"),
    lower("storage.reopen_ms", "ms"),
    lower("repl.lag_bytes_max", "B"),
    higher("e2e.reads_per_s", "1/s"),
];

/// Length of the measured phase the driver asks for (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;
/// Set-ups per untraced run, each in a process of its own; their median
/// is `setup_s`.
const SETUPS: usize = 3;

pub struct Args {
    args: Vec<String>,
}

impl Args {
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?} as a number")),
        }
    }
}

/// Where results (and, by default, data directories) go.
pub fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.value("--out").unwrap_or("bench/out"))
}

fn header(name: &str, cfg: &Cfg, traced: bool, fsync_before: f64) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!("# hipac-perf {name} trace={}", u8::from(traced));
    println!(
        "# commit {}  rustc {}",
        env("HIPAC_BENCH_COMMIT"),
        env("HIPAC_BENCH_RUSTC")
    );
    println!(
        "# nproc {}  data dir {} ({})",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg.data_root.display(),
        sys::fs_type(&cfg.data_root)
    );
    println!(
        "# thread budget: server workers {} reactor shards {} engine workers {} firing parallelism {}; \
         sync_repl off, max_inflight 0, group commit on with 0 us window, 4 MiB checkpoint threshold, outbox cap {}",
        harness::SERVER_WORKERS,
        harness::REACTOR_SHARDS,
        harness::ENGINE_WORKERS,
        harness::FIRING_PARALLELISM,
        harness::OUTBOX_CAP
    );
    println!(
        "# seed {}  seconds {}  shrink 1/{}",
        cfg.seed, cfg.seconds, cfg.shrink
    );
    println!(
        "# storage.fsync_us before {fsync_before:.1}  bench.clock_ns {:.1}",
        sys::clock_ns()
    );
}

fn describe(o: &Outcome) {
    let sizes: Vec<String> = o.sizes.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("# sizes: {}", sizes.join("  "));
    println!(
        "# measured {} txns in {} segments over {:.2} s (p95 rests on >= {} samples per segment); observer samples {}",
        o.txn.ops(),
        o.txn.0.len(),
        o.wall_s,
        o.txn.min_segment_samples(),
        o.observe.samples()
    );
    let per_segment = |f: &dyn Fn(&stats::Segment) -> f64| {
        o.txn
            .0
            .iter()
            .map(|s| format!("{:.0}", f(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# segment txn/s: {}",
        per_segment(&|s| s.ops as f64 / s.wall_s)
    );
    println!(
        "# segment txn p50 us: {}",
        per_segment(&|s| stats::percentile(&s.samples_us, 0.5))
    );
    println!(
        "# segment cpu us/txn: {}",
        per_segment(&|s| s.cpu_us / s.ops as f64)
    );
    let observed: Vec<String> = o
        .observe
        .0
        .iter()
        .map(|s| format!("{:.0}", stats::percentile(&s.samples_us, 0.5)))
        .collect();
    println!("# segment observe p50 us: {}", observed.join(" "));
    for f in &o.findings {
        println!("# AUDIT FAILED: {f}");
    }
}

/// One more sample of the workload's set-up time, from a process that
/// does nothing else: a second set-up in this one would run on the heap
/// the first left behind, beside its teardown.
fn setup_in_child(args: &Args, name: &str, cfg: &Cfg) -> Res<f64> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--setup-only", "--seed"])
        .arg(cfg.seed.to_string())
        .arg("--out")
        .arg(out_dir(args));
    if args.flag("--smoke") {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("start a set-up of {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| {
            format!(
                "a set-up of {name} ended with {} and no time",
                output.status
            )
        })
}

/// The end-to-end metrics, as measured.
fn end_to_end(o: &Outcome, setups_s: &[f64]) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", stats::median(setups_s)),
        ("txn_per_s", o.txn.rate_per_s()),
        ("txn_p50_us", o.txn.pooled_percentile(0.5)),
        ("observe_p50_us", o.observe.pooled_percentile(0.5)),
        ("cpu_us_per_txn", o.txn.cpu_us_per_op()),
        ("peak_rss_mb", sys::peak_rss_mb()),
    ])
}

/// Rungs of the ladder that apply to a workload: the separately
/// measured layers one of its transactions crosses.
fn ladder_us(name: &str, l: &layers::Layers, subscribers: f64) -> f64 {
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    match name {
        "saa_wire" => 3.0 * g("net.rtt_us") + g("db.txn_mem_us") + g("storage.commit_us"),
        "rule_wall" => {
            g("db.txn_mem_us")
                + g("rules.probe_us")
                + 8.0 * g("rules.condition_us")
                + 2.0 * g("rules.fire_us")
        }
        "store_rw" => g("db.txn_mem_us") + g("storage.commit_us"),
        _ => {
            3.0 * g("net.rtt_us")
                + g("db.txn_mem_us")
                + g("storage.commit_us")
                + g("net.push_us")
                + (subscribers - 1.0).max(0.0) * g("net.fanout_per_sub_us")
        }
    }
}

/// The traced run: the layer probes, in a process that holds nothing
/// else yet; a quarter-size untraced phase; the same again with spans on.
fn per_layer(
    w: &Workload,
    cfg: &Cfg,
    out: &Path,
    fsync_before: f64,
) -> Res<(Outcome, BTreeMap<&'static str, f64>)> {
    let mut l = layers::probes(cfg)?;
    l.insert("storage.fsync_us", fsync_before);
    let quarter = Cfg {
        seconds: cfg.seconds / 4.0,
        ..cfg.clone()
    };
    let plain = (w.run)(&quarter, &Arc::new(Tracer::off()))?;
    let tracer = Arc::new(Tracer::on());
    let mut traced = (w.run)(&quarter, &tracer)?;
    describe(&traced);
    let path = out.join(format!("trace-{}.jsonl", w.name));
    let spans = tracer.spans();
    trace::write_jsonl(&spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# {} spans -> {}", spans.len(), path.display());
    println!("# span                         count   total_us    self_us  self_us/span");
    for (name, t) in trace::self_times(&spans) {
        println!(
            "# {name:<26} {:>7} {:>10} {:>10} {:>13.1}",
            t.count,
            t.total_us,
            t.self_us,
            t.self_us as f64 / t.count.max(1) as f64
        );
    }

    for (k, v) in &traced.layer {
        l.insert(k, *v);
    }
    let (rate_plain, rate_traced) = (plain.txn.rate_per_s(), traced.txn.rate_per_s());
    l.insert(
        "trace.overhead_frac",
        1.0 - rate_traced / rate_plain.max(f64::MIN_POSITIVE),
    );
    let subscribers = traced
        .sizes
        .iter()
        .find(|(k, _)| *k == "subscribers")
        .map_or(1.0, |(_, v)| *v as f64);
    let p50 = plain.txn.pooled_percentile(0.5);
    l.insert(
        "ladder.coverage_frac",
        ladder_us(w.name, &l, subscribers) / p50.max(f64::MIN_POSITIVE),
    );
    l.insert("e2e.txn_p95_us", plain.txn.segment_percentile(0.95));
    l.insert("e2e.txn_p99_us", plain.txn.pooled_percentile(0.99));
    l.insert("e2e.observe_p95_us", plain.observe.segment_percentile(0.95));
    l.insert("e2e.observe_p99_us", plain.observe.pooled_percentile(0.99));
    l.insert("e2e.wall_s", plain.wall_s);
    // End-to-end numbers never come from the traced phase, but its
    // failures count.
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.findings.extend(plain.findings);
    Ok((traced, l))
}

/// The result line. Every metric of `table` must have been measured: a
/// missing or non-finite value is an error, never a silent zero.
fn json_line(o: &Outcome, table: &[Metric], values: &BTreeMap<&'static str, f64>) -> Res<String> {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| match values.get(m.name) {
            Some(v) if v.is_finite() => Ok(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )),
            Some(v) => Err(format!("{} was measured as {v}", m.name)),
            None => Err(format!("{} was not measured", m.name)),
        })
        .collect::<Res<_>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    ))
}

fn one_run(args: &Args, name: &str) -> Res<bool> {
    let w = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {:?}",
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        )
    })?;
    let out = out_dir(args);
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let cfg = Cfg {
        seed: args.number("--seed")?.unwrap_or(1),
        seconds: args.number("--seconds")?.unwrap_or(RUN_SECONDS as f64),
        shrink: if args.flag("--smoke") { 20 } else { 1 },
        setup_only: args.flag("--setup-only"),
        data_root: std::env::var_os("HIPAC_BENCH_DIR")
            .map_or_else(|| out.join("data"), PathBuf::from),
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&cfg.data_root)
        .map_err(|e| format!("create {}: {e}", cfg.data_root.display()))?;
    if cfg.setup_only {
        let o = (w.run)(&cfg, &Arc::new(Tracer::off()))?;
        println!("setup_s {:?}", o.setup_s);
        return Ok(true);
    }
    let fsync_before = sys::fsync_us(&cfg.data_root);
    header(name, &cfg, traced, fsync_before);

    let (outcome, table, values) = if traced {
        let (o, l) = per_layer(w, &cfg, &out, fsync_before)?;
        (o, PER_LAYER, l)
    } else {
        let mut setups_s = (1..SETUPS)
            .map(|_| setup_in_child(args, name, &cfg))
            .collect::<Res<Vec<f64>>>()?;
        let o = (w.run)(&cfg, &Arc::new(Tracer::off()))?;
        setups_s.push(o.setup_s);
        describe(&o);
        println!("# set-ups s: {setups_s:.3?} (the last is this process's)");
        let v = end_to_end(&o, &setups_s);
        (o, END_TO_END, v)
    };
    println!(
        "# storage.fsync_us after {:.1}",
        sys::fsync_us(&cfg.data_root)
    );
    println!(
        "# attempted {}  failed {}",
        outcome.attempted, outcome.failed
    );
    let line = json_line(&outcome, table, &values)?;
    let row = |m: &Metric, v: f64, note: &str| {
        println!(
            "{:<28} {v:>16.4} {:<6} ({} is better{note})",
            m.name, m.unit, m.better
        );
    };
    for m in table {
        row(m, values[m.name], "");
    }
    if traced {
        for m in OWN_LAYER {
            if let Some(&v) = values.get(m.name) {
                row(m, v, "; this workload's own");
            }
        }
    }
    println!("{line}");
    Ok(outcome.failed == 0)
}

fn main() {
    let args = Args {
        args: std::env::args().skip(1).collect(),
    };
    let result = match args.value("--workload") {
        Some(name) => one_run(&args, name),
        None => suite::run(&args),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(err) => {
            eprintln!("hipac-perf: {err}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_refuses_a_metric_that_was_not_measured() {
        let o = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = json_line(&o, END_TO_END, &values).expect("all measured");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, "));
        assert!(line.contains("\"txn_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        values.insert("txn_p50_us", f64::NAN);
        assert!(json_line(&o, END_TO_END, &values).is_err());
        values.remove("txn_p50_us");
        assert!(json_line(&o, END_TO_END, &values).is_err());
    }

    #[test]
    fn no_metric_is_listed_twice() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(OWN_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
