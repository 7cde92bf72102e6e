//! Running the whole suite, and judging how well it repeats.
//!
//! Every run is a child process of its own, so `peak_rss_mb` and the
//! allocator start fresh each time, exactly as under the driver.
//!
//! * no mode flag — every workload, untraced then traced, output passed
//!   through;
//! * `--calibrate N` — N untraced runs per workload on N different
//!   seeds, a spread table, and `BENCHMARK.json` rewritten with bounds
//!   derived from the spread — or, if a metric needs more than the
//!   ceiling, nothing written and a failure;
//! * `--aa` — two sets of runs of the same code; fails if the medians of
//!   any end-to-end metric differ by more than its committed bound.

use crate::harness::Res;
use crate::stats::{median, quartiles};
use crate::{out_dir, Args, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Bounds never go below this, so noise alone cannot fail a later PR.
const MIN_BOUND: f64 = 0.05;
/// The contract's ceiling for a regression bound.
const MAX_BOUND: f64 = 0.25;
const AA_RUNS: u64 = 5;

struct Parsed {
    correct: bool,
    attempted: u64,
    metrics: BTreeMap<String, f64>,
}

/// Read back the result line this program prints.
fn parse(line: &str) -> Option<Parsed> {
    let correct = line.contains("\"correct\": true");
    let attempted = line
        .split_once("\"attempted\": ")?
        .1
        .split(',')
        .next()?
        .parse()
        .ok()?;
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = BTreeMap::new();
    for part in body.split("\"unit\"") {
        // `... "name": {"value": 1.5, ` precedes each `"unit"`.
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        let value: f64 = value.trim_end_matches([',', ' ']).parse().ok()?;
        metrics.insert(name.to_string(), value);
    }
    Some(Parsed {
        correct,
        attempted,
        metrics,
    })
}

fn child(args: &Args, workload: &str, seed: u64, trace: bool, quiet: bool) -> Res<Parsed> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let seconds = args
        .value("--seconds")
        .map_or_else(|| RUN_SECONDS.to_string(), str::to_owned);
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds,
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--out")
    .arg(out_dir(args))
    .stdout(Stdio::piped());
    if args.flag("--smoke") {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !quiet {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or("");
    match parse(last) {
        Some(p) if output.status.success() || !p.correct => Ok(p),
        _ => Err(format!(
            "{workload} (seed {seed}, trace {}) ended with {} and no result",
            u8::from(trace),
            output.status
        )),
    }
}

fn once(args: &Args) -> Res<bool> {
    let seed = args.number("--seed")?.unwrap_or(1);
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            ok &= child(args, w.name, seed, trace, false)?.correct;
            println!();
        }
    }
    Ok(ok)
}

/// Key under which [`sample`] keeps each run's count of operations
/// attempted, beside its metrics.
const ATTEMPTED: &str = "attempted";

/// Workload → metric → one value per run.
type Samples = BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>;

/// `runs` untraced runs of every workload, seeds `first_seed..`.
fn sample(args: &Args, first_seed: u64, runs: u64) -> Res<(Samples, bool)> {
    let mut all = Samples::new();
    let mut ok = true;
    for seed in first_seed..first_seed + runs {
        for w in WORKLOADS {
            let p = child(args, w.name, seed, false, true)?;
            ok &= p.correct;
            eprintln!(
                "  {} seed {seed}: {}",
                w.name,
                if p.correct { "ok" } else { "FAILED its audit" }
            );
            let of_workload = all.entry(w.name).or_default();
            for (k, v) in p.metrics {
                of_workload.entry(k).or_default().push(v);
            }
            of_workload
                .entry(ATTEMPTED.to_string())
                .or_default()
                .push(p.attempted as f64);
        }
    }
    Ok((all, ok))
}

/// The spread the driver computes: inter-quartile distance as a share
/// of the median.
fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

fn range_share(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / median(values).abs().max(f64::MIN_POSITIVE)
}

fn benchmark_json(bounds: &BTreeMap<&str, f64>) -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n",
    );
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let bound = bounds[m.name];
            format!("    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}", m.name, m.unit, m.better)
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// The committed bound of each end-to-end metric.
fn committed_bounds(args: &Args) -> Res<BTreeMap<String, f64>> {
    let path = args.value("--benchmark-json").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut bounds = BTreeMap::new();
    for line in text.lines() {
        let (Some((_, name)), Some((_, bound))) = (
            line.split_once("\"name\": \""),
            line.split_once("\"bound\": "),
        ) else {
            continue;
        };
        let name = name.split('"').next().unwrap_or("");
        if let Ok(b) = bound.trim_end_matches(['}', ',', ' ']).parse::<f64>() {
            bounds.insert(name.to_string(), b);
        }
    }
    if bounds.is_empty() {
        return Err(format!("{path} holds no bounds"));
    }
    Ok(bounds)
}

/// The bound a metric needs, given its values over the calibration runs:
/// never below their whole range, so that noise alone cannot fail a run,
/// nor below [`MIN_BOUND`]; and three times the spread the driver
/// measures, so that noise stays inside a third of the bound, as far as
/// [`MAX_BOUND`] lets that term go. Rounded up to a whole percent. A
/// range beyond `MAX_BOUND` stays beyond it, and fails the calibration.
fn needed_bound(values: &[f64]) -> f64 {
    let need = range_share(values)
        .max((3.0 * iqr_share(values)).min(MAX_BOUND))
        .max(MIN_BOUND);
    (need * 100.0 - 1e-9).ceil() / 100.0
}

fn calibrate(args: &Args, runs: u64) -> Res<bool> {
    if runs < 5 {
        return Err("--calibrate needs at least 5 runs".into());
    }
    eprintln!("calibrating: {runs} runs of {} workloads", WORKLOADS.len());
    let (all, ok) = sample(args, args.number("--seed")?.unwrap_or(1), runs)?;
    let mut bounds: BTreeMap<&str, f64> = BTreeMap::new();
    println!("| workload | metric | min | median | max | range | IQR/median | needs bound |");
    println!("|---|---|---|---|---|---|---|---|");
    for w in WORKLOADS {
        for m in END_TO_END {
            let v = &all[w.name][m.name];
            let need = needed_bound(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            println!(
                "| {} | {} | {lo:.4} | {:.4} | {hi:.4} | {:.1}% | {:.1}% | {:.0}% |",
                w.name,
                m.name,
                median(v),
                range_share(v) * 100.0,
                iqr_share(v) * 100.0,
                need * 100.0
            );
            let b = bounds.entry(m.name).or_insert(MIN_BOUND);
            *b = b.max(need);
        }
    }
    println!();
    for w in WORKLOADS {
        let v = &all[w.name][ATTEMPTED];
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        println!("{}: operations attempted {lo:.0} to {hi:.0}", w.name);
    }
    // Set-up is the coarsest clock in the suite: it takes the largest
    // bound.
    let largest = bounds.values().copied().fold(MIN_BOUND, f64::max);
    bounds.insert("setup_s", largest);
    let too_noisy: Vec<String> = bounds
        .iter()
        .filter(|(_, &b)| b > MAX_BOUND)
        .map(|(name, b)| format!("{name} needs {:.0}%", b * 100.0))
        .collect();
    if !too_noisy.is_empty() {
        return Err(format!(
            "no bounds written: {} — more than the {:.0}% ceiling; steady the harness or demote the metric",
            too_noisy.join(", "),
            MAX_BOUND * 100.0
        ));
    }
    let path = args.value("--benchmark-json").unwrap_or("BENCHMARK.json");
    std::fs::write(path, benchmark_json(&bounds)).map_err(|e| format!("write {path}: {e}"))?;
    println!("bounds written to {path}");
    Ok(ok)
}

fn aa(args: &Args) -> Res<bool> {
    let bounds = committed_bounds(args)?;
    let first = args.number("--seed")?.unwrap_or(1);
    eprintln!(
        "A/A: two sets of {AA_RUNS} runs of {} workloads",
        WORKLOADS.len()
    );
    let (a, ok_a) = sample(args, first, AA_RUNS)?;
    let (b, ok_b) = sample(args, first + AA_RUNS, AA_RUNS)?;
    let mut ok = ok_a && ok_b;
    println!("| workload | metric | median A | median B | differ | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for w in WORKLOADS {
        for m in END_TO_END {
            let (ma, mb) = (median(&a[w.name][m.name]), median(&b[w.name][m.name]));
            let differ = (ma - mb).abs() / ma.abs().max(f64::MIN_POSITIVE);
            let bound = *bounds
                .get(m.name)
                .ok_or_else(|| format!("no committed bound for {}", m.name))?;
            let within = differ <= bound;
            ok &= within;
            println!(
                "| {} | {} | {ma:.4} | {mb:.4} | {:.1}% | {:.0}% | {} |",
                w.name,
                m.name,
                differ * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(ok)
}

pub fn run(args: &Args) -> Res<bool> {
    match args.number("--calibrate")? {
        Some(runs) => calibrate(args, runs),
        None if args.flag("--aa") => aa(args),
        None => once(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reads_back() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"txn_per_s\": {\"value\": 811.25, \"unit\": \"1/s\"}}}";
        let p = parse(line).expect("parses");
        assert!(p.correct);
        assert_eq!(p.attempted, 10);
        assert_eq!(p.metrics["setup_s"], 0.8127);
        assert_eq!(p.metrics["txn_per_s"], 811.25);
        assert!(
            !parse(&line.replace("true", "false"))
                .expect("parses")
                .correct
        );
    }

    #[test]
    fn spreads_are_shares_of_the_median() {
        let v = [90.0, 100.0, 110.0, 95.0, 105.0];
        assert!((range_share(&v) - 0.2).abs() < 1e-12);
        assert!((iqr_share(&v) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn a_bound_covers_the_range_and_thrice_the_spread_up_to_the_ceiling() {
        // Range 20 %, IQR 15 %: thrice the spread would be 45 %, the
        // ceiling holds that term at 25 %.
        assert_eq!(needed_bound(&[90.0, 100.0, 110.0, 95.0, 105.0]), MAX_BOUND);
        // Range 8 %, IQR 5.75 %: thrice the spread wins.
        let v = [
            96.0, 97.0, 97.5, 100.0, 100.0, 100.0, 102.5, 103.0, 103.5, 104.0,
        ];
        assert_eq!(needed_bound(&v), 0.18);
        assert_eq!(
            needed_bound(&[100.0, 100.5, 101.0, 100.2, 100.8]),
            MIN_BOUND
        );
        // A range beyond the ceiling is not clamped: the caller fails on it.
        assert_eq!(needed_bound(&[80.0, 100.0, 110.0, 95.0, 105.0]), 0.3);
    }

    #[test]
    fn benchmark_json_lists_every_metric_once_with_its_bound() {
        let bounds: BTreeMap<&str, f64> = END_TO_END
            .iter()
            .map(|m| (m.name, if m.name == "txn_per_s" { 0.07 } else { 0.12 }))
            .collect();
        let json = benchmark_json(&bounds);
        assert!(json.contains(
            "{\"name\": \"txn_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.07}"
        ));
        assert_eq!(
            json.matches("\"bound\": 0.12").count(),
            END_TO_END.len() - 1
        );
        for m in PER_LAYER {
            assert_eq!(
                json.matches(&format!("\"name\": \"{}\"", m.name)).count(),
                1,
                "{}",
                m.name
            );
        }
    }
}
