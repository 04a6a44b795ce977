//! Repeat mode: runs one workload N times in child processes (one process
//! per run, so each run's set-up and peak RSS are its own), each with its
//! own seed, and prints every metric's median and quartiles. With
//! `--sets 2` it runs two sets on disjoint seeds and compares their
//! medians. Spreads and drifts are judged against the bounds in
//! `BENCHMARK.json` when that file is in the working directory.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

use crate::stats::{median, quartiles};

/// One child run's reported metrics.
type RunMetrics = BTreeMap<String, (f64, String)>;

fn child_args(argv: &[String], seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        if matches!(flag.as_str(), "--repeat" | "--sets" | "--seed") {
            continue;
        }
        out.push(flag.clone());
        out.push(value);
    }
    out.extend(["--seed".to_string(), seed.to_string()]);
    out
}

fn run_child(argv: &[String], seed: u64) -> Result<RunMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(child_args(argv, seed))
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Value::parse(last).map_err(|e| format!("seed {seed}: bad result line: {e}"))?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("seed {seed}: replies were not correct: {last}"));
    }
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err(format!("seed {seed}: no metrics in {last}"));
    };
    Ok(metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect())
}

/// `name -> bound` from `BENCHMARK.json`'s `end_to_end` list, if present.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Value::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .map(|list| {
            list.iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// IQR as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Runs the sets and prints the report; returns the process exit code.
pub fn run(argv: &[String], workload: &str, seed: u64, n: usize, sets: usize, trace: bool) -> i32 {
    let bounds = if trace { BTreeMap::new() } else { bounds() };
    let mut medians: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut ok = true;
    for set in 0..sets {
        let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        for i in 0..n {
            let s = seed + (set * n + i) as u64;
            match run_child(argv, s) {
                Ok(metrics) => {
                    for (name, (v, unit)) in metrics {
                        let e = values.entry(name).or_insert_with(|| (Vec::new(), unit));
                        e.0.push(v);
                    }
                }
                Err(e) => {
                    eprintln!("perfbench repeat [{workload}]: {e}");
                    return 1;
                }
            }
        }
        println!(
            "[{workload}] set {} of {sets}: {n} runs, seeds {}..{}",
            set + 1,
            seed + (set * n) as u64,
            seed + ((set + 1) * n) as u64 - 1
        );
        println!(
            "  {:<26} {:>14} {:>14} {:>14} {:>8} {:>7}  unit",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        let mut meds = BTreeMap::new();
        for (name, (v, unit)) in &values {
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            let sp = spread(v);
            let bound = bounds.get(name);
            // setup_s is exempt from the spread check; only its drift counts.
            let flag = match bound {
                Some(b) if name != "setup_s" && sp > *b => {
                    ok = false;
                    "  SPREAD > BOUND"
                }
                Some(b) if name != "setup_s" && sp > b / 3.0 => "  spread > bound/3",
                _ => "",
            };
            println!(
                "  {name:<26} {:>14.6} {q1:>14.6} {q3:>14.6} {sp:>8.4} {:>7}  {unit}{flag}",
                median(v),
                bound.map_or("-".to_string(), |b| format!("{b}")),
            );
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("  {:<26} runs: {}", "", runs.join(" "));
            meds.insert(name.clone(), median(v));
        }
        medians.push(meds);
    }
    if sets >= 2 {
        println!("[{workload}] median drift, set 2 vs set 1 (share of set 1):");
        for (name, a) in &medians[0] {
            let b = medians[1].get(name).copied().unwrap_or(f64::NAN);
            let drift = if *a != 0.0 { (b - a) / a.abs() } else { 0.0 };
            let flag = match bounds.get(name) {
                Some(bound) if drift.abs() > *bound => {
                    ok = false;
                    "  DRIFT > BOUND"
                }
                _ => "",
            };
            println!("  {name:<26} {drift:>+9.4}{flag}");
        }
    }
    if ok {
        0
    } else {
        1
    }
}
