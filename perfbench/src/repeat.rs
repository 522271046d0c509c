//! Repeat mode: runs each workload N times, each with its own seed, and
//! prints per metric the median, the quartiles and the spread (quartile
//! distance over median), flagging any spread above the metric's bound
//! in `BENCHMARK.json`. The unscaled timings each run prints are listed
//! too (unbounded), so the spread the host-speed scaling removes shows.
//! Its output is the steadiness evidence for the bounds.

use crate::stats;
use hdl_server::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory (empty when it is missing).
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(Json::Obj(root)) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    let Some(Json::Arr(metrics)) = root.get("end_to_end") else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            match m.get("bound")? {
                Json::Num(b) => Some((name, *b)),
                _ => None,
            }
        })
        .collect()
}

pub fn main(workloads: &[String], n: usize, seconds: f64, trace: bool) -> i32 {
    let all: Vec<String> = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
    let workloads = if workloads.is_empty() {
        &all
    } else {
        workloads
    };
    let bounds = bounds();
    let exe = std::env::current_exe().expect("own executable path");
    let mut flagged = 0;
    for w in workloads {
        let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        for seed in 1..=n as u64 {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = Json::parse(last).ok();
            let metrics = match parsed.as_ref().and_then(|r| r.get("metrics")) {
                Some(Json::Obj(m)) if out.status.success() => m.clone(),
                _ => {
                    eprintln!("{w} seed {seed}: run failed ({})", out.status);
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    flagged += 1;
                    continue;
                }
            };
            let mut add = |name: &str, value: f64, unit: &str| {
                values
                    .entry(name.to_owned())
                    .or_insert_with(|| (Vec::new(), unit.to_owned()))
                    .0
                    .push(value);
            };
            for (name, m) in &metrics {
                if let Some(Json::Num(v)) = m.get("value") {
                    add(name, *v, m.get("unit").and_then(Json::as_str).unwrap_or(""));
                }
            }
            // `<workload> unscaled.<metric> <value> <unit>` lines.
            for line in stdout.lines() {
                if let [lw, name, value, unit] = line.split(' ').collect::<Vec<_>>()[..] {
                    if lw == w && name.starts_with(crate::UNSCALED) {
                        if let Ok(v) = value.parse() {
                            add(name, v, unit);
                        }
                    }
                }
            }
        }
        println!("{w}: {n} runs, seeds 1..={n}");
        for (name, (v, unit)) in &values {
            if v.len() < 2 {
                continue;
            }
            let [q1, med, q3] = stats::quartiles(v);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            let bound = bounds.get(name);
            let over = bound.is_some_and(|b| spread > *b);
            flagged += usize::from(over);
            println!(
                "  {name:<40} median {med:>14.4} {unit:<6} q1 {q1:>14.4} q3 {q3:>14.4} \
                 spread {:>6.2}%  bound {}{}",
                spread * 100.0,
                bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                if over { "  OVER BOUND" } else { "" }
            );
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("  {:<40} runs {}", "", runs.join(" "));
        }
    }
    i32::from(flagged > 0)
}
