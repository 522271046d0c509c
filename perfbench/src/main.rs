//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <whatif|search|ingest|replicated> --seed N --seconds S --trace <0|1> [--ops N]
//! perfbench --repeat N --seconds S [--trace 0|1] [--workload W]...
//! ```
//!
//! With `--trace 0` the workload drives `hdl serve` child processes over
//! TCP and reports the end-to-end metrics; with `--trace 1` it replays
//! the same op stream in-process, timing each layer's public entry
//! points, and reports the per-layer metrics. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--repeat` runs each workload N times with seeds `1..=N` and prints
//! per metric the median, quartiles and spread/median against the
//! bounds in `BENCHMARK.json`. See `perfbench/LAYERS.md`.

mod gen;
mod host;
mod repeat;
mod runs;
mod speed;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["whatif", "search", "ingest", "replicated"];

/// Prefix of the stdout lines that carry a scaled timing as measured.
pub const UNSCALED: &str = "unscaled.";

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<u64>,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ops: None,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: std::num::ParseIntError| e.to_string();
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.seed = value()?.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--ops" => args.ops = Some(value()?.parse().map_err(bad)?),
            "--repeat" => args.repeat = Some(value()?.parse().map_err(bad)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    for w in &args.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
        }
    }
    if args.repeat.is_none() && args.workloads.len() != 1 {
        return Err("give exactly one --workload".into());
    }
    Ok(args)
}

/// The `hdl` binary the wire runs spawn: `$HDL_BIN`, else the release
/// build under `$CARGO_TARGET_DIR` (default `.bench_build`).
fn hdl_binary() -> PathBuf {
    if let Some(p) = std::env::var_os("HDL_BIN") {
        return PathBuf::from(p);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("release").join("hdl")
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
        Ok(args) => match args.repeat {
            Some(n) => repeat::main(&args.workloads, n, args.seconds, args.trace),
            None => run_one(&args),
        },
    };
    std::process::exit(code);
}

fn run_one(args: &Args) -> i32 {
    let workload = args.workloads[0].as_str();
    let hdl = hdl_binary();
    if !hdl.is_file() {
        eprintln!("perfbench: no hdl binary at {}", hdl.display());
        return 2;
    }
    let scratch = ScratchDir(PathBuf::from(".bench_run").join(format!(
        "{workload}-s{}-p{}",
        args.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&scratch.0);
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return 2;
    }
    let ctx = runs::Ctx {
        hdl,
        dir: scratch.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        max_ops: args.ops,
    };
    let mut host = host::fingerprint(&scratch.0);
    host.pinned_cpu = speed::pin_to_one_cpu();
    println!("{}", host.line());
    let outcome = if args.trace {
        trace::run(workload, &ctx)
    } else {
        end_to_end(workload, &ctx)
    };
    let (metrics, attempted, failed, errors) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return 1;
        }
    };
    for e in &errors {
        eprintln!("perfbench: {workload}: wrong or failed op: {e}");
    }
    for m in &metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{workload} failed_op_ratio {} ({failed} of {attempted} ops)",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    );
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        0
    } else {
        1
    }
}

/// The result object the last stdout line carries.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                stats::json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

type Outcome = std::io::Result<(Vec<Metric>, u64, u64, Vec<String>)>;

fn end_to_end(workload: &str, ctx: &runs::Ctx) -> Outcome {
    let res = match workload {
        "whatif" => runs::whatif(ctx)?,
        "search" => runs::search(ctx)?,
        "ingest" => runs::ingest(ctx)?,
        _ => runs::replicated(ctx)?,
    };
    // Every timing of the timed phase is scaled to the reference host
    // speed (see `speed`): a latency by the median of the probes nearest
    // to it, a slice's length and server CPU time by the slice's median
    // probe. Set-up, which mostly waits on process start-up and I/O, is
    // reported as measured.
    let slices: Vec<&runs::Slice> = res.slices.iter().filter(|s| s.ops > 0).collect();
    let (first, last) = match (slices.first(), slices.last()) {
        (Some(f), Some(l)) => (f.start, l.start + Duration::from_secs_f64(l.secs)),
        _ => return Err(std::io::Error::other("no timed ops")),
    };
    let timed: Vec<(Instant, f64)> = res
        .lat_us
        .iter()
        .copied()
        .filter(|(t, _)| *t > first && *t <= last)
        .collect();
    let raw_lat: Vec<f64> = timed.iter().map(|(_, l)| *l).collect();
    let lat: Vec<f64> = timed
        .iter()
        .map(|(t, l)| l * speed::to_ref(speed::probe_near(&res.probes, *t)))
        .collect();
    let scaled = |f: fn(&runs::Slice) -> f64| -> f64 {
        slices.iter().map(|s| f(s) * speed::to_ref(s.probe_s)).sum()
    };
    let (ref_secs, ref_cpu) = (scaled(|s| s.secs), scaled(|s| s.cpu_s));
    let secs: f64 = slices.iter().map(|s| s.secs).sum();
    let cpu: f64 = slices.iter().map(|s| s.cpu_s).sum();
    let ops = res.ops() as f64;
    let metrics = vec![
        Metric::new("setup_s", stats::percentile(&res.setup_s, 0.25), "s"),
        Metric::new("p50_us", stats::percentile(&lat, 0.50), "us"),
        Metric::new("p90_us", stats::percentile(&lat, 0.90), "us"),
        Metric::new("ops_per_s", ops / ref_secs, "1/s"),
        Metric::new("server_cpu_us_per_op", ref_cpu * 1e6 / ops, "us"),
        Metric::new("peak_rss_mb", res.peak_rss_mb, "MiB"),
        Metric::new(
            "wal_bytes_per_fact",
            res.wal_bytes as f64 / res.acked_facts.max(1) as f64,
            "B",
        ),
    ];
    // The scaled timings as measured, for comparison; `--repeat`
    // collects these lines too.
    for (name, value) in [
        ("p50_us", stats::percentile(&raw_lat, 0.50)),
        ("p90_us", stats::percentile(&raw_lat, 0.90)),
        ("ops_per_s", ops / secs),
        ("server_cpu_us_per_op", cpu * 1e6 / ops),
    ] {
        let unit = metrics
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit);
        println!("{workload} {UNSCALED}{name} {value} {unit}");
    }
    let probes: Vec<f64> = slices.iter().map(|s| s.probe_s * 1e6).collect();
    println!(
        "{workload}: {} timed ops in {} slices of {secs:.1} s; probe median {:.1} us \
         (reference {:.1} us)",
        res.ops(),
        slices.len(),
        stats::median(&probes),
        speed::PROBE_REF_S * 1e6,
    );
    Ok((metrics, res.attempted, res.failed, res.errors))
}
