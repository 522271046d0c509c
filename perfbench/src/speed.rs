//! Host-speed normalisation of the end-to-end timings.
//!
//! A small shared host does not run at one speed: its CPUs slow down by
//! up to 1.7× for stretches of seconds to minutes when neighbours load
//! the machine, which moves every wall-clock figure of a CPU-bound
//! server far more than any change worth measuring. The wire runs
//! therefore pin this process and the servers it spawns to one CPU and,
//! between ops, at most every [`PROBE_EVERY`], time [`probe`]: a fixed
//! kernel of this benchmark's own code (hash-map updates and a sort, the
//! kind of work the engine does), which no change to the program can
//! speed up or slow down.
//! Each timing of the timed phase is scaled by `PROBE_REF_S / probe
//! time` of the slice it falls in, which reports it as it would read on
//! a host where the probe takes [`PROBE_REF_S`] — this host's full speed.
//! Set-up times, mostly process start-up and I/O, are not scaled.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time at full speed on the reference host (2-vCPU Xeon at
/// 2.1 GHz); timings are reported scaled to it.
pub const PROBE_REF_S: f64 = 30e-6;

/// The least time between two probes of a timed phase: often enough to
/// follow the host's speed, rarely enough to cost about 1% of the run.
pub const PROBE_EVERY: Duration = Duration::from_millis(10);

/// Seconds the probe kernel takes: the fastest of three back-to-back
/// runs, so that neither caches left cold by the server's last op nor a
/// preemption count.
pub fn probe() -> f64 {
    (0..3).map(|_| kernel()).fold(f64::INFINITY, f64::min)
}

fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1024);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for i in 0..600u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 1024).or_default() += i;
        acc = acc.wrapping_add(map.get(&(x % 997)).copied().unwrap_or(0));
    }
    let mut v: Vec<u64> = map.into_values().collect();
    v.sort_unstable();
    black_box((acc, v));
    t0.elapsed().as_secs_f64()
}

/// The median of `n` probes, robust to a probe being preempted.
pub fn probe_median(n: usize) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| probe()).collect();
    crate::stats::median(&samples)
}

/// The median of the probes nearest to `t` (up to [`NEAREST`]) in
/// `probes`, which is sorted by time and not empty.
pub fn probe_near(probes: &[(Instant, f64)], t: Instant) -> f64 {
    let i = probes.partition_point(|(at, _)| *at < t);
    let lo = i.saturating_sub(NEAREST / 2);
    let hi = (lo + NEAREST).min(probes.len());
    let lo = hi.saturating_sub(NEAREST);
    let near: Vec<f64> = probes[lo..hi].iter().map(|(_, p)| *p).collect();
    crate::stats::median(&near)
}

/// Probes a latency is scaled by: about ±45 ms around a 1 ms op.
const NEAREST: usize = 9;

/// The factor that scales a time measured while the probe took
/// `probe_s` to the reference speed.
pub fn to_ref(probe_s: f64) -> f64 {
    PROBE_REF_S / probe_s
}

/// Pins this process — and so every process it spawns afterwards — to
/// the highest-numbered CPU it may run on, so that the probe runs on the
/// CPU the servers run on. Returns that CPU, or `None` if the host
/// refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    // cpu_set_t: a 1024-bit mask.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable cpu_set_t of `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu_set_t of `size` bytes naming a CPU
    // the thread is allowed on.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}
