//! Shared plumbing: command-line arguments, order statistics, the
//! process memory high-water mark, and the metric table every workload
//! fills in.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (JSON lines).
    pub spans: Option<String>,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut spans = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => trace = value()? == "1",
                "--spans" => spans = Some(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            spans,
        })
    }
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An op loop's two phases: the first `warmup` ops run (and are
/// checked) untimed, so the IE memo reaches the full, evicting state a
/// long-lived session lives in; the timed phase then lasts `seconds`.
pub struct Phases {
    warmup: u64,
    seconds: f64,
    started: u64,
    timed_from: Option<Instant>,
}

impl Phases {
    pub fn new(warmup: u64, seconds: f64) -> Phases {
        Phases {
            warmup,
            seconds,
            started: 0,
            timed_from: None,
        }
    }

    /// Starts the next op: `Some((index, timed))`, or `None` once the
    /// timed phase is over.
    pub fn next_op(&mut self) -> Option<(u64, bool)> {
        if self.started == self.warmup {
            self.timed_from = Some(Instant::now());
        }
        if let Some(t) = self.timed_from {
            if t.elapsed().as_secs_f64() >= self.seconds {
                return None;
            }
        }
        self.started += 1;
        Some((self.started - 1, self.timed_from.is_some()))
    }
}

/// CPU time this process has used so far, over all its threads, in
/// seconds. Unlike wall time it leaves out the time the hypervisor
/// steals from the guest's CPUs, which on a shared host comes and goes
/// in bursts and would otherwise move every timing by tens of percent.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as the C
    // `struct timespec` of 64-bit Linux, and clock_gettime writes only
    // into the struct it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A wall clock and the process CPU clock, started together.
pub struct Clocks {
    wall: Instant,
    cpu: f64,
}

impl Clocks {
    pub fn start() -> Clocks {
        Clocks {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    pub fn wall_ms(&self) -> f64 {
        ms_since(self.wall)
    }

    pub fn cpu_ms(&self) -> f64 {
        (cpu_s() - self.cpu) * 1e3
    }
}

/// Runs `f` and records its set-up time: process CPU seconds as
/// `setup_s`, wall seconds as `setup_wall_s`.
pub fn timed_setup<T>(report: &mut Report, f: impl FnOnce() -> T) -> T {
    let clocks = Clocks::start();
    let out = f();
    report.sample("setup_s", [clocks.cpu_ms() / 1e3]);
    report.sample("setup_wall_s", [clocks.wall_ms() / 1e3]);
    out
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation
/// between order statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
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

/// One run's raw samples and the metrics derived from them: workloads
/// record raw series (`sample`), and each derives its metrics from them
/// once the run is over.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First wrong output, if any (makes the run incorrect).
    pub error: Option<String>,
    /// First failed operation, if any.
    pub first_failure: Option<String>,
    pool: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, (f64, &'static str)>,
    order: Vec<String>,
}

impl Report {
    /// Records (or replaces) a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if self
            .values
            .insert(name.to_string(), (value, unit))
            .is_none()
        {
            self.order.push(name.to_string());
        }
    }

    /// Adds raw samples to the series `name`.
    pub fn sample(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.pool
            .entry(name.to_string())
            .or_default()
            .extend(values);
    }

    /// The pooled series `name` (empty if never sampled).
    pub fn series(&self, name: &str) -> &[f64] {
        self.pool.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.series(name).iter().sum()
    }

    /// Notes an operation the program failed (an error, no output).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(msg);
    }

    /// Notes an output that disagrees with the independent computation.
    pub fn wrong(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// Derives the metrics every workload shares from its series:
    /// `setup_s` (and its wall-clock twin), `peak_rss_mb`, and
    /// `op_p50_ms`, the median of `op_series` scaled to milliseconds by
    /// `to_ms`.
    pub fn derive_common(&mut self, op_series: &str, to_ms: f64) {
        let setup = median(self.series("setup_s"));
        let setup_wall = median(self.series("setup_wall_s"));
        let rss = median(self.series("rss_mb"));
        let ops = self.series(op_series);
        let (p50, n) = (median(ops) * to_ms, ops.len());
        self.put("setup_s", setup, "s");
        self.put("setup_wall_s", setup_wall, "s");
        self.put("peak_rss_mb", rss, "MiB");
        self.put("op_p50_ms", p50, "ms");
        self.put("samples", n as f64, "count");
    }

    /// Prints every metric, then the one-line JSON result carrying the
    /// metrics of `keep` (0 for one the workload did not record).
    pub fn print(&self, workload: &str, keep: &[(&str, &str)]) {
        for name in &self.order {
            let (v, unit) = self.values[name];
            println!("{workload:>13} {name:<34} {v:>14.4} {unit}");
        }
        println!(
            "{workload:>13} ops attempted {} failed {}",
            self.attempted, self.failed
        );
        if let Some(e) = &self.first_failure {
            println!("{workload:>13} first failed op: {e}");
        }
        if let Some(e) = &self.error {
            println!("{workload:>13} first wrong output: {e}");
        }
        let metrics: Vec<String> = keep
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).map_or(0.0, |v| v.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.error.is_none(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
