//! The repository benchmark.
//!
//! ```text
//! repo-bench --workload <preexec|mainline|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It sets up scratch directories and
//! seeded inputs (timed as `setup_s`), runs whole rounds of the
//! workload's operations until `--seconds` have passed, checks the
//! outputs, and prints per-class operation counts and then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The exit code is non-zero when an output
//! check fails. See README.md for the metrics and the workloads.

mod batch;
mod checks;
mod inputs;
mod probes;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of the sweep runner and of the daemon.
pub const WORKERS: usize = 2;
/// Set-up repeats until its timed repetitions add up to
/// [`SETUP_BUDGET_S`], at least [`SETUP_MIN_REPS`] times and while the
/// repetitions with their tear-downs stay under [`SETUP_WALL_S`];
/// `setup_s` is the median. A set-up of under a millisecond (the daemon
/// start) needs dozens of repetitions before its median holds still.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_WALL_S: f64 = 4.0;
const SETUP_MIN_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?
            }
            "--trace" => args.trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Work done and latencies seen in one round.
#[derive(Default, Clone)]
pub struct Tally {
    pub mt: u64,
    pub ht: u64,
    pub cycles: u64,
    pub ops: u64,
    pub wall_s: f64,
    pub cold_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
}

impl Tally {
    pub fn add_sim(&mut self, s: &phelps_uarch::stats::SimStats) {
        self.mt += s.mt_retired;
        self.ht += s.ht_retired;
        self.cycles += s.cycles;
    }
}

/// Median over rounds of a per-round rate: each round is an aggregate
/// over its own operations, and the median keeps a burst of host load
/// in one round from moving the run's figure.
fn per_round(rounds: &[Tally], f: impl Fn(&Tally) -> f64) -> f64 {
    stats::median(&rounds.iter().map(|t| f(t) / t.wall_s).collect::<Vec<_>>())
}

fn all_of(rounds: &[Tally], f: impl Fn(&Tally) -> &[f64]) -> Vec<f64> {
    rounds.iter().flat_map(|t| f(t).iter().copied()).collect()
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed, per operation class.
    pub classes: BTreeMap<&'static str, [u64; 2]>,
    pub checks: checks::Checker,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn op(&mut self, class: &'static str, failed: bool) {
        let e = self.classes.entry(class).or_default();
        e[0] += 1;
        e[1] += u64::from(failed);
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// A fixed integer kernel in the benchmark's own code: no program change
/// can move it, so it shows host drift beside every workload.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut table = vec![0u32; 1 << 16];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..8_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & 0xffff;
        table[k] = table[k].wrapping_add(i);
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `f` repeatedly (see [`SETUP_BUDGET_S`]) and returns the median
/// wall time (s) with the last repetition's output.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S
            && start.elapsed().as_secs_f64() < SETUP_WALL_S)
    {
        drop(last.take()); // the previous repetition is torn down first
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let s = stats::sorted(&times);
    eprintln!(
        "[bench] set-up repeated {} times: min {:.6} s, quartiles {:.6} / {:.6} s",
        s.len(),
        s[0],
        s[s.len() / 4],
        s[s.len() * 3 / 4]
    );
    Ok((
        stats::median(&times),
        last.expect("at least one repetition"),
    ))
}

/// A fresh, empty scratch directory inside the working directory.
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// The eight end-to-end metrics from the untraced rounds.
pub fn end_to_end(rep: &mut Report, setup_s: f64, rounds: &Rounds) {
    let peak_rss_mb = rounds.peak_rss_mb;
    let rounds = &rounds.plain;
    rep.metric("setup_s", setup_s, "s");
    rep.metric("mt_mips", per_round(rounds, |t| t.mt as f64 / 1e6), "M/s");
    rep.metric(
        "sim_mips",
        per_round(rounds, |t| (t.mt + t.ht) as f64 / 1e6),
        "M/s",
    );
    rep.metric(
        "kcycles_per_s",
        per_round(rounds, |t| t.cycles as f64 / 1e3),
        "k/s",
    );
    rep.metric("ops_per_s", per_round(rounds, |t| t.ops as f64), "1/s");
    rep.metric(
        "cold_ms_p50",
        stats::median(&all_of(rounds, |t| &t.cold_ms)),
        "ms",
    );
    rep.metric(
        "hit_ms_p50",
        stats::median(&all_of(rounds, |t| &t.hit_ms)),
        "ms",
    );
    rep.metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// Tracing overhead: the share of untraced throughput the traced rounds
/// lost (rounds alternate untraced, traced, so drift cancels).
pub fn trace_overhead(rep: &mut Report, rounds: &Rounds) {
    let (u, t) = (
        per_round(&rounds.plain, |t| t.ops as f64),
        per_round(&rounds.traced, |t| t.ops as f64),
    );
    let share = 1.0 - t / u;
    rep.metric("trace.overhead_share", share, "share");
    eprintln!(
        "[bench] tracing overhead: {:.1}% of untraced ops_per_s ({t:.3} vs {u:.3})",
        share * 100.0
    );
}

/// What the timed part measured.
pub struct Rounds {
    pub plain: Vec<Tally>,
    pub traced: Vec<Tally>,
    /// Peak resident set (MB) when the last round ended, before any
    /// output check or probe allocates.
    pub peak_rss_mb: f64,
}

/// Runs rounds until `seconds` have passed. Untraced runs return every
/// round as untraced. Traced runs take round 0 as a warm-up, then
/// alternate traced and untraced rounds (at least one of each), so host
/// drift falls on both sides of the overhead comparison.
pub fn timed_rounds(
    args: &Args,
    mut round: impl FnMut(usize) -> Result<Tally, String>,
) -> Result<Rounds, String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min_rounds = if args.trace { 3 } else { 1 };
    let start = Instant::now();
    let mut i = 0;
    while i < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let on = args.trace && i % 2 == 1;
        trace::set_enabled(on);
        let t = round(i)?;
        trace::set_enabled(false);
        eprintln!(
            "[bench] round {i}{}: {} ops in {:.3} s, {:.3} M main-thread instructions",
            if on { " (traced)" } else { "" },
            t.ops,
            t.wall_s,
            t.mt as f64 / 1e6
        );
        if on {
            traced.push(t);
        } else if !args.trace || i > 0 {
            plain.push(t);
        }
        i += 1;
    }
    eprintln!(
        "[bench] {} rounds in {:.2} s",
        i,
        start.elapsed().as_secs_f64()
    );
    Ok(Rounds {
        plain,
        traced,
        peak_rss_mb: peak_rss_mb(),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    // The benchmark fixes every policy explicitly; stray settings in the
    // environment must not change what is measured.
    for var in [
        "PHELPS_TRACE",
        "PHELPS_TRACE_VERBOSE",
        "PHELPS_NO_CACHE",
        "PHELPS_CACHE_DIR",
        "PHELPS_SHARDS",
        "PHELPS_PROXY",
        "PHELPS_PROXY_MODEL",
        "PHELPS_NO_CKPT",
        "PHELPS_CKPT",
        "PHELPS_CKPT_DIR",
        "PHELPS_CKPT_WARM",
        "PHELPS_ONLY",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("PHELPS_JOBS", WORKERS.to_string());
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = match args.workload.as_str() {
        "preexec" => batch::workload(args, &work, batch::SweepKind::Preexec),
        "mainline" => batch::workload(args, &work, batch::SweepKind::Mainline),
        "serve" => serve::workload(args, &work),
        other => Err(format!(
            "unknown workload {other:?} (preexec, mainline, serve)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    result
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    for (class, [a, f]) in &rep.classes {
        println!("ops {class}: attempted={a} failed={f}");
        attempted += a;
        failed += f;
    }
    println!(
        "checks: run={} failed={}",
        rep.checks.run,
        rep.checks.failures.len()
    );
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        rep.checks.passed(),
        metrics.join(", ")
    );
    if !rep.checks.passed() {
        std::process::exit(1);
    }
}
