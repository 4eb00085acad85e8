//! The `serve` workload: an in-process `phelps-serve` daemon driven over
//! its TCP protocol by one client connection that keeps a fixed window
//! of submissions outstanding.
//!
//! A round submits distinct cold cells across modes (with one identical
//! pair inside a window, answered in flight), co-run cells against
//! `bfs_uniform`, then session repeats; it then restarts the daemon on
//! the same cache directory and resubmits earlier cells, which should be
//! answered from disk.
//!
//! Each submission is an operation; it fails when it gets no result,
//! when a tier other than the one its class expects answers it, or when
//! a co-run tenant comes out faster than the same cell run alone.

use crate::checks::{self, Checker};
use crate::inputs::{mix, Arm, Input};
use crate::{stats, trace, Args, Report, Tally};
use phelps::sim::{simulate_corun_pair, RunConfig};
use phelps_serve::{Client, Dedup, Request, Response, ServeConfig, ServerHandle, Submit};
use phelps_uarch::stats::SimStats;
use phelps_workloads::suite;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Submissions kept outstanding on the connection (more than the
/// daemon's workers, so submissions queue).
pub const WINDOW: usize = 4;
const EPOCH: u64 = 10_000;
const PEER: &str = "bfs_uniform";
/// The astar co-run and its solo reference run at this fixed region,
/// where astar's co-run IPC exceeds its solo IPC; the seeded regions
/// (60,000 to about 61,030) stay clear of it.
pub const ASTAR_CORUN_REGION: u64 = 62_000;

/// One submission of the stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sub {
    pub workload: &'static str,
    pub mode: &'static str,
    pub corun: Option<&'static str>,
    pub class: &'static str,
    /// A region of its own; `None` takes the round's region.
    pub region: Option<u64>,
}

pub const fn sub(workload: &'static str, mode: &'static str, class: &'static str) -> Sub {
    Sub {
        workload,
        mode,
        corun: None,
        class,
        region: None,
    }
}

const fn corun(workload: &'static str, class: &'static str) -> Sub {
    Sub {
        workload,
        mode: "baseline",
        corun: Some(PEER),
        class,
        region: None,
    }
}

const fn at(region: u64, s: Sub) -> Sub {
    Sub {
        region: Some(region),
        ..s
    }
}

/// Distinct cold cells of a round, in submission order.
const COLD: [Sub; 10] = [
    sub("astar", "baseline", "submit_cold"),
    sub("astar", "phelps", "submit_cold"),
    sub("bfs", "baseline", "submit_cold"),
    sub("bfs", "phelps", "submit_cold"),
    sub("mcf", "perfect_bp", "submit_cold"),
    sub("leela", "partition_only", "submit_cold"),
    sub("omnetpp", "phelps:b1", "submit_cold"),
    sub("xz", "baseline", "submit_cold"),
    at(
        ASTAR_CORUN_REGION,
        sub("astar", "baseline", "submit_cold_fixed_region"),
    ),
    at(
        ASTAR_CORUN_REGION,
        corun("astar", "submit_corun_fixed_region"),
    ),
];
/// Session repeats, sent once the first stream has drained.
const SESSION: [Sub; 3] = [
    sub("astar", "baseline", "submit_session"),
    sub("bfs", "phelps", "submit_session"),
    corun("xz", "submit_session"),
];
/// Resubmitted after the restart; each should be a disk hit.
const RESUBMIT: [Sub; 3] = [
    sub("astar", "phelps", "resubmit_after_restart"),
    sub("mcf", "perfect_bp", "resubmit_after_restart"),
    sub("xz", "baseline", "resubmit_after_restart"),
];

/// The first stream of a round and its seeded starting region.
pub struct RoundPlan {
    pub region0: u64,
    pub first: Vec<Sub>,
}

/// The seed picks the regions only: the daemon builds its own inputs by
/// name, and a seeded submission order would move the queueing each cold
/// cell sees, so `cold_ms_p50` would differ between seeds.
pub fn round_plan(seed: u64) -> RoundPlan {
    let mut first = Vec::new();
    for (i, s) in COLD.iter().enumerate() {
        first.push(*s);
        if i == 2 {
            // An identical submission right behind a cold one: answered
            // by the in-flight tier.
            first.push(Sub {
                class: "submit_dup",
                ..*s
            });
        }
        if i == 4 {
            first.push(corun("bfs", "submit_corun"));
        }
        if i == 7 {
            first.push(corun("xz", "submit_corun"));
        }
    }
    RoundPlan {
        region0: 60_000 + (mix(seed, 49) % 64) * 16,
        first,
    }
}

/// A daemon plus one client connection; dropping it shuts the daemon
/// down and waits for it.
pub struct Daemon {
    handle: Option<ServerHandle>,
    pub client: Option<Client>,
    pub cache_dir: PathBuf,
}

impl Daemon {
    pub fn start(cache_dir: &Path) -> Result<Daemon, String> {
        let handle = phelps_serve::spawn(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: crate::WORKERS,
            queue_capacity: 64,
            cache_dir: Some(cache_dir.to_path_buf()),
            retry_after_ms: 100,
            session_capacity: 256,
            proxy_model: None,
            quiet: true,
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let client = Client::connect_local(handle.port()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("timeout: {e}"))?;
        let mut d = Daemon {
            handle: Some(handle),
            client: Some(client),
            cache_dir: cache_dir.to_path_buf(),
        };
        d.ping()?;
        Ok(d)
    }

    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connected")
    }

    /// One ping round trip, in ms.
    pub fn ping(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        match self.client().request(&Request::Ping) {
            Ok(Response::Pong) => Ok(t.elapsed().as_secs_f64() * 1e3),
            other => Err(format!("ping: {other:?}")),
        }
    }

    pub fn stats(&mut self) -> Result<phelps_serve::ServerStats, String> {
        self.client().stats().map_err(|e| format!("stats: {e}"))
    }

    /// Shuts the daemon down cleanly and waits for it.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        if let Some(mut c) = self.client.take() {
            let _ = c.request(&Request::Shutdown);
        }
        handle
            .join()
            .map(|_| ())
            .map_err(|e| format!("daemon shutdown: {e}"))
    }

    pub fn restart(&mut self) -> Result<(), String> {
        self.stop()?;
        let fresh = Daemon::start(&self.cache_dir)?;
        *self = fresh;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("warning: {e}");
        }
    }
}

/// What happened to one submission.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub sub: Sub,
    pub region: u64,
    pub fingerprint: String,
    pub dedup: Option<Dedup>,
    pub stats: Option<SimStats>,
    pub live_epochs: usize,
    pub ms: f64,
}

struct Pending {
    idx: usize,
    sent: Instant,
    accepted: Option<Instant>,
    first_epoch: Option<Instant>,
    fingerprint: String,
    epochs: usize,
}

/// Sends `subs` keeping `window` outstanding and collects every outcome,
/// in submission order. Client-side spans (when tracing) cover
/// submit→accepted, accepted→first live epoch and submit→result.
pub fn stream(
    d: &mut Daemon,
    subs: &[Sub],
    region: u64,
    window: usize,
    op_base: u64,
) -> Result<Vec<Outcome>, String> {
    let mut out: Vec<Option<Outcome>> = vec![None; subs.len()];
    let mut pending: HashMap<String, Pending> = HashMap::new();
    let mut next = 0;
    let client = d.client();
    while next < subs.len() || !pending.is_empty() {
        while pending.len() < window && next < subs.len() {
            let s = subs[next];
            let id = format!("{}", op_base + next as u64);
            client
                .send(&Request::Submit(Submit {
                    id: id.clone(),
                    workload: s.workload.into(),
                    mode: s.mode.into(),
                    region: Some(s.region.unwrap_or(region)),
                    epoch: Some(EPOCH),
                    corun: s.corun.map(str::to_string),
                }))
                .map_err(|e| format!("submit: {e}"))?;
            pending.insert(
                id,
                Pending {
                    idx: next,
                    sent: Instant::now(),
                    accepted: None,
                    first_epoch: None,
                    fingerprint: String::new(),
                    epochs: 0,
                },
            );
            next += 1;
        }
        let frame = client.recv().map_err(|e| format!("recv: {e}"))?;
        let now = Instant::now();
        let (id, done) = match frame {
            Response::Accepted { id, fingerprint } => {
                if let Some(p) = pending.get_mut(&id) {
                    p.accepted = Some(now);
                    p.fingerprint = fingerprint;
                }
                (id, None)
            }
            Response::Epoch { id, replay, .. } => {
                if let Some(p) = pending.get_mut(&id) {
                    if !replay {
                        p.epochs += 1;
                        p.first_epoch.get_or_insert(now);
                    }
                }
                (id, None)
            }
            Response::Result { id, dedup, result } => (id, Some((Some(dedup), Some(result.stats)))),
            Response::Busy { id, .. } | Response::Error { id, .. } => (id, Some((None, None))),
            _ => continue,
        };
        let Some((dedup, stats)) = done else { continue };
        let Some(p) = pending.remove(&id) else {
            continue;
        };
        let op = op_base + p.idx as u64;
        if let Some(acc) = p.accepted {
            trace::record("serve.accept", "serve.submit", op, p.sent, acc);
            if let Some(ep) = p.first_epoch {
                trace::record("serve.first_epoch", "serve.submit", op, acc, ep);
            }
        }
        trace::record("serve.result", "serve.submit", op, p.sent, now);
        out[p.idx] = Some(Outcome {
            sub: subs[p.idx],
            region: subs[p.idx].region.unwrap_or(region),
            fingerprint: p.fingerprint,
            dedup,
            stats,
            live_epochs: p.epochs,
            ms: now.duration_since(p.sent).as_secs_f64() * 1e3,
        });
    }
    Ok(out
        .into_iter()
        .map(|o| o.expect("every submission answered"))
        .collect())
}

/// Whether a submission of this class should run a simulation (the
/// other classes expect an answer from a dedup tier).
fn expects_simulation(class: &str) -> bool {
    !matches!(
        class,
        "submit_dup" | "submit_session" | "resubmit_after_restart"
    )
}

/// The solo IPC a co-run outcome is held to: the solo baseline cell of
/// the same workload and region in the same round.
fn solo_ipc(outs: &[Outcome], o: &Outcome) -> f64 {
    outs.iter()
        .find(|s| {
            s.sub.corun.is_none()
                && s.sub.workload == o.sub.workload
                && s.sub.mode == "baseline"
                && s.region == o.region
        })
        .and_then(|s| s.stats.as_ref())
        .map_or(f64::NAN, SimStats::ipc)
}

/// Which outcomes of one round are failed operations: no result; an
/// answer from another tier than the class expects (in flight or
/// session for a duplicate, session for a repeat, disk after the
/// restart); or a co-run IPC above the solo IPC.
pub fn failures(outs: &[Outcome]) -> Vec<bool> {
    outs.iter()
        .map(|o| {
            let Some(s) = &o.stats else { return true };
            let tier_ok = match (o.sub.class, o.dedup) {
                (_, None) => false,
                ("submit_dup", Some(d)) => matches!(d, Dedup::InFlight | Dedup::Session),
                ("submit_session", Some(d)) => d == Dedup::Session,
                ("resubmit_after_restart", Some(d)) => d == Dedup::Cached,
                (_, Some(_)) => true,
            };
            let corun_ok = o.sub.corun.is_none() || s.ipc() <= solo_ipc(outs, o);
            !(tier_ok && corun_ok)
        })
        .collect()
}

/// One round on `d`; returns its outcomes and the daemon's counters
/// from just before the restart.
pub fn round(
    d: &mut Daemon,
    plan: &RoundPlan,
    region: u64,
    op_base: u64,
) -> Result<(Vec<Outcome>, phelps_serve::ServerStats), String> {
    let mut outs = stream(d, &plan.first, region, WINDOW, op_base)?;
    outs.extend(stream(d, &SESSION, region, WINDOW, op_base + 100)?);
    let counters = d.stats()?;
    d.restart()?;
    outs.extend(stream(d, &RESUBMIT, region, WINDOW, op_base + 200)?);
    Ok((outs, counters))
}

fn tally(outs: &[Outcome], wall_s: f64) -> Tally {
    let mut t = Tally {
        wall_s,
        ..Tally::default()
    };
    for o in outs {
        t.ops += 1;
        match (o.dedup, &o.stats) {
            // An in-flight duplicate is labelled `simulated` too, but
            // rides on the original's simulation: its work is not added.
            (Some(Dedup::Simulated), Some(_)) if o.sub.class == "submit_dup" => {}
            (Some(Dedup::Simulated), Some(s)) => {
                t.add_sim(s);
                if expects_simulation(o.sub.class) {
                    t.cold_ms.push(o.ms);
                }
            }
            (Some(Dedup::Session | Dedup::Cached), Some(_)) => t.hit_ms.push(o.ms),
            _ => {}
        }
    }
    t
}

/// The daemon's own input for a workload name (its fixed suite seed).
pub fn suite_input(name: &'static str) -> Input {
    Input {
        name,
        make: Arc::new(move || {
            suite::gap_workload(name)
                .or_else(|| suite::spec_workload(name))
                .expect("suite workload")
                .cpu
        }),
        bfs_graph: (name == "bfs").then(|| (Arc::new(suite::road_graph()), 0)),
    }
}

pub fn workload(args: &Args, work: &Path) -> Result<Report, String> {
    let mut rep = Report::default();
    let (setup_s, (plan, mut daemon)) = crate::timed_setup(|| {
        crate::fresh_dir(work)?;
        let plan = round_plan(args.seed);
        // The cache directory is named but not created: the daemon is
        // expected to create it itself.
        let daemon = Daemon::start(&work.join("serve-cache"))?;
        Ok((plan, daemon))
    })?;
    let mut calib = vec![crate::calib_ms()];
    let mut rounds: Vec<(Vec<Outcome>, phelps_serve::ServerStats)> = Vec::new();
    let timed = crate::timed_rounds(args, |i| {
        let t0 = Instant::now();
        let r = round(&mut daemon, &plan, plan.region0 + i as u64, i as u64 * 1000)?;
        let t = tally(&r.0, t0.elapsed().as_secs_f64());
        rounds.push(r);
        Ok(t)
    })?;
    calib.push(crate::calib_ms());
    let mut ping_ms = Vec::new();
    if args.trace {
        for _ in 0..20 {
            ping_ms.push(daemon.ping()?);
        }
    }
    daemon.stop()?;
    drop(daemon);

    for (outs, _) in &rounds {
        for (o, f) in outs.iter().zip(failures(outs)) {
            rep.op(o.sub.class, f);
        }
    }
    check(&mut rep.checks, &plan, &rounds);

    if args.trace {
        crate::probes::serve_layer(&mut rep, &ping_ms, &rounds);
        let inputs: Vec<Input> = ["astar", "bfs", "mcf"]
            .into_iter()
            .map(suite_input)
            .collect();
        crate::probes::common(&mut rep, &inputs, plan.region0, EPOCH, &calib)?;
        crate::trace_overhead(&mut rep, &timed);
        let path =
            Path::new(".bench_out").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        trace::write_out(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        eprintln!("[bench] host.calib_ms {:.2}", stats::median(&calib));
        crate::end_to_end(&mut rep, setup_s, &timed);
    }
    Ok(rep)
}

fn check(
    chk: &mut Checker,
    plan: &RoundPlan,
    rounds: &[(Vec<Outcome>, phelps_serve::ServerStats)],
) {
    let max_region = rounds
        .iter()
        .flat_map(|(outs, _)| outs)
        .map(|o| o.region)
        .max()
        .unwrap_or(plan.region0);
    let mut halt: HashMap<&'static str, u64> = HashMap::new();
    // The simulated answer per fingerprint; every other answer for that
    // fingerprint, in any round, must equal it.
    let mut truth: HashMap<&str, &SimStats> = HashMap::new();
    for o in rounds.iter().flat_map(|(outs, _)| outs) {
        if let (Some(Dedup::Simulated), Some(s)) = (o.dedup, &o.stats) {
            truth.entry(o.fingerprint.as_str()).or_insert(s);
        }
    }
    for (outs, _) in rounds {
        for o in outs {
            let what = format!(
                "{}/{}{} region {}",
                o.sub.workload,
                o.sub.mode,
                o.sub.corun.map_or(String::new(), |p| format!(" corun {p}")),
                o.region
            );
            let Some(s) = &o.stats else {
                chk.check(false, || format!("{what}: no result ({:?})", o.dedup));
                continue;
            };
            chk.check(truth.get(o.fingerprint.as_str()) == Some(&s), || {
                format!(
                    "{what}: {:?} answer differs from the simulated result",
                    o.dedup
                )
            });
            let n = *halt.entry(o.sub.workload).or_insert_with(|| {
                checks::expected_retired(&suite_input(o.sub.workload), max_region)
            });
            let arm = (o.sub.corun.is_none()).then_some(Arm::Mode(o.sub.mode));
            checks::cell(chk, &what, s, o.region.min(n), arm);
            if o.dedup == Some(Dedup::Simulated) && o.sub.class == "submit_cold" {
                chk.check(o.live_epochs > 0, || {
                    format!("{what}: no live epoch streamed")
                });
            }
        }
        // A co-run tenant faster than alone is counted as a failed
        // operation (see `failures`), not as a failed check.
    }

    // A sample of daemon results against in-process simulation, and the
    // retire stream of each (workload, mode) pair against the emulator.
    let (outs, _) = &rounds[0];
    for o in outs
        .iter()
        .filter(|o| o.dedup == Some(Dedup::Simulated) && o.sub.class != "resubmit_after_restart")
    {
        let input = suite_input(o.sub.workload);
        let arm = Arm::Mode(o.sub.mode);
        let cfg = RunConfig::quick(arm.mode(), o.region, EPOCH);
        let what = format!("{}/{}", o.sub.workload, o.sub.mode);
        let Some(s) = &o.stats else { continue };
        match o.sub.corun {
            Some(peer) => {
                let peer_cfg = RunConfig::quick(phelps::sim::Mode::Baseline, o.region, EPOCH);
                let [r, _] = simulate_corun_pair(
                    (input.make)(),
                    &cfg,
                    (suite_input(peer).make)(),
                    &peer_cfg,
                );
                chk.check(r.stats == *s, || {
                    format!("{what} corun {peer}: daemon result differs from in-process co-run")
                });
            }
            None => checks::observed(chk, &input, arm, &cfg, s),
        }
    }
    checks::guest_bfs(chk, &suite_input("bfs"));
}
