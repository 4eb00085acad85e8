//! Per-layer metrics of the traced run.
//!
//! Spans recorded during the traced rounds give the runner and workload
//! numbers; the rest come from single-threaded probe calls into each
//! crate on the workload's own inputs, made after the timed part. Every
//! traced run prints every per-layer metric.

use crate::checks::Checker;
use crate::inputs::{br_pipeline, phelps_pipeline, Arm, Input};
use crate::serve::{self, Daemon, Outcome};
use crate::stats::{median, tail};
use crate::sweep::Plan;
use crate::{trace, Report};
use phelps::classify::MispredictClass;
use phelps::sim::{
    simulate_corun_pair, EngineCkpt, EngineCmd, ExecInfo, PreExecEngine, QueueLookup, SideAction,
    SideInst, SimResult,
};
use phelps_bench::runner::cache;
use phelps_isa::ExecRecord;
use phelps_runahead::BrVariant;
use phelps_serve::ServerStats;
use phelps_uarch::config::{ActiveThreads, CoreConfig};
use phelps_uarch::mem::{MemRequest, MemoryHierarchy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-layer metrics of a batch sweep's traced run.
pub fn per_layer(rep: &mut Report, plan: &Plan, calib: &[f64]) -> Result<(), String> {
    serve_probe(rep)?;
    common(rep, &plan.inputs[..3], plan.region, plan.epoch, calib)
}

/// `serve.*` metrics from the serve workload's traced rounds.
pub fn serve_layer(rep: &mut Report, ping_ms: &[f64], rounds: &[(Vec<Outcome>, ServerStats)]) {
    let outs: Vec<&Outcome> = rounds.iter().flat_map(|(o, _)| o).collect();
    let counters: Vec<ServerStats> = rounds.iter().map(|(_, s)| *s).collect();
    serve_metrics(
        rep,
        ping_ms,
        outs.len() as u64 - rounds.len() as u64 * 3,
        &counters,
    );
}

fn serve_metrics(rep: &mut Report, ping_ms: &[f64], submissions: u64, counters: &[ServerStats]) {
    rep.metric("serve.ping_ms", median(ping_ms), "ms");
    rep.metric(
        "serve.accept_ms",
        median(&trace::durations_ms("serve.accept")),
        "ms",
    );
    rep.metric(
        "serve.first_epoch_ms",
        median(&trace::durations_ms("serve.first_epoch")),
        "ms",
    );
    let (tail_ms, pct) = tail(&trace::durations_ms("serve.result"));
    eprintln!("[bench] serve.result_ms_tail is p{pct:.0}");
    rep.metric("serve.result_ms_tail", tail_ms, "ms");
    let reused: u64 = counters
        .iter()
        .map(|s| s.session_hits + s.dedup_in_flight + s.disk_hits)
        .sum();
    rep.metric(
        "serve.reuse_ratio",
        reused as f64 / submissions as f64,
        "share",
    );
}

/// A short traced daemon session for workloads that do not serve: 20
/// pings, then two cold cells, an in-flight duplicate and a session
/// repeat.
fn serve_probe(rep: &mut Report) -> Result<(), String> {
    let dir =
        std::path::PathBuf::from(".bench_work").join(format!("probe-serve-{}", std::process::id()));
    let mut d = Daemon::start(&dir)?;
    let mut ping_ms = Vec::new();
    for _ in 0..20 {
        ping_ms.push(d.ping()?);
    }
    let subs = [
        serve::sub("astar", "baseline", "probe"),
        serve::sub("bfs", "phelps", "probe"),
        serve::sub("bfs", "phelps", "probe"),
    ];
    trace::set_enabled(true);
    let mut outs = serve::stream(&mut d, &subs, 30_000, serve::WINDOW, 1 << 40)?;
    outs.extend(serve::stream(
        &mut d,
        &subs[..1],
        30_000,
        serve::WINDOW,
        (1 << 40) + 10,
    )?);
    trace::set_enabled(false);
    let counters = d.stats()?;
    d.stop()?;
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    if outs.iter().any(|o| o.dedup.is_none()) {
        return Err("serve probe: a submission failed".into());
    }
    serve_metrics(rep, &ping_ms, outs.len() as u64, &[counters]);
    Ok(())
}

/// Counts the engine's hook calls and the host time spent inside them.
#[derive(Default)]
pub struct EngineClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// A pass-through [`PreExecEngine`] that times every hook.
pub struct Timed<E> {
    inner: E,
    clock: Arc<EngineClock>,
}

impl EngineClock {
    fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<E: PreExecEngine> PreExecEngine for Timed<E> {
    fn queue_lookup(&mut self, pc: u64) -> QueueLookup {
        self.clock.call(|| self.inner.queue_lookup(pc))
    }
    fn on_mt_branch_fetched(&mut self, pc: u64, predicted_taken: bool) {
        self.clock
            .call(|| self.inner.on_mt_branch_fetched(pc, predicted_taken))
    }
    fn checkpoint(&self) -> EngineCkpt {
        self.clock.call(|| self.inner.checkpoint())
    }
    fn restore(&mut self, ckpt: &EngineCkpt) {
        self.clock.call(|| self.inner.restore(ckpt))
    }
    fn on_mt_retire(&mut self, rec: &ExecRecord, mispredicted: bool, cycle: u64) -> EngineCmd {
        self.clock
            .call(|| self.inner.on_mt_retire(rec, mispredicted, cycle))
    }
    fn classify(
        &mut self,
        pc: u64,
        from_queue: bool,
        mispredicted: bool,
        default_wrong: bool,
    ) -> MispredictClass {
        self.clock.call(|| {
            self.inner
                .classify(pc, from_queue, mispredicted, default_wrong)
        })
    }
    fn active_threads(&self) -> ActiveThreads {
        self.clock.call(|| self.inner.active_threads())
    }
    fn side_fetch(&mut self, tid: usize, cycle: u64) -> Option<SideInst> {
        self.clock.call(|| self.inner.side_fetch(tid, cycle))
    }
    fn side_executed(&mut self, tid: usize, inst: &SideInst, info: &ExecInfo, cycle: u64) {
        self.clock
            .call(|| self.inner.side_executed(tid, inst, info, cycle))
    }
    fn side_branch_resolved(&mut self, tid: usize, inst: &SideInst, taken: bool) -> SideAction {
        self.clock
            .call(|| self.inner.side_branch_resolved(tid, inst, taken))
    }
    fn side_retired(&mut self, tid: usize, inst: &SideInst, info: &ExecInfo, cycle: u64) {
        self.clock
            .call(|| self.inner.side_retired(tid, inst, info, cycle))
    }
    fn on_terminated(&mut self) {
        self.clock.call(|| self.inner.on_terminated())
    }
    fn loose_retire(&self) -> bool {
        self.clock.call(|| self.inner.loose_retire())
    }
    fn take_squash_tags(&mut self) -> Vec<u64> {
        self.clock.call(|| self.inner.take_squash_tags())
    }
}

fn wrap<E>(clock: &Arc<EngineClock>) -> impl FnOnce(E) -> Timed<E> + '_ {
    move |inner| Timed {
        inner,
        clock: Arc::clone(clock),
    }
}

/// Runs `f`, returning its result and host ns.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// The probes every workload's traced run makes on its first inputs.
pub fn common(
    rep: &mut Report,
    inputs: &[Input],
    region: u64,
    epoch: u64,
    calib: &[f64],
) -> Result<(), String> {
    let mut chk = Checker::default();
    let main = &inputs[0];

    // phelps-workloads: factory calls. The sweep's spans wrap the
    // runner's `make` closures; without a runner, a small traced sweep
    // of baseline cells supplies them (and the runner's waits).
    if trace::durations_ms("runner.wait").is_empty() {
        mini_sweep(inputs, region, epoch);
    }
    rep.metric(
        "workloads.build_ms",
        median(&trace::durations_ms("workloads.build")),
        "ms",
    );
    rep.metric(
        "runner.wait_ms",
        median(&trace::durations_ms("runner.wait")),
        "ms",
    );

    // phelps-isa: the emulator alone over the same programs.
    let (mut insts, mut ns) = (0u64, 0f64);
    for i in inputs {
        let mut cpu = (i.make)();
        let (n, t) = timed(|| cpu.run(region).unwrap_or(0));
        insts += n;
        ns += t;
    }
    rep.metric("isa.emu_mips", insts as f64 / ns * 1e3, "M/s");

    // phelps (sim): host ns per simulated instruction, single-threaded.
    let mut ns_per = |label: &str, r: &[&SimResult], ns: f64| {
        let n: u64 = r
            .iter()
            .map(|r| r.stats.mt_retired + r.stats.ht_retired)
            .sum();
        rep.metric(format!("core.ns_per_inst.{label}"), ns / n as f64, "ns");
    };
    let mut results: Vec<SimResult> = Vec::new();
    for m in ["baseline", "perfect_bp", "partition_only", "phelps"] {
        let arm = Arm::Mode(m);
        let cfg = arm.config(region, epoch);
        let cpu = (main.make)();
        let (r, t) = timed(|| arm.simulate(cpu, &cfg));
        ns_per(m, &[&r], t);
        results.push(r);
    }
    let br_cfg = Arm::Br(BrVariant::Speculative).config(region, epoch);
    let cpu = (main.make)();
    let (br, t) =
        timed(|| phelps_runahead::simulate_runahead(cpu, &br_cfg, BrVariant::Speculative));
    ns_per("br", &[&br], t);
    let base_cfg = Arm::Mode("baseline").config(region, epoch);
    let (pair, t) =
        timed(|| simulate_corun_pair((main.make)(), &base_cfg, (inputs[1].make)(), &base_cfg));
    ns_per("corun", &[&pair[0], &pair[1]], t);
    let phelps = &results[3];
    rep.metric(
        "core.ht_per_mt.phelps",
        ratio(phelps.stats.ht_retired, phelps.stats.mt_retired),
        "ratio",
    );
    rep.metric(
        "core.ht_per_mt.br",
        ratio(br.stats.ht_retired, br.stats.mt_retired),
        "ratio",
    );
    // The modelled Phelps speedup on the first two inputs, for the README's
    // comparison with the paper (not a host-time metric).
    for (k, input) in inputs.iter().take(2).enumerate() {
        let ipc = |m| {
            if k == 0 {
                let r = &results[if m == "baseline" { 0 } else { 3 }];
                return r.stats.ipc();
            }
            let arm = Arm::Mode(m);
            arm.simulate((input.make)(), &arm.config(region, epoch))
                .stats
                .ipc()
        };
        let (b, p) = (ipc("baseline"), ipc("phelps"));
        eprintln!(
            "[bench] {}: Phelps IPC {p:.3} vs baseline {b:.3} ({:+.1}%)",
            input.name,
            (p / b - 1.0) * 100.0
        );
    }

    // Engines: the same runs through a timing pass-through wrapper must
    // leave the statistics unchanged.
    let phelps_cfg = Arm::Mode("phelps").config(region, epoch);
    for (label, unwrapped) in [("phelps", &phelps.stats), ("br", &br.stats)] {
        let clock = Arc::new(EngineClock::default());
        let cpu = (main.make)();
        let (r, t) = timed(|| match label {
            "phelps" => phelps_pipeline(cpu, &phelps_cfg, wrap(&clock)).run(),
            _ => br_pipeline(cpu, &br_cfg, BrVariant::Speculative, wrap(&clock)).run(),
        });
        chk.check(r.stats == *unwrapped, || {
            format!("{label}: timing-wrapped engine changed SimStats")
        });
        let engine_ns = clock.ns.load(Ordering::Relaxed) as f64;
        rep.metric(format!("engine.{label}.self_share"), engine_ns / t, "share");
        rep.metric(
            format!("engine.{label}.calls"),
            clock.calls.load(Ordering::Relaxed) as f64,
            "count",
        );
    }
    let q = [&phelps.stats, &br.stats];
    let from_q: u64 = q.iter().map(|s| s.preds_from_queue).sum();
    let wrong: u64 = q.iter().map(|s| s.mispredicts_from_queue).sum();
    let untimely: u64 = q.iter().map(|s| s.queue_untimely).sum();
    rep.metric(
        "engine.queue_useful_ratio",
        ratio(from_q - wrong, from_q),
        "share",
    );
    rep.metric(
        "engine.queue_timely_ratio",
        ratio(from_q, from_q + untimely),
        "share",
    );

    // phelps-uarch: the emulator's load/store and branch streams replayed
    // through the memory hierarchy and the predictor.
    mem_and_bpred(rep, inputs, region);

    // phelps-telemetry: one cell with and without a registry, in three
    // alternating pairs; the overhead is the median pair's.
    let cfg = Arm::Mode("baseline").config(region, epoch);
    let mut shares = Vec::new();
    let mut with = None;
    for _ in 0..3 {
        let cpu = (main.make)();
        let (plain, t_plain) = timed(|| phelps::sim::simulate(cpu, &cfg));
        let cpu = (main.make)();
        let (r, t_with) = timed(|| {
            phelps_telemetry::install(phelps_telemetry::Config {
                epoch_len: epoch,
                ..phelps_telemetry::Config::default()
            });
            phelps::sim::simulate(cpu, &cfg)
        });
        chk.check(r.stats == plain.stats && r.telemetry.is_some(), || {
            "telemetry registry changed SimStats or produced no report".into()
        });
        shares.push(t_with / t_plain - 1.0);
        with = Some(r);
    }
    let with = with.expect("three pairs ran");
    rep.metric("telemetry.overhead_share", median(&shares), "share");
    let json_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let n = with.telemetry.as_ref().map_or(0, |r| r.to_json().len());
            std::hint::black_box(n);
            ms_since(t)
        })
        .collect();
    rep.metric("telemetry.report_json_ms", median(&json_ms), "ms");

    // phelps-bench: the result cache's store and load of these results.
    let dir =
        std::path::PathBuf::from(".bench_work").join(format!("probe-cache-{}", std::process::id()));
    crate::fresh_dir(&dir)?;
    let (mut load_ms, mut store_ms, mut kb) = (Vec::new(), Vec::new(), Vec::new());
    for (k, r) in results.iter().chain([&br, &pair[0]]).enumerate() {
        let fp = format!("probe|{k}");
        let t = Instant::now();
        cache::store(&dir, &fp, r);
        store_ms.push(ms_since(t));
        kb.push(
            std::fs::metadata(cache::cell_path(&dir, &fp))
                .map_or(f64::NAN, |m| m.len() as f64 / 1024.0),
        );
        let t = Instant::now();
        let back = cache::load(&dir, &fp);
        load_ms.push(ms_since(t));
        chk.check(back.is_some_and(|b| b.stats == r.stats), || {
            "cache round trip changed SimStats".into()
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep.metric("cache.load_ms", median(&load_ms), "ms");
    rep.metric("cache.store_ms", median(&store_ms), "ms");
    rep.metric("cache.entry_kb", median(&kb), "KB");

    // phelps-ckpt: capture (fast-forward + save) and restore (load +
    // resume) of the main input at the region's end.
    ckpt_probe(rep, &mut chk, main, region)?;

    rep.metric("host.calib_ms", median(calib), "ms");
    rep.checks.run += chk.run;
    rep.checks.failures.extend(chk.failures);
    Ok(())
}

/// A traced two-worker sweep of baseline cells, for runs without one.
fn mini_sweep(inputs: &[Input], region: u64, epoch: u64) {
    let plan = Plan {
        name: "bench-probe",
        inputs: inputs.to_vec(),
        cells: (0..inputs.len())
            .map(|input| crate::sweep::Cell {
                input,
                kind: crate::sweep::Kind::Arm(Arm::Mode("baseline")),
            })
            .collect(),
        region,
        epoch,
        workers: crate::WORKERS,
    };
    let dir =
        std::path::PathBuf::from(".bench_work").join(format!("probe-sweep-{}", std::process::id()));
    trace::set_enabled(true);
    crate::sweep::round(&plan, &dir, 1 << 41);
    trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
}

fn mem_and_bpred(rep: &mut Report, inputs: &[Input], region: u64) {
    use phelps_uarch::bpred::{DirectionPredictor, TageScL};
    let (mut requests, mut mem_ns, mut insts) = (0u64, 0f64, 0u64);
    let (mut branches, mut bp_ns, mut mispredicts) = (0u64, 0f64, 0u64);
    let (mut l1d, mut l2, mut l3, mut pf_issued, mut pf_hits) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for i in inputs {
        let mut cpu = (i.make)();
        let mut recs = Vec::with_capacity(region as usize);
        while (recs.len() as u64) < region && !cpu.is_halted() {
            match cpu.step() {
                Ok(r) => recs.push(r),
                Err(_) => break,
            }
        }
        insts += recs.len() as u64;
        let mut mh = MemoryHierarchy::new(&CoreConfig::paper_default());
        let t = Instant::now();
        for (cycle, r) in recs.iter().enumerate() {
            let req = if r.inst.is_load() {
                MemRequest::load(0, r.pc, r.mem_addr, cycle as u64)
            } else if r.inst.is_store() {
                MemRequest::store(0, r.pc, r.mem_addr, cycle as u64)
            } else {
                continue;
            };
            let res = mh.request(req);
            pf_hits += u64::from(res.l1_prefetch_hit);
            requests += 1;
        }
        mem_ns += t.elapsed().as_nanos() as f64;
        l1d += mh.l1d_stats().1;
        l2 += mh.l2_misses();
        l3 += mh.l3_misses();
        pf_issued += mh.prefetches_issued();

        let mut bp = TageScL::large();
        let t = Instant::now();
        for r in recs.iter().filter(|r| r.inst.is_cond_branch()) {
            let p = bp.predict(r.pc);
            bp.speculate(r.pc, r.taken);
            bp.update(r.pc, r.taken, p);
            mispredicts += u64::from(p != r.taken);
            branches += 1;
        }
        bp_ns += t.elapsed().as_nanos() as f64;
    }
    let kilo = insts as f64 / 1e3;
    rep.metric("mem.ns_per_request", mem_ns / requests as f64, "ns");
    rep.metric("mem.l1d_mpki", l1d as f64 / kilo, "1/kinst");
    rep.metric("mem.l2_mpki", l2 as f64 / kilo, "1/kinst");
    rep.metric("mem.l3_mpki", l3 as f64 / kilo, "1/kinst");
    rep.metric(
        "mem.prefetch_useful_ratio",
        ratio(pf_hits, pf_issued),
        "share",
    );
    rep.metric("bpred.ns_per_branch", bp_ns / branches as f64, "ns");
    rep.metric("bpred.mpki", mispredicts as f64 / kilo, "1/kinst");
}

fn ckpt_probe(
    rep: &mut Report,
    chk: &mut Checker,
    input: &Input,
    start: u64,
) -> Result<(), String> {
    let dir =
        std::path::PathBuf::from(".bench_work").join(format!("probe-ckpt-{}", std::process::id()));
    crate::fresh_dir(&dir)?;
    let store = phelps_ckpt::CheckpointStore::new(&dir);
    let (mut cap, mut res, mut kb) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..3 {
        let proto = (input.make)();
        let key = phelps_ckpt::region_key(input.name, &proto, start);
        let t = Instant::now();
        let snaps = phelps_ckpt::capture_snapshots(&mut proto.clone(), &[start], 0)
            .map_err(|e| format!("checkpoint capture: {e}"))?;
        store.save(&key, &snaps[0]);
        cap.push(ms_since(t));
        kb = std::fs::metadata(store.path_of(&key)).map_or(f64::NAN, |m| m.len() as f64 / 1024.0);
        let t = Instant::now();
        let restored = store
            .load(&key)
            .ok_or("checkpoint load missed")
            .and_then(|s| phelps_ckpt::resume(proto.clone(), &s, 0).map_err(|_| "resume failed"))?;
        res.push(ms_since(t));
        let mut ff = proto;
        let _ = ff.run(start);
        chk.check(
            restored.cpu.pc() == ff.pc() && restored.cpu.retired() == ff.retired(),
            || {
                format!(
                    "{}: restored checkpoint differs from fast-forward",
                    input.name
                )
            },
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep.metric("ckpt.capture_ms", median(&cap), "ms");
    rep.metric("ckpt.restore_ms", median(&res), "ms");
    rep.metric("ckpt.kb", kb, "KB");
    Ok(())
}
