//! The batch sweeps (`preexec`, `mainline`): one cold pass of the cell
//! matrix through the public `Experiment` runner on an empty result
//! cache, then the same matrix again, warm, one cell at a time.

use crate::inputs::{Arm, Input};
use crate::trace;
use phelps::sim::{simulate_corun_pair, RunConfig, SimResult};
use phelps_bench::ckpt_support::CkptPolicy;
use phelps_bench::runner::Experiment;
use phelps_bench::ProxyMode;
use phelps_uarch::stats::SimStats;
use phelps_workloads::simpoints::SimPointConfig;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one cell of the matrix runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Arm(Arm),
    /// Baseline co-run against the input at `peer`, also baseline.
    Corun {
        peer: usize,
    },
    /// A full SimPoint evaluation: profile, checkpoint capture, restore.
    SimPoints {
        profile: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub input: usize,
    pub kind: Kind,
}

pub struct Plan {
    pub name: &'static str,
    pub inputs: Vec<Input>,
    pub cells: Vec<Cell>,
    pub region: u64,
    pub epoch: u64,
    pub workers: usize,
}

/// The SimPoint selection used by `Kind::SimPoints` cells.
pub fn simpoint_config(region: u64) -> SimPointConfig {
    SimPointConfig {
        interval_len: region,
        max_points: 4,
        kmeans_iters: 12,
    }
}

impl Plan {
    pub fn label(&self, c: &Cell) -> String {
        match c.kind {
            Kind::Arm(a) => a.label().to_string(),
            Kind::Corun { peer } => format!("corun:{}", self.inputs[peer].name),
            Kind::SimPoints { .. } => "simpoints".to_string(),
        }
    }

    pub fn config(&self, c: &Cell) -> RunConfig {
        match c.kind {
            Kind::Arm(a) => a.config(self.region, self.epoch),
            _ => Arm::Mode("baseline").config(self.region, self.epoch),
        }
    }

    /// The cache key the runner's own builders would give this cell.
    pub fn key(&self, c: &Cell) -> String {
        let cfg = self.config(c);
        match c.kind {
            Kind::Arm(a) => a.key(&cfg),
            Kind::Corun { peer } => {
                format!("{cfg:?}|peer={cfg:?}|corun={}", self.inputs[peer].name)
            }
            Kind::SimPoints { profile } => {
                format!(
                    "{cfg:?}|simpoints={profile}|{:?}",
                    simpoint_config(self.region)
                )
            }
        }
    }
}

/// Point weights and IPCs of one SimPoint evaluation.
#[derive(Clone, Debug)]
pub struct SimPointSummary {
    pub weights: Vec<f64>,
    pub ipcs: Vec<f64>,
    pub hmean: f64,
}

/// One cell's cold outcome.
#[derive(Clone, Debug)]
pub struct ColdOut {
    pub stats: Option<SimStats>,
    /// The job ran (the cell was not answered from the cache).
    pub simulated: bool,
    /// Wall time of the job: workload build plus simulation.
    pub ms: f64,
    pub simpoints: Option<SimPointSummary>,
}

/// One cell's warm outcome.
#[derive(Clone, Debug)]
pub struct WarmOut {
    pub stats: Option<SimStats>,
    pub from_cache: bool,
    /// Wall time of the whole one-cell `Experiment::run`.
    pub ms: f64,
}

pub struct RoundOut {
    pub cold: Vec<ColdOut>,
    pub warm: Vec<WarmOut>,
}

struct JobCtx {
    make: crate::inputs::Factory,
    peer: Option<crate::inputs::Factory>,
    kind: Kind,
    cfg: RunConfig,
    label: &'static str,
    ckpt_dir: PathBuf,
    region: u64,
    op: u64,
}

/// Runs one cell: build the workload, simulate it. Spans (when tracing)
/// cover the wait since `Experiment::run` began, the factory calls and
/// the simulation.
fn run_job(ctx: JobCtx, run_start: Instant, sp: &Mutex<Option<SimPointSummary>>) -> SimResult {
    let start = Instant::now();
    trace::record("runner.wait", "runner.run", ctx.op, run_start, start);
    let build =
        |f: &crate::inputs::Factory| trace::span("workloads.build", "runner.cell", ctx.op, || f());
    let cpu = build(&ctx.make);
    trace::span("core.simulate", "runner.cell", ctx.op, || match ctx.kind {
        Kind::Arm(a) => a.simulate(cpu, &ctx.cfg),
        Kind::Corun { .. } => {
            let peer = build(ctx.peer.as_ref().expect("co-run cell has a peer"));
            let [primary, _] = simulate_corun_pair(cpu, &ctx.cfg, peer, &ctx.cfg);
            primary
        }
        Kind::SimPoints { profile } => {
            let ckpt = CkptPolicy {
                enabled: true,
                dir: ctx.ckpt_dir.clone(),
                warm: 0,
            };
            let run = phelps_bench::run_simpoints_with(
                ctx.label,
                cpu,
                &ctx.cfg,
                profile,
                &simpoint_config(ctx.region),
                &ckpt,
                1,
                None,
            );
            *sp.lock().unwrap_or_else(|e| e.into_inner()) = Some(SimPointSummary {
                weights: run.points.iter().map(|(p, _)| p.weight).collect(),
                ipcs: run.points.iter().map(|(_, r)| r.stats.ipc()).collect(),
                hmean: run.hmean_ipc,
            });
            run.merged.unwrap_or_else(|| SimResult {
                stats: SimStats::new(),
                breakdown: phelps::classify::MispredictBreakdown::new(),
                telemetry: None,
                retire_log: None,
                final_state: None,
            })
        }
    })
}

fn experiment(plan: &Plan, cache: &Path, workers: usize) -> Experiment {
    Experiment::new(plan.name)
        .cache_dir(Some(cache.to_path_buf()))
        .jobs(workers)
        .quiet(true)
        .proxy(ProxyMode::Off, cache.join("no-proxy-model.json"))
}

fn job_ctx(plan: &Plan, c: &Cell, ckpt_dir: &Path, op: u64) -> JobCtx {
    let input = &plan.inputs[c.input];
    JobCtx {
        make: Arc::clone(&input.make),
        peer: match c.kind {
            Kind::Corun { peer } => Some(Arc::clone(&plan.inputs[peer].make)),
            _ => None,
        },
        kind: c.kind,
        cfg: plan.config(c),
        label: input.name,
        ckpt_dir: ckpt_dir.to_path_buf(),
        region: plan.region,
        op,
    }
}

/// One cold pass and one warm pass over the matrix, in `dir`.
pub fn round(plan: &Plan, dir: &Path, op_base: u64) -> RoundOut {
    let cache = dir.join("cache");
    let ckpt_dir = dir.join("ckpt");
    let n = plan.cells.len();
    let lat: Arc<Vec<Mutex<Option<f64>>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let sps: Arc<Vec<Mutex<Option<SimPointSummary>>>> =
        Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let mut exp = experiment(plan, &cache, plan.workers);
    let run_start = Instant::now();
    for (i, c) in plan.cells.iter().enumerate() {
        let ctx = job_ctx(plan, c, &ckpt_dir, op_base + i as u64);
        let (lat, sps) = (Arc::clone(&lat), Arc::clone(&sps));
        exp.cell(
            plan.inputs[c.input].name,
            &plan.label(c),
            plan.key(c),
            move || {
                let t = Instant::now();
                let r = run_job(ctx, run_start, &sps[i]);
                *lat[i].lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(t.elapsed().as_secs_f64() * 1e3);
                Some(r)
            },
        );
    }
    let results = trace::span("runner.run", "sweep.cold", op_base, || exp.run());
    let cold = results
        .cells
        .iter()
        .enumerate()
        .map(|(i, cr)| ColdOut {
            stats: cr.result.as_ref().map(|r| r.stats.clone()),
            simulated: !cr.from_cache && cr.result.is_some(),
            ms: lat[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or(f64::NAN),
            simpoints: sps[i].lock().unwrap_or_else(|e| e.into_inner()).clone(),
        })
        .collect();

    let warm = plan
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let op = op_base + (n + i) as u64;
            let mut exp = experiment(plan, &cache, 1);
            let ctx = job_ctx(plan, c, &ckpt_dir, op);
            let unused = Mutex::new(None);
            exp.cell(
                plan.inputs[c.input].name,
                &plan.label(c),
                plan.key(c),
                move || Some(run_job(ctx, Instant::now(), &unused)),
            );
            let t = Instant::now();
            let r = trace::span("runner.run", "sweep.warm", op, || exp.run());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let cell = &r.cells[0];
            WarmOut {
                stats: cell.result.as_ref().map(|r| r.stats.clone()),
                from_cache: cell.from_cache,
                ms,
            }
        })
        .collect();
    RoundOut { cold, warm }
}
