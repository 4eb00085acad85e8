//! Seeded workload inputs and the simulation arms run on them.
//!
//! Every input is derived from the benchmark's `--seed`: graphs and the
//! astar grid are generated here, and the program only ever receives the
//! prepared guest CPUs built from them by its own public factories.

use phelps::sim::{Mode, Pipeline, PreExecEngine, RunConfig, SimResult, ThreadQuota};
use phelps_isa::Cpu;
use phelps_runahead::{BrConfig, BrEngine, BrVariant};
use phelps_uarch::config::CoreConfig;
use phelps_workloads::graph::{Graph, GraphKind};
use phelps_workloads::{astar, gap, spec};
use std::sync::Arc;

/// Vertices of every generated graph (the suite's experiment scale).
pub const GRAPH_VERTICES: usize = 40_000;

/// Builds a prepared guest CPU; one call is one workload-factory call.
pub type Factory = Arc<dyn Fn() -> Cpu + Send + Sync>;

/// A named, seeded input.
#[derive(Clone)]
pub struct Input {
    pub name: &'static str,
    pub make: Factory,
    /// The generated graph and source, for inputs that are BFS runs
    /// (the output check recomputes the BFS tree on it).
    pub bfs_graph: Option<(Arc<Graph>, usize)>,
}

/// SplitMix64: decorrelates one benchmark seed into per-input seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn input(name: &'static str, make: impl Fn() -> Cpu + Send + Sync + 'static) -> Input {
    Input {
        name,
        make: Arc::new(make),
        bfs_graph: None,
    }
}

fn bfs_input(name: &'static str, g: &(Arc<Graph>, usize)) -> Input {
    let (gg, src) = (Arc::clone(&g.0), g.1);
    Input {
        name,
        make: Arc::new(move || gap::bfs(&gg, src)),
        bfs_graph: Some((Arc::clone(&g.0), src)),
    }
}

/// The lowest-numbered vertex of the largest connected component. Source
/// vertex 0 can land in a small component on some seeds, and a search
/// from there halts long before the region ends, so every seed would
/// measure different work.
pub fn bfs_source(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let (mut best, mut best_size) = (0, 0);
    for root in 0..n {
        if comp[root] != usize::MAX {
            continue;
        }
        comp[root] = root;
        let (mut stack, mut size) = (vec![root], 0);
        while let Some(u) = stack.pop() {
            size += 1;
            for &v in g.neighbors_of(u) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = root;
                    stack.push(v as usize);
                }
            }
        }
        if size > best_size {
            (best, best_size) = (root, size);
        }
    }
    best
}

/// The seeded graphs every sweep draws on, each with its search source.
pub struct Graphs {
    pub road: (Arc<Graph>, usize),
    pub uniform: (Arc<Graph>, usize),
}

pub fn graphs(seed: u64) -> Graphs {
    let with_source = |g: Graph| {
        let src = bfs_source(&g);
        (Arc::new(g), src)
    };
    Graphs {
        road: with_source(Graph::generate(
            GraphKind::RoadNetwork,
            GRAPH_VERTICES,
            mix(seed, 1),
        )),
        uniform: with_source(phelps_workloads::suite::uniform_graph(
            GRAPH_VERTICES,
            mix(seed, 2),
        )),
    }
}

pub fn astar(seed: u64) -> Input {
    let params = astar::AstarParams {
        side: 257,
        worklist: 30_000,
        seed: mix(seed, 3),
    };
    input("astar", move || astar::astar_grid(&params))
}

/// `preexec` inputs: astar and bfs over the road and the uniform graph.
pub fn preexec_inputs(seed: u64, g: &Graphs) -> Vec<Input> {
    vec![
        astar(seed),
        bfs_input("bfs", &g.road),
        bfs_input("bfs_uniform", &g.uniform),
    ]
}

/// `mainline` inputs: the GAP kernels on the road graph, astar, and the
/// SPEC-like idioms, each with seeded data. The last entry is the
/// co-run neighbour (bfs on the uniform graph).
pub fn mainline_inputs(seed: u64, g: &Graphs) -> Vec<Input> {
    let s = |k: u64| mix(seed, 100 + k);
    let on_road = |name: &'static str, f: fn(&Graph, usize, u64) -> Cpu, k: u64| {
        let (g, src) = (Arc::clone(&g.road.0), g.road.1);
        let sk = s(k);
        input(name, move || f(&g, src, sk))
    };
    vec![
        on_road("bc", |g, src, _| gap::bc(g, src), 0),
        bfs_input("bfs", &g.road),
        on_road("pr", |g, _, _| gap::pr(g, 4), 0),
        on_road("cc", |g, _, _| gap::cc(g, 24), 0),
        on_road("cc_sv", |g, _, _| gap::cc_sv(g, 24), 0),
        on_road("sssp", |g, src, sk| gap::sssp(g, src, 48, sk), 1),
        on_road("tc", |g, _, _| gap::tc(g), 0),
        astar(seed),
        input("mcf", {
            let k = s(2);
            move || spec::mcf_like(400_000, k)
        }),
        input("leela", {
            let k = s(3);
            move || spec::leela_like(60_000, 24, k)
        }),
        input("omnetpp", {
            let k = s(4);
            move || spec::omnetpp_like(15_000, 30, k)
        }),
        input("exchange2", || spec::exchange2_like(6_000)),
        input("xz", {
            let k = s(5);
            move || spec::xz_like(120_000, 3, k)
        }),
        input("gcc", {
            let k = s(6);
            move || spec::gcc_like(600, 80, k)
        }),
        input("x264", || spec::x264_like(150_000)),
        input("deepsjeng", {
            let k = s(7);
            move || spec::deepsjeng_like(30_000, k)
        }),
        input("perlbench", {
            let k = s(8);
            move || spec::perlbench_like(300_000, k)
        }),
        input("xalanc", {
            let k = s(9);
            move || spec::xalanc_like(4_096, 60_000, k)
        }),
        bfs_input("bfs_uniform", &g.uniform),
    ]
}

/// What one cell simulates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arm {
    /// A plain simulation mode, named by its `phelps-serve` label.
    Mode(&'static str),
    /// Branch Runahead.
    Br(BrVariant),
}

impl Arm {
    pub fn label(self) -> &'static str {
        match self {
            Arm::Mode(m) => m,
            Arm::Br(BrVariant::Speculative) => "br",
            Arm::Br(BrVariant::NonSpeculative) => "br_nonspec",
            Arm::Br(BrVariant::TwelveWide) => "br_12w",
        }
    }

    /// Main-thread-only modes retire no helper instructions.
    pub fn mt_only(self) -> bool {
        matches!(
            self,
            Arm::Mode("baseline") | Arm::Mode("perfect_bp") | Arm::Mode("partition_only")
        )
    }

    pub fn mode(self) -> Mode {
        match self {
            Arm::Mode(m) => phelps_serve::protocol::parse_mode(m).expect("known mode label"),
            Arm::Br(_) => Mode::Baseline,
        }
    }

    pub fn config(self, region: u64, epoch: u64) -> RunConfig {
        RunConfig::quick(self.mode(), region, epoch)
    }

    /// The result-cache key the runner's own cell builders use for this
    /// arm (`cfg_cell` / `br_cell`).
    pub fn key(self, cfg: &RunConfig) -> String {
        match self {
            Arm::Mode(_) => format!("{cfg:?}"),
            Arm::Br(v) => format!("{cfg:?}|{v:?}"),
        }
    }

    /// Simulates through the program's public entry points.
    pub fn simulate(self, cpu: Cpu, cfg: &RunConfig) -> SimResult {
        match self {
            Arm::Mode(_) => phelps::sim::simulate(cpu, cfg),
            Arm::Br(v) => phelps_runahead::simulate_runahead(cpu, cfg, v),
        }
    }
}

/// The pipeline `simulate_runahead` builds, with its engine passed
/// through `wrap` (a timing wrapper, or the identity).
pub fn br_pipeline<E: PreExecEngine>(
    cpu: Cpu,
    cfg: &RunConfig,
    variant: BrVariant,
    wrap: impl FnOnce(BrEngine) -> E,
) -> Pipeline<E> {
    let base = CoreConfig::paper_default();
    let (core, mt_quota) = match variant {
        BrVariant::TwelveWide => (
            CoreConfig::br_12_wide(),
            ThreadQuota {
                width: base.width,
                rob: base.rob,
                lq: base.lq,
                sq: base.sq,
                prf: base.prf,
            },
        ),
        _ => (
            base.clone(),
            ThreadQuota {
                width: base.width / 2,
                rob: base.rob,
                lq: base.lq / 2,
                sq: base.sq,
                prf: base.prf / 2,
            },
        ),
    };
    let side_quota = ThreadQuota {
        width: base.width / 2,
        rob: base.rob / 2,
        lq: base.lq / 2,
        sq: 8,
        prf: base.prf / 2,
    };
    let mut engine = BrEngine::new(BrConfig {
        speculative: variant != BrVariant::NonSpeculative,
        epoch_len: cfg.epoch_len,
        delinq_threshold: cfg.delinq_threshold(),
    });
    engine.seed_mt_regs(mt_regs(&cpu));
    let mut p = Pipeline::new(
        cpu,
        core,
        &Mode::Baseline,
        Some(wrap(engine)),
        cfg.max_mt_insts,
    );
    p.set_quotas(mt_quota, side_quota);
    p
}

/// The pipeline `simulate` builds for a Phelps mode, with its engine
/// passed through `wrap`.
pub fn phelps_pipeline<E: PreExecEngine>(
    cpu: Cpu,
    cfg: &RunConfig,
    wrap: impl FnOnce(phelps::sim::PhelpsEngine) -> E,
) -> Pipeline<E> {
    let Mode::Phelps(features) = cfg.mode else {
        panic!("phelps_pipeline needs a Phelps mode");
    };
    let mut engine = phelps::sim::PhelpsEngine::new(
        cfg.epoch_len,
        cfg.delinq_threshold(),
        cfg.constructor.clone(),
        features,
    );
    engine.seed_mt_regs(mt_regs(&cpu));
    Pipeline::new(
        cpu,
        cfg.core.clone(),
        &cfg.mode,
        Some(wrap(engine)),
        cfg.max_mt_insts,
    )
}

fn mt_regs(cpu: &Cpu) -> [u64; phelps_isa::NUM_REGS] {
    let mut regs = [0u64; phelps_isa::NUM_REGS];
    for r in phelps_isa::Reg::all() {
        regs[r.index()] = cpu.reg(r);
    }
    regs
}
