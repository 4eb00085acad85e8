//! Output checks. Each compares the program's output against a result
//! computed apart from it (the functional emulator stepped on its own, a
//! BFS written here) or against a property the method must have; none
//! compares against a stored copy of earlier output.

use crate::inputs::{br_pipeline, Arm, Input};
use phelps::sim::{RunConfig, SimResult};
use phelps_isa::Reg;
use phelps_uarch::config::CoreConfig;
use phelps_uarch::stats::SimStats;
use phelps_workloads::graph::{layout, Graph};

/// Counts checks and keeps the message of each that failed.
#[derive(Default)]
pub struct Checker {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Instructions the emulator retires from `input` within `region`:
/// the region itself, or the halt count when the program halts first.
pub fn expected_retired(input: &Input, region: u64) -> u64 {
    let mut cpu = (input.make)();
    cpu.run(region).unwrap_or(0)
}

/// Properties every simulated cell must have.
pub fn cell(chk: &mut Checker, what: &str, s: &SimStats, expect_retired: u64, arm: Option<Arm>) {
    chk.check(s.mt_retired == expect_retired, || {
        format!(
            "{what}: retired {} instructions, expected {expect_retired}",
            s.mt_retired
        )
    });
    let width = f64::from(CoreConfig::paper_default().width);
    let ipc = s.ipc();
    chk.check(ipc > 0.0 && ipc <= width, || {
        format!("{what}: IPC {ipc} outside (0, {width}]")
    });
    if arm == Some(Arm::Mode("perfect_bp")) {
        chk.check(s.mt_mispredicts == 0, || {
            format!(
                "{what}: perfect_bp mispredicted {} branches",
                s.mt_mispredicts
            )
        });
    }
    if arm.is_none_or(Arm::mt_only) {
        chk.check(s.ht_retired == 0, || {
            format!(
                "{what}: main-thread-only cell retired {} helper instructions",
                s.ht_retired
            )
        });
    }
}

/// Re-runs `(input, arm)` with retire logging and compares the retired
/// stream and final architectural state against a plain emulator run,
/// and the statistics against `expect` (the sweep's result).
pub fn observed(chk: &mut Checker, input: &Input, arm: Arm, cfg: &RunConfig, expect: &SimStats) {
    let what = format!("{}/{}", input.name, arm.label());
    let r: SimResult = match arm {
        Arm::Mode(_) => phelps::sim::simulate_observed((input.make)(), cfg),
        Arm::Br(v) => {
            let mut p = br_pipeline((input.make)(), cfg, v, |e| e);
            p.record_retires();
            p.run()
        }
    };
    chk.check(r.stats == *expect, || {
        format!("{what}: observed run's statistics differ from the sweep's")
    });
    let (Some(log), Some(fs)) = (r.retire_log.as_ref(), r.final_state.as_ref()) else {
        chk.check(false, || {
            format!("{what}: observed run carries no retire log")
        });
        return;
    };
    chk.check(log.len() as u64 == r.stats.mt_retired, || {
        format!(
            "{what}: retire log holds {} records for {} retired",
            log.len(),
            r.stats.mt_retired
        )
    });
    let mut cpu = (input.make)();
    let mismatch = log
        .iter()
        .position(|rec| !cpu.step().is_ok_and(|e| e == *rec));
    chk.check(mismatch.is_none(), || {
        format!(
            "{what}: retired record {} differs from the emulator's",
            mismatch.unwrap_or(0)
        )
    });
    if mismatch.is_some() {
        return;
    }
    // The pipeline's register file is written only at retire, so a
    // register no retired instruction wrote reads 0 there.
    let mut written = [false; phelps_isa::NUM_REGS];
    for rec in log {
        if let Some(d) = rec.inst.dst() {
            written[d.index()] = true;
        }
    }
    let bad_reg = Reg::all().find(|r| {
        let want = if written[r.index()] { cpu.reg(*r) } else { 0 };
        fs.mt_regs[r.index()] != want
    });
    chk.check(bad_reg.is_none(), || {
        format!("{what}: final register {bad_reg:?} differs from the emulator's")
    });
    let diff = fs.mem.first_difference(&cpu.mem);
    chk.check(diff.is_none(), || {
        format!("{what}: final memory differs from the emulator's at {diff:?}")
    });
}

/// The BFS tree the guest kernel builds: level-synchronous, neighbours
/// in CSR order, first visitor becomes the parent.
pub fn bfs_parents(g: &Graph, source: usize) -> Vec<u64> {
    let mut parent = vec![u64::MAX; g.num_vertices()];
    parent[source] = source as u64;
    let mut frontier = vec![source];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors_of(u) {
                if parent[v as usize] == u64::MAX {
                    parent[v as usize] = u as u64;
                    next.push(v as usize);
                }
            }
        }
        frontier = next;
    }
    parent
}

/// Runs the guest BFS of `input` to halt on the emulator and compares its
/// parent array with [`bfs_parents`]; inputs without a graph are skipped.
pub fn guest_bfs(chk: &mut Checker, input: &Input) {
    let Some((g, src)) = input.bfs_graph.as_ref() else {
        return;
    };
    let mut cpu = (input.make)();
    let _ = cpu.run(u64::MAX);
    chk.check(cpu.is_halted(), || {
        format!("{}: guest BFS did not halt", input.name)
    });
    let want = bfs_parents(g, *src);
    let bad =
        (0..want.len()).find(|&v| cpu.mem.read_u64(layout::ARRAY_A + 8 * v as u64) != want[v]);
    chk.check(bad.is_none(), || {
        format!(
            "{}: guest BFS parent of vertex {bad:?} differs from the reference",
            input.name
        )
    });
}

/// SimPoint weights sum to one, and the harmonic-mean IPC lies between
/// the lowest and highest point IPC.
pub fn simpoints(chk: &mut Checker, what: &str, weights: &[f64], ipcs: &[f64], hmean: f64) {
    let sum: f64 = weights.iter().sum();
    chk.check(!weights.is_empty() && (sum - 1.0).abs() < 1e-9, || {
        format!("{what}: SimPoint weights sum to {sum}")
    });
    let lo = ipcs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ipcs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let eps = 1e-12 * hi.abs();
    chk.check(hmean >= lo - eps && hmean <= hi + eps, || {
        format!("{what}: harmonic-mean IPC {hmean} outside [{lo}, {hi}]")
    });
}
