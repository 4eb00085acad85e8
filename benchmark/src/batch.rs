//! The `preexec` and `mainline` workloads: sweeps through the public
//! `Experiment` runner, cold then warm, in whole rounds.

use crate::checks::{self, Checker};
use crate::inputs::{self, Arm};
use crate::sweep::{self, Cell, Kind, Plan, RoundOut};
use crate::{probes, stats, Args, Report, Tally};
use phelps_runahead::BrVariant;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    Preexec,
    Mainline,
}

/// Region and epoch of the helper-thread sweep (long regions: helpers
/// engage after the first epochs).
const PREEXEC_REGION: u64 = 200_000;
const PREEXEC_EPOCH: u64 = 40_000;
/// Region and epoch of the main-thread-only sweep (short regions).
const MAINLINE_REGION: u64 = 100_000;
const MAINLINE_EPOCH: u64 = 25_000;
/// Instructions profiled by the SimPoint cell.
const SIMPOINT_PROFILE: u64 = 1_000_000;

const PREEXEC_ARMS: [Arm; 6] = [
    Arm::Mode("phelps"),
    Arm::Mode("phelps:b1"),
    Arm::Mode("phelps:b1b2"),
    Arm::Mode("phelps:b1s1"),
    Arm::Br(BrVariant::Speculative),
    Arm::Br(BrVariant::NonSpeculative),
];
const MAINLINE_ARMS: [Arm; 3] = [
    Arm::Mode("baseline"),
    Arm::Mode("perfect_bp"),
    Arm::Mode("partition_only"),
];

pub fn plan(kind: SweepKind, seed: u64) -> Plan {
    let g = inputs::graphs(seed);
    match kind {
        SweepKind::Preexec => {
            let inputs = inputs::preexec_inputs(seed, &g);
            let cells = (0..inputs.len())
                .flat_map(|input| {
                    PREEXEC_ARMS.map(|a| Cell {
                        input,
                        kind: Kind::Arm(a),
                    })
                })
                .collect();
            Plan {
                name: "bench-preexec",
                inputs,
                cells,
                region: PREEXEC_REGION,
                epoch: PREEXEC_EPOCH,
                workers: crate::WORKERS,
            }
        }
        SweepKind::Mainline => {
            let inputs = inputs::mainline_inputs(seed, &g);
            let peer = inputs.len() - 1;
            let idx = |name: &str| inputs.iter().position(|i| i.name == name).expect("input");
            let arms: Vec<Cell> = (0..peer)
                .flat_map(|input| {
                    MAINLINE_ARMS.map(|a| Cell {
                        input,
                        kind: Kind::Arm(a),
                    })
                })
                .collect();
            // The co-run and SimPoint cells hold the most memory. Each
            // leads a third of the other cells, so no two of them run at
            // once on the two workers and the peak resident set does not
            // depend on how the workers happen to pair cells.
            let heavy = [
                Cell {
                    input: idx("bfs"),
                    kind: Kind::Corun { peer },
                },
                Cell {
                    input: idx("bfs"),
                    kind: Kind::SimPoints {
                        profile: SIMPOINT_PROFILE,
                    },
                },
                Cell {
                    input: idx("mcf"),
                    kind: Kind::Corun { peer },
                },
            ];
            let third = arms.len().div_ceil(heavy.len());
            let cells = heavy
                .into_iter()
                .zip(arms.chunks(third))
                .flat_map(|(h, rest)| std::iter::once(h).chain(rest.iter().copied()))
                .collect();
            Plan {
                name: "bench-mainline",
                inputs,
                cells,
                region: MAINLINE_REGION,
                epoch: MAINLINE_EPOCH,
                workers: crate::WORKERS,
            }
        }
    }
}

fn class(kind: Kind) -> &'static str {
    match kind {
        Kind::Arm(_) => "cold_cell",
        Kind::Corun { .. } => "cold_corun_cell",
        Kind::SimPoints { .. } => "cold_simpoint_cell",
    }
}

pub fn workload(args: &Args, work: &Path, kind: SweepKind) -> Result<Report, String> {
    let mut rep = Report::default();
    let (setup_s, plan) = crate::timed_setup(|| {
        crate::fresh_dir(work)?;
        Ok(plan(kind, args.seed))
    })?;
    let mut calib = vec![crate::calib_ms()];
    let mut rounds: Vec<RoundOut> = Vec::new();
    let n = plan.cells.len() as u64;
    let timed = crate::timed_rounds(args, |i| {
        let t0 = Instant::now();
        let out = sweep::round(&plan, &work.join(format!("r{i}")), i as u64 * 2 * n);
        let mut t = Tally {
            wall_s: t0.elapsed().as_secs_f64(),
            ..Tally::default()
        };
        for cold in &out.cold {
            t.ops += 1;
            if cold.simulated {
                if let Some(s) = &cold.stats {
                    t.add_sim(s);
                }
                t.cold_ms.push(cold.ms);
            }
        }
        for warm in &out.warm {
            t.ops += 1;
            if warm.from_cache {
                t.hit_ms.push(warm.ms);
            }
        }
        rounds.push(out);
        Ok(t)
    })?;
    calib.push(crate::calib_ms());
    for (i, _) in rounds.iter().enumerate() {
        let _ = std::fs::remove_dir_all(work.join(format!("r{i}")));
    }

    // Operation accounting: a cold cell must simulate on the empty
    // cache; a warm cell must be answered from the cache.
    for out in &rounds {
        for (c, cold) in plan.cells.iter().zip(&out.cold) {
            rep.op(class(c.kind), !cold.simulated || cold.stats.is_none());
        }
        for w in &out.warm {
            rep.op("warm_cell", !w.from_cache || w.stats.is_none());
        }
    }
    check(&mut rep.checks, &plan, kind, &rounds);

    if args.trace {
        probes::per_layer(&mut rep, &plan, &calib)?;
        crate::trace_overhead(&mut rep, &timed);
        let path =
            Path::new(".bench_out").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        crate::trace::write_out(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        eprintln!("[bench] host.calib_ms {:.2}", stats::median(&calib));
        crate::end_to_end(&mut rep, setup_s, &timed);
    }
    Ok(rep)
}

fn check(chk: &mut Checker, plan: &Plan, kind: SweepKind, rounds: &[RoundOut]) {
    let first = &rounds[0];
    // Every round simulates the same inputs, and every warm answer must
    // equal the simulated result for the same fingerprint.
    for (k, out) in rounds.iter().enumerate() {
        for (i, c) in plan.cells.iter().enumerate() {
            let what = format!("round {k} {}/{}", plan.inputs[c.input].name, plan.label(c));
            chk.check(out.cold[i].stats == first.cold[i].stats, || {
                format!("{what}: cold result differs from round 0")
            });
            chk.check(out.warm[i].stats == out.cold[i].stats, || {
                format!("{what}: warm cache answer differs from the simulated result")
            });
        }
    }

    let expect: Vec<u64> = plan
        .inputs
        .iter()
        .map(|i| checks::expected_retired(i, plan.region))
        .collect();
    let stats_of = |input: &str, label: &str| {
        plan.cells
            .iter()
            .position(|c| plan.inputs[c.input].name == input && plan.label(c) == label)
            .and_then(|i| first.cold[i].stats.clone())
    };
    for (c, cold) in plan.cells.iter().zip(&first.cold) {
        let what = format!("{}/{}", plan.inputs[c.input].name, plan.label(c));
        let Some(s) = &cold.stats else {
            chk.check(false, || format!("{what}: no result"));
            continue;
        };
        match c.kind {
            Kind::Arm(a) => checks::cell(chk, &what, s, expect[c.input], Some(a)),
            Kind::Corun { .. } => {
                checks::cell(chk, &what, s, expect[c.input], None);
                let solo = stats_of(plan.inputs[c.input].name, "baseline");
                let solo_ipc = solo.map_or(f64::NAN, |s| s.ipc());
                chk.check(s.ipc() <= solo_ipc, || {
                    format!("{what}: co-run IPC {} above solo IPC {solo_ipc}", s.ipc())
                });
            }
            Kind::SimPoints { .. } => match &cold.simpoints {
                Some(sp) => checks::simpoints(chk, &what, &sp.weights, &sp.ipcs, sp.hmean),
                None => chk.check(false, || format!("{what}: no SimPoint summary")),
            },
        }
    }
    if kind == SweepKind::Preexec {
        let ipc = |label| stats_of("astar", label).map_or(f64::NAN, |s| s.ipc());
        let (phelps, br) = (ipc("phelps"), ipc("br"));
        chk.check(phelps > br, || {
            format!("astar: Phelps IPC {phelps} does not beat Branch Runahead's {br}")
        });
    }

    // Retire stream and final state of each (workload, mode) pair against
    // the emulator, split over the worker count.
    let pairs: Vec<(usize, Arm, phelps_uarch::stats::SimStats)> = plan
        .cells
        .iter()
        .zip(&first.cold)
        .filter_map(|(c, cold)| match (c.kind, &cold.stats) {
            (Kind::Arm(a), Some(s)) => Some((c.input, a, s.clone())),
            _ => None,
        })
        .collect();
    let parts: Vec<Checker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..crate::WORKERS)
            .map(|w| {
                let pairs = &pairs;
                s.spawn(move || {
                    let mut chk = Checker::default();
                    for (input, arm, st) in pairs.iter().skip(w).step_by(crate::WORKERS) {
                        let cfg = arm.config(plan.region, plan.epoch);
                        checks::observed(&mut chk, &plan.inputs[*input], *arm, &cfg, st);
                    }
                    chk
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Checker {
                    run: 1,
                    failures: vec!["an emulator comparison panicked".into()],
                })
            })
            .collect()
    });
    for p in parts {
        chk.run += p.run;
        chk.failures.extend(p.failures);
    }
    for input in &plan.inputs {
        checks::guest_bfs(chk, input);
    }
}
