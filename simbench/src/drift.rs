//! Drift guard: the benchmark's runner against the library entry points.
//!
//! Every point of a workload runs twice on the inputs the library entry
//! points generate themselves (`arcane_system::driver::conv_workload`
//! for conv layers, the suite builder's inputs for graphs): once through
//! [`crate::runner`] and once through `run_scalar_conv`,
//! `run_xcvpulp_conv`, `run_arcane_conv_with` or
//! `BuiltGraph::run_verified_with`. Every count the library reports and
//! every output must agree exactly, or the benchmark would be timing a
//! different simulation from the one the repository ships.

use crate::probe::Untraced;
use crate::runner::{run_conv, run_graph, Conv, Counters, PointRun, System};
use crate::suite::{Point, Workload};
use arcane_nn::GraphRunReport;
use arcane_system::driver::{
    conv_workload, run_arcane_conv_with, run_scalar_conv, run_xcvpulp_conv,
};
use arcane_system::RunReport;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The counts a conv [`RunReport`] carries.
fn conv_view(c: &Counters, arcane: bool) -> Counters {
    let mut v = Counters {
        cycles: c.cycles,
        instret: c.instret,
        hits: c.hits,
        misses: c.misses,
        ..Counters::default()
    };
    if arcane {
        v.stall_cycles = c.stall_cycles;
        v.preamble = c.preamble;
        v.allocation = c.allocation;
        v.compute = c.compute;
        v.writeback = c.writeback;
        v.ecpu_busy = c.ecpu_busy;
        v.ecpu_wait = c.ecpu_wait;
        v.ecpu_requests = c.ecpu_requests;
        v.host_busy = c.host_busy;
        v.host_wait = c.host_wait;
        v.host_requests = c.host_requests;
        v.vpu_busy = c.vpu_busy;
        v.vpu_wait = c.vpu_wait;
        v.vpu_requests = c.vpu_requests;
    }
    v
}

fn from_run_report(r: &RunReport) -> Counters {
    let mut c = Counters {
        cycles: r.cycles,
        instret: r.instret,
        hits: r.hits,
        misses: r.misses,
        stall_cycles: r.stall_cycles,
        ..Counters::default()
    };
    if let Some(p) = &r.phases {
        c.add_phases(p);
    }
    c.add_channels(&r.channels);
    c
}

/// The counts a [`GraphRunReport`] carries.
fn graph_view(c: &Counters) -> Counters {
    Counters {
        hits: 0,
        misses: 0,
        stalls: 0,
        stall_cycles: 0,
        cpu_cycles: 0,
        ..*c
    }
}

fn from_graph_report(r: &GraphRunReport) -> Counters {
    let mut c = Counters {
        cycles: r.cycles,
        instret: r.instret,
        kernels: r.kernels as u64,
        renames: r.renames,
        writebacks: r.writebacks,
        ..Counters::default()
    };
    c.add_phases(&r.phases);
    c.add_channels(&r.channels);
    c.add_launch(&r.launch_stats);
    c
}

fn library<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| "library entry point panicked".to_string())
}

/// Compares one point of `w`; `Ok` when runner and library agree.
fn check_point(w: &Workload, point: &Point) -> Result<(), String> {
    match point {
        Point::Conv { conv, system, .. } => {
            let p = w.convs[*conv].p;
            let (a, f) = conv_workload(&p);
            let c = Conv::from_operands(&Untraced, p, &a, &f);
            let ours: PointRun = run_conv(&Untraced, &c, *system)?;
            let (lib, arcane) = match *system {
                System::Scalar => (library(|| run_scalar_conv(&p))?, false),
                System::Xcvpulp => (library(|| run_xcvpulp_conv(&p))?, false),
                System::Arcane { cfg, instances } => {
                    (library(|| run_arcane_conv_with(cfg, &p, instances))?, true)
                }
            };
            let (mine, theirs) = (conv_view(&ours.counters, arcane), from_run_report(&lib));
            if mine != theirs {
                return Err(format!("runner {mine:?} vs library {theirs:?}"));
            }
        }
        Point::Graph {
            graph, cfg, opts, ..
        } => {
            let g = &w.graphs[*graph];
            let ours = run_graph(&Untraced, g, *cfg, opts)?;
            let lib = library(|| g.run_verified_with(*cfg, opts))?;
            let (mine, theirs) = (graph_view(&ours.counters), from_graph_report(&lib));
            if mine != theirs {
                return Err(format!("runner {mine:?} vs library {theirs:?}"));
            }
            if ours.outputs != lib.outputs {
                return Err("runner and library outputs differ".into());
            }
        }
    }
    Ok(())
}

/// Checks every point of `w`; returns one message per point that
/// drifted or failed, labelled.
pub fn check(w: &Workload) -> Vec<String> {
    w.points
        .iter()
        .filter_map(|pt| {
            catch_unwind(AssertUnwindSafe(|| check_point(w, pt)))
                .unwrap_or_else(|_| Err("runner panicked".into()))
                .err()
                .map(|e| format!("{}: {e}", pt.label()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::WORKLOADS;

    /// The guard on the full workloads, as every benchmark run makes it.
    #[test]
    fn runner_reproduces_the_library_on_every_workload() {
        for name in WORKLOADS {
            let w = Workload::build(name, 3, &Untraced).expect("known workload");
            assert_eq!(check(&w), Vec::<String>::new(), "{name}");
        }
    }

    #[test]
    fn a_changed_count_is_reported() {
        let mut c = Counters {
            cycles: 10,
            instret: 5,
            ..Counters::default()
        };
        let before = conv_view(&c, false);
        c.cycles += 1;
        assert_ne!(conv_view(&c, false), before);
        c.stall_cycles = 3;
        assert_eq!(
            conv_view(&c, false).stall_cycles,
            0,
            "baselines report none"
        );
        assert_eq!(conv_view(&c, true).stall_cycles, 3);
    }
}
