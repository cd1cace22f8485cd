//! The benchmark's workloads and the paper's published anchors.
//!
//! Every workload is a single closed-loop client: one pass visits every
//! point once and the next pass starts when it returns. All operands
//! derive from the run's `--seed`.

use crate::probe::{Probe, Span};
use crate::runner::{run_conv, run_graph, Conv, PointRun, System};
use arcane_core::{ArcaneConfig, SchedulerKind};
use arcane_fabric::ArbiterKind;
use arcane_nn::suite::{self, BuiltGraph};
use arcane_nn::{CompileOptions, HostTraffic, LaunchMode};
use arcane_sim::Sew;
use arcane_system::ConvLayerParams;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper_fig4", "nn_chain", "mixed_fabric"];

/// The paper's published speed-ups (256×256 int8 conv layer, §V-C and
/// the conclusion): per-layer metric name and value.
pub const ANCHORS: [(&str, f64); 5] = [
    ("anchor.arcane8_3x3", 30.0),
    ("anchor.arcane8_7x7", 84.0),
    ("anchor.arcane8x4_7x7", 120.0),
    ("anchor.xcvpulp_7x7", 8.6),
    ("anchor.arcane8_vs_xcvpulp_7x7", 16.0),
];

/// One point of a pass.
#[derive(Debug, Clone)]
pub enum Point {
    /// A conv layer (index into [`Workload::convs`]) on one system.
    Conv {
        /// Row label.
        label: String,
        /// Operands.
        conv: usize,
        /// System that runs it.
        system: System,
    },
    /// A graph (index into [`Workload::graphs`]) compiled and run.
    Graph {
        /// Row label.
        label: String,
        /// Graph.
        graph: usize,
        /// LLC configuration.
        cfg: ArcaneConfig,
        /// Compiler options.
        opts: CompileOptions,
    },
}

impl Point {
    /// The point's row label.
    pub fn label(&self) -> &str {
        match self {
            Point::Conv { label, .. } | Point::Graph { label, .. } => label,
        }
    }
}

/// Operands, golden outputs and the points of one pass.
pub struct Workload {
    /// Conv-layer operands.
    pub convs: Vec<Conv>,
    /// Graph workloads from the `arcane_nn` suite builders.
    pub graphs: Vec<BuiltGraph>,
    /// The points of one pass, in run order.
    pub points: Vec<Point>,
}

/// A distinct generator seed for the `part`-th input of a run.
fn sub_seed(seed: u64, part: u64) -> u64 {
    seed.wrapping_mul(16).wrapping_add(part)
}

fn lanes8(n_vpus: usize) -> ArcaneConfig {
    let mut cfg = ArcaneConfig::with_lanes(8);
    cfg.n_vpus = n_vpus;
    cfg
}

fn int8_conv(size: usize, k: usize) -> ConvLayerParams {
    ConvLayerParams::new(size, size, k, Sew::Byte)
}

/// The four systems of Figure 4 on conv `conv` (filter `k`).
fn fig4_points(points: &mut Vec<Point>, conv: usize, k: usize) {
    let systems = [
        ("CV32E40X", System::Scalar),
        ("XCVPULP", System::Xcvpulp),
        (
            "ARCANE-8",
            System::Arcane {
                cfg: ArcaneConfig::with_lanes(8),
                instances: 1,
            },
        ),
        (
            "ARCANE-8 x4",
            System::Arcane {
                cfg: ArcaneConfig::with_lanes(8),
                instances: 4,
            },
        ),
    ];
    for (name, system) in systems {
        points.push(Point::Conv {
            label: format!("{k}x{k} {name}"),
            conv,
            system,
        });
    }
}

impl Workload {
    /// Generates the operands and golden outputs of workload `name`
    /// (`None` for an unknown name).
    pub fn build<P: Probe>(name: &str, seed: u64, probe: &P) -> Option<Workload> {
        let mut w = Workload {
            convs: Vec::new(),
            graphs: Vec::new(),
            points: Vec::new(),
        };
        match name {
            // Figure 4 at 128×128: the RV32 ISS and the standard LLC's
            // host-access path do most of the work.
            "paper_fig4" => {
                for (i, k) in [3, 7].into_iter().enumerate() {
                    w.convs.push(Conv::generate(
                        probe,
                        int8_conv(128, k),
                        sub_seed(seed, i as u64),
                    ));
                    fig4_points(&mut w.points, i, k);
                }
            }
            // Kernel chains: compile, C-RT offload, VPU execute, fabric
            // calendars and SoC construction do the work.
            "nn_chain" => {
                w.graphs.push(probe.span(Span::Gen, || {
                    suite::transformer_block(32, 48, 64, Sew::Byte, sub_seed(seed, 0))
                }));
                w.graphs.push(probe.span(Span::Gen, || {
                    suite::residual_bottleneck(64, 64, Sew::Byte, sub_seed(seed, 1))
                }));
                w.graphs.push(probe.span(Span::Gen, || {
                    suite::depthwise_separable(20, 20, 3, Sew::Byte, sub_seed(seed, 2))
                }));
                let mut graph_point = |graph: usize, opts: CompileOptions| {
                    let n = opts.instances;
                    w.points.push(Point::Graph {
                        label: format!("{} x{n} {}", w.graphs[graph].name, opts.launch),
                        graph,
                        cfg: lanes8(n),
                        opts,
                    });
                };
                for launch in LaunchMode::ALL {
                    for n in [1, 2, 4] {
                        graph_point(
                            0,
                            CompileOptions {
                                launch,
                                ..CompileOptions::with_instances(n)
                            },
                        );
                    }
                }
                for n in [1, 4] {
                    graph_point(1, CompileOptions::descriptor(n));
                }
                for n in [1, 4] {
                    graph_point(2, CompileOptions::with_instances(n));
                }
            }
            // Host stores and dirty writebacks beside kernel traffic,
            // under the burst arbiters.
            "mixed_fabric" => {
                w.graphs.push(probe.span(Span::Gen, || {
                    suite::transformer_block(32, 48, 64, Sew::Byte, sub_seed(seed, 0))
                }));
                w.convs
                    .push(Conv::generate(probe, int8_conv(128, 7), sub_seed(seed, 1)));
                for arbiter in [ArbiterKind::RoundRobinBurst, ArbiterKind::PriorityHost] {
                    for launch in LaunchMode::ALL {
                        let mut cfg = lanes8(4);
                        cfg.scheduler = SchedulerKind::RoundRobin;
                        cfg.fabric.arbiter = arbiter;
                        w.points.push(Point::Graph {
                            label: format!("transformer x4 {launch} {} +host", arbiter.name()),
                            graph: 0,
                            cfg,
                            opts: CompileOptions {
                                instances: 4,
                                host_traffic: Some(HostTraffic::new(2, 24 * 1024)),
                                launch,
                            },
                        });
                    }
                }
                let mut cfg = lanes8(4);
                cfg.fabric.arbiter = ArbiterKind::RoundRobinBurst;
                w.points.push(Point::Conv {
                    label: "7x7 ARCANE-8 x4 round-robin-burst".into(),
                    conv: 0,
                    system: System::Arcane { cfg, instances: 4 },
                });
            }
            _ => return None,
        }
        Some(w)
    }

    /// The 256×256 int8 runs behind [`ANCHORS`]: CV32E40X, ARCANE-8 on
    /// 3×3; CV32E40X, XCVPULP, ARCANE-8, ARCANE-8 ×4 on 7×7.
    pub fn anchors<P: Probe>(seed: u64, probe: &P) -> Workload {
        let mut w = Workload {
            convs: Vec::new(),
            graphs: Vec::new(),
            points: Vec::new(),
        };
        for (i, k) in [3, 7].into_iter().enumerate() {
            w.convs.push(Conv::generate(
                probe,
                int8_conv(256, k),
                sub_seed(seed, 8 + i as u64),
            ));
            fig4_points(&mut w.points, i, k);
        }
        // 3×3 needs neither XCVPULP nor ARCANE-8 ×4.
        w.points.remove(3);
        w.points.remove(1);
        w
    }

    /// Runs point `i` and verifies its outputs.
    ///
    /// # Errors
    ///
    /// Describes the fault, exhausted fuel, compile error or output
    /// mismatch that failed the point.
    pub fn run_point<P: Probe>(&self, probe: &P, i: usize) -> Result<PointRun, String> {
        match &self.points[i] {
            Point::Conv { conv, system, .. } => run_conv(probe, &self.convs[*conv], *system),
            Point::Graph {
                graph, cfg, opts, ..
            } => run_graph(probe, &self.graphs[*graph], *cfg, opts),
        }
    }
}

/// Speed-ups of [`ANCHORS`] from the cycles of the
/// [`Workload::anchors`] points, in their order.
pub fn anchor_speedups(cycles: &[u64; 6]) -> [f64; 5] {
    let [s3, a3, s7, v7, a7, m7] = cycles.map(|c| c as f64);
    [s3 / a3, s7 / a7, s7 / m7, s7 / v7, v7 / a7]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Untraced;

    #[test]
    fn workloads_have_the_documented_points() {
        let counts: Vec<usize> = WORKLOADS
            .iter()
            .map(|n| {
                Workload::build(n, 1, &Untraced)
                    .expect("known")
                    .points
                    .len()
            })
            .collect();
        assert_eq!(counts, [8, 10, 5]);
        assert!(Workload::build("nope", 1, &Untraced).is_none());
    }

    #[test]
    fn anchor_points_line_up_with_the_speedup_formula() {
        let w = Workload::anchors(1, &Untraced);
        let labels: Vec<&str> = w.points.iter().map(Point::label).collect();
        assert_eq!(
            labels,
            [
                "3x3 CV32E40X",
                "3x3 ARCANE-8",
                "7x7 CV32E40X",
                "7x7 XCVPULP",
                "7x7 ARCANE-8",
                "7x7 ARCANE-8 x4"
            ]
        );
        let s = anchor_speedups(&[300, 10, 840, 100, 10, 7]);
        assert_eq!(s, [30.0, 84.0, 120.0, 8.4, 10.0]);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Workload::build("mixed_fabric", 7, &Untraced).expect("known");
        let b = Workload::build("mixed_fabric", 7, &Untraced).expect("known");
        let c = Workload::build("mixed_fabric", 8, &Untraced).expect("known");
        assert_eq!(a.convs[0].a, b.convs[0].a);
        assert_eq!(a.graphs[0].inputs, b.graphs[0].inputs);
        assert_ne!(a.convs[0].a, c.convs[0].a);
    }
}
