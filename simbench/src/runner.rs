//! The benchmark's own step-wise point runner.
//!
//! It performs the steps of `arcane_system::driver` and
//! `arcane_nn::run_graph` one public call at a time (build the SoC,
//! compile, assemble, seed memory, run the ISS, verify), wiring the host
//! core to `Sram` plus `StandardLlc`/`ArcaneLlc` itself so that every
//! `host_access` and every CV-X-IF offload passes through a [`Probe`].
//! The timed and the traced run share this code; `crate::drift` checks
//! that it reproduces the library entry points exactly.

use crate::probe::{Probe, Span};
use arcane_core::{ArcaneConfig, ArcaneLlc, StandardLlc};
use arcane_mem::{Access, AccessSize, Bus, BusError, Memory, Sram};
use arcane_nn::suite::BuiltGraph;
use arcane_nn::{compile, CompileOptions};
use arcane_rv32::{Coprocessor, Cpu, CpuError, NoCoprocessor, RunResult, StopReason, XifResponse};
use arcane_sim::{ChannelUtil, EngineMode, LaunchStats, PhaseBreakdown};
use arcane_system::programs::{offload, pulp, scalar};
use arcane_system::{ConvLayerParams, Layout, EXT_BASE, IMEM_SIZE};
use arcane_workloads::{conv_layer_3ch, conv_layer_3ch_cpu, random_matrix, rng, Matrix};
use std::cell::RefCell;

/// Instruction budget per point (the library entry points' budget).
const FUEL: u64 = 4_000_000_000;

/// Operand value range of generated conv inputs, as in
/// `arcane_system::driver`.
const RANGE: i64 = 4;

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Exact simulated-machine counts of one or more points.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl std::ops::AddAssign for Counters {
            fn add_assign(&mut self, o: Counters) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

counters! {
    /// Simulated cycles: host run, or last kernel writeback if later.
    cycles,
    /// Host-core cycles of the ISS run alone.
    cpu_cycles,
    /// RV32 instructions retired.
    instret,
    /// LLC host-access hits.
    hits,
    /// LLC host-access misses.
    misses,
    /// Dirty lines written back.
    writebacks,
    /// Host accesses stalled by locks or busy lines.
    stalls,
    /// Cycles those stalls cost.
    stall_cycles,
    /// Near-memory kernels completed.
    kernels,
    /// `xmr` rebinds resolved by renaming.
    renames,
    /// Kernel preamble cycles.
    preamble,
    /// Kernel allocation cycles.
    allocation,
    /// Kernel compute cycles.
    compute,
    /// Kernel writeback cycles.
    writeback,
    /// eCPU busy cycles.
    ecpu_busy,
    /// Cycles clients waited for the eCPU.
    ecpu_wait,
    /// eCPU requests.
    ecpu_requests,
    /// Fabric host-port busy cycles.
    host_busy,
    /// Fabric host-port wait cycles.
    host_wait,
    /// Fabric host-port requests.
    host_requests,
    /// Fabric VPU-port busy cycles, summed over ports.
    vpu_busy,
    /// Fabric VPU-port wait cycles, summed over ports.
    vpu_wait,
    /// Fabric VPU-port requests, summed over ports.
    vpu_requests,
    /// Descriptor batches decoded.
    batches,
    /// Launch descriptors replayed.
    descriptors,
    /// Operand bindings the descriptors installed.
    bindings,
    /// eCPU cycles of batch decode.
    decode_cycles,
}

impl Counters {
    /// Adds a kernel phase breakdown.
    pub fn add_phases(&mut self, p: &PhaseBreakdown) {
        self.preamble += p.preamble;
        self.allocation += p.allocation;
        self.compute += p.compute;
        self.writeback += p.writeback;
    }

    /// Adds per-channel utilisation rows (`ecpu`, `host`, `vpu0`, …).
    pub fn add_channels(&mut self, rows: &[ChannelUtil]) {
        for r in rows {
            let (busy, wait, req) = match r.label.as_str() {
                "ecpu" => (
                    &mut self.ecpu_busy,
                    &mut self.ecpu_wait,
                    &mut self.ecpu_requests,
                ),
                "host" => (
                    &mut self.host_busy,
                    &mut self.host_wait,
                    &mut self.host_requests,
                ),
                _ => (
                    &mut self.vpu_busy,
                    &mut self.vpu_wait,
                    &mut self.vpu_requests,
                ),
            };
            *busy += r.busy_cycles;
            *wait += r.wait_cycles;
            *req += r.requests;
        }
    }

    /// Adds descriptor launch-pipeline counters.
    pub fn add_launch(&mut self, s: &LaunchStats) {
        self.batches += s.batches;
        self.descriptors += s.descriptors;
        self.bindings += s.bindings;
        self.decode_cycles += s.decode_cycles;
    }
}

/// A 3-channel conv layer's operands and golden outputs.
pub struct Conv {
    /// Layer shape.
    pub p: ConvLayerParams,
    /// Input planes, encoded at the element width.
    pub a: Vec<u8>,
    /// Filter planes, encoded at the element width.
    pub f: Vec<u8>,
    /// Golden output under the CPU baselines' semantics.
    pub golden_cpu: Matrix,
    /// Golden output under the VPU semantics.
    pub golden_vpu: Matrix,
}

impl Conv {
    /// Draws operands from `arcane_workloads::rng(seed)` and derives
    /// both golden outputs.
    pub fn generate<P: Probe>(probe: &P, p: ConvLayerParams, seed: u64) -> Conv {
        let (a, f) = probe.span(Span::Gen, || {
            let mut r = rng(seed);
            let a = random_matrix(&mut r, 3 * p.h, p.w, p.sew, RANGE);
            let f = random_matrix(&mut r, 3 * p.k, p.k, p.sew, RANGE);
            (a, f)
        });
        Conv::from_operands(probe, p, &a, &f)
    }

    /// Wraps given operands, deriving both golden outputs.
    pub fn from_operands<P: Probe>(probe: &P, p: ConvLayerParams, a: &Matrix, f: &Matrix) -> Conv {
        let (golden_cpu, golden_vpu) = probe.span(Span::Golden, || {
            (conv_layer_3ch_cpu(a, f, p.sew), conv_layer_3ch(a, f, p.sew))
        });
        Conv {
            p,
            a: a.to_bytes(p.sew),
            f: f.to_bytes(p.sew),
            golden_cpu,
            golden_vpu,
        }
    }
}

/// Which system runs a conv layer.
// A handful exist per workload; boxing the config would cost `Copy`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum System {
    /// CV32E40X, RV32IM.
    Scalar,
    /// CV32E40PX, packed SIMD and hardware loops.
    Xcvpulp,
    /// CV32E40X plus the ARCANE LLC, split over `instances` kernels.
    Arcane {
        /// LLC configuration.
        cfg: ArcaneConfig,
        /// `xmk4` invocations the layer is split into.
        instances: usize,
    },
}

/// What one verified point produced.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Simulated counts.
    pub counters: Counters,
    /// The verified outputs (equal to the golden model).
    pub outputs: Vec<Matrix>,
}

/// Either port of the LLC the host core's data accesses go to.
trait HostPort {
    fn access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError>;
}

impl HostPort for &mut StandardLlc {
    #[inline]
    fn access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        self.host_access(addr, write, value, size, now)
    }
}

impl HostPort for &RefCell<ArcaneLlc> {
    #[inline]
    fn access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        self.borrow_mut().host_access(addr, write, value, size, now)
    }
}

/// The host core's bus: instruction memory below `IMEM_SIZE`, the LLC
/// above it (the map of `arcane_system`'s SoCs).
struct HostBus<'a, L, P> {
    imem: &'a mut Sram,
    llc: L,
    probe: &'a P,
}

impl<L: HostPort, P: Probe> Bus for HostBus<'_, L, P> {
    #[inline]
    fn read(&mut self, addr: u32, size: AccessSize, now: u64) -> Result<Access, BusError> {
        if (addr as usize) < IMEM_SIZE {
            let mut b = [0u8; 4];
            let n = size.bytes() as usize;
            self.imem.read_bytes(addr, &mut b[..n])?;
            return Ok(Access::new(u32::from_le_bytes(b), 1));
        }
        let llc = &mut self.llc;
        self.probe
            .span(Span::HostAccess, || llc.access(addr, false, 0, size, now))
    }

    #[inline]
    fn write(
        &mut self,
        addr: u32,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        if (addr as usize) < IMEM_SIZE {
            let n = size.bytes() as usize;
            self.imem.write_bytes(addr, &value.to_le_bytes()[..n])?;
            return Ok(Access::new(0, 1));
        }
        let llc = &mut self.llc;
        self.probe.span(Span::HostAccess, || {
            llc.access(addr, true, value, size, now)
        })
    }

    #[inline]
    fn fetch(&mut self, addr: u32, _now: u64) -> Result<Access, BusError> {
        Ok(Access::new(self.imem.read_u32(addr)?, 1))
    }
}

/// The CV-X-IF port into the ARCANE LLC.
struct XifPort<'a, P> {
    llc: &'a RefCell<ArcaneLlc>,
    probe: &'a P,
}

impl<P: Probe> Coprocessor for XifPort<'_, P> {
    fn offload(&mut self, raw: u32, rs1: u32, rs2: u32, rs3: u32, now: u64) -> XifResponse {
        let llc = self.llc;
        self.probe.span(Span::Offload, || {
            llc.borrow_mut().offload(raw, rs1, rs2, rs3, now)
        })
    }
}

/// Runs the loaded host core against `llc`, plus the ARCANE
/// coprocessor port when given, inside the ISS span.
fn load_and_run<P: Probe, L: HostPort>(
    probe: &P,
    cpu: &mut Cpu,
    imem: &mut Sram,
    llc: L,
    arcane: Option<&RefCell<ArcaneLlc>>,
) -> Result<RunResult, CpuError> {
    probe.span(Span::Run, || {
        let mut bus = HostBus { imem, llc, probe };
        let engine = EngineMode::current();
        match arcane {
            Some(llc) => cpu.run_with_engine(&mut bus, &mut XifPort { llc, probe }, FUEL, engine),
            None => cpu.run_with_engine(&mut bus, &mut NoCoprocessor, FUEL, engine),
        }
    })
}

fn finished(run: &RunResult) -> Result<(), String> {
    match run.stop {
        StopReason::Break => Ok(()),
        other => Err(format!("host program stopped with {other:?} (fuel?)")),
    }
}

fn seed_fault(e: BusError) -> String {
    format!("seeding external memory: {e}")
}

/// Runs one conv layer on `system` and verifies the pooled output.
pub fn run_conv<P: Probe>(probe: &P, c: &Conv, system: System) -> Result<PointRun, String> {
    match system {
        System::Scalar => run_baseline(probe, c, false),
        System::Xcvpulp => run_baseline(probe, c, true),
        System::Arcane { cfg, instances } => run_arcane(probe, c, cfg, instances),
    }
}

fn read_result(ext: &impl Memory, p: &ConvLayerParams, l: &Layout) -> Result<Matrix, String> {
    let mut out = vec![0u8; p.pooled_h() * p.pooled_w() * p.sew.bytes()];
    ext.read_bytes(l.r, &mut out)
        .map_err(|e| format!("reading result: {e}"))?;
    Ok(Matrix::from_bytes(p.pooled_h(), p.pooled_w(), p.sew, &out))
}

fn check(got: Matrix, want: &Matrix, what: &str) -> Result<Matrix, String> {
    if got == *want {
        Ok(got)
    } else {
        Err(format!("{what}: output differs from the golden model"))
    }
}

fn run_baseline<P: Probe>(probe: &P, c: &Conv, use_pulp: bool) -> Result<PointRun, String> {
    let p = &c.p;
    let l = Layout::for_conv(p);
    let cfg = ArcaneConfig::with_lanes(4); // cache geometry only
    let (mut cpu, mut imem, mut llc) = probe.span(Span::SocNew, || {
        (Cpu::new(0), Sram::new(0, IMEM_SIZE), StandardLlc::new(&cfg))
    });
    let words = probe
        .span(Span::Assemble, || {
            let asm = if use_pulp {
                pulp::conv_layer(p, &l)
            } else {
                scalar::conv_layer(p, &l)
            };
            asm.assemble(0)
        })
        .map_err(|e| format!("assembly: {e}"))?;
    probe
        .span(Span::Seed, || {
            let ext = llc.ext_mut();
            ext.write_bytes(l.a, &c.a)?;
            ext.write_bytes(l.f, &c.f)?;
            if use_pulp {
                ext.write_bytes(l.f_padded, &pulp::pad_filter_bytes(p, &c.f))?;
            }
            imem.load_words(0, &words);
            cpu.reset(0);
            Ok(())
        })
        .map_err(seed_fault)?;
    let run = load_and_run(probe, &mut cpu, &mut imem, &mut llc, None)
        .map_err(|e| format!("host fault: {e}"))?;
    finished(&run)?;
    let out = probe.span(Span::Verify, || {
        llc.flush_all();
        check(read_result(llc.ext(), p, &l)?, &c.golden_cpu, "baseline")
    })?;
    let s = llc.stats();
    Ok(PointRun {
        counters: Counters {
            cycles: run.cycles,
            cpu_cycles: run.cycles,
            instret: run.instret,
            hits: s.hits.get(),
            misses: s.misses.get(),
            writebacks: s.writebacks.get(),
            stalls: s.stalls.get(),
            stall_cycles: s.stall_cycles.get(),
            ..Counters::default()
        },
        outputs: vec![out],
    })
}

fn new_arcane<P: Probe>(
    probe: &P,
    cfg: ArcaneConfig,
) -> Result<(Cpu, Sram, RefCell<ArcaneLlc>), String> {
    if cfg.ext_base != EXT_BASE {
        return Err("the SoC layout expects the default memory map".into());
    }
    Ok(probe.span(Span::SocNew, || {
        (
            Cpu::new(0),
            Sram::new(0, IMEM_SIZE),
            RefCell::new(ArcaneLlc::new(cfg)),
        )
    }))
}

fn arcane_fault(e: CpuError, llc: &RefCell<ArcaneLlc>) -> String {
    format!(
        "ARCANE host faulted: {e} (kernel error: {:?})",
        llc.borrow().last_error()
    )
}

/// Counts an ARCANE run exposes through the LLC's public accessors.
fn arcane_counters(llc: &ArcaneLlc, run: &RunResult) -> Counters {
    let s = llc.stats();
    let mut c = Counters {
        cycles: run.cycles.max(llc.completion_time()),
        cpu_cycles: run.cycles,
        instret: run.instret,
        hits: s.hits.get(),
        misses: s.misses.get(),
        writebacks: s.writebacks.get(),
        stalls: s.stalls.get(),
        stall_cycles: s.stall_cycles.get(),
        kernels: llc.records().len() as u64,
        renames: llc.renames(),
        ..Counters::default()
    };
    for r in llc.records() {
        c.add_phases(&r.phases);
    }
    c.add_channels(&llc.channel_utilisation());
    c.add_launch(llc.launch_stats());
    c
}

fn run_arcane<P: Probe>(
    probe: &P,
    c: &Conv,
    cfg: ArcaneConfig,
    instances: usize,
) -> Result<PointRun, String> {
    let p = &c.p;
    let l = Layout::for_conv(p);
    let (mut cpu, mut imem, llc) = new_arcane(probe, cfg)?;
    let words = probe
        .span(Span::Assemble, || {
            offload::conv_layer(p, &l, instances).assemble(0)
        })
        .map_err(|e| format!("assembly: {e}"))?;
    probe
        .span(Span::Seed, || {
            let mut llc = llc.borrow_mut();
            llc.ext_mut().write_bytes(l.a, &c.a)?;
            llc.ext_mut().write_bytes(l.f, &c.f)?;
            imem.load_words(0, &words);
            cpu.reset(0);
            Ok(())
        })
        .map_err(seed_fault)?;
    let run = load_and_run(probe, &mut cpu, &mut imem, &llc, Some(&llc))
        .map_err(|e| arcane_fault(e, &llc))?;
    finished(&run)?;
    let llc = llc.into_inner();
    let out = probe.span(Span::Verify, || {
        check(read_result(llc.ext(), p, &l)?, &c.golden_vpu, "ARCANE")
    })?;
    Ok(PointRun {
        counters: arcane_counters(&llc, &run),
        outputs: vec![out],
    })
}

/// Compiles and runs a graph workload and verifies every output.
pub fn run_graph<P: Probe>(
    probe: &P,
    g: &BuiltGraph,
    cfg: ArcaneConfig,
    opts: &CompileOptions,
) -> Result<PointRun, String> {
    let program = probe
        .span(Span::Compile, || compile(&g.graph, EXT_BASE, opts))
        .map_err(|e| format!("compile: {e}"))?;
    if (program.mem_end - EXT_BASE) as usize > cfg.ext_size {
        return Err("graph arena exceeds external memory".into());
    }
    // The launch mode is a program property; the SoC must decode what
    // the compiler emitted (as `arcane_nn::run_graph` does).
    let mut cfg = cfg;
    cfg.launch = program.launch;
    let (mut cpu, mut imem, llc) = new_arcane(probe, cfg)?;
    let words = probe
        .span(Span::Assemble, || program.asm.assemble(0))
        .map_err(|e| format!("assembly: {e}"))?;
    let sew = g.graph.sew();
    let inputs = g.graph.inputs();
    if inputs.len() != g.inputs.len() {
        return Err(format!(
            "graph declares {} inputs, {} provided",
            inputs.len(),
            g.inputs.len()
        ));
    }
    probe.span(Span::Seed, || {
        let mut llc = llc.borrow_mut();
        for table in &program.tables {
            let bytes: Vec<u8> = table.words.iter().flat_map(|w| w.to_le_bytes()).collect();
            llc.ext_mut()
                .write_bytes(table.addr, &bytes)
                .map_err(seed_fault)?;
        }
        for (&id, mat) in inputs.iter().zip(&g.inputs) {
            let pl = program.layout.place(id);
            if (pl.rows, pl.cols) != (mat.rows(), mat.cols()) {
                return Err(format!(
                    "input shape mismatch for {}",
                    g.graph.tensor(id).name
                ));
            }
            llc.ext_mut()
                .write_bytes(pl.addr, &mat.to_bytes(sew))
                .map_err(seed_fault)?;
        }
        imem.load_words(0, &words);
        cpu.reset(0);
        Ok(())
    })?;
    let run = load_and_run(probe, &mut cpu, &mut imem, &llc, Some(&llc))
        .map_err(|e| arcane_fault(e, &llc))?;
    finished(&run)?;
    let llc = llc.into_inner();
    let outputs = probe.span(Span::Verify, || {
        if g.golden.len() != g.graph.outputs().len() {
            return Err(format!("{}: output count", g.name));
        }
        let mut outputs = Vec::with_capacity(g.golden.len());
        for (&out, want) in g.graph.outputs().iter().zip(&g.golden) {
            let pl = program.layout.place(out);
            let mut bytes = vec![0u8; pl.bytes(sew.bytes())];
            llc.ext()
                .read_bytes(pl.addr, &mut bytes)
                .map_err(|e| format!("reading output: {e}"))?;
            let got = Matrix::from_bytes(pl.rows, pl.cols, sew, &bytes);
            outputs.push(check(got, want, g.name)?);
        }
        Ok(outputs)
    })?;
    Ok(PointRun {
        counters: arcane_counters(&llc, &run),
        outputs,
    })
}
