//! RV32IM + XCVPULP instruction-set simulator.
//!
//! Models the two CPU cores the paper evaluates:
//!
//! * **CV32E40X** (host CPU and eCPU) — RV32IM(C), 4-stage in-order.
//! * **CV32E40PX** — the same pipeline extended with the XCVPULP
//!   packed-SIMD/DSP instructions and hardware loops (the strongest CPU
//!   baseline in Figure 4).
//!
//! The simulator executes real machine code produced by
//! [`arcane_isa::asm::Asm`] against any [`arcane_mem::Bus`]
//! implementation, accumulating cycles from a CV32E40X-derived
//! [`Timing`] model plus whatever wait states the bus reports (cache
//! hits/misses, hazard stalls — this is how the ARCANE LLC interacts
//! with the host core).
//!
//! Custom-2 instructions are not executed by the core: they are offered
//! to a [`Coprocessor`] via the CV-X-IF-style [`Cpu::step`] hook,
//! mirroring the paper's offloading mechanism (§III-B).
//!
//! Two execution engines share the instruction-semantics helpers:
//! [`Cpu::run`] dispatches to the predecoded block-stepping engine
//! ([`Cpu::run_blocks`], the default) or the reference interpreter
//! ([`Cpu::run_interp`], forced by `ARCANE_INTERP=1`). The block engine
//! skips the per-dynamic-instruction fetch and decode by caching
//! [`arcane_isa::exec::DecodedBlock`]s of one-level
//! [`arcane_isa::exec::MicroOp`]s keyed by PC, and dispatches once per
//! retired instruction. Results must be bit- and cycle-identical; the
//! differential tests check it against the interpreter.
//!
//! # Examples
//!
//! ```
//! use arcane_isa::asm::Asm;
//! use arcane_isa::reg::A0;
//! use arcane_rv32::{Cpu, NoCoprocessor, SramBus};
//!
//! let mut a = Asm::new();
//! a.li(A0, 21);
//! a.add(A0, A0, A0);
//! a.ebreak();
//! let mut bus = SramBus::new(64 * 1024);
//! bus.load_program(0, &a.assemble(0).unwrap());
//! let mut cpu = Cpu::new(0);
//! let run = cpu.run(&mut bus, &mut NoCoprocessor, 1_000).unwrap();
//! assert_eq!(cpu.reg(A0), 42);
//! assert!(run.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod simd;
mod timing;
mod xif;

pub use cpu::{Cpu, CpuError, RunResult, SramBus, StopReason};
pub use timing::Timing;
pub use xif::{Coprocessor, NoCoprocessor, XifResponse};
