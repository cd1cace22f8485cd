//! Instruction-set definitions for the ARCANE reproduction.
//!
//! This crate provides every encoding used by the simulated system:
//!
//! * [`rv32`] — the RV32IM base ISA executed by the host CPU and, in the
//!   paper, by the embedded cache-controller CPU (CV32E40X class cores).
//! * [`rvc`] — the compressed (C) extension: 16-bit → 32-bit expansion
//!   and a compressor for code-density measurements.
//! * [`xcvpulp`] — the packed-SIMD / DSP extension subset (modeled after
//!   the CORE-V XCVPULP extensions of the CV32E40PX) used by the paper's
//!   strongest CPU baseline in Figure 4.
//! * [`xmnmc`] — the paper's software-defined in-cache matrix ISA
//!   (RISC-V custom-2 opcode `0x5b`): `xmr` matrix-reserve and `xmkN`
//!   matrix-kernel instructions.
//! * [`launch`] — the batched kernel-launch pipeline: compact
//!   [`launch::LaunchDescriptor`] records and [`launch::DescriptorBatch`]
//!   framing that amortise the eCPU's per-launch software preamble, plus
//!   the `xmb` launch-batch instruction.
//! * [`vector`] — the NM-Carus-style near-memory vector ISA that the
//!   cache-resident runtime uses to program the vector processing units.
//! * [`asm`] — a small two-pass assembler with labels and pseudo
//!   instructions, used to build every evaluation workload as real
//!   machine code.
//! * [`exec`] — the predecode stage of the block-stepping execution
//!   engine: cached [`exec::DecodedBlock`]s of straight-line code
//!   lowered to one-level [`exec::MicroOp`]s, with write invalidation.
//!
//! # Examples
//!
//! ```
//! use arcane_isa::asm::Asm;
//! use arcane_isa::reg::{A0, A1};
//!
//! let mut a = Asm::new();
//! a.li(A0, 41);
//! a.addi(A0, A0, 1);
//! a.ebreak();
//! let words = a.assemble(0).expect("label resolution");
//! assert_eq!(words.len(), 3);
//! let decoded = arcane_isa::rv32::decode(words[1]).unwrap();
//! assert_eq!(decoded.to_string(), "addi a0, a0, 1");
//! # let _ = A1;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod exec;
pub mod launch;
pub mod reg;
pub mod rv32;
pub mod rvc;
pub mod vector;
pub mod xcvpulp;
pub mod xmnmc;

use std::error::Error;
use std::fmt;

/// Error produced when a 32-bit word does not decode to a supported
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
    /// Static description of the failing field.
    pub reason: &'static str,
}

impl DecodeError {
    /// Creates a decode error for `word` with a static `reason`.
    pub const fn new(word: u32, reason: &'static str) -> Self {
        DecodeError { word, reason }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode {:#010x}: {}", self.word, self.reason)
    }
}

impl Error for DecodeError {}
