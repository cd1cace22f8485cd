//! A small two-pass assembler for building evaluation workloads.
//!
//! Every workload in the reproduction (scalar convolutions, XCVPULP
//! packed-SIMD kernels, host offload programs) is emitted through this
//! builder as real machine code and executed by the instruction-set
//! simulator — no analytic shortcut.
//!
//! # Examples
//!
//! Count down from 5:
//!
//! ```
//! use arcane_isa::asm::Asm;
//! use arcane_isa::reg::{A0, ZERO};
//!
//! let mut a = Asm::new();
//! a.li(A0, 5);
//! let top = a.bind_label();
//! a.addi(A0, A0, -1);
//! a.bne(A0, ZERO, top);
//! a.ebreak();
//! let words = a.assemble(0x0).unwrap();
//! assert!(words.len() >= 4);
//! ```

use crate::reg::{Gpr, RA, ZERO};
use crate::rv32::{AluImmOp, AluOp, BranchOp, Instr, LoadOp, StoreOp};
use crate::xcvpulp::{PulpInstr, PvOp, SimdWidth};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An opaque label handle produced by [`Asm::label`] / [`Asm::bind_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error produced by [`Asm::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound to a position.
    UnboundLabel(Label),
    /// A branch target is too far for the 13-bit branch offset.
    BranchOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The required offset in bytes.
        offset: i64,
    },
    /// A jump target is too far for the 21-bit JAL offset.
    JumpOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The required offset in bytes.
        offset: i64,
    },
    /// An I- or S-type immediate lies outside the signed 12-bit range
    /// `-2048..=2047`.
    ImmediateOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The immediate that does not fit.
        imm: i32,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label {l:?} was never bound"),
            AsmError::BranchOutOfRange { at, offset } => {
                write!(f, "branch at instruction {at} needs offset {offset} bytes")
            }
            AsmError::JumpOutOfRange { at, offset } => {
                write!(f, "jump at instruction {at} needs offset {offset} bytes")
            }
            AsmError::ImmediateOutOfRange { at, imm } => {
                write!(f, "immediate {imm} at instruction {at} exceeds 12 bits")
            }
        }
    }
}

impl Error for AsmError {}

/// The signed 12-bit immediate of an I- or S-type instruction (shift
/// amounts excluded), if `instr` has one.
fn imm12(instr: &Instr) -> Option<i32> {
    match *instr {
        Instr::Jalr { offset, .. }
        | Instr::Load { offset, .. }
        | Instr::Store { offset, .. }
        | Instr::Pulp(PulpInstr::LoadPost { offset, .. } | PulpInstr::StorePost { offset, .. }) => {
            Some(offset)
        }
        Instr::OpImm { op, imm, .. }
            if !matches!(op, AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai) =>
        {
            Some(imm)
        }
        _ => None,
    }
}

#[derive(Debug, Clone, Copy)]
enum Item {
    /// A fully formed instruction.
    Fixed(Instr),
    /// A branch whose offset is resolved at assembly time.
    Branch {
        op: BranchOp,
        rs1: Gpr,
        rs2: Gpr,
        target: Label,
    },
    /// A `jal` whose offset is resolved at assembly time.
    Jal { rd: Gpr, target: Label },
}

/// Two-pass assembler building a flat `Vec<u32>` of RV32 machine code.
///
/// All emit methods append one instruction (pseudo-instructions may
/// expand to two) and return `&mut self` for chaining.
#[derive(Debug, Default)]
pub struct Asm {
    items: Vec<Item>,
    bound: HashMap<usize, usize>,
    next_label: usize,
}

impl Asm {
    /// Creates an empty program.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (each label marks one spot).
    pub fn bind(&mut self, label: Label) {
        let prev = self.bound.insert(label.0, self.items.len());
        assert!(prev.is_none(), "label bound twice");
    }

    /// Creates a label bound to the current position (common case).
    pub fn bind_label(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Emits a raw, pre-built instruction.
    pub fn raw(&mut self, instr: Instr) -> &mut Self {
        self.items.push(Item::Fixed(instr));
        self
    }

    // ---- RV32I -----------------------------------------------------------

    /// `lui rd, imm20` (`imm` is the already-shifted upper value).
    pub fn lui(&mut self, rd: Gpr, imm: u32) -> &mut Self {
        self.raw(Instr::Lui { rd, imm })
    }

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Gpr, rs1: Gpr, imm: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        })
    }

    /// `andi rd, rs1, imm`.
    pub fn andi(&mut self, rd: Gpr, rs1: Gpr, imm: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluImmOp::Andi,
            rd,
            rs1,
            imm,
        })
    }

    /// `slli rd, rs1, shamt`.
    pub fn slli(&mut self, rd: Gpr, rs1: Gpr, shamt: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluImmOp::Slli,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `srai rd, rs1, shamt`.
    pub fn srai(&mut self, rd: Gpr, rs1: Gpr, shamt: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluImmOp::Srai,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `srli rd, rs1, shamt`.
    pub fn srli(&mut self, rd: Gpr, rs1: Gpr, shamt: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluImmOp::Srli,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// Register–register ALU op.
    pub fn op(&mut self, op: AluOp, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.raw(Instr::Op { op, rd, rs1, rs2 })
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.op(AluOp::Add, rd, rs1, rs2)
    }

    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.op(AluOp::Sub, rd, rs1, rs2)
    }

    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.op(AluOp::Mul, rd, rs1, rs2)
    }

    /// Memory load.
    pub fn load(&mut self, op: LoadOp, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.raw(Instr::Load {
            op,
            rd,
            rs1,
            offset,
        })
    }

    /// `lw rd, offset(rs1)`.
    pub fn lw(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.load(LoadOp::Lw, rd, rs1, offset)
    }

    /// `lb rd, offset(rs1)`.
    pub fn lb(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.load(LoadOp::Lb, rd, rs1, offset)
    }

    /// `lh rd, offset(rs1)`.
    pub fn lh(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.load(LoadOp::Lh, rd, rs1, offset)
    }

    /// Memory store.
    pub fn store(&mut self, op: StoreOp, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.raw(Instr::Store {
            op,
            rs2,
            rs1,
            offset,
        })
    }

    /// `sw rs2, offset(rs1)`.
    pub fn sw(&mut self, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.store(StoreOp::Sw, rs2, rs1, offset)
    }

    /// `sb rs2, offset(rs1)`.
    pub fn sb(&mut self, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.store(StoreOp::Sb, rs2, rs1, offset)
    }

    /// `sh rs2, offset(rs1)`.
    pub fn sh(&mut self, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.store(StoreOp::Sh, rs2, rs1, offset)
    }

    /// Conditional branch to `target`.
    pub fn branch(&mut self, op: BranchOp, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.items.push(Item::Branch {
            op,
            rs1,
            rs2,
            target,
        });
        self
    }

    /// `beq rs1, rs2, target`.
    pub fn beq(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Eq, rs1, rs2, target)
    }

    /// `bne rs1, rs2, target`.
    pub fn bne(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Ne, rs1, rs2, target)
    }

    /// `blt rs1, rs2, target` (signed).
    pub fn blt(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Lt, rs1, rs2, target)
    }

    /// `bge rs1, rs2, target` (signed).
    pub fn bge(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Ge, rs1, rs2, target)
    }

    /// `bltu rs1, rs2, target` (unsigned).
    pub fn bltu(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Ltu, rs1, rs2, target)
    }

    /// `jal rd, target`.
    pub fn jal(&mut self, rd: Gpr, target: Label) -> &mut Self {
        self.items.push(Item::Jal { rd, target });
        self
    }

    /// `j target` (pseudo: `jal zero, target`).
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.jal(ZERO, target)
    }

    /// `call target` (pseudo: `jal ra, target`).
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.jal(RA, target)
    }

    /// `ret` (pseudo: `jalr zero, 0(ra)`).
    pub fn ret(&mut self) -> &mut Self {
        self.raw(Instr::Jalr {
            rd: ZERO,
            rs1: RA,
            offset: 0,
        })
    }

    /// `nop` (pseudo: `addi zero, zero, 0`).
    pub fn nop(&mut self) -> &mut Self {
        self.addi(ZERO, ZERO, 0)
    }

    /// `mv rd, rs` (pseudo: `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Gpr, rs: Gpr) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    /// `li rd, value` — load a 32-bit constant (expands to
    /// `lui` + `addi` when needed, a single `addi` for small values).
    pub fn li(&mut self, rd: Gpr, value: i32) -> &mut Self {
        if (-2048..2048).contains(&value) {
            return self.addi(rd, ZERO, value);
        }
        let v = value as u32;
        let lo = (v & 0xfff) as i32;
        let lo = if lo >= 2048 { lo - 4096 } else { lo };
        let hi = v.wrapping_sub(lo as u32);
        self.lui(rd, hi);
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
        self
    }

    /// `ebreak` — simulation end marker.
    pub fn ebreak(&mut self) -> &mut Self {
        self.raw(Instr::Ebreak)
    }

    /// `ecall`.
    pub fn ecall(&mut self) -> &mut Self {
        self.raw(Instr::Ecall)
    }

    // ---- XCVPULP helpers (baseline kernels) ------------------------------

    /// `cv.lw rd, offset(rs1!)` — load word with post-increment.
    pub fn cv_lw_post(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::LoadPost {
            op: LoadOp::Lw,
            rd,
            rs1,
            offset,
        }))
    }

    /// `cv.lb`-style post-increment load of any width.
    pub fn cv_load_post(&mut self, op: LoadOp, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::LoadPost {
            op,
            rd,
            rs1,
            offset,
        }))
    }

    /// Post-increment store of any width.
    pub fn cv_store_post(&mut self, op: StoreOp, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::StorePost {
            op,
            rs2,
            rs1,
            offset,
        }))
    }

    /// Packed-SIMD operation.
    pub fn pv(&mut self, op: PvOp, w: SimdWidth, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::Simd {
            op,
            w,
            rd,
            rs1,
            rs2,
        }))
    }

    /// `cv.mac rd, rs1, rs2` — scalar multiply-accumulate.
    pub fn cv_mac(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::Mac { rd, rs1, rs2 }))
    }

    /// `cv.max rd, rs1, rs2` — scalar maximum (ReLU building block).
    pub fn cv_max(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::MaxS { rd, rs1, rs2 }))
    }

    /// `cv.setupi` — immediate-count hardware loop over the next
    /// `body_len` instructions.
    pub fn cv_setupi(&mut self, loop_id: bool, count: u16, body_len: u8) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::LoopSetupI {
            loop_id,
            count,
            body_len,
        }))
    }

    /// `cv.setup` — register-count hardware loop.
    pub fn cv_setup(&mut self, loop_id: bool, count: Gpr, body_len: u16) -> &mut Self {
        self.raw(Instr::Pulp(PulpInstr::LoopSetup {
            loop_id,
            count,
            body_len,
        }))
    }

    // ---- assembly --------------------------------------------------------

    /// Resolves labels and encodes the program as 32-bit words, assuming
    /// the first instruction sits at byte address `base`.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] on unbound labels, out-of-range control
    /// transfers or immediates that do not fit their 12-bit field.
    pub fn assemble(&self, base: u32) -> Result<Vec<u32>, AsmError> {
        let _ = base; // offsets are PC-relative; base kept for API clarity
        let mut words = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            let instr = match *item {
                Item::Fixed(instr) => match imm12(&instr) {
                    Some(imm) if !(-2048..=2047).contains(&imm) => {
                        return Err(AsmError::ImmediateOutOfRange { at: i, imm });
                    }
                    _ => instr,
                },
                Item::Branch {
                    op,
                    rs1,
                    rs2,
                    target,
                } => {
                    let at = self
                        .bound
                        .get(&target.0)
                        .ok_or(AsmError::UnboundLabel(target))?;
                    let offset = (*at as i64 - i as i64) * 4;
                    if !(-4096..4096).contains(&offset) {
                        return Err(AsmError::BranchOutOfRange { at: i, offset });
                    }
                    Instr::Branch {
                        op,
                        rs1,
                        rs2,
                        offset: offset as i32,
                    }
                }
                Item::Jal { rd, target } => {
                    let at = self
                        .bound
                        .get(&target.0)
                        .ok_or(AsmError::UnboundLabel(target))?;
                    let offset = (*at as i64 - i as i64) * 4;
                    if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                        return Err(AsmError::JumpOutOfRange { at: i, offset });
                    }
                    Instr::Jal {
                        rd,
                        offset: offset as i32,
                    }
                }
            };
            words.push(crate::rv32::encode(&instr));
        }
        Ok(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;
    use crate::rv32::decode;

    #[test]
    fn li_small_is_single_addi() {
        let mut a = Asm::new();
        a.li(A0, 100);
        let w = a.assemble(0).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(decode(w[0]).unwrap().to_string(), "addi a0, zero, 100");
    }

    #[test]
    fn li_large_roundtrips_through_lui_addi() {
        // Execute the lui+addi pair mentally for a tricky carry case.
        for value in [0x2000_0000u32 as i32, 0x1234_5fff_u32 as i32, -1, i32::MIN] {
            let mut a = Asm::new();
            a.li(T0, value);
            let words = a.assemble(0).unwrap();
            // Interpret: lui sets, addi adds sign-extended low.
            let mut reg = 0u32;
            for w in words {
                match decode(w).unwrap() {
                    Instr::Lui { imm, .. } => reg = imm,
                    Instr::OpImm {
                        op: AluImmOp::Addi,
                        imm,
                        ..
                    } => reg = reg.wrapping_add(imm as u32),
                    other => panic!("unexpected {other}"),
                }
            }
            assert_eq!(reg, value as u32, "li {value:#x}");
        }
    }

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        let fwd = a.label();
        a.beq(A0, A1, fwd); // +2 instructions forward
        a.nop();
        a.bind(fwd);
        let back = a.bind_label();
        a.bne(A0, A1, back); // 0 offset back to itself
        let w = a.assemble(0).unwrap();
        match decode(w[0]).unwrap() {
            Instr::Branch { offset, .. } => assert_eq!(offset, 8),
            other => panic!("{other}"),
        }
        match decode(w[2]).unwrap() {
            Instr::Branch { offset, .. } => assert_eq!(offset, 0),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.label();
        a.j(l);
        assert!(matches!(a.assemble(0), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn branch_out_of_range_is_detected() {
        let mut a = Asm::new();
        let top = a.bind_label();
        for _ in 0..1500 {
            a.nop();
        }
        a.beq(A0, A1, top);
        assert!(matches!(
            a.assemble(0),
            Err(AsmError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_immediates_are_detected() {
        let mut a = Asm::new();
        a.nop().addi(A0, A0, 0x810);
        assert_eq!(
            a.assemble(0),
            Err(AsmError::ImmediateOutOfRange { at: 1, imm: 0x810 })
        );
        let mut a = Asm::new();
        a.sw(A1, A0, 2048);
        assert_eq!(
            a.assemble(0),
            Err(AsmError::ImmediateOutOfRange { at: 0, imm: 2048 })
        );
        let mut a = Asm::new();
        a.cv_lw_post(A1, A0, -2049);
        assert!(matches!(
            a.assemble(0),
            Err(AsmError::ImmediateOutOfRange { imm: -2049, .. })
        ));
        // The extremes of the field still assemble, and shift amounts
        // are not 12-bit immediates.
        let mut a = Asm::new();
        a.addi(A0, A0, 2047)
            .lw(A1, A0, -2048)
            .sb(A1, A0, 2047)
            .slli(A0, A0, 31);
        assert!(a.assemble(0).is_ok());
    }

    #[test]
    fn pseudo_instructions_expand() {
        let mut a = Asm::new();
        a.mv(A0, A1).nop().ret().ebreak();
        let w = a.assemble(0).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(decode(w[2]).unwrap().to_string(), "jalr zero, 0(ra)");
    }
}
