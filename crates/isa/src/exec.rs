//! Predecoded execution support: micro-ops, basic blocks and the block
//! cache.
//!
//! The interpreter in `arcane-rv32` originally re-fetched and re-decoded
//! every instruction on every dynamic execution — at 256×256 the Figure 4
//! scalar baseline decodes the same <40-instruction inner loop over a
//! hundred million times. This module provides the predecode stage that
//! amortises that control overhead, the same way ARCANE itself amortises
//! kernel-dispatch overhead over long data-local vector operations
//! (paper §IV): straight-line runs of instructions are decoded once into
//! a [`DecodedBlock`] and cached by start PC in a [`BlockCache`].
//!
//! Predecode lowers each [`Instr`] into a one-level [`MicroOp`]: the
//! operation is resolved into the variant (`addi`, `lw`, `bne`,
//! `pv.sdotsp.b`, … each have their own), register indices are plain
//! `u8`s, and everything the block's PC determines is folded in (`lui`
//! and `auipc` become `addi rd, x0, value`; branches carry their
//! absolute target). The engine therefore dispatches once per retired
//! instruction instead of once on [`Instr`] and again on the nested
//! operation enum. Jumps, `ecall`/`ebreak`, custom-2 offloads and
//! hardware-loop setup stay [`MicroOp::Delegate`]d to the reference
//! interpreter's single-instruction path.
//!
//! A block ends at the first control instruction (branch, jump,
//! `ecall`/`ebreak`, or a custom-2 offload whose acceptance is decided
//! by the coprocessor; see [`MicroOp::ends_block`]) or at
//! [`MAX_BLOCK_LEN`].
//!
//! The cache stays coherent with instruction memory: every store the
//! core performs is offered to [`BlockCache::invalidate_write`], which
//! drops any block whose PC range overlaps the written bytes and bumps a
//! generation counter the engine checks after each store
//! (self-modifying-code guard).

use crate::reg::{Gpr, ZERO};
use crate::rv32::{AluImmOp, AluOp, BranchOp, Instr, LoadOp, StoreOp};
use crate::xcvpulp::{PulpInstr, PvOp, SimdWidth};
use std::collections::HashMap;
use std::rc::Rc;

/// Upper bound on the number of instructions in one [`DecodedBlock`].
///
/// Long straight-line runs are rare in the evaluation kernels (the hot
/// loops are < 40 instructions); capping the block keeps predecode
/// latency and invalidation granularity bounded.
pub const MAX_BLOCK_LEN: usize = 64;

/// Register–register operands of a [`MicroOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rrr {
    /// Destination register index (also the accumulator of `sdotsp`
    /// and `cv.mac`).
    pub rd: u8,
    /// First source register index.
    pub rs1: u8,
    /// Second source register index (`0` for `cv.abs`).
    pub rs2: u8,
}

/// Register–immediate operands of a [`MicroOp`]: ALU immediates, load
/// offsets and post-increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rri {
    /// Destination register index.
    pub rd: u8,
    /// Source (or base address) register index.
    pub rs1: u8,
    /// Sign-extended immediate, offset or post-increment.
    pub imm: i32,
}

/// Store operands of a [`MicroOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sto {
    /// Data register index.
    pub rs2: u8,
    /// Base address register index.
    pub rs1: u8,
    /// Signed offset (plain stores) or post-increment (`cv.s*`).
    pub imm: i32,
}

/// Conditional-branch operands of a [`MicroOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Br {
    /// First compared register index.
    pub rs1: u8,
    /// Second compared register index.
    pub rs2: u8,
    /// Absolute target PC (the branch's PC plus its offset).
    pub target: u32,
}

/// One predecoded instruction with its operation already resolved.
///
/// Every non-control RV32IM and XCVPULP form has its own variant; the
/// forms whose effect is control flow or lives outside the core are
/// [`MicroOp::Delegate`]d. Costs are not stored: the engine charges
/// each variant from the core's timing model exactly as the reference
/// interpreter does.
///
/// `repr(u8)` keeps the variant index in the first byte: the engine's
/// dispatch is then one byte load and a jump-table lookup, with no
/// niche decoding of the delegated [`Instr`]'s own tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MicroOp {
    /// `addi` (also `lui`, `auipc` and `fence`, with their value folded
    /// into the immediate over `x0`).
    Addi(Rri),
    /// `slti`.
    Slti(Rri),
    /// `sltiu`.
    Sltiu(Rri),
    /// `xori`.
    Xori(Rri),
    /// `ori`.
    Ori(Rri),
    /// `andi`.
    Andi(Rri),
    /// `slli`.
    Slli(Rri),
    /// `srli`.
    Srli(Rri),
    /// `srai`.
    Srai(Rri),
    /// `add`.
    Add(Rrr),
    /// `sub`.
    Sub(Rrr),
    /// `sll`.
    Sll(Rrr),
    /// `slt`.
    Slt(Rrr),
    /// `sltu`.
    Sltu(Rrr),
    /// `xor`.
    Xor(Rrr),
    /// `srl`.
    Srl(Rrr),
    /// `sra`.
    Sra(Rrr),
    /// `or`.
    Or(Rrr),
    /// `and`.
    And(Rrr),
    /// `mul`.
    Mul(Rrr),
    /// `mulh`.
    Mulh(Rrr),
    /// `mulhsu`.
    Mulhsu(Rrr),
    /// `mulhu`.
    Mulhu(Rrr),
    /// `div`.
    Div(Rrr),
    /// `divu`.
    Divu(Rrr),
    /// `rem`.
    Rem(Rrr),
    /// `remu`.
    Remu(Rrr),
    /// `lb`.
    Lb(Rri),
    /// `lh`.
    Lh(Rri),
    /// `lw`.
    Lw(Rri),
    /// `lbu`.
    Lbu(Rri),
    /// `lhu`.
    Lhu(Rri),
    /// `sb`.
    Sb(Sto),
    /// `sh`.
    Sh(Sto),
    /// `sw`.
    Sw(Sto),
    /// `cv.lb rd, imm(rs1!)`.
    CvLbPost(Rri),
    /// `cv.lh rd, imm(rs1!)`.
    CvLhPost(Rri),
    /// `cv.lw rd, imm(rs1!)`.
    CvLwPost(Rri),
    /// `cv.lbu rd, imm(rs1!)`.
    CvLbuPost(Rri),
    /// `cv.lhu rd, imm(rs1!)`.
    CvLhuPost(Rri),
    /// `cv.sb rs2, imm(rs1!)`.
    CvSbPost(Sto),
    /// `cv.sh rs2, imm(rs1!)`.
    CvShPost(Sto),
    /// `cv.sw rs2, imm(rs1!)`.
    CvSwPost(Sto),
    /// `beq`.
    Beq(Br),
    /// `bne`.
    Bne(Br),
    /// `blt`.
    Blt(Br),
    /// `bge`.
    Bge(Br),
    /// `bltu`.
    Bltu(Br),
    /// `bgeu`.
    Bgeu(Br),
    /// `pv.add.b`.
    PvAddB(Rrr),
    /// `pv.sub.b`.
    PvSubB(Rrr),
    /// `pv.max.b`.
    PvMaxB(Rrr),
    /// `pv.min.b`.
    PvMinB(Rrr),
    /// `pv.dotsp.b`.
    PvDotspB(Rrr),
    /// `pv.sdotsp.b`.
    PvSdotspB(Rrr),
    /// `pv.dotup.b`.
    PvDotupB(Rrr),
    /// `pv.add.h`.
    PvAddH(Rrr),
    /// `pv.sub.h`.
    PvSubH(Rrr),
    /// `pv.max.h`.
    PvMaxH(Rrr),
    /// `pv.min.h`.
    PvMinH(Rrr),
    /// `pv.dotsp.h`.
    PvDotspH(Rrr),
    /// `pv.sdotsp.h`.
    PvSdotspH(Rrr),
    /// `pv.dotup.h`.
    PvDotupH(Rrr),
    /// `cv.mac`.
    CvMac(Rrr),
    /// `cv.max`.
    CvMax(Rrr),
    /// `cv.min`.
    CvMin(Rrr),
    /// `cv.abs`.
    CvAbs(Rrr),
    /// Executed by the reference interpreter's single-instruction path:
    /// `jal`, `jalr`, `ecall`, `ebreak`, custom-2 offloads and
    /// hardware-loop setup.
    Delegate(Instr),
}

impl MicroOp {
    /// Lowers `instr`, located at `pc`, into its micro-op.
    pub fn lower(instr: Instr, pc: u32) -> MicroOp {
        use MicroOp as M;
        let ri = |rd: Gpr, rs1: Gpr, imm: i32| Rri {
            rd: rd.index(),
            rs1: rs1.index(),
            imm,
        };
        let rr = |rd: Gpr, rs1: Gpr, rs2: Gpr| Rrr {
            rd: rd.index(),
            rs1: rs1.index(),
            rs2: rs2.index(),
        };
        let st = |rs2: Gpr, rs1: Gpr, imm: i32| Sto {
            rs2: rs2.index(),
            rs1: rs1.index(),
            imm,
        };
        match instr {
            Instr::Lui { rd, imm } => M::Addi(ri(rd, ZERO, imm as i32)),
            Instr::Auipc { rd, imm } => M::Addi(ri(rd, ZERO, pc.wrapping_add(imm) as i32)),
            Instr::Fence => M::Addi(ri(ZERO, ZERO, 0)),
            Instr::OpImm { op, rd, rs1, imm } => {
                let o = ri(rd, rs1, imm);
                match op {
                    AluImmOp::Addi => M::Addi(o),
                    AluImmOp::Slti => M::Slti(o),
                    AluImmOp::Sltiu => M::Sltiu(o),
                    AluImmOp::Xori => M::Xori(o),
                    AluImmOp::Ori => M::Ori(o),
                    AluImmOp::Andi => M::Andi(o),
                    AluImmOp::Slli => M::Slli(o),
                    AluImmOp::Srli => M::Srli(o),
                    AluImmOp::Srai => M::Srai(o),
                }
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let o = rr(rd, rs1, rs2);
                match op {
                    AluOp::Add => M::Add(o),
                    AluOp::Sub => M::Sub(o),
                    AluOp::Sll => M::Sll(o),
                    AluOp::Slt => M::Slt(o),
                    AluOp::Sltu => M::Sltu(o),
                    AluOp::Xor => M::Xor(o),
                    AluOp::Srl => M::Srl(o),
                    AluOp::Sra => M::Sra(o),
                    AluOp::Or => M::Or(o),
                    AluOp::And => M::And(o),
                    AluOp::Mul => M::Mul(o),
                    AluOp::Mulh => M::Mulh(o),
                    AluOp::Mulhsu => M::Mulhsu(o),
                    AluOp::Mulhu => M::Mulhu(o),
                    AluOp::Div => M::Div(o),
                    AluOp::Divu => M::Divu(o),
                    AluOp::Rem => M::Rem(o),
                    AluOp::Remu => M::Remu(o),
                }
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let o = ri(rd, rs1, offset);
                match op {
                    LoadOp::Lb => M::Lb(o),
                    LoadOp::Lh => M::Lh(o),
                    LoadOp::Lw => M::Lw(o),
                    LoadOp::Lbu => M::Lbu(o),
                    LoadOp::Lhu => M::Lhu(o),
                }
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let o = st(rs2, rs1, offset);
                match op {
                    StoreOp::Sb => M::Sb(o),
                    StoreOp::Sh => M::Sh(o),
                    StoreOp::Sw => M::Sw(o),
                }
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let o = Br {
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                    target: pc.wrapping_add(offset as u32),
                };
                match op {
                    BranchOp::Eq => M::Beq(o),
                    BranchOp::Ne => M::Bne(o),
                    BranchOp::Lt => M::Blt(o),
                    BranchOp::Ge => M::Bge(o),
                    BranchOp::Ltu => M::Bltu(o),
                    BranchOp::Geu => M::Bgeu(o),
                }
            }
            Instr::Pulp(p) => match p {
                PulpInstr::LoadPost {
                    op,
                    rd,
                    rs1,
                    offset,
                } => {
                    let o = ri(rd, rs1, offset);
                    match op {
                        LoadOp::Lb => M::CvLbPost(o),
                        LoadOp::Lh => M::CvLhPost(o),
                        LoadOp::Lw => M::CvLwPost(o),
                        LoadOp::Lbu => M::CvLbuPost(o),
                        LoadOp::Lhu => M::CvLhuPost(o),
                    }
                }
                PulpInstr::StorePost {
                    op,
                    rs2,
                    rs1,
                    offset,
                } => {
                    let o = st(rs2, rs1, offset);
                    match op {
                        StoreOp::Sb => M::CvSbPost(o),
                        StoreOp::Sh => M::CvShPost(o),
                        StoreOp::Sw => M::CvSwPost(o),
                    }
                }
                PulpInstr::Simd {
                    op,
                    w,
                    rd,
                    rs1,
                    rs2,
                } => {
                    let o = rr(rd, rs1, rs2);
                    match (w, op) {
                        (SimdWidth::B, PvOp::Add) => M::PvAddB(o),
                        (SimdWidth::B, PvOp::Sub) => M::PvSubB(o),
                        (SimdWidth::B, PvOp::Max) => M::PvMaxB(o),
                        (SimdWidth::B, PvOp::Min) => M::PvMinB(o),
                        (SimdWidth::B, PvOp::Dotsp) => M::PvDotspB(o),
                        (SimdWidth::B, PvOp::Sdotsp) => M::PvSdotspB(o),
                        (SimdWidth::B, PvOp::Dotup) => M::PvDotupB(o),
                        (SimdWidth::H, PvOp::Add) => M::PvAddH(o),
                        (SimdWidth::H, PvOp::Sub) => M::PvSubH(o),
                        (SimdWidth::H, PvOp::Max) => M::PvMaxH(o),
                        (SimdWidth::H, PvOp::Min) => M::PvMinH(o),
                        (SimdWidth::H, PvOp::Dotsp) => M::PvDotspH(o),
                        (SimdWidth::H, PvOp::Sdotsp) => M::PvSdotspH(o),
                        (SimdWidth::H, PvOp::Dotup) => M::PvDotupH(o),
                    }
                }
                PulpInstr::Mac { rd, rs1, rs2 } => M::CvMac(rr(rd, rs1, rs2)),
                PulpInstr::MaxS { rd, rs1, rs2 } => M::CvMax(rr(rd, rs1, rs2)),
                PulpInstr::MinS { rd, rs1, rs2 } => M::CvMin(rr(rd, rs1, rs2)),
                PulpInstr::Abs { rd, rs1 } => M::CvAbs(rr(rd, rs1, ZERO)),
                PulpInstr::LoopSetupI { .. } | PulpInstr::LoopSetup { .. } => M::Delegate(instr),
            },
            Instr::Jal { .. }
            | Instr::Jalr { .. }
            | Instr::Ecall
            | Instr::Ebreak
            | Instr::Custom2 { .. } => M::Delegate(instr),
        }
    }

    /// `true` when the micro-op ends a basic block: a conditional
    /// branch, or a delegated control transfer, program termination or
    /// coprocessor offload. Hardware-loop setup does not end a block:
    /// its body follows in straight line.
    pub const fn ends_block(&self) -> bool {
        match self {
            MicroOp::Beq(_)
            | MicroOp::Bne(_)
            | MicroOp::Blt(_)
            | MicroOp::Bge(_)
            | MicroOp::Bltu(_)
            | MicroOp::Bgeu(_) => true,
            MicroOp::Delegate(i) => !matches!(
                i,
                Instr::Pulp(PulpInstr::LoopSetupI { .. } | PulpInstr::LoopSetup { .. })
            ),
            _ => false,
        }
    }
}

/// A straight-line run of predecoded micro-ops.
///
/// The block starts at [`DecodedBlock::start`] and covers consecutive
/// 4-byte PCs; the final micro-op either ends the block
/// ([`MicroOp::ends_block`]) or the block was truncated at
/// [`MAX_BLOCK_LEN`] / at a word that failed to decode (the engine
/// re-enters predecode at the following PC, so a stale or invalid word
/// only faults when control actually reaches it — exactly like the
/// fetch-per-instruction interpreter).
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    start: u32,
    ops: Vec<MicroOp>,
}

impl DecodedBlock {
    /// Creates an empty block starting at `start`.
    pub fn new(start: u32) -> Self {
        DecodedBlock {
            start,
            ops: Vec::new(),
        }
    }

    /// Lowers and appends `instr` (located at [`DecodedBlock::end`]);
    /// returns `true` while the block remains open (i.e. the caller
    /// should keep pushing).
    pub fn push(&mut self, instr: Instr) -> bool {
        let op = MicroOp::lower(instr, self.end());
        self.ops.push(op);
        !op.ends_block() && self.ops.len() < MAX_BLOCK_LEN
    }

    /// First PC covered by the block.
    pub const fn start(&self) -> u32 {
        self.start
    }

    /// One past the last byte covered by the block.
    pub fn end(&self) -> u32 {
        self.start.wrapping_add((self.ops.len() * 4) as u32)
    }

    /// Number of micro-ops in the block.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the block holds no micro-ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The predecoded micro-ops, one per instruction.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Index of the micro-op at `pc`, when `pc` is one of the block's
    /// instruction addresses (inside its range and 4-byte aligned
    /// relative to its start).
    #[inline]
    pub fn index_of(&self, pc: u32) -> Option<usize> {
        let off = pc.wrapping_sub(self.start);
        let idx = (off / 4) as usize;
        (off.is_multiple_of(4) && idx < self.ops.len()).then_some(idx)
    }
}

/// Number of direct-mapped front slots (must be a power of two).
const SLOTS: usize = 128;

/// A PC-keyed cache of [`DecodedBlock`]s with write invalidation.
///
/// Lookups hit a direct-mapped front array first (hot loop bodies
/// resolve in a couple of compares) and fall back to a hash map. Writes
/// are screened against the union PC range of all cached blocks, so the
/// common case — data stores far from code — costs two compares.
#[derive(Debug, Clone)]
pub struct BlockCache {
    map: HashMap<u32, Rc<DecodedBlock>>,
    slots: Vec<Option<Rc<DecodedBlock>>>,
    /// Lowest PC covered by any cached block.
    lo: u32,
    /// One past the highest PC covered by any cached block.
    hi: u32,
    generation: u64,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new()
    }
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BlockCache {
            map: HashMap::new(),
            slots: vec![None; SLOTS],
            lo: u32::MAX,
            hi: 0,
            generation: 0,
        }
    }

    const fn slot_of(pc: u32) -> usize {
        ((pc >> 2) as usize) & (SLOTS - 1)
    }

    /// Looks up the block starting exactly at `pc`.
    pub fn get(&self, pc: u32) -> Option<Rc<DecodedBlock>> {
        if let Some(b) = &self.slots[Self::slot_of(pc)] {
            if b.start() == pc {
                return Some(Rc::clone(b));
            }
        }
        self.map.get(&pc).cloned()
    }

    /// Inserts a block and returns the shared handle.
    pub fn insert(&mut self, block: DecodedBlock) -> Rc<DecodedBlock> {
        self.lo = self.lo.min(block.start());
        self.hi = self.hi.max(block.end());
        let rc = Rc::new(block);
        self.slots[Self::slot_of(rc.start())] = Some(Rc::clone(&rc));
        self.map.insert(rc.start(), Rc::clone(&rc));
        rc
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Monotonic counter bumped on every invalidation; the engine
    /// re-reads it after each instruction of a block in flight so a
    /// store into the block's own remainder aborts predecoded execution.
    pub const fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidates every block whose PC range overlaps the `bytes`-byte
    /// store at `addr`. Cheap when the store is outside the union range
    /// of all cached code (the overwhelmingly common case): that screen
    /// is two compares inlined into the store path.
    #[inline]
    pub fn invalidate_write(&mut self, addr: u32, bytes: u32) {
        let end = addr.wrapping_add(bytes);
        if addr >= self.hi || end <= self.lo || self.map.is_empty() {
            return;
        }
        self.invalidate_overlapping(addr, end);
    }

    /// The rest of [`BlockCache::invalidate_write`]: drops the blocks
    /// overlapping `[addr, end)` once the store hit the code range.
    #[cold]
    fn invalidate_overlapping(&mut self, addr: u32, end: u32) {
        let before = self.map.len();
        self.map.retain(|_, b| end <= b.start() || addr >= b.end());
        if self.map.len() != before {
            self.generation += 1;
            for slot in &mut self.slots {
                if let Some(b) = slot {
                    if !(end <= b.start() || addr >= b.end()) {
                        *slot = None;
                    }
                }
            }
            // Recompute the union range from the survivors.
            self.lo = u32::MAX;
            self.hi = 0;
            for b in self.map.values() {
                self.lo = self.lo.min(b.start());
                self.hi = self.hi.max(b.end());
            }
        }
    }

    /// Drops every cached block (used on core reset / program load).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.iter_mut().for_each(|s| *s = None);
        self.lo = u32::MAX;
        self.hi = 0;
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{A0, A1};

    fn addi() -> Instr {
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd: A0,
            rs1: A0,
            imm: 1,
        }
    }

    fn branch() -> Instr {
        Instr::Branch {
            op: BranchOp::Ne,
            rs1: A0,
            rs2: A1,
            offset: -8,
        }
    }

    #[test]
    fn block_ends_at_control_instruction() {
        let mut b = DecodedBlock::new(0x100);
        assert!(b.push(addi()));
        assert!(b.push(addi()));
        assert!(!b.push(branch()));
        assert_eq!(b.len(), 3);
        assert_eq!(b.end(), 0x10c);
        assert_eq!(b.index_of(0x108), Some(2));
        assert_eq!(b.index_of(0x10c), None);
    }

    #[test]
    fn block_caps_at_max_len() {
        let mut b = DecodedBlock::new(0);
        for i in 0..MAX_BLOCK_LEN {
            let open = b.push(addi());
            assert_eq!(open, i + 1 < MAX_BLOCK_LEN);
        }
        assert_eq!(b.len(), MAX_BLOCK_LEN);
    }

    #[test]
    fn lowering_resolves_operations_and_folds_the_pc() {
        let rrr = Rrr {
            rd: 10,
            rs1: 10,
            rs2: 11,
        };
        assert_eq!(
            MicroOp::lower(
                Instr::Op {
                    op: AluOp::Div,
                    rd: A0,
                    rs1: A0,
                    rs2: A1
                },
                0
            ),
            MicroOp::Div(rrr)
        );
        assert_eq!(
            MicroOp::lower(branch(), 0x100),
            MicroOp::Bne(Br {
                rs1: 10,
                rs2: 11,
                target: 0xf8
            })
        );
        let folded = |imm: i32| {
            MicroOp::Addi(Rri {
                rd: 10,
                rs1: 0,
                imm,
            })
        };
        assert_eq!(
            MicroOp::lower(
                Instr::Auipc {
                    rd: A0,
                    imm: 0x2000
                },
                0x40
            ),
            folded(0x2040)
        );
        assert_eq!(
            MicroOp::lower(
                Instr::Lui {
                    rd: A0,
                    imm: 0xffff_f000
                },
                0x40
            ),
            folded(-4096)
        );
        assert_eq!(
            MicroOp::lower(Instr::Ebreak, 0),
            MicroOp::Delegate(Instr::Ebreak)
        );
    }

    #[test]
    fn block_boundaries() {
        assert!(MicroOp::lower(branch(), 0).ends_block());
        assert!(MicroOp::lower(Instr::Ecall, 0).ends_block());
        assert!(!MicroOp::lower(addi(), 0).ends_block());
        // Hardware-loop setup is delegated but its body follows inline.
        let setup = MicroOp::lower(
            Instr::Pulp(PulpInstr::LoopSetupI {
                loop_id: false,
                count: 3,
                body_len: 1,
            }),
            0,
        );
        assert!(matches!(setup, MicroOp::Delegate(_)));
        assert!(!setup.ends_block());
    }

    #[test]
    fn index_of_needs_an_instruction_address() {
        let mut b = DecodedBlock::new(0x100);
        b.push(addi());
        b.push(addi());
        assert_eq!(b.index_of(0x104), Some(1));
        assert_eq!(b.index_of(0x102), None, "not an instruction boundary");
        assert_eq!(b.index_of(0x108), None, "past the block");
        assert_eq!(b.index_of(0xfc), None, "before the block");
    }

    #[test]
    fn cache_roundtrip_and_fast_slot() {
        let mut c = BlockCache::new();
        let mut b = DecodedBlock::new(0x40);
        b.push(addi());
        b.push(branch());
        c.insert(b);
        assert_eq!(c.len(), 1);
        let hit = c.get(0x40).expect("cached");
        assert_eq!(hit.len(), 2);
        assert!(c.get(0x44).is_none(), "keyed by start PC only");
    }

    #[test]
    fn invalidation_is_range_precise() {
        let mut c = BlockCache::new();
        for start in [0x00u32, 0x40, 0x80] {
            let mut b = DecodedBlock::new(start);
            b.push(addi());
            b.push(branch());
            c.insert(b);
        }
        let g0 = c.generation();
        // A data store far above code: no-op, no generation bump.
        c.invalidate_write(0x4000, 4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.generation(), g0);
        // Overwrite the second instruction of the middle block.
        c.invalidate_write(0x44, 4);
        assert_eq!(c.len(), 2);
        assert!(c.get(0x40).is_none());
        assert!(c.get(0x00).is_some() && c.get(0x80).is_some());
        assert!(c.generation() > g0);
        // An unaligned byte store straddling into the last block.
        c.invalidate_write(0x80, 1);
        assert!(c.get(0x80).is_none());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = BlockCache::new();
        let mut b = DecodedBlock::new(0);
        b.push(addi());
        c.insert(b);
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(0).is_none());
    }
}
