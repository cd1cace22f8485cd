//! The RV32IM(+XCVPULP) core model.

use crate::simd::pv_exec;
use crate::timing::Timing;
use crate::xif::{Coprocessor, XifResponse};
use arcane_isa::exec::{BlockCache, DecodedBlock, MicroOp};
use arcane_isa::reg::Gpr;
use arcane_isa::rv32::{decode, AluImmOp, AluOp, BranchOp, Instr, LoadOp, StoreOp};
use arcane_isa::xcvpulp::{PulpInstr, PvOp, SimdWidth};
use arcane_isa::DecodeError;
use arcane_mem::{Access, AccessSize, Bus, BusError, Memory, Sram};
use arcane_sim::EngineMode;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Why [`Cpu::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// An `ebreak` was executed (normal end-of-program marker).
    Break,
    /// An `ecall` was executed.
    Ecall,
    /// The instruction budget was exhausted.
    OutOfFuel,
}

/// Summary of a [`Cpu::run`] invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles consumed (per the [`Timing`] model plus bus wait states).
    pub cycles: u64,
    /// Why execution stopped.
    pub stop: StopReason,
}

/// Error that aborts simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// A bus access faulted.
    Bus {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The underlying bus error.
        source: BusError,
    },
    /// An instruction word failed to decode.
    Decode {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The underlying decode error.
        source: DecodeError,
    },
    /// A custom-2 instruction was rejected by the coprocessor
    /// (the CV-X-IF "kill" outcome).
    RejectedOffload {
        /// Program counter of the offloaded instruction.
        pc: u32,
        /// The raw instruction word.
        raw: u32,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Bus { pc, source } => write!(f, "bus fault at pc {pc:#010x}: {source}"),
            CpuError::Decode { pc, source } => {
                write!(f, "illegal instruction at pc {pc:#010x}: {source}")
            }
            CpuError::RejectedOffload { pc, raw } => write!(
                f,
                "coprocessor rejected instruction {raw:#010x} at pc {pc:#010x}"
            ),
        }
    }
}

impl Error for CpuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CpuError::Bus { source, .. } => Some(source),
            CpuError::Decode { source, .. } => Some(source),
            CpuError::RejectedOffload { .. } => None,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct HwLoop {
    start: u32,
    last: u32,
    remaining: u32,
    active: bool,
}

/// A CV32E40X-class RV32IM(+XCVPULP) core.
///
/// The core is generic over the attached [`Bus`] and [`Coprocessor`] so
/// the identical model drives the baseline system, the XCVPULP baseline
/// and the ARCANE host.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    cycles: u64,
    instret: u64,
    timing: Timing,
    loops: [HwLoop; 2],
    /// `true` while any hardware loop is active (fast-path guard).
    loops_active: bool,
    blocks: BlockCache,
}

impl Cpu {
    /// Creates a core with the default CV32E40X timing, starting at
    /// `reset_pc`.
    pub fn new(reset_pc: u32) -> Self {
        Cpu::with_timing(reset_pc, Timing::default())
    }

    /// Creates a core with an explicit timing model.
    pub fn with_timing(reset_pc: u32, timing: Timing) -> Self {
        Cpu {
            regs: [0; 32],
            pc: reset_pc,
            cycles: 0,
            instret: 0,
            timing,
            loops: [HwLoop::default(); 2],
            loops_active: false,
            blocks: BlockCache::new(),
        }
    }

    /// Current program counter.
    pub const fn pc(&self) -> u32 {
        self.pc
    }

    /// Cycles consumed so far.
    pub const fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub const fn instret(&self) -> u64 {
        self.instret
    }

    /// Reads a register (`x0` always reads zero).
    ///
    /// `Gpr` guarantees the index is below 32; the redundant mask lets
    /// the compiler drop the bounds check from the hottest load in the
    /// simulator.
    #[inline(always)]
    pub fn reg(&self, r: Gpr) -> u32 {
        self.regs[(r.index() & 31) as usize]
    }

    /// Writes a register (writes to `x0` are discarded).
    #[inline(always)]
    pub fn set_reg(&mut self, r: Gpr, value: u32) {
        if !r.is_zero() {
            self.regs[(r.index() & 31) as usize] = value;
        }
    }

    /// Resets PC, registers, counters, hardware loops and the decoded
    /// block cache (instruction memory may be about to change).
    pub fn reset(&mut self, pc: u32) {
        self.regs = [0; 32];
        self.pc = pc;
        self.cycles = 0;
        self.instret = 0;
        self.loops = [HwLoop::default(); 2];
        self.loops_active = false;
        self.blocks.clear();
    }

    /// The decoded-block cache of the block-stepping engine (empty
    /// until the first [`Cpu::run`] in block mode).
    pub const fn block_cache(&self) -> &BlockCache {
        &self.blocks
    }

    /// One data read as the core issues it at `pc`, time `now`: the
    /// bus access plus the misaligned-access penalty.
    #[inline(always)]
    fn mem_read<B: Bus>(
        &self,
        bus: &mut B,
        addr: u32,
        size: AccessSize,
        pc: u32,
        now: u64,
    ) -> Result<Access, CpuError> {
        let mut acc = bus
            .read(addr, size, now)
            .map_err(|source| CpuError::Bus { pc, source })?;
        if !addr.is_multiple_of(size.bytes()) {
            acc.cycles += self.timing.misaligned_extra;
        }
        Ok(acc)
    }

    /// One data write as the core issues it at `pc`, time `now`;
    /// returns its cycles.
    #[inline(always)]
    fn mem_write<B: Bus>(
        &mut self,
        bus: &mut B,
        addr: u32,
        value: u32,
        size: AccessSize,
        pc: u32,
        now: u64,
    ) -> Result<u64, CpuError> {
        let acc = bus
            .write(addr, value, size, now)
            .map_err(|source| CpuError::Bus { pc, source })?;
        // Self-modifying-code guard: drop any predecoded block the
        // store overlaps (two compares when the store is outside code).
        self.blocks.invalidate_write(addr, size.bytes());
        let extra = if !addr.is_multiple_of(size.bytes()) {
            self.timing.misaligned_extra
        } else {
            0
        };
        Ok(acc.cycles + extra)
    }

    /// Executes one instruction.
    ///
    /// Returns `Some(reason)` when the instruction terminates the
    /// program (`ebreak`/`ecall`), `None` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on bus faults, undecodable instructions or
    /// rejected offloads.
    pub fn step<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
    ) -> Result<Option<StopReason>, CpuError> {
        let pc = self.pc;
        // Fetch; prefetch buffer hides single-cycle IMEM latency, so the
        // fetch time is not added to the instruction cost.
        let word = bus
            .fetch(pc, self.cycles)
            .map_err(|source| CpuError::Bus { pc, source })?
            .data;
        let instr = decode(word).map_err(|source| CpuError::Decode { pc, source })?;
        self.exec_instr(bus, xif, instr)
    }

    /// Executes one already-decoded instruction at the current PC.
    ///
    /// This is the reference interpreter's execution path
    /// ([`Cpu::step`]); [`Cpu::run_block`] delegates the instructions it
    /// has no micro-op for (jumps, `ecall`/`ebreak`, offloads,
    /// hardware-loop setup) to it.
    fn exec_instr<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        instr: Instr,
    ) -> Result<Option<StopReason>, CpuError> {
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(4);
        let mut cost = self.timing.alu;
        let mut stop = None;

        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, imm),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm)),
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
                cost = self.timing.jump;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                cost = self.timing.jump;
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                if branch_taken(op, self.reg(rs1), self.reg(rs2)) {
                    next_pc = pc.wrapping_add(offset as u32);
                    cost = self.timing.branch_taken;
                } else {
                    cost = self.timing.branch_not_taken;
                }
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let acc = self.mem_read(bus, addr, load_size(op), pc, self.cycles)?;
                self.set_reg(rd, extend_load(op, acc.data));
                cost = acc.cycles;
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = self.reg(rs2);
                cost = self.mem_write(bus, addr, value, store_size(op), pc, self.cycles)?;
            }
            Instr::OpImm { op, rd, rs1, imm } => self.set_reg(rd, alu_imm(op, self.reg(rs1), imm)),
            Instr::Op { op, rd, rs1, rs2 } => {
                self.set_reg(rd, alu_rr(op, self.reg(rs1), self.reg(rs2)));
                cost = alu_rr_cost(op, &self.timing);
            }
            Instr::Fence => {}
            Instr::Ecall => stop = Some(StopReason::Ecall),
            Instr::Ebreak => stop = Some(StopReason::Break),
            Instr::Pulp(p) => cost = self.exec_pulp(bus, p)?,
            Instr::Custom2 {
                raw,
                rs1,
                rs2,
                rs3,
                rd,
            } => {
                let response = xif.offload(
                    raw,
                    self.reg(rs1),
                    self.reg(rs2),
                    self.reg(rs3),
                    self.cycles,
                );
                match response {
                    XifResponse::Accept { writeback, cycles } => {
                        if let Some(v) = writeback {
                            self.set_reg(rd, v);
                        }
                        cost = cycles.max(1);
                    }
                    XifResponse::Reject => {
                        return Err(CpuError::RejectedOffload { pc, raw });
                    }
                }
            }
        }

        self.cycles += cost;
        self.instret += 1;

        // Guarded by one flag so plain RV32IM code pays a single
        // predictable branch here.
        if self.loops_active && next_pc == pc.wrapping_add(4) {
            next_pc = self.end_loop_body(pc);
        }

        self.pc = next_pc;
        Ok(stop)
    }

    /// Hardware loops: the PC after the instruction at `pc` falls
    /// through — the loop start, with zero overhead, when `pc` is the
    /// last instruction of an active loop body, else `pc + 4`. Loop 0 is
    /// the innermost per the XPULP convention.
    fn end_loop_body(&mut self, pc: u32) -> u32 {
        for l in 0..2 {
            let lp = &mut self.loops[l];
            if lp.active && pc == lp.last {
                if lp.remaining > 1 {
                    lp.remaining -= 1;
                    return lp.start;
                }
                lp.active = false;
                self.loops_active = self.loops[0].active || self.loops[1].active;
                break;
            }
        }
        pc.wrapping_add(4)
    }

    fn exec_pulp<B: Bus>(&mut self, bus: &mut B, p: PulpInstr) -> Result<u64, CpuError> {
        match p {
            PulpInstr::LoadPost {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let acc = self.mem_read(bus, addr, load_size(op), self.pc, self.cycles)?;
                self.set_reg(rd, extend_load(op, acc.data));
                // post-increment must survive rd == rs1 (rd wins on real HW
                // only for rd != rs1; we forbid that case in kernels)
                self.set_reg(rs1, addr.wrapping_add(offset as u32));
                Ok(acc.cycles)
            }
            PulpInstr::StorePost {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let value = self.reg(rs2);
                let cost =
                    self.mem_write(bus, addr, value, store_size(op), self.pc, self.cycles)?;
                self.set_reg(rs1, addr.wrapping_add(offset as u32));
                Ok(cost)
            }
            PulpInstr::Simd {
                op,
                w,
                rd,
                rs1,
                rs2,
            } => {
                let v = pv_exec(op, w, self.reg(rd), self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                Ok(self.timing.simd)
            }
            PulpInstr::Mac { rd, rs1, rs2 } => {
                let v = cv_mac(self.reg(rd), self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                Ok(self.timing.simd)
            }
            PulpInstr::MaxS { rd, rs1, rs2 } => {
                self.set_reg(rd, cv_max(self.reg(rs1), self.reg(rs2)));
                Ok(self.timing.simd)
            }
            PulpInstr::MinS { rd, rs1, rs2 } => {
                self.set_reg(rd, cv_min(self.reg(rs1), self.reg(rs2)));
                Ok(self.timing.simd)
            }
            PulpInstr::Abs { rd, rs1 } => {
                self.set_reg(rd, cv_abs(self.reg(rs1)));
                Ok(self.timing.simd)
            }
            PulpInstr::LoopSetupI {
                loop_id,
                count,
                body_len,
            } => {
                self.setup_loop(loop_id, count as u32, body_len as u32);
                Ok(self.timing.loop_setup)
            }
            PulpInstr::LoopSetup {
                loop_id,
                count,
                body_len,
            } => {
                let n = self.reg(count);
                self.setup_loop(loop_id, n, body_len as u32);
                Ok(self.timing.loop_setup)
            }
        }
    }

    fn setup_loop(&mut self, loop_id: bool, count: u32, body_len: u32) {
        let idx = loop_id as usize;
        let start = self.pc.wrapping_add(4);
        let lp = &mut self.loops[idx];
        if count == 0 || body_len == 0 {
            lp.active = false;
            self.loops_active = self.loops[0].active || self.loops[1].active;
            return;
        }
        lp.start = start;
        lp.last = start.wrapping_add((body_len - 1) * 4);
        lp.remaining = count;
        lp.active = true;
        self.loops_active = true;
    }

    /// Runs until `ebreak`/`ecall` or until `max_instrs` instructions
    /// have retired, on the engine selected by the environment
    /// ([`EngineMode::current`]: block stepping unless `ARCANE_INTERP=1`).
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`] raised by execution.
    pub fn run<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        max_instrs: u64,
    ) -> Result<RunResult, CpuError> {
        self.run_with_engine(bus, xif, max_instrs, EngineMode::current())
    }

    /// [`Cpu::run`] with an explicit engine choice (used by the
    /// differential tests, which need both engines in one process).
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`] raised by execution.
    pub fn run_with_engine<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        max_instrs: u64,
        engine: EngineMode,
    ) -> Result<RunResult, CpuError> {
        match engine {
            EngineMode::Interp => self.run_interp(bus, xif, max_instrs),
            EngineMode::Block => self.run_blocks(bus, xif, max_instrs),
        }
    }

    /// The reference fetch-decode-execute interpreter (the slow path).
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`] raised by [`Cpu::step`].
    pub fn run_interp<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        max_instrs: u64,
    ) -> Result<RunResult, CpuError> {
        let start_instret = self.instret;
        let start_cycles = self.cycles;
        while self.instret - start_instret < max_instrs {
            if let Some(stop) = self.step(bus, xif)? {
                return Ok(RunResult {
                    instret: self.instret - start_instret,
                    cycles: self.cycles - start_cycles,
                    stop,
                });
            }
        }
        Ok(RunResult {
            instret: self.instret - start_instret,
            cycles: self.cycles - start_cycles,
            stop: StopReason::OutOfFuel,
        })
    }

    /// The predecoded block-stepping engine: fetch/decode happen once
    /// per basic block (cached by PC), execution loops over the block's
    /// micro-ops ([`Cpu::run_block`]). Hardware-loop bodies and branch-closed inner loops
    /// re-enter their memoised block without touching the bus.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`] raised by execution; fetch and
    /// decode faults surface at exactly the PC where the interpreter
    /// would raise them (predecode truncates a block at the first bad
    /// word instead of failing eagerly).
    pub fn run_blocks<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        max_instrs: u64,
    ) -> Result<RunResult, CpuError> {
        let start_instret = self.instret;
        let start_cycles = self.cycles;
        let mut cur: Option<Rc<DecodedBlock>> = None;
        while self.instret - start_instret < max_instrs {
            let remaining = max_instrs - (self.instret - start_instret);
            // Self-loop fast path: a block whose terminator jumps back
            // to its own start (hot inner loops, hardware-loop bodies)
            // is re-entered without a cache lookup.
            let block = match cur.take() {
                Some(b) if b.start() == self.pc && !b.is_empty() => b,
                _ => self.fetch_block(bus)?,
            };
            let gen = self.blocks.generation();
            if let Some(stop) = self.run_block(bus, xif, &block, remaining)? {
                return Ok(RunResult {
                    instret: self.instret - start_instret,
                    cycles: self.cycles - start_cycles,
                    stop,
                });
            }
            // The self-loop fast path must never hand back a block a
            // store just invalidated (the held Rc outlives the cache
            // entry): any invalidation during the run drops the
            // shortcut and the next iteration re-resolves through the
            // cache, which re-predecodes from patched memory.
            cur = if self.blocks.generation() == gen {
                Some(block)
            } else {
                None
            };
        }
        Ok(RunResult {
            instret: self.instret - start_instret,
            cycles: self.cycles - start_cycles,
            stop: StopReason::OutOfFuel,
        })
    }

    /// Returns the decoded block starting at the current PC, predecoding
    /// and caching it on a miss.
    fn fetch_block<B: Bus>(&mut self, bus: &mut B) -> Result<Rc<DecodedBlock>, CpuError> {
        let pc = self.pc;
        if let Some(b) = self.blocks.get(pc) {
            return Ok(b);
        }
        let mut block = DecodedBlock::new(pc);
        let mut addr = pc;
        loop {
            // A fetch or decode fault on the *first* word is a real
            // fault (the interpreter would raise it here too); later
            // words merely truncate the block, because control may
            // never reach them.
            let word = match bus.fetch(addr, self.cycles) {
                Ok(acc) => acc.data,
                Err(source) => {
                    if addr == pc {
                        return Err(CpuError::Bus { pc, source });
                    }
                    break;
                }
            };
            let instr = match decode(word) {
                Ok(i) => i,
                Err(source) => {
                    if addr == pc {
                        return Err(CpuError::Decode { pc, source });
                    }
                    break;
                }
            };
            let open = block.push(instr);
            addr = addr.wrapping_add(4);
            if !open {
                break;
            }
        }
        Ok(self.blocks.insert(block))
    }

    /// Executes the micro-ops of `block` starting at the current PC
    /// until the block ends, control leaves the straight line (taken
    /// branch, jump, hardware-loop wrap), a store invalidates cached
    /// code, the program stops, or `max_instrs` instructions have
    /// retired.
    ///
    /// The PC comes from the block index, and cycles and instret live
    /// in locals; all three are written back to the core at every exit
    /// (including a fault, which leaves the faulting PC and the counts
    /// before it, exactly like [`Cpu::step`]) and before every
    /// delegated instruction.
    ///
    /// Returns the stop reason when the program terminated.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`] raised by an instruction.
    pub fn run_block<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        block: &DecodedBlock,
        max_instrs: u64,
    ) -> Result<Option<StopReason>, CpuError> {
        debug_assert!(
            block.index_of(self.pc).is_some(),
            "pc {:#010x} outside block at {:#010x}",
            self.pc,
            block.start()
        );
        let start = block.start();
        let ops = block.ops();
        let t = self.timing;
        let gen = self.blocks.generation();
        let mut idx = (self.pc.wrapping_sub(start) / 4) as usize;
        let mut cycles = self.cycles;
        let instret0 = self.instret;
        let mut executed = 0u64;

        // The PC of the micro-op at `idx`; derived only where needed.
        macro_rules! pc_of {
            ($idx:expr) => {
                start.wrapping_add(($idx as u32) << 2)
            };
        }
        // Writes the register-local state back to the core.
        macro_rules! sync {
            ($pc:expr) => {
                self.pc = $pc;
                self.cycles = cycles;
                self.instret = instret0 + executed;
            };
        }
        // Continues at `$next` when it is one of this block's
        // instructions — a loop body wrapping to its start, a branch
        // closing a loop — and otherwise returns, so the caller
        // re-resolves the block at the new PC.
        macro_rules! goto {
            ($next:expr) => {{
                let next = $next;
                match block.index_of(next) {
                    Some(i) => {
                        idx = i;
                        continue;
                    }
                    None => {
                        sync!(next);
                        return Ok(None);
                    }
                }
            }};
        }
        // The PC after the instruction at `pc` falls through: a
        // fall-through off the last instruction of an active
        // hardware-loop body wraps to the loop start.
        macro_rules! fall_from {
            ($pc:expr) => {{
                let pc = $pc;
                if self.loops_active {
                    self.end_loop_body(pc)
                } else {
                    pc.wrapping_add(4)
                }
            }};
        }

        macro_rules! x {
            ($r:expr) => {
                self.regs[($r & 31) as usize]
            };
        }
        macro_rules! set {
            ($r:expr, $v:expr) => {{
                let v = $v;
                if $r != 0 {
                    self.regs[($r & 31) as usize] = v;
                }
            }};
        }
        // A faulting access retires nothing: the core stops at the
        // faulting PC.
        macro_rules! fault {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => {
                        sync!(pc_of!(idx));
                        return Err(e);
                    }
                }
            };
        }
        macro_rules! imm {
            ($o:expr, $op:expr) => {{
                set!($o.rd, alu_imm($op, x!($o.rs1), $o.imm));
                t.alu
            }};
        }
        macro_rules! rr {
            ($o:expr, $op:expr) => {{
                set!($o.rd, alu_rr($op, x!($o.rs1), x!($o.rs2)));
                alu_rr_cost($op, &t)
            }};
        }
        macro_rules! load {
            ($o:expr, $op:expr, $post:expr) => {{
                let base = x!($o.rs1);
                let addr = if $post {
                    base
                } else {
                    base.wrapping_add($o.imm as u32)
                };
                let acc = fault!(self.mem_read(bus, addr, load_size($op), pc_of!(idx), cycles));
                set!($o.rd, extend_load($op, acc.data));
                if $post {
                    set!($o.rs1, base.wrapping_add($o.imm as u32));
                }
                acc.cycles
            }};
        }
        // Only stores can invalidate predecoded code. The check runs
        // before the continuation: a store can itself end a
        // hardware-loop body, and wrapping back into a block it just
        // invalidated would replay stale instructions. Leaving makes
        // the caller predecode afresh at the next PC, exactly like
        // the interpreter refetching.
        macro_rules! store {
            ($o:expr, $op:expr, $post:expr) => {{
                let base = x!($o.rs1);
                let addr = if $post {
                    base
                } else {
                    base.wrapping_add($o.imm as u32)
                };
                let value = x!($o.rs2);
                let c =
                    fault!(self.mem_write(bus, addr, value, store_size($op), pc_of!(idx), cycles));
                if $post {
                    set!($o.rs1, base.wrapping_add($o.imm as u32));
                }
                if self.blocks.generation() != gen {
                    cycles += c;
                    executed += 1;
                    sync!(fall_from!(pc_of!(idx)));
                    return Ok(None);
                }
                c
            }};
        }
        // Branches end their block: charge, then continue on this
        // block only if the next PC is one of its instructions.
        macro_rules! branch {
            ($b:expr, $op:expr) => {{
                let pc = pc_of!(idx);
                let taken = branch_taken($op, x!($b.rs1), x!($b.rs2));
                cycles += if taken {
                    t.branch_taken
                } else {
                    t.branch_not_taken
                };
                executed += 1;
                // A taken branch to the next instruction is a
                // fall-through too, as far as hardware loops go.
                if taken && $b.target != pc.wrapping_add(4) {
                    goto!($b.target)
                }
                goto!(fall_from!(pc))
            }};
        }
        macro_rules! pv {
            ($o:expr, $op:expr, $w:expr) => {{
                set!($o.rd, pv_exec($op, $w, x!($o.rd), x!($o.rs1), x!($o.rs2)));
                t.simd
            }};
        }
        macro_rules! dsp {
            ($o:expr, $v:expr) => {{
                set!($o.rd, $v);
                t.simd
            }};
        }

        while idx < ops.len() && executed < max_instrs {
            use MicroOp as M;
            use SimdWidth::{B as PB, H as PH};
            let cost = match ops[idx] {
                M::Addi(o) => imm!(o, AluImmOp::Addi),
                M::Slti(o) => imm!(o, AluImmOp::Slti),
                M::Sltiu(o) => imm!(o, AluImmOp::Sltiu),
                M::Xori(o) => imm!(o, AluImmOp::Xori),
                M::Ori(o) => imm!(o, AluImmOp::Ori),
                M::Andi(o) => imm!(o, AluImmOp::Andi),
                M::Slli(o) => imm!(o, AluImmOp::Slli),
                M::Srli(o) => imm!(o, AluImmOp::Srli),
                M::Srai(o) => imm!(o, AluImmOp::Srai),
                M::Add(o) => rr!(o, AluOp::Add),
                M::Sub(o) => rr!(o, AluOp::Sub),
                M::Sll(o) => rr!(o, AluOp::Sll),
                M::Slt(o) => rr!(o, AluOp::Slt),
                M::Sltu(o) => rr!(o, AluOp::Sltu),
                M::Xor(o) => rr!(o, AluOp::Xor),
                M::Srl(o) => rr!(o, AluOp::Srl),
                M::Sra(o) => rr!(o, AluOp::Sra),
                M::Or(o) => rr!(o, AluOp::Or),
                M::And(o) => rr!(o, AluOp::And),
                M::Mul(o) => rr!(o, AluOp::Mul),
                M::Mulh(o) => rr!(o, AluOp::Mulh),
                M::Mulhsu(o) => rr!(o, AluOp::Mulhsu),
                M::Mulhu(o) => rr!(o, AluOp::Mulhu),
                M::Div(o) => rr!(o, AluOp::Div),
                M::Divu(o) => rr!(o, AluOp::Divu),
                M::Rem(o) => rr!(o, AluOp::Rem),
                M::Remu(o) => rr!(o, AluOp::Remu),
                M::Lb(o) => load!(o, LoadOp::Lb, false),
                M::Lh(o) => load!(o, LoadOp::Lh, false),
                M::Lw(o) => load!(o, LoadOp::Lw, false),
                M::Lbu(o) => load!(o, LoadOp::Lbu, false),
                M::Lhu(o) => load!(o, LoadOp::Lhu, false),
                M::Sb(o) => store!(o, StoreOp::Sb, false),
                M::Sh(o) => store!(o, StoreOp::Sh, false),
                M::Sw(o) => store!(o, StoreOp::Sw, false),
                M::CvLbPost(o) => load!(o, LoadOp::Lb, true),
                M::CvLhPost(o) => load!(o, LoadOp::Lh, true),
                M::CvLwPost(o) => load!(o, LoadOp::Lw, true),
                M::CvLbuPost(o) => load!(o, LoadOp::Lbu, true),
                M::CvLhuPost(o) => load!(o, LoadOp::Lhu, true),
                M::CvSbPost(o) => store!(o, StoreOp::Sb, true),
                M::CvShPost(o) => store!(o, StoreOp::Sh, true),
                M::CvSwPost(o) => store!(o, StoreOp::Sw, true),
                M::Beq(b) => branch!(b, BranchOp::Eq),
                M::Bne(b) => branch!(b, BranchOp::Ne),
                M::Blt(b) => branch!(b, BranchOp::Lt),
                M::Bge(b) => branch!(b, BranchOp::Ge),
                M::Bltu(b) => branch!(b, BranchOp::Ltu),
                M::Bgeu(b) => branch!(b, BranchOp::Geu),
                M::PvAddB(o) => pv!(o, PvOp::Add, PB),
                M::PvSubB(o) => pv!(o, PvOp::Sub, PB),
                M::PvMaxB(o) => pv!(o, PvOp::Max, PB),
                M::PvMinB(o) => pv!(o, PvOp::Min, PB),
                M::PvDotspB(o) => pv!(o, PvOp::Dotsp, PB),
                M::PvSdotspB(o) => pv!(o, PvOp::Sdotsp, PB),
                M::PvDotupB(o) => pv!(o, PvOp::Dotup, PB),
                M::PvAddH(o) => pv!(o, PvOp::Add, PH),
                M::PvSubH(o) => pv!(o, PvOp::Sub, PH),
                M::PvMaxH(o) => pv!(o, PvOp::Max, PH),
                M::PvMinH(o) => pv!(o, PvOp::Min, PH),
                M::PvDotspH(o) => pv!(o, PvOp::Dotsp, PH),
                M::PvSdotspH(o) => pv!(o, PvOp::Sdotsp, PH),
                M::PvDotupH(o) => pv!(o, PvOp::Dotup, PH),
                M::CvMac(o) => dsp!(o, cv_mac(x!(o.rd), x!(o.rs1), x!(o.rs2))),
                M::CvMax(o) => dsp!(o, cv_max(x!(o.rs1), x!(o.rs2))),
                M::CvMin(o) => dsp!(o, cv_min(x!(o.rs1), x!(o.rs2))),
                M::CvAbs(o) => dsp!(o, cv_abs(x!(o.rs1))),
                M::Delegate(instr) => {
                    sync!(pc_of!(idx));
                    let stop = self.exec_instr(bus, xif, instr)?;
                    if stop.is_some() {
                        return Ok(stop);
                    }
                    cycles = self.cycles;
                    executed += 1;
                    // The interpreter path has already applied any
                    // hardware-loop wrap.
                    goto!(self.pc)
                }
            };
            cycles += cost;
            executed += 1;
            if self.loops_active {
                let pc = pc_of!(idx);
                let next = self.end_loop_body(pc);
                if next != pc.wrapping_add(4) {
                    goto!(next)
                }
            }
            idx += 1;
        }
        sync!(pc_of!(idx));
        Ok(None)
    }
}

// Instruction semantics shared by the reference interpreter and the
// micro-op engine. Each is `#[inline(always)]`: the micro-op engine
// calls them with a constant operation, which folds the inner match
// away.

#[inline(always)]
fn load_size(op: LoadOp) -> AccessSize {
    match op.size() {
        1 => AccessSize::Byte,
        2 => AccessSize::Half,
        _ => AccessSize::Word,
    }
}

#[inline(always)]
fn store_size(op: StoreOp) -> AccessSize {
    match op.size() {
        1 => AccessSize::Byte,
        2 => AccessSize::Half,
        _ => AccessSize::Word,
    }
}

#[inline(always)]
fn extend_load(op: LoadOp, raw: u32) -> u32 {
    match op {
        LoadOp::Lb => raw as u8 as i8 as i32 as u32,
        LoadOp::Lh => raw as u16 as i16 as i32 as u32,
        LoadOp::Lbu => raw as u8 as u32,
        LoadOp::Lhu => raw as u16 as u32,
        LoadOp::Lw => raw,
    }
}

#[inline(always)]
fn branch_taken(op: BranchOp, a: u32, b: u32) -> bool {
    match op {
        BranchOp::Eq => a == b,
        BranchOp::Ne => a != b,
        BranchOp::Lt => (a as i32) < (b as i32),
        BranchOp::Ge => (a as i32) >= (b as i32),
        BranchOp::Ltu => a < b,
        BranchOp::Geu => a >= b,
    }
}

#[inline(always)]
fn alu_imm(op: AluImmOp, a: u32, imm: i32) -> u32 {
    match op {
        AluImmOp::Addi => a.wrapping_add(imm as u32),
        AluImmOp::Slti => ((a as i32) < imm) as u32,
        AluImmOp::Sltiu => (a < imm as u32) as u32,
        AluImmOp::Xori => a ^ imm as u32,
        AluImmOp::Ori => a | imm as u32,
        AluImmOp::Andi => a & imm as u32,
        AluImmOp::Slli => a.wrapping_shl(imm as u32),
        AluImmOp::Srli => a.wrapping_shr(imm as u32),
        AluImmOp::Srai => ((a as i32).wrapping_shr(imm as u32)) as u32,
    }
}

#[inline(always)]
fn alu_rr(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        AluOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
        AluOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[inline(always)]
fn alu_rr_cost(op: AluOp, t: &Timing) -> u64 {
    match op {
        AluOp::Mul => t.mul,
        AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => t.mulh,
        AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => t.div,
        _ => t.alu,
    }
}

#[inline(always)]
fn cv_mac(acc: u32, a: u32, b: u32) -> u32 {
    acc.wrapping_add(a.wrapping_mul(b))
}

#[inline(always)]
fn cv_max(a: u32, b: u32) -> u32 {
    (a as i32).max(b as i32) as u32
}

#[inline(always)]
fn cv_min(a: u32, b: u32) -> u32 {
    (a as i32).min(b as i32) as u32
}

#[inline(always)]
fn cv_abs(a: u32) -> u32 {
    (a as i32).wrapping_abs() as u32
}

/// A flat single-SRAM bus for unit tests and small standalone programs.
///
/// Instruction fetches and data accesses hit the same zero-based SRAM
/// with single-cycle latency.
#[derive(Debug, Clone)]
pub struct SramBus {
    ram: Sram,
}

impl SramBus {
    /// Creates a bus backed by `size` bytes of SRAM at address zero.
    pub fn new(size: usize) -> Self {
        SramBus {
            ram: Sram::new(0, size),
        }
    }

    /// Loads a program image (32-bit little-endian words) at `addr`.
    pub fn load_program(&mut self, addr: u32, words: &[u32]) {
        self.ram.load_words(addr, words);
    }

    /// Access to the underlying memory (for seeding data sections).
    pub fn ram_mut(&mut self) -> &mut Sram {
        &mut self.ram
    }

    /// Read-only access to the underlying memory.
    pub fn ram(&self) -> &Sram {
        &self.ram
    }
}

impl Bus for SramBus {
    #[inline]
    fn read(&mut self, addr: u32, size: AccessSize, _now: u64) -> Result<Access, BusError> {
        let mut buf = [0u8; 4];
        self.ram
            .read_bytes(addr, &mut buf[..size.bytes() as usize])?;
        Ok(Access::new(u32::from_le_bytes(buf), 1))
    }

    #[inline]
    fn write(
        &mut self,
        addr: u32,
        value: u32,
        size: AccessSize,
        _now: u64,
    ) -> Result<Access, BusError> {
        self.ram
            .write_bytes(addr, &value.to_le_bytes()[..size.bytes() as usize])?;
        Ok(Access::new(0, 1))
    }

    #[inline]
    fn fetch(&mut self, addr: u32, _now: u64) -> Result<Access, BusError> {
        Ok(Access::new(self.ram.read_u32(addr)?, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xif::NoCoprocessor;
    use arcane_isa::asm::Asm;
    use arcane_isa::reg::*;
    use arcane_isa::xcvpulp::{PvOp, SimdWidth};

    fn run_asm(build: impl FnOnce(&mut Asm)) -> (Cpu, SramBus, RunResult) {
        let mut a = Asm::new();
        build(&mut a);
        let words = a.assemble(0).unwrap();
        let mut bus = SramBus::new(256 * 1024);
        bus.load_program(0, &words);
        let mut cpu = Cpu::new(0);
        let r = cpu.run(&mut bus, &mut NoCoprocessor, 10_000_000).unwrap();
        (cpu, bus, r)
    }

    #[test]
    fn arithmetic_basics() {
        let (cpu, _, r) = run_asm(|a| {
            a.li(A0, 100);
            a.li(A1, -7);
            a.add(A2, A0, A1); // 93
            a.mul(A3, A0, A1); // -700
            a.op(AluOp::Div, A4, A0, A1); // -14
            a.op(AluOp::Rem, A5, A0, A1); // 2
            a.ebreak();
        });
        assert_eq!(r.stop, StopReason::Break);
        assert_eq!(cpu.reg(A2), 93);
        assert_eq!(cpu.reg(A3) as i32, -700);
        assert_eq!(cpu.reg(A4) as i32, -14);
        assert_eq!(cpu.reg(A5) as i32, 2);
    }

    #[test]
    fn division_edge_cases() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A0, 5);
            a.li(A1, 0);
            a.op(AluOp::Div, A2, A0, A1); // -1 per spec
            a.op(AluOp::Rem, A3, A0, A1); // 5 per spec
            a.li(A4, i32::MIN);
            a.li(A5, -1);
            a.op(AluOp::Div, A6, A4, A5); // overflow -> i32::MIN
            a.ebreak();
        });
        assert_eq!(cpu.reg(A2), u32::MAX);
        assert_eq!(cpu.reg(A3), 5);
        assert_eq!(cpu.reg(A6), 0x8000_0000);
    }

    #[test]
    fn loads_and_stores_with_sign_extension() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(T0, 0x1000);
            a.li(T1, -2); // 0xfffffffe
            a.sb(T1, T0, 0);
            a.lb(A0, T0, 0); // -2 sign extended
            a.load(LoadOp::Lbu, A1, T0, 0); // 0xfe
            a.sh(T1, T0, 4);
            a.lh(A2, T0, 4);
            a.load(LoadOp::Lhu, A3, T0, 4);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0) as i32, -2);
        assert_eq!(cpu.reg(A1), 0xfe);
        assert_eq!(cpu.reg(A2) as i32, -2);
        assert_eq!(cpu.reg(A3), 0xfffe);
    }

    #[test]
    fn loop_sums_first_n_integers() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A0, 0); // sum
            a.li(A1, 1); // i
            a.li(A2, 101); // bound
            let top = a.bind_label();
            a.add(A0, A0, A1);
            a.addi(A1, A1, 1);
            a.blt(A1, A2, top);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 5050);
    }

    #[test]
    fn taken_branches_cost_more() {
        // same instruction count; one with taken branch, one without
        let (_, _, taken) = run_asm(|a| {
            let skip = a.label();
            a.li(A0, 0);
            a.beq(A0, ZERO, skip); // taken
            a.nop();
            a.bind(skip);
            a.ebreak();
        });
        let (_, _, not_taken) = run_asm(|a| {
            let skip = a.label();
            a.li(A0, 1);
            a.beq(A0, ZERO, skip); // not taken
            a.nop();
            a.bind(skip);
            a.ebreak();
        });
        // taken: li(1) + branch(3) + ebreak vs not: li + branch(1) + nop + ebreak
        assert_eq!(taken.cycles, 1 + 3 + 1);
        assert_eq!(not_taken.cycles, 1 + 1 + 1 + 1);
    }

    #[test]
    fn function_call_and_return() {
        let (cpu, _, _) = run_asm(|a| {
            let f = a.label();
            let done = a.label();
            a.li(A0, 5);
            a.call(f);
            a.j(done);
            a.bind(f);
            a.slli(A0, A0, 1); // double
            a.ret();
            a.bind(done);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 10);
    }

    #[test]
    fn hardware_loop_executes_exact_count() {
        let (cpu, _, r) = run_asm(|a| {
            a.li(A0, 0);
            a.cv_setupi(false, 10, 1);
            a.addi(A0, A0, 1); // body: 1 instruction, 10 times
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 10);
        // li + setup + 10 bodies + ebreak = 13 retired instructions
        assert_eq!(r.instret, 13);
        // and zero branch overhead: 13 single-cycle ops
        assert_eq!(r.cycles, 13);
    }

    #[test]
    fn nested_hardware_loops() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A0, 0);
            a.li(T0, 4);
            a.cv_setup(true, T0, 3); // outer: 3-instr body, 4 times
            a.cv_setupi(false, 5, 1); // inner: 1-instr body, 5 times
            a.addi(A0, A0, 1);
            a.nop(); // pad so outer body = setup_inner + body + nop
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 20);
    }

    #[test]
    fn post_increment_load_walks_array() {
        let (cpu, _, _) = run_asm(|a| {
            // store 3 words, then walk them with cv.lw post-inc
            a.li(T0, 0x2000);
            a.li(T1, 7);
            a.sw(T1, T0, 0);
            a.li(T1, 11);
            a.sw(T1, T0, 4);
            a.li(T1, 13);
            a.sw(T1, T0, 8);
            a.li(A0, 0);
            a.cv_setupi(false, 3, 2);
            a.cv_lw_post(A1, T0, 4);
            a.add(A0, A0, A1);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 31);
        assert_eq!(cpu.reg(T0), 0x2000 + 12);
    }

    #[test]
    fn simd_dot_product_through_iss() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A1, i32::from_le_bytes([1, 2, 3, 4]));
            a.li(A2, i32::from_le_bytes([5, 6, 7, 8]));
            a.li(A0, 100);
            a.pv(PvOp::Sdotsp, SimdWidth::B, A0, A1, A2);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 170);
    }

    #[test]
    fn misaligned_access_costs_extra() {
        let (_, _, aligned) = run_asm(|a| {
            a.li(T0, 0x1000);
            a.lw(A0, T0, 0);
            a.ebreak();
        });
        let (_, _, misaligned) = run_asm(|a| {
            a.li(T0, 0x1000);
            a.lw(A0, T0, 1);
            a.ebreak();
        });
        assert_eq!(misaligned.cycles, aligned.cycles + 1);
    }

    #[test]
    fn x0_stays_zero() {
        let (cpu, _, _) = run_asm(|a| {
            a.addi(ZERO, ZERO, 5);
            a.ebreak();
        });
        assert_eq!(cpu.reg(ZERO), 0);
    }

    #[test]
    fn rejected_offload_reports_error() {
        let mut a = Asm::new();
        a.raw(arcane_isa::xmnmc::xmr_instr(
            arcane_sim::Sew::Word,
            A0,
            A1,
            A2,
        ));
        let words = a.assemble(0).unwrap();
        let mut bus = SramBus::new(4096);
        bus.load_program(0, &words);
        let mut cpu = Cpu::new(0);
        let err = cpu.run(&mut bus, &mut NoCoprocessor, 10).unwrap_err();
        assert!(matches!(err, CpuError::RejectedOffload { pc: 0, .. }));
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let (_, _, r) = run_asm(|a| {
            let top = a.bind_label();
            a.j(top);
        });
        assert_eq!(r.stop, StopReason::OutOfFuel);
    }
}
