//! Differential harness: random short programs through the reference
//! interpreter and the predecoded block engine must be observationally
//! identical — registers, memory, cycle count, retired-instruction
//! count, final PC and stop reason (or the exact same [`CpuError`]).
//!
//! Programs are generated as *valid-by-construction instruction soup*
//! plus a slice of genuinely random words, and cover every micro-op the
//! block engine has: RV32IM arithmetic over random register values,
//! loads/stores of every width (plain and post-increment) near
//! pre-seeded base pointers (in range so runs get deep, but stores may
//! land on code — exercising the self-modifying-code invalidation),
//! forward and backward branches, `jal`/`jalr` (fuel bounds the
//! infinite loops), immediate- and register-count hardware loops, every
//! packed-SIMD op at both widths and the scalar DSP ops. Failures must
//! reproduce: the proptest shim is deterministic per test name.

use arcane_isa::exec::MAX_BLOCK_LEN;
use arcane_isa::reg::Gpr;
use arcane_isa::rv32::{encode, AluImmOp, AluOp, BranchOp, Instr, LoadOp, StoreOp};
use arcane_isa::xcvpulp::{PulpInstr, PvOp, SimdWidth};
use arcane_rv32::{Cpu, CpuError, NoCoprocessor, RunResult, SramBus, StopReason};
use arcane_sim::EngineMode;
use proptest::prelude::*;

/// RAM size: program at 0, data pointers seeded within this range.
const RAM: usize = 64 * 1024;

/// Fuel per case (small, so random backward branches terminate fast).
const FUEL: u64 = 20_000;

fn gpr(i: u8) -> Gpr {
    Gpr::new(i % 32).expect("masked")
}

/// One generated instruction, from a compact random tuple.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: u8,
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i32,
    aux: u8,
}

/// A nearby instruction-aligned word delta from `index`, staying inside
/// the `len`-word image (fuel bounds the loops this creates).
fn nearby(imm: i32, index: usize, len: usize) -> i32 {
    let lo = -(index as i32);
    let hi = (len - index) as i32;
    (imm % 8).clamp(lo, hi - 1).max(lo)
}

const LOADS: [LoadOp; 5] = [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu];
const STORES: [StoreOp; 3] = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw];
const PV_OPS: [PvOp; 7] = [
    PvOp::Add,
    PvOp::Sub,
    PvOp::Max,
    PvOp::Min,
    PvOp::Dotsp,
    PvOp::Sdotsp,
    PvOp::Dotup,
];

/// Number of instruction kinds [`word_of`] generates.
const KINDS: u8 = 18;

fn word_of(s: Spec, index: usize, len: usize) -> u32 {
    // Destinations mostly stay in x16..x31 and memory bases in x1..x15,
    // so the base pointers survive and runs get deep; one draw in eight
    // may name any register.
    let rd = if s.rd >= 224 {
        gpr(s.rd)
    } else {
        gpr(16 + s.rd % 16)
    };
    let base = if s.rs1 >= 224 {
        gpr(s.rs1)
    } else {
        gpr(1 + s.rs1 % 15)
    };
    let rs1 = gpr(s.rs1);
    let rs2 = gpr(s.rs2);
    // Raw words end a run early; keep them to one kind in four draws.
    let kind = match s.kind % KINDS {
        11 if !s.aux.is_multiple_of(4) => 2,
        k => k,
    };
    let instr = match kind {
        0 => Instr::OpImm {
            op: [
                AluImmOp::Addi,
                AluImmOp::Slti,
                AluImmOp::Sltiu,
                AluImmOp::Xori,
                AluImmOp::Ori,
                AluImmOp::Andi,
            ][(s.aux % 6) as usize],
            rd,
            rs1,
            imm: s.imm.clamp(-2048, 2047),
        },
        1 => Instr::OpImm {
            op: [AluImmOp::Slli, AluImmOp::Srli, AluImmOp::Srai][(s.aux % 3) as usize],
            rd,
            rs1,
            imm: s.imm.rem_euclid(32),
        },
        2 => Instr::Op {
            op: [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Sll,
                AluOp::Slt,
                AluOp::Sltu,
                AluOp::Xor,
                AluOp::Srl,
                AluOp::Sra,
                AluOp::Or,
                AluOp::And,
                AluOp::Mul,
                AluOp::Mulh,
                AluOp::Mulhsu,
                AluOp::Mulhu,
                AluOp::Div,
                AluOp::Divu,
                AluOp::Rem,
                AluOp::Remu,
            ][(s.aux % 18) as usize],
            rd,
            rs1,
            rs2,
        },
        3 => Instr::Load {
            op: LOADS[(s.aux % 5) as usize],
            rd,
            rs1: base,
            offset: s.imm.clamp(-256, 256),
        },
        4 => Instr::Store {
            op: STORES[(s.aux % 3) as usize],
            rs2,
            rs1: base,
            offset: s.imm.clamp(-256, 256),
        },
        5 => Instr::Branch {
            op: [
                BranchOp::Eq,
                BranchOp::Ne,
                BranchOp::Lt,
                BranchOp::Ge,
                BranchOp::Ltu,
                BranchOp::Geu,
            ][(s.aux % 6) as usize],
            rs1,
            rs2,
            offset: nearby(s.imm, index, len) * 4,
        },
        6 => Instr::Lui {
            rd,
            imm: (s.imm as u32) & 0xffff_f000,
        },
        7 => Instr::Pulp(PulpInstr::LoopSetupI {
            loop_id: s.aux % 2 == 1,
            count: u16::from(s.rs2 % 6) + 1,
            body_len: s.rd % 4 + 1,
        }),
        // Post-increment loads of every width; every other one writes
        // its own base register (`rd == rs1`: the increment wins).
        8 => Instr::Pulp(PulpInstr::LoadPost {
            op: LOADS[(s.aux % 5) as usize],
            rd: if s.aux & 8 != 0 { base } else { rd },
            rs1: base,
            offset: i32::from(s.rs2 % 8) - 2,
        }),
        9 => Instr::Pulp(PulpInstr::Mac { rd, rs1, rs2 }),
        10 => Instr::Auipc {
            rd,
            imm: (s.imm as u32) & 0x0000_f000,
        },
        12 => Instr::Pulp(PulpInstr::StorePost {
            op: STORES[(s.aux % 3) as usize],
            rs2,
            rs1: base,
            offset: s.imm.clamp(-16, 16),
        }),
        13 => Instr::Pulp(PulpInstr::Simd {
            op: PV_OPS[(s.aux % 7) as usize],
            w: if (s.aux / 7).is_multiple_of(2) {
                SimdWidth::B
            } else {
                SimdWidth::H
            },
            rd,
            rs1,
            rs2,
        }),
        14 => Instr::Pulp(match s.aux % 3 {
            0 => PulpInstr::MaxS { rd, rs1, rs2 },
            1 => PulpInstr::MinS { rd, rs1, rs2 },
            _ => PulpInstr::Abs { rd, rs1 },
        }),
        // Register-count hardware loop (the count register may be 0,
        // small, or a data address; fuel bounds the long ones).
        15 => Instr::Pulp(PulpInstr::LoopSetup {
            loop_id: s.aux % 2 == 1,
            count: if s.aux & 4 != 0 {
                gpr(16 + s.rs1 % 16)
            } else {
                rs1
            },
            body_len: u16::from(s.rd % 4) + 1,
        }),
        16 => Instr::Jal {
            rd,
            offset: nearby(s.imm, index, len) * 4,
        },
        // `jalr` off `x0` to a nearby instruction — sometimes two bytes
        // past it (the target's low bit is cleared, bit 1 is not) — or
        // off a random register.
        17 => {
            let target = (index as i32 + nearby(s.imm, index, len)) * 4;
            if s.aux.is_multiple_of(4) {
                Instr::Jalr {
                    rd,
                    rs1,
                    offset: s.imm.clamp(-64, 64),
                }
            } else {
                Instr::Jalr {
                    rd,
                    rs1: gpr(0),
                    offset: target + i32::from(s.aux & 3 == 1) * 2 + i32::from(s.aux & 4 != 0),
                }
            }
        }
        // Raw word: usually undecodable — both engines must raise the
        // identical decode error at the identical pc.
        _ => return s.imm as u32 ^ 0x8000_0513,
    };
    encode(&instr)
}

/// `lui` + `addi` loading the 32-bit `value` into `rd`.
fn li(rd: u8, value: u32) -> [u32; 2] {
    let lo = ((value << 20) as i32) >> 20;
    [
        encode(&Instr::Lui {
            rd: gpr(rd),
            imm: value.wrapping_sub(lo as u32),
        }),
        encode(&Instr::OpImm {
            op: AluImmOp::Addi,
            rd: gpr(rd),
            rs1: gpr(rd),
            imm: lo,
        }),
    ]
}

/// Register values with the sign and lane patterns that tell signed
/// from unsigned, byte from half and `rem` from `remu` apart.
const SEEDS: [u32; 16] = [
    0x8000_0000,
    0xffff_ffff,
    0x7fff_ffff,
    0x80ff_7f01,
    0xfffe_8001,
    0x0000_0003,
    0xffff_fff9,
    0x1234_5678,
    0x00ff_ff00,
    0x8000_7fff,
    0xc0de_f00d,
    0x0000_0000,
    0x7f80_017f,
    0xffff_8000,
    0x0001_0000,
    0x9e37_79b9,
];

/// Builds the program image: register-seeding prologue + generated
/// body + `ebreak`. The prologue points x1..x15 into RAM (so loads and
/// stores mostly land in bounds) and loads `seeds` into x16..x31.
fn build_image(specs: &[Spec], seeds: &[u32]) -> Vec<u32> {
    let mut words = Vec::new();
    for r in 1u8..16 {
        words.extend(li(r, 0x4000 + u32::from(r) * 0x800 + 0x10));
    }
    for (r, &v) in (16u8..32).zip(seeds) {
        words.extend(li(r, v));
    }
    let body_at = words.len();
    for (i, s) in specs.iter().enumerate() {
        words.push(word_of(*s, body_at + i, body_at + specs.len() + 1));
    }
    words.push(encode(&Instr::Ebreak));
    words
}

type Outcome = (
    Result<RunResult, CpuError>,
    [u32; 32],
    u32,
    u64,
    u64,
    Vec<u8>,
);

fn run_engine(words: &[u32], engine: EngineMode) -> Outcome {
    let mut bus = SramBus::new(RAM);
    bus.load_program(0, words);
    let mut cpu = Cpu::new(0);
    let result = cpu.run_with_engine(&mut bus, &mut NoCoprocessor, FUEL, engine);
    let regs: [u32; 32] = std::array::from_fn(|i| cpu.reg(gpr(i as u8)));
    let mut mem = vec![0u8; RAM];
    use arcane_mem::Memory;
    bus.ram().read_bytes(0, &mut mem).expect("whole RAM");
    (result, regs, cpu.pc(), cpu.cycles(), cpu.instret(), mem)
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        -4096i32..4096,
        any::<u8>(),
    )
        .prop_map(|(kind, rd, rs1, rs2, imm, aux)| Spec {
            kind,
            rd,
            rs1,
            rs2,
            imm,
            aux,
        })
}

proptest! {
    #[test]
    fn engines_agree_on_random_programs(
        specs in prop::collection::vec(spec_strategy(), 1..96),
        seeds in prop::collection::vec(any::<u32>(), 16..17),
    ) {
        let words = build_image(&specs, &seeds);
        let blk = run_engine(&words, EngineMode::Block);
        let interp = run_engine(&words, EngineMode::Interp);
        prop_assert_eq!(&blk.0, &interp.0, "run result diverged");
        prop_assert_eq!(blk.1, interp.1, "registers diverged");
        prop_assert_eq!(blk.2, interp.2, "pc diverged");
        prop_assert_eq!(blk.3, interp.3, "cycles diverged");
        prop_assert_eq!(blk.4, interp.4, "instret diverged");
        prop_assert_eq!(&blk.5, &interp.5, "memory diverged");
    }

    #[test]
    fn engines_agree_on_straight_line_programs(
        specs in prop::collection::vec(spec_strategy(), 1..96),
        seeds in prop::collection::vec(any::<u32>(), 16..17),
    ) {
        // No branches, jumps, loops or raw words: every generated
        // instruction retires exactly once (up to a memory fault), so
        // each micro-op sees many random operands per run.
        let specs: Vec<Spec> = specs
            .into_iter()
            .map(|s| match s.kind % KINDS {
                5 | 7 | 11 | 15 | 16 | 17 => Spec { kind: 2, ..s },
                _ => s,
            })
            .collect();
        let words = build_image(&specs, &seeds);
        let blk = run_engine(&words, EngineMode::Block);
        let interp = run_engine(&words, EngineMode::Interp);
        prop_assert_eq!(&blk.0, &interp.0, "run result diverged");
        prop_assert_eq!(blk.1, interp.1, "registers diverged");
        prop_assert_eq!((blk.2, blk.3, blk.4), (interp.2, interp.3, interp.4));
        prop_assert_eq!(&blk.5, &interp.5, "memory diverged");
    }

    #[test]
    fn engines_agree_on_raw_word_soup(
        words in prop::collection::vec(any::<u32>(), 1..48),
    ) {
        // Pure garbage: mostly decode errors; the error (pc + reason)
        // and all architectural state must match exactly.
        let blk = run_engine(&words, EngineMode::Block);
        let interp = run_engine(&words, EngineMode::Interp);
        prop_assert_eq!(&blk.0, &interp.0);
        prop_assert_eq!(blk.1, interp.1);
        prop_assert_eq!((blk.2, blk.3, blk.4), (interp.2, interp.3, interp.4));
    }
}

#[test]
fn long_straight_line_crosses_block_cap() {
    // More consecutive ALU instructions than MAX_BLOCK_LEN: the block
    // engine must chain truncated blocks without losing an instruction.
    let n = MAX_BLOCK_LEN * 3 + 7;
    let specs: Vec<Spec> = (0..n)
        .map(|_| Spec {
            kind: 0,
            rd: 5,
            rs1: 5,
            imm: 1,
            rs2: 0,
            aux: 0,
        })
        .collect();
    let words = build_image(&specs, &SEEDS);
    let blk = run_engine(&words, EngineMode::Block);
    let interp = run_engine(&words, EngineMode::Interp);
    assert_eq!(blk.0, interp.0);
    assert_eq!(blk.1, interp.1);
    let r = blk.0.expect("program completes");
    assert_eq!(r.stop, StopReason::Break);
}

#[test]
fn out_of_fuel_stops_at_identical_state() {
    // An infinite self-branch: both engines must burn exactly FUEL
    // instructions and stop with OutOfFuel at the same pc.
    let words = vec![encode(&Instr::Branch {
        op: BranchOp::Eq,
        rs1: gpr(0),
        rs2: gpr(0),
        offset: 0,
    })];
    let blk = run_engine(&words, EngineMode::Block);
    let interp = run_engine(&words, EngineMode::Interp);
    assert_eq!(blk.0, interp.0);
    assert_eq!(blk.0.unwrap().stop, StopReason::OutOfFuel);
    assert_eq!(blk.4, FUEL);
    assert_eq!(blk.4, interp.4);
}

#[test]
fn load_fault_mid_block_leaves_identical_state() {
    // A block of ALU work, a load past the end of RAM, then more work.
    // The micro-op engine holds pc, cycles and instret in locals; at the
    // fault it must leave exactly the interpreter's state: the faulting
    // pc, the counts of the instructions before it, untouched registers.
    for (post, op) in [
        (false, LoadOp::Lw),
        (false, LoadOp::Lbu),
        (true, LoadOp::Lh),
    ] {
        let body = [
            Instr::OpImm {
                op: AluImmOp::Addi,
                rd: gpr(20),
                rs1: gpr(0),
                imm: 7,
            },
            Instr::Op {
                op: AluOp::Div,
                rd: gpr(21),
                rs1: gpr(20),
                rs2: gpr(1),
            },
            Instr::Lui {
                rd: gpr(22),
                imm: 0x0010_0000,
            },
            if post {
                Instr::Pulp(PulpInstr::LoadPost {
                    op,
                    rd: gpr(23),
                    rs1: gpr(22),
                    offset: 4,
                })
            } else {
                Instr::Load {
                    op,
                    rd: gpr(23),
                    rs1: gpr(22),
                    offset: 8,
                }
            },
            Instr::OpImm {
                op: AluImmOp::Addi,
                rd: gpr(20),
                rs1: gpr(20),
                imm: 1,
            },
        ];
        // Base pointers only: x16..x31 stay zero.
        let mut words: Vec<u32> = build_image(&[], &[]);
        let ebreak = words.pop().expect("image ends in ebreak");
        let load_pc = ((words.len() + 3) * 4) as u32;
        words.extend(body.iter().map(encode));
        words.push(ebreak);

        let blk = run_engine(&words, EngineMode::Block);
        let interp = run_engine(&words, EngineMode::Interp);
        assert_eq!(blk.0, interp.0, "error diverged");
        match blk.0 {
            Err(CpuError::Bus { pc, .. }) => assert_eq!(pc, load_pc),
            other => panic!("expected a bus fault, got {other:?}"),
        }
        assert_eq!(blk.1, interp.1, "registers diverged");
        assert_eq!(blk.1[23], 0, "the faulting load wrote nothing");
        assert_eq!(blk.1[22], 0x0010_0000, "no post-increment on a fault");
        assert_eq!((blk.2, blk.3, blk.4), (interp.2, interp.3, interp.4));
        assert_eq!(blk.2, load_pc, "the core stops at the faulting pc");
        assert_eq!(
            blk.4,
            (words.len() - 3) as u64,
            "instret counts the work before the load"
        );
    }
}

#[test]
fn taken_branch_to_next_instruction_still_ends_a_loop_body() {
    // A hardware-loop body whose last instruction is a branch taken to
    // the very next instruction: for the loop that is a fall-through,
    // so the body repeats.
    let body = [
        Instr::Pulp(PulpInstr::LoopSetupI {
            loop_id: false,
            count: 5,
            body_len: 2,
        }),
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd: gpr(20),
            rs1: gpr(20),
            imm: 1,
        },
        Instr::Branch {
            op: BranchOp::Eq,
            rs1: gpr(0),
            rs2: gpr(0),
            offset: 4,
        },
        Instr::Ebreak,
    ];
    let words: Vec<u32> = body.iter().map(encode).collect();
    let blk = run_engine(&words, EngineMode::Block);
    let interp = run_engine(&words, EngineMode::Interp);
    assert_eq!(blk.0, interp.0);
    assert_eq!((blk.1, blk.3, blk.4), (interp.1, interp.3, interp.4));
    assert_eq!(blk.1[20], 5, "the body ran five times");
}
