//! Hazard-management integration tests: the WAR/RAW/WAW protection,
//! lock windows, renaming and the failure-injection paths of §III-A2
//! and §IV-B1.

use arcane::core::kernels::KernelError;
use arcane::core::{ArcaneConfig, ArcaneLlc};
use arcane::isa::launch::{pack_xmb, LaunchMode, FUNC5_XMB};
use arcane::isa::reg::{A0, A1, A2};
use arcane::isa::xmnmc::{self, kernel_id, MatReg, XInstr, FUNC5_XMR};
use arcane::mem::{AccessSize, Memory};
use arcane::rv32::{Coprocessor, XifResponse};
use arcane::sim::Sew;

const BASE: u32 = 0x2000_0000;
const A_ADDR: u32 = BASE + 0x10_0000;
const F_ADDR: u32 = BASE + 0x11_0000;
const R_ADDR: u32 = BASE + 0x12_0000;

fn x(func5: u8, sew: Sew) -> u32 {
    xmnmc::encode_raw(&XInstr {
        func5,
        width: sew,
        rs1: A0,
        rs2: A1,
        rs3: A2,
    })
}

fn m(i: u8) -> MatReg {
    MatReg::new(i).unwrap()
}

/// Seeds an all-ones 3x(16x16) input and 3x(3x3) filter and launches
/// one conv-layer kernel at time `t0`. Pooled output value is 27.
fn launch_conv(llc: &mut ArcaneLlc, t0: u64) -> u64 {
    offload_conv(llc, t0);
    llc.records()[0].end
}

/// [`launch_conv`] without the acceptance assumption: returns the
/// kernel offload's response.
fn offload_conv(llc: &mut ArcaneLlc, t0: u64) -> XifResponse {
    for i in 0..(3 * 16 * 16) {
        llc.ext_mut().write_u32(A_ADDR + i * 4, 1).unwrap();
    }
    for i in 0..27 {
        llc.ext_mut().write_u32(F_ADDR + i * 4, 1).unwrap();
    }
    let sew = Sew::Word;
    let (r1, r2, r3) = xmnmc::pack_xmr(A_ADDR, 1, m(0), 16, 48);
    assert!(matches!(
        llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, t0),
        XifResponse::Accept { .. }
    ));
    let (r1, r2, r3) = xmnmc::pack_xmr(F_ADDR, 1, m(1), 3, 9);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, t0 + 2);
    let (r1, r2, r3) = xmnmc::pack_xmr(R_ADDR, 1, m(2), 7, 7);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, t0 + 4);
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(2), m(0), m(1), m(0));
    llc.offload(x(kernel_id::CONV_LAYER_3CH, sew), r1, r2, r3, t0 + 6)
}

#[test]
fn war_store_to_source_stalls_loads_pass() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    let t = 10;
    let store = llc
        .host_access(A_ADDR, true, 99, AccessSize::Word, t)
        .unwrap();
    let load = llc
        .host_access(A_ADDR + 4, false, 0, AccessSize::Word, t)
        .unwrap();
    assert!(
        store.cycles > 1000,
        "WAR store must stall: {}",
        store.cycles
    );
    assert!(load.cycles < 1000, "source loads pass: {}", load.cycles);
    // The stalled store lands after allocation: the kernel still sees
    // the original all-ones data, so the result stays 27.
    let r = llc
        .host_access(R_ADDR, false, 0, AccessSize::Word, t + store.cycles)
        .unwrap();
    assert_eq!(r.data, 27);
}

#[test]
fn raw_and_waw_on_destination_stall_until_writeback() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let end = launch_conv(&mut llc, 0);
    let t = 10;
    let read = llc
        .host_access(R_ADDR, false, 0, AccessSize::Word, t)
        .unwrap();
    assert!(t + read.cycles > end, "RAW read stalls past writeback");
    assert_eq!(read.data, 27, "and observes the kernel result");
    // WAW: a store right after another kernel launch would also stall;
    // here the protection has lapsed, so it is fast.
    let store = llc
        .host_access(R_ADDR, true, 5, AccessSize::Word, end + 10)
        .unwrap();
    assert!(store.cycles <= 2, "after writeback the region is free");
}

#[test]
fn access_outside_operands_is_not_blocked() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    // An address unrelated to any operand must not suffer hazard stalls
    // (it may still see a lock window, which is bounded by one DMA).
    let far = BASE + 0x40_0000;
    let a = llc
        .host_access(far, false, 0, AccessSize::Word, 10)
        .unwrap();
    let end = llc.records()[0].end;
    assert!(
        10 + a.cycles < end,
        "unrelated access must not wait for the kernel"
    );
}

#[test]
fn renaming_resolves_rebinding_hazard() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    assert_eq!(llc.renames(), 0);
    // Re-bind m0 to a different region while the kernel is in flight;
    // the kernel captured the old physical binding, so this is safe and
    // counted as a rename.
    let (r1, r2, r3) = xmnmc::pack_xmr(BASE + 0x20_0000, 1, m(0), 8, 8);
    assert!(matches!(
        llc.offload(x(FUNC5_XMR, Sew::Word), r1, r2, r3, 20),
        XifResponse::Accept { .. }
    ));
    assert_eq!(llc.renames(), 1);
    let r = llc
        .host_access(R_ADDR, false, 0, AccessSize::Word, 30)
        .unwrap();
    assert_eq!(r.data, 27, "in-flight kernel unaffected by the rebind");
}

#[test]
fn unknown_kernel_is_killed() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(0), m(0), m(0), m(0));
    // func5 = 9 has no registered kernel.
    let resp = llc.offload(x(9, Sew::Word), r1, r2, r3, 0);
    assert_eq!(resp, XifResponse::Reject);
    assert!(matches!(
        llc.last_error(),
        Some(KernelError::UnknownKernel { id: 9 })
    ));
}

#[test]
fn unbound_matrix_is_killed() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(5), m(6), m(7), m(8));
    let resp = llc.offload(x(kernel_id::GEMM, Sew::Word), r1, r2, r3, 0);
    assert_eq!(resp, XifResponse::Reject);
    assert!(matches!(
        llc.last_error(),
        Some(KernelError::UnboundMatrix { .. })
    ));
}

#[test]
fn shape_mismatch_is_killed() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let sew = Sew::Word;
    let (r1, r2, r3) = xmnmc::pack_xmr(A_ADDR, 1, m(0), 8, 8);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 0);
    let (r1, r2, r3) = xmnmc::pack_xmr(F_ADDR, 1, m(1), 4, 4);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2);
    let (r1, r2, r3) = xmnmc::pack_xmr(R_ADDR, 1, m(2), 9, 9);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 4);
    // gemm with A 8x8 and B 4x4: inner dimensions disagree.
    let (r1, r2, r3) = xmnmc::pack_kernel(1, 0, m(2), m(0), m(1), m(0));
    let resp = llc.offload(x(kernel_id::GEMM, sew), r1, r2, r3, 6);
    assert_eq!(resp, XifResponse::Reject);
    assert!(matches!(
        llc.last_error(),
        Some(KernelError::ShapeMismatch { .. })
    ));
}

#[test]
fn operand_outside_external_memory_is_killed() {
    // A source bound below external memory, then a destination running
    // past its end: each launch must be rejected with a typed error
    // before any line or memory is touched, not panic the host.
    let sew = Sew::Word;
    let ext_end = BASE + (16 << 20);
    for (a_addr, r_addr, bad) in [
        (0x1000, R_ADDR, 0x1000),
        (A_ADDR, ext_end - 64, ext_end - 64),
    ] {
        let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
        let (r1, r2, r3) = xmnmc::pack_xmr(a_addr, 1, m(0), 16, 48);
        llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 0);
        let (r1, r2, r3) = xmnmc::pack_xmr(F_ADDR, 1, m(1), 3, 9);
        llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2);
        let (r1, r2, r3) = xmnmc::pack_xmr(r_addr, 1, m(2), 7, 7);
        llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 4);
        let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(2), m(0), m(1), m(0));
        let resp = llc.offload(x(kernel_id::CONV_LAYER_3CH, sew), r1, r2, r3, 6);
        assert_eq!(resp, XifResponse::Reject);
        assert!(
            matches!(
                llc.last_error(),
                Some(KernelError::OperandOutOfRange { addr, .. }) if *addr == bad
            ),
            "{:?}",
            llc.last_error()
        );
        assert!(llc.records().is_empty(), "no kernel ran");
        assert_eq!(llc.stats().writebacks.get(), 0);
    }
}

#[test]
fn oversized_or_outside_batch_is_killed() {
    // `xmb` names its batch by address and a guest-supplied word count.
    // Neither a 16 GiB length nor a batch running past the end of
    // external memory may allocate or read: both are typed rejects.
    let ext_end = BASE + (16 << 20);
    for (addr, words) in [(A_ADDR, u32::MAX), (ext_end - 8, 4), (0x1000, 1)] {
        let mut cfg = ArcaneConfig::with_lanes(4);
        cfg.launch = LaunchMode::Descriptor;
        let mut llc = ArcaneLlc::new(cfg);
        let (r1, r2, r3) = pack_xmb(addr, words, 0);
        let resp = llc.offload(x(FUNC5_XMB, Sew::Word), r1, r2, r3, 0);
        assert_eq!(resp, XifResponse::Reject);
        assert_eq!(
            llc.last_error(),
            Some(&KernelError::OperandOutOfRange {
                addr,
                bytes: u64::from(words) * 4,
            })
        );
        assert!(llc.records().is_empty(), "no kernel ran");
        assert_eq!(llc.launch_stats().batches, 0, "nothing fetched");
    }
}

#[test]
fn full_address_table_is_killed() {
    // A conv layer registers two sources and one destination: a
    // one-entry table overflows on the second source, a two-entry table
    // on the destination.
    for capacity in [1, 2] {
        let mut cfg = ArcaneConfig::with_lanes(4);
        cfg.at_capacity = capacity;
        let mut llc = ArcaneLlc::new(cfg);
        assert_eq!(offload_conv(&mut llc, 0), XifResponse::Reject);
        assert_eq!(
            llc.last_error(),
            Some(&KernelError::AddressTableFull { capacity })
        );
    }
    let mut cfg = ArcaneConfig::with_lanes(4);
    cfg.at_capacity = 3;
    let mut llc = ArcaneLlc::new(cfg);
    assert!(matches!(
        offload_conv(&mut llc, 0),
        XifResponse::Accept { .. }
    ));
}

#[test]
fn kernel_queue_backpressure_stalls_the_host() {
    let mut cfg = ArcaneConfig::with_lanes(2);
    cfg.kernel_queue_capacity = 2;
    let mut llc = ArcaneLlc::new(cfg);
    for i in 0..(3 * 16 * 16) {
        llc.ext_mut().write_u32(A_ADDR + i * 4, 1).unwrap();
    }
    for i in 0..27 {
        llc.ext_mut().write_u32(F_ADDR + i * 4, 1).unwrap();
    }
    let sew = Sew::Word;
    let (r1, r2, r3) = xmnmc::pack_xmr(A_ADDR, 1, m(0), 16, 48);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 0);
    let (r1, r2, r3) = xmnmc::pack_xmr(F_ADDR, 1, m(1), 3, 9);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 1);
    let (r1, r2, r3) = xmnmc::pack_xmr(R_ADDR, 1, m(2), 7, 7);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2);
    let (k1, k2, k3) = xmnmc::pack_kernel(0, 0, m(2), m(0), m(1), m(0));
    let mut handshakes = Vec::new();
    for i in 0..4u64 {
        match llc.offload(x(kernel_id::CONV_LAYER_3CH, sew), k1, k2, k3, 10 + i) {
            XifResponse::Accept { cycles, .. } => handshakes.push(cycles),
            XifResponse::Reject => panic!("offload {i} rejected: {:?}", llc.last_error()),
        }
    }
    assert!(
        handshakes[0] < 100 && handshakes[1] < 100,
        "queue absorbs the first kernels: {handshakes:?}"
    );
    assert!(
        handshakes[3] > 1000,
        "a full queue back-pressures the host: {handshakes:?}"
    );
}

#[test]
fn cache_capacity_shrinks_while_computing() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    let end = llc.records()[0].end;
    // While the kernel owns one VPU, its 32 lines are busy-computing;
    // streaming 256 fresh lines must still work (96 lines remain).
    let mut t = 10u64;
    for i in 0..256u32 {
        let a = llc
            .host_access(BASE + 0x60_0000 + i * 1024, false, 0, AccessSize::Word, t)
            .unwrap();
        t += a.cycles;
    }
    assert!(llc.stats().misses.get() >= 256);
    // And after the kernel retires, the lines are reusable.
    let a = llc
        .host_access(BASE + 0x70_0000, false, 0, AccessSize::Word, end + 10)
        .unwrap();
    assert!(a.cycles > 0);
}
