//! `ExtMem` against a dense byte-array model of the same device.
//!
//! Random writes and reads, page-straddling, inside pages nothing ever
//! wrote, of lengths up to three pages, and out of range (below the
//! base, across the end, at the top of the address space) must give
//! the same data and the same errors as a zero-filled `Vec<u8>` with
//! the device's bounds, and the whole device must read back the same
//! at the end.

use arcane_mem::{BusError, ExtMem, Memory};
use proptest::prelude::*;

const BASE: u32 = 0x2000_0000;
const PAGE: u32 = 4096;
/// Five whole pages and a partial sixth.
const SIZE: u32 = 5 * PAGE + 123;

/// The model: a dense array and the bounds rule of the `Memory` trait.
struct Dense(Vec<u8>);

impl Dense {
    fn range(&self, addr: u32, len: usize) -> Result<std::ops::Range<usize>, BusError> {
        let off = u64::from(addr).wrapping_sub(u64::from(BASE));
        if u64::from(addr) >= u64::from(BASE) && off + len as u64 <= self.0.len() as u64 {
            Ok(off as usize..off as usize + len)
        } else {
            Err(BusError::Truncated {
                addr,
                len: len as u32,
            })
        }
    }
}

/// One access: `(write, addr, len, fill)`.
type Op = (bool, u32, usize, u8);

fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Around a page boundary, including the ones past the end.
        (0u32..8, 0u32..64).prop_map(|(page, d)| (BASE + page * PAGE).wrapping_sub(32) + d),
        // Anywhere inside.
        (0u32..SIZE).prop_map(|off| BASE + off),
        // Below the base, just under the end, at the top of the space.
        (1u32..64).prop_map(|d| BASE - d),
        (1u32..64).prop_map(|d| BASE + SIZE - d),
        (1u32..64).prop_map(|d| u32::MAX - d),
    ]
}

fn len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..9, 0usize..300, 0usize..3 * PAGE as usize + 17]
}

fn op() -> impl Strategy<Value = Op> {
    (any::<bool>(), addr(), len(), any::<u8>())
}

proptest! {
    #[test]
    fn extmem_matches_a_dense_model(ops in prop::collection::vec(op(), 1..48)) {
        let mut mem = ExtMem::new(BASE, SIZE as usize, 10, 1);
        let mut model = Dense(vec![0; SIZE as usize]);
        prop_assert_eq!(mem.len(), SIZE as usize);
        for (step, &(write, addr, len, fill)) in ops.iter().enumerate() {
            let want = model.range(addr, len);
            if write {
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                let got = mem.write_bytes(addr, &data);
                prop_assert_eq!(got, want.clone().map(|_| ()), "write {} at {:#x}+{}", step, addr, len);
                if let Ok(r) = want {
                    model.0[r].copy_from_slice(&data);
                }
            } else {
                let mut buf = vec![0xa5; len];
                let got = mem.read_bytes(addr, &mut buf);
                prop_assert_eq!(got, want.clone().map(|_| ()), "read {} at {:#x}+{}", step, addr, len);
                if let Ok(r) = want {
                    prop_assert!(buf == model.0[r], "read {} at {:#x}+{} data", step, addr, len);
                }
            }
        }
        let mut all = vec![0xa5; SIZE as usize];
        mem.read_bytes(BASE, &mut all).expect("whole device");
        prop_assert!(all == model.0, "device contents diverged");
    }
}
