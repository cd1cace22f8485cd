//! Byte-addressed storage models: on-chip SRAM and external memory.

use crate::bus::BusError;

/// Byte-addressed storage with a fixed base address.
///
/// Implementations are *functional* models; timing is attached by the
/// component that owns them (bus, cache controller, DMA).
pub trait Memory {
    /// First address of the device.
    fn base(&self) -> u32;

    /// Size in bytes.
    fn len(&self) -> usize;

    /// `true` when the device has zero capacity.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when `[addr, addr + len)` lies inside the device.
    #[inline]
    fn contains(&self, addr: u32, len: u32) -> bool {
        let end = self.base() as u64 + self.len() as u64;
        (addr as u64) >= self.base() as u64 && (addr as u64 + len as u64) <= end
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Truncated`] when the range leaves the device.
    fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), BusError>;

    /// Writes `buf` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Truncated`] when the range leaves the device.
    fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), BusError>;

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates [`read_bytes`](Memory::read_bytes) errors.
    fn read_u32(&self, addr: u32) -> Result<u32, BusError> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates [`write_bytes`](Memory::write_bytes) errors.
    fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), BusError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }
}

#[inline]
fn offset_of(base: u32, size: usize, addr: u32, len: usize) -> Result<usize, BusError> {
    let off = (addr as u64).checked_sub(base as u64);
    match off {
        Some(off) if (off + len as u64) <= size as u64 => Ok(off as usize),
        _ => Err(BusError::Truncated {
            addr,
            len: len as u32,
        }),
    }
}

/// Single-cycle on-chip SRAM (instruction memory banks, eMEM).
///
/// # Examples
///
/// ```
/// use arcane_mem::{Memory, Sram};
/// let mut m = Sram::new(0, 16);
/// m.write_bytes(4, &[1, 2, 3]).unwrap();
/// let mut out = [0u8; 3];
/// m.read_bytes(4, &mut out).unwrap();
/// assert_eq!(out, [1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Sram {
    base: u32,
    data: Vec<u8>,
}

impl Sram {
    /// Creates a zero-initialised SRAM of `size` bytes at `base`.
    pub fn new(base: u32, size: usize) -> Self {
        Sram {
            base,
            data: vec![0; size],
        }
    }

    /// Loads `words` as little-endian 32-bit values starting at `addr`
    /// (program upload helper).
    ///
    /// # Panics
    ///
    /// Panics if the words do not fit.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(addr + (i as u32) * 4, *w)
                .expect("program exceeds SRAM");
        }
    }
}

impl Memory for Sram {
    fn base(&self) -> u32 {
        self.base
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        let off = offset_of(self.base, self.data.len(), addr, buf.len())?;
        buf.copy_from_slice(&self.data[off..off + buf.len()]);
        Ok(())
    }

    #[inline]
    fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), BusError> {
        let off = offset_of(self.base, self.data.len(), addr, buf.len())?;
        self.data[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }
}

/// Bytes per [`ExtMem`] storage page.
const PAGE_BYTES: usize = 1 << 12;

/// Burst-modeled external memory (flash / pseudo-static RAM).
///
/// Timing model: a random access costs [`ExtMem::first_word_cycles`],
/// each subsequent sequential word in the same burst costs
/// [`ExtMem::per_word_cycles`]. The cache controller and DMA use
/// [`ExtMem::burst_cycles`] to price line refills and tile transfers.
///
/// Storage is page-sparse: the device is split into 4 KiB pages that
/// are allocated on their first write, and a page never written reads
/// as zero. A 16 MiB device therefore costs only the pages a run
/// touches, while bounds, data and timing are those of a zero-filled
/// array of `size` bytes.
#[derive(Debug, Clone)]
pub struct ExtMem {
    base: u32,
    size: usize,
    pages: Vec<Option<Box<[u8]>>>,
    first_word_cycles: u64,
    per_word_cycles: u64,
}

impl ExtMem {
    /// Creates an external memory of `size` bytes at `base` with the
    /// given burst timing. Every byte reads as zero until written.
    pub fn new(base: u32, size: usize, first_word_cycles: u64, per_word_cycles: u64) -> Self {
        ExtMem {
            base,
            size,
            pages: vec![None; size.div_ceil(PAGE_BYTES)],
            first_word_cycles,
            per_word_cycles,
        }
    }

    /// Latency of the first word of a burst.
    pub const fn first_word_cycles(&self) -> u64 {
        self.first_word_cycles
    }

    /// Per-word cost of the remainder of a burst.
    pub const fn per_word_cycles(&self) -> u64 {
        self.per_word_cycles
    }

    /// Cycles to move `bytes` sequential bytes in one burst.
    pub fn burst_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let words = bytes.div_ceil(4);
        self.first_word_cycles + self.per_word_cycles * words.saturating_sub(1)
    }
}

/// Splits the device range `[off, off + len)` into per-page pieces:
/// `(page index, offset in the page, buffer range)`.
fn page_pieces(
    off: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = off + done;
        let in_page = at % PAGE_BYTES;
        let n = (PAGE_BYTES - in_page).min(len - done);
        let piece = (at / PAGE_BYTES, in_page, done..done + n);
        done += n;
        Some(piece)
    })
}

impl Memory for ExtMem {
    fn base(&self) -> u32 {
        self.base
    }

    fn len(&self) -> usize {
        self.size
    }

    #[inline]
    fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        let off = offset_of(self.base, self.size, addr, buf.len())?;
        for (page, at, range) in page_pieces(off, buf.len()) {
            let dst = &mut buf[range];
            match &self.pages[page] {
                Some(p) => dst.copy_from_slice(&p[at..at + dst.len()]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), BusError> {
        let off = offset_of(self.base, self.size, addr, buf.len())?;
        for (page, at, range) in page_pieces(off, buf.len()) {
            let src = &buf[range];
            let p = self.pages[page].get_or_insert_with(|| vec![0; PAGE_BYTES].into());
            p[at..at + src.len()].copy_from_slice(src);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_roundtrip_and_bounds() {
        let mut m = Sram::new(0x100, 32);
        assert!(m.contains(0x100, 32));
        assert!(!m.contains(0x100, 33));
        assert!(!m.contains(0xff, 1));
        m.write_u32(0x11c, 42).unwrap();
        assert_eq!(m.read_u32(0x11c).unwrap(), 42);
        assert!(m.write_u32(0x11d, 0).is_err(), "crosses the end");
    }

    #[test]
    fn sram_load_words() {
        let mut m = Sram::new(0, 16);
        m.load_words(0, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(12).unwrap(), 4);
    }

    #[test]
    fn extmem_burst_timing() {
        let m = ExtMem::new(0, 1024, 10, 2);
        assert_eq!(m.burst_cycles(0), 0);
        assert_eq!(m.burst_cycles(4), 10);
        assert_eq!(m.burst_cycles(8), 12);
        assert_eq!(m.burst_cycles(1024), 10 + 2 * 255);
        // partial word rounds up
        assert_eq!(m.burst_cycles(5), 12);
    }

    #[test]
    fn extmem_storage() {
        let mut m = ExtMem::new(0x2000_0000, 64, 10, 1);
        m.write_bytes(0x2000_0010, &[9, 8, 7]).unwrap();
        let mut b = [0u8; 3];
        m.read_bytes(0x2000_0010, &mut b).unwrap();
        assert_eq!(b, [9, 8, 7]);
        assert!(m.read_bytes(0x1fff_ffff, &mut b).is_err());
    }

    #[test]
    fn extmem_pages_are_sparse_and_straddle() {
        let size = 3 * PAGE_BYTES + 100;
        let mut m = ExtMem::new(0x100, size, 10, 1);
        assert_eq!(m.len(), size);
        assert!(m.pages.iter().all(Option::is_none), "nothing allocated");
        // A write straddling pages 0 and 1 allocates exactly those two.
        let at = 0x100 + PAGE_BYTES as u32 - 2;
        m.write_bytes(at, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.pages.iter().filter(|p| p.is_some()).count(), 2);
        let mut b = [0xffu8; 8];
        m.read_bytes(at - 2, &mut b).unwrap();
        assert_eq!(b, [0, 0, 1, 2, 3, 4, 0, 0]);
        // Untouched pages, including the partial last one, read as zero.
        let mut tail = [0xffu8; 100];
        m.read_bytes(0x100 + 3 * PAGE_BYTES as u32, &mut tail)
            .unwrap();
        assert_eq!(tail, [0; 100]);
        assert!(m.write_bytes(0x100 + size as u32 - 1, &[0, 0]).is_err());
        assert_eq!(m.pages.iter().filter(|p| p.is_some()).count(), 2);
    }
}
