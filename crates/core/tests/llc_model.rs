//! `StandardLlc::host_access` against a naive model of the same cache.
//!
//! The model is written from the cache's specification, not from its
//! code: a linear tag scan instead of MRU hints, an eager decay of every
//! age counter each 64 touches instead of lazy epochs, the
//! `CacheTable::victim` rule (first invalid line, else the lowest
//! `2·age + dirty`, first index on ties), write-back with refill bursts,
//! and a line-crossing access split into byte transactions. Random
//! reads and writes of every width, aligned, misaligned and
//! line-crossing, over more lines than the cache holds, must give the
//! same data and cycles per access, the same hit, miss and writeback
//! counts, and the same external memory after `flush_all`.

use arcane_core::{ArcaneConfig, StandardLlc};
use arcane_mem::{Access, AccessSize, BusError, Memory};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Touches between two eager decays of every age counter.
const AGING_PERIOD: u32 = 64;

/// Lines the random addresses spread over (more than the cache holds).
const WINDOW_LINES: u32 = 192;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    age: u8,
}

struct Model {
    lines: Vec<Line>,
    data: Vec<Vec<u8>>,
    line_bytes: u32,
    /// External memory, line by line (absent lines read as zero).
    ext: HashMap<u32, Vec<u8>>,
    ext_base: u32,
    ext_end: u64,
    first_word: u64,
    per_word: u64,
    touches: u32,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Model {
    fn new(cfg: &ArcaneConfig) -> Self {
        Model {
            lines: vec![Line::default(); cfg.n_lines()],
            data: vec![vec![0; cfg.line_bytes()]; cfg.n_lines()],
            line_bytes: cfg.line_bytes() as u32,
            ext: HashMap::new(),
            ext_base: cfg.ext_base,
            ext_end: cfg.ext_base as u64 + cfg.ext_size as u64,
            first_word: cfg.ext_first_word,
            per_word: cfg.ext_per_word,
            touches: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn burst(&self) -> u64 {
        self.first_word + self.per_word * (u64::from(self.line_bytes) / 4 - 1)
    }

    fn touch(&mut self, i: usize) {
        self.lines[i].age = u8::MAX;
        self.touches += 1;
        if self.touches == AGING_PERIOD {
            self.touches = 0;
            for l in &mut self.lines {
                l.age = l.age.saturating_sub(1);
            }
        }
    }

    fn victim(&self) -> usize {
        let mut best: Option<(usize, u16)> = None;
        for (i, l) in self.lines.iter().enumerate() {
            if !l.valid {
                return i;
            }
            let score = u16::from(l.age) * 2 + u16::from(l.dirty);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((i, score));
            }
        }
        best.expect("a line").0
    }

    /// Resolves the line holding `addr`, refilling on a miss; returns
    /// the line and the cycles the miss cost.
    fn line_of(&mut self, addr: u32) -> (usize, u64) {
        let tag = addr - addr % self.line_bytes;
        if let Some(i) = self.lines.iter().position(|l| l.valid && l.tag == tag) {
            self.hits += 1;
            self.touch(i);
            return (i, 0);
        }
        self.misses += 1;
        let i = self.victim();
        let mut cycles = 0;
        let old = self.lines[i];
        if old.valid && old.dirty {
            self.write_back(i);
            self.writebacks += 1;
            cycles += self.burst();
        }
        match self.ext.get(&tag) {
            Some(line) => self.data[i].copy_from_slice(line),
            None => self.data[i].fill(0),
        }
        cycles += self.burst();
        self.lines[i] = Line {
            tag,
            valid: true,
            dirty: false,
            age: self.lines[i].age,
        };
        self.touch(i);
        (i, cycles)
    }

    fn write_back(&mut self, i: usize) {
        self.ext.insert(self.lines[i].tag, self.data[i].clone());
    }

    fn access(&mut self, addr: u32, write: bool, value: u32, n: u32) -> Result<Access, BusError> {
        if (addr as u64) < self.ext_base as u64 || addr as u64 + n as u64 > self.ext_end {
            return Err(BusError::OutOfRange { addr });
        }
        let crosses = addr % self.line_bytes + n > self.line_bytes;
        let mut bytes = value.to_le_bytes();
        let mut cycles = 0;
        let mut current = None;
        for k in 0..n {
            let a = addr + k;
            // One transaction per byte on a line-crossing access, one
            // for the whole access otherwise.
            let (i, c) = match current {
                Some(i) if !crosses => (i, 0),
                _ => self.line_of(a),
            };
            if crosses || current.is_none() {
                cycles += c + 1;
            }
            current = Some(i);
            let off = (a % self.line_bytes) as usize;
            if write {
                self.data[i][off] = bytes[k as usize];
                self.lines[i].dirty = true;
            } else {
                bytes[k as usize] = self.data[i][off];
            }
        }
        let data = if write {
            0
        } else {
            let mask = u32::MAX >> (32 - 8 * n);
            u32::from_le_bytes(bytes) & mask
        };
        Ok(Access::new(data, cycles))
    }
}

/// One random access: where (`pick`, `line`, `off`), how wide, read or
/// write, and what value.
type Op = (u8, u16, u16, u8, bool, u32);

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        any::<u8>(),
        0u16..WINDOW_LINES as u16,
        any::<u16>(),
        0u8..3,
        any::<bool>(),
        any::<u32>(),
    )
}

fn address(cfg: &ArcaneConfig, (pick, line, off, size, _, _): Op) -> u32 {
    let lb = cfg.line_bytes() as u32;
    let n = 1u32 << size;
    // A quarter of the accesses reuse a small hot set (hits through the
    // MRU hints), the rest spread over the whole window (misses,
    // evictions).
    let line = if pick % 4 == 0 {
        u32::from(line % 6)
    } else {
        u32::from(line)
    };
    let off = u32::from(off);
    let off = match pick % 16 {
        // Line-crossing: starts in the last n - 1 bytes of the line.
        1 | 5 if n > 1 => lb - 1 - off % (n - 1),
        // Misaligned within the line.
        2 | 6 | 10 => off % (lb - n + 1),
        _ => (off % (lb / n)) * n,
    };
    match pick {
        // A few out-of-range addresses: below the region and straddling
        // its end.
        255 => cfg.ext_base - 2,
        254 => (cfg.ext_base as u64 + cfg.ext_size as u64 - 2) as u32,
        _ => cfg.ext_base + line * lb + off,
    }
}

proptest! {
    #[test]
    fn host_access_matches_the_naive_model(
        ops in prop::collection::vec(op_strategy(), 512..1024),
    ) {
        let cfg = ArcaneConfig::with_lanes(4);
        let mut llc = StandardLlc::new(&cfg);
        let mut model = Model::new(&cfg);
        let sizes = [AccessSize::Byte, AccessSize::Half, AccessSize::Word];
        let mut lines = HashSet::new();
        for (step, &op) in ops.iter().enumerate() {
            let addr = address(&cfg, op);
            lines.insert(addr / cfg.line_bytes() as u32);
            let (_, _, _, size, write, value) = op;
            let got = llc.host_access(addr, write, value, sizes[size as usize], step as u64);
            let want = model.access(addr, write, value, 1 << size);
            prop_assert_eq!(got, want, "access {} at {:#x}", step, addr);
        }
        // The property is only as strong as its inputs: every case
        // must spread over more lines than the cache holds.
        prop_assert!(lines.len() > cfg.n_lines(), "{} distinct lines", lines.len());
        let stats = llc.stats();
        prop_assert_eq!(stats.hits.get(), model.hits, "hits");
        prop_assert_eq!(stats.misses.get(), model.misses, "misses");
        prop_assert_eq!(stats.writebacks.get(), model.writebacks, "writebacks");

        llc.flush_all();
        for i in 0..model.lines.len() {
            if model.lines[i].valid && model.lines[i].dirty {
                model.write_back(i);
            }
        }
        // Every line the model wrote, and every line of the window.
        let lb = cfg.line_bytes() as u32;
        let mut tags: Vec<u32> = model.ext.keys().copied().collect();
        tags.extend((0..=WINDOW_LINES).map(|l| cfg.ext_base + l * lb));
        let mut mem = vec![0u8; lb as usize];
        for tag in tags {
            llc.ext().read_bytes(tag, &mut mem).expect("line in range");
            let want = model.ext.get(&tag).cloned().unwrap_or_else(|| vec![0; lb as usize]);
            prop_assert!(mem == want, "external line {:#x} diverged after flush_all", tag);
        }
    }
}
