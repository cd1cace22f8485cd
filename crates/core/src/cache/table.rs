//! The Cache Table (CT): fully-associative line state with a
//! counter-based approximate-LRU replacement policy (paper §III-A1).

/// State of one cache line.
///
/// A line is simultaneously one VPU vector register; `busy_until`
/// implements the *busy computing* status of §III-A2 — while a kernel
/// owns the line, normal cache operations must not touch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Line-aligned base address of the cached block (valid lines only).
    pub tag: u32,
    /// The line holds a cached copy of memory.
    pub valid: bool,
    /// The line diverges from backing memory (write-back policy).
    pub dirty: bool,
    /// Absolute cycle until which the line belongs to an in-flight
    /// kernel (`0` = free).
    pub busy_until: u64,
    /// Approximate-LRU age counter (higher = more recently used).
    /// The stored value is relative to [`LineState::lru_epoch`]; the
    /// table decays it lazily (see [`CacheTable::touch`]).
    pub lru: u8,
    /// Aging epoch in which `lru` was last written.
    pub lru_epoch: u32,
    /// The line caches part of a registered kernel *source* operand
    /// (streamlines AT lookups, §III-A3).
    pub is_src: bool,
    /// The line caches part of a registered kernel *destination*.
    pub is_dst: bool,
}

impl LineState {
    const fn empty() -> Self {
        LineState {
            tag: 0,
            valid: false,
            dirty: false,
            busy_until: 0,
            lru: 0,
            lru_epoch: 0,
            is_src: false,
            is_dst: false,
        }
    }

    /// `true` when a kernel owns the line at time `now`.
    pub const fn is_busy(&self, now: u64) -> bool {
        self.busy_until > now
    }
}

/// Outcome of a victim search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// A line is available for replacement.
    Line(usize),
    /// Every line is busy computing until at least this cycle
    /// (the requester must stall and retry).
    AllBusyUntil(u64),
}

/// The fully-associative Cache Table.
///
/// The number of lines equals the aggregate vector-register capacity of
/// the system (`n_vpus × 32`), and the line length equals the maximum
/// supported vector size (1 KiB), exactly as §III-A1 prescribes.
#[derive(Debug, Clone)]
pub struct CacheTable {
    lines: Vec<LineState>,
    line_bytes: usize,
    /// Accesses since the last LRU aging pass.
    accesses_since_aging: u32,
    /// Aging period (accesses between global decays).
    aging_period: u32,
    /// Current aging epoch. A line's effective age is its stored `lru`
    /// decayed once per epoch elapsed since it was written — the same
    /// numbers an eager full-table decay pass would produce, without
    /// walking every line every period.
    epoch: u32,
    /// Recently-resolved `(tag, index)` pairs consulted before the
    /// associative scan. Entries are *hints*: every hit is validated
    /// against the line state, so external mutation through
    /// [`CacheTable::line_mut`] can never produce a wrong lookup —
    /// a stale hint just falls back to the scan.
    mru: [(u32, u32); MRU_WAYS],
}

/// Number of MRU lookup hints (sized for the working set of a conv
/// inner loop: output line + input rows + filter lines).
const MRU_WAYS: usize = 8;

impl CacheTable {
    /// Creates a table of `n_lines` lines of `line_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two — tag and
    /// line-offset arithmetic here and in the LLCs mask instead of
    /// dividing.
    pub fn new(n_lines: usize, line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "cache line size must be a power of two, got {line_bytes}"
        );
        CacheTable {
            lines: vec![LineState::empty(); n_lines],
            line_bytes,
            accesses_since_aging: 0,
            aging_period: 64,
            epoch: 0,
            mru: [(u32::MAX, u32::MAX); MRU_WAYS],
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when the table has no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Line size in bytes.
    pub const fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// The line-aligned tag of `addr`.
    #[inline]
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr & !(self.line_bytes as u32 - 1)
    }

    /// Immutable view of line `idx`.
    #[inline]
    pub fn line(&self, idx: usize) -> &LineState {
        &self.lines[idx]
    }

    /// Mutable view of line `idx`.
    #[inline]
    pub fn line_mut(&mut self, idx: usize) -> &mut LineState {
        &mut self.lines[idx]
    }

    /// Finds the valid line holding `addr`, if any, without updating
    /// LRU state.
    pub fn lookup(&mut self, addr: u32) -> Option<usize> {
        self.probe(addr).map(|(idx, _)| idx)
    }

    /// MRU-hinted associative probe: the single home of the lookup
    /// policy, shared by [`CacheTable::lookup`] and
    /// [`CacheTable::access`].
    ///
    /// The table is fully associative with at most one valid line per
    /// tag (refill only allocates after a lookup miss), so the hinted
    /// fast path and the associative scan return the same line. Hints
    /// are validated against the line state, so external mutation
    /// through [`CacheTable::line_mut`] can never produce a wrong
    /// result — a stale hint just falls back to the scan, which
    /// refreshes the hint array.
    fn probe(&mut self, addr: u32) -> Option<(usize, u32)> {
        let tag = self.tag_of(addr);
        if let Some(i) = self.hinted(addr) {
            return Some((i, tag));
        }
        let pos = self.lines.iter().position(|l| l.valid && l.tag == tag)?;
        self.mru.rotate_right(1);
        self.mru[0] = (tag, pos as u32);
        Some((pos, tag))
    }

    /// The hinted half of the lookup: the line an MRU hint resolves
    /// `addr` to, validated against the line state. `None` means no
    /// hint holds the tag or the hint is stale — the associative scan
    /// of [`CacheTable::lookup`]/[`CacheTable::access`] decides then.
    /// Read-only: a hinted hit leaves the hint array as it is, exactly
    /// like the hinted path of those two.
    #[inline]
    pub fn hinted(&self, addr: u32) -> Option<usize> {
        let tag = self.tag_of(addr);
        for &(t, i) in &self.mru {
            if t == tag {
                let l = &self.lines[i as usize];
                return (l.valid && l.tag == tag).then_some(i as usize);
            }
        }
        None
    }

    /// Marks line `idx` as just used (approximate LRU: the counter is
    /// set to the maximum; every [`aging period`](Self::new) accesses
    /// every counter decays by one — applied lazily via the epoch).
    #[inline]
    pub fn touch(&mut self, idx: usize) {
        self.lines[idx].lru = u8::MAX;
        self.lines[idx].lru_epoch = self.epoch;
        self.accesses_since_aging += 1;
        if self.accesses_since_aging >= self.aging_period {
            self.accesses_since_aging = 0;
            self.epoch = self.epoch.wrapping_add(1);
        }
    }

    /// Effective (lazily decayed) age counter of line `idx` (higher =
    /// more recently used), as the eager per-period full-table decay
    /// would have left it.
    pub fn age_of(&self, idx: usize) -> u8 {
        self.effective_lru(&self.lines[idx])
    }

    /// Effective (lazily decayed) age of a line: the stored counter
    /// minus one per aging epoch elapsed since it was written, exactly
    /// as the eager per-period full-table decay would have left it.
    fn effective_lru(&self, l: &LineState) -> u8 {
        let elapsed = self.epoch.wrapping_sub(l.lru_epoch).min(255) as u8;
        l.lru.saturating_sub(elapsed)
    }

    /// Combined [`CacheTable::lookup`] + [`CacheTable::touch`] for the
    /// cache hit path; returns the line index and its tag.
    #[inline]
    pub fn access(&mut self, addr: u32) -> Option<(usize, u32)> {
        let hit = self.probe(addr)?;
        self.touch(hit.0);
        Some(hit)
    }

    /// Selects a replacement victim at time `now`: the non-busy line
    /// with the lowest age counter (invalid lines win immediately).
    pub fn victim(&self, now: u64) -> Victim {
        let mut best: Option<(usize, u16)> = None;
        let mut min_busy = u64::MAX;
        for (i, l) in self.lines.iter().enumerate() {
            if l.is_busy(now) {
                min_busy = min_busy.min(l.busy_until);
                continue;
            }
            if !l.valid {
                return Victim::Line(i);
            }
            // Prefer clean lines at equal age by biasing dirty lines up.
            let score = self.effective_lru(l) as u16 * 2 + l.dirty as u16;
            match best {
                Some((_, s)) if s <= score => {}
                _ => best = Some((i, score)),
            }
        }
        match best {
            Some((i, _)) => Victim::Line(i),
            None => Victim::AllBusyUntil(min_busy),
        }
    }

    /// Iterates over `(index, state)` of lines whose cached block
    /// overlaps `[start, end)`.
    pub fn lines_overlapping(
        &self,
        start: u32,
        end: u32,
    ) -> impl Iterator<Item = (usize, &LineState)> {
        let lb = self.line_bytes as u64;
        self.lines.iter().enumerate().filter(move |(_, l)| {
            l.valid && (l.tag as u64) < end as u64 && (l.tag as u64 + lb) > start as u64
        })
    }

    /// Number of valid dirty lines within the line-index range
    /// `[from, to)` (used by the scheduler's fewest-dirty-lines policy).
    pub fn dirty_in_range(&self, from: usize, to: usize) -> usize {
        self.lines[from..to]
            .iter()
            .filter(|l| l.valid && l.dirty)
            .count()
    }

    /// Number of **invalid** (free) lines within the line-index range
    /// `[from, to)` (used by the scheduler's most-free policy).
    pub fn free_in_range(&self, from: usize, to: usize) -> usize {
        self.lines[from..to].iter().filter(|l| !l.valid).count()
    }

    /// Debug invariant: no two valid lines share a tag.
    pub fn check_no_duplicate_tags(&self) -> bool {
        let mut tags: Vec<u32> = self
            .lines
            .iter()
            .filter(|l| l.valid)
            .map(|l| l.tag)
            .collect();
        tags.sort_unstable();
        tags.windows(2).all(|w| w[0] != w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CacheTable {
        CacheTable::new(8, 1024)
    }

    #[test]
    fn tag_alignment() {
        let t = table();
        assert_eq!(t.tag_of(0x2000_0000), 0x2000_0000);
        assert_eq!(t.tag_of(0x2000_03ff), 0x2000_0000);
        assert_eq!(t.tag_of(0x2000_0400), 0x2000_0400);
    }

    #[test]
    fn lookup_finds_valid_lines_only() {
        let mut t = table();
        t.line_mut(3).tag = 0x2000_0400;
        assert_eq!(t.lookup(0x2000_0410), None, "invalid line is not a hit");
        t.line_mut(3).valid = true;
        assert_eq!(t.lookup(0x2000_0410), Some(3));
    }

    #[test]
    fn victim_prefers_invalid_then_oldest() {
        let mut t = table();
        for i in 0..8 {
            let l = t.line_mut(i);
            l.valid = true;
            l.tag = 0x2000_0000 + (i as u32) * 1024;
        }
        t.touch(0);
        t.touch(1); // lines 2..7 remain at lru 0
        match t.victim(0) {
            Victim::Line(i) => assert!(i >= 2, "touched lines must not be victims"),
            v => panic!("{v:?}"),
        }
        t.line_mut(5).valid = false;
        assert_eq!(t.victim(0), Victim::Line(5), "invalid line wins");
    }

    #[test]
    fn victim_skips_busy_lines() {
        let mut t = table();
        for i in 0..8 {
            let l = t.line_mut(i);
            l.valid = true;
            l.tag = (i as u32) * 1024;
            l.busy_until = 100;
        }
        assert_eq!(t.victim(50), Victim::AllBusyUntil(100));
        t.line_mut(2).busy_until = 0;
        assert_eq!(t.victim(50), Victim::Line(2));
        // After the busy window expires everything is eligible again.
        assert!(matches!(t.victim(100), Victim::Line(_)));
    }

    #[test]
    fn clean_preferred_over_dirty_at_equal_age() {
        let mut t = table();
        for i in 0..8 {
            let l = t.line_mut(i);
            l.valid = true;
            l.tag = (i as u32) * 1024;
            l.dirty = i == 0;
        }
        match t.victim(0) {
            Victim::Line(i) => assert_ne!(i, 0),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn aging_decays_counters() {
        let mut t = CacheTable::new(2, 1024);
        t.line_mut(0).valid = true;
        t.touch(0);
        assert_eq!(t.age_of(0), u8::MAX);
        for _ in 0..64 {
            t.touch(1);
        }
        assert!(t.age_of(0) < u8::MAX, "aging pass must decay counters");
        assert_eq!(t.age_of(1), u8::MAX, "line 1 was just touched");
    }

    #[test]
    fn overlap_iterator() {
        let mut t = table();
        t.line_mut(0).valid = true;
        t.line_mut(0).tag = 0x1000;
        t.line_mut(1).valid = true;
        t.line_mut(1).tag = 0x2000;
        let hits: Vec<usize> = t
            .lines_overlapping(0x13ff, 0x1401)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![0]);
        let hits: Vec<usize> = t
            .lines_overlapping(0x1000, 0x2400)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn no_duplicate_tags_invariant() {
        let mut t = table();
        t.line_mut(0).valid = true;
        t.line_mut(0).tag = 0x1000;
        assert!(t.check_no_duplicate_tags());
        t.line_mut(1).valid = true;
        t.line_mut(1).tag = 0x1000;
        assert!(!t.check_no_duplicate_tags());
    }
}
