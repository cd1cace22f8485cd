//! Gap-scheduling calendar for shared hardware resources.
//!
//! The ARCANE LLC has agents every kernel must share: the single 2-D
//! DMA channel, the single eCPU (which dispatches every vector
//! instruction) and the fabric banks between the controller complex and
//! the VPU array. Because kernels are simulated eagerly one after
//! another while their cycle intervals interleave on the real hardware,
//! a plain "free-at" cursor would serialise kernels that actually
//! overlap. [`ResourceChannel`] instead keeps a calendar of busy
//! windows and books each request into the earliest gap that fits —
//! first-come-first-served per kernel, interleaved across kernels.

/// A shared, single-ported resource booked in absolute-cycle windows.
#[derive(Debug, Clone, Default)]
pub struct ResourceChannel {
    /// Busy windows sorted by start time.
    windows: Vec<(u64, u64)>,
}

impl ResourceChannel {
    /// Creates an idle resource.
    pub fn new() -> Self {
        ResourceChannel::default()
    }

    /// Books `duration` cycles starting no earlier than `earliest`;
    /// returns the `(start, end)` actually granted (the earliest gap
    /// that fits).
    ///
    /// Windows are disjoint and sorted, so starts *and* ends are both
    /// increasing: the search skips every window ending at or before
    /// `earliest` by binary search, and freshly booked windows coalesce
    /// with exact neighbours. The busy set is identical to booking each
    /// window separately — only the representation is compacted, which
    /// keeps the back-to-back issue pattern of a long kernel (millions
    /// of eCPU slots) at a handful of windows instead of O(n²) scans.
    ///
    /// A request at or after the last window's end (the common case:
    /// back-to-back issue) appends or extends that window in O(1),
    /// which is exactly what the search below would grant.
    pub fn reserve(&mut self, earliest: u64, duration: u64) -> (u64, u64) {
        if duration == 0 {
            return (earliest, earliest);
        }
        let end = earliest + duration;
        match self.windows.last_mut() {
            Some(last) if last.1 > earliest => {}
            Some(last) if last.1 == earliest => {
                last.1 = end;
                return (earliest, end);
            }
            _ => {
                self.windows.push((earliest, end));
                return (earliest, end);
            }
        }
        let mut t = earliest;
        let mut i = self.windows.partition_point(|&(_, e)| e <= t);
        while i < self.windows.len() {
            let (s, e) = self.windows[i];
            if s >= t + duration {
                break; // the gap before this window fits
            }
            t = e; // collide: try right after this window
            i += 1;
        }
        let win = (t, t + duration);
        let touches_prev = i > 0 && self.windows[i - 1].1 == win.0;
        let touches_next = i < self.windows.len() && self.windows[i].0 == win.1;
        match (touches_prev, touches_next) {
            (true, true) => {
                self.windows[i - 1].1 = self.windows[i].1;
                self.windows.remove(i);
            }
            (true, false) => self.windows[i - 1].1 = win.1,
            (false, true) => self.windows[i].0 = win.0,
            (false, false) => self.windows.insert(i, win),
        }
        (win.0, win.1)
    }

    /// Books `total` cycles of *preemptible* work starting no earlier
    /// than `earliest`, split into chunks of at most `chunk` cycles that
    /// weave into whatever gaps exist (the C-RT is a preemptive runtime:
    /// IRQ decoding interleaves with kernel dispatch, §IV-B).
    ///
    /// Returns `(first_start, last_end)`.
    pub fn reserve_fragmented(&mut self, earliest: u64, total: u64, chunk: u64) -> (u64, u64) {
        assert!(chunk > 0, "chunk must be positive");
        let mut remaining = total;
        let mut t = earliest;
        let mut first = None;
        while remaining > 0 {
            let d = remaining.min(chunk);
            let (s, e) = self.reserve(t, d);
            if first.is_none() {
                first = Some(s);
            }
            t = e;
            remaining -= d;
        }
        (first.unwrap_or(earliest), t)
    }

    /// Length of the free gap beginning at the earliest idle cycle at
    /// or after `earliest` (the slice a work-conserving arbiter would
    /// hand out next). Returns `(gap_start, gap_len)`; `gap_len` is
    /// `u64::MAX` for the open-ended gap past the last window.
    fn next_gap(&self, earliest: u64) -> (u64, u64) {
        if earliest >= self.horizon() {
            return (earliest, u64::MAX);
        }
        let mut t = earliest;
        let mut i = self.windows.partition_point(|&(_, e)| e <= t);
        while i < self.windows.len() {
            let (s, e) = self.windows[i];
            if s > t {
                return (t, s - t); // gap before window i
            }
            t = e; // we are inside (or at the edge of) window i
            i += 1;
        }
        (t, u64::MAX)
    }

    /// Books `total` cycles of *work-conserving* shared-resource time
    /// starting no earlier than `earliest`: every idle slice is taken
    /// as found, in bursts of at most `burst` cycles, so concurrent
    /// transactions interleave at burst granularity instead of pushing
    /// each other's whole phases to the horizon. This is the eager-
    /// simulation equivalent of a round-robin bus arbiter: a stream
    /// booked later weaves into every gap the earlier streams left.
    ///
    /// Returns `(first_start, last_end, bursts_granted)`.
    pub fn reserve_packed(&mut self, earliest: u64, total: u64, burst: u64) -> (u64, u64, u64) {
        assert!(burst > 0, "burst must be positive");
        if total == 0 {
            return (earliest, earliest, 0);
        }
        let mut remaining = total;
        let mut t = earliest;
        let mut first = None;
        let mut bursts = 0;
        while remaining > 0 {
            let (gap_start, gap_len) = self.next_gap(t);
            let d = remaining.min(burst).min(gap_len);
            let (s, e) = self.reserve(gap_start, d);
            debug_assert_eq!((s, e), (gap_start, gap_start + d));
            if first.is_none() {
                first = Some(s);
            }
            bursts += 1;
            remaining -= d;
            t = e;
        }
        (first.unwrap_or(earliest), t, bursts)
    }

    /// Latest booked end time (0 when idle forever): the last window's
    /// end, since windows are sorted and disjoint.
    pub fn horizon(&self) -> u64 {
        self.windows.last().map_or(0, |&(_, e)| e)
    }

    /// The booked busy windows, sorted by start time. Disjoint and
    /// maximally coalesced: consecutive windows never touch.
    pub fn windows(&self) -> &[(u64, u64)] {
        &self.windows
    }

    /// Drops windows ending at or before `now`.
    pub fn prune(&mut self, now: u64) {
        self.windows.retain(|&(_, e)| e > now);
    }

    /// Number of booked windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` when nothing is booked.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total busy cycles booked (utilisation numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.windows.iter().map(|&(s, e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_requests_append() {
        let mut c = ResourceChannel::new();
        assert_eq!(c.reserve(0, 10), (0, 10));
        assert_eq!(c.reserve(10, 5), (10, 15));
        assert_eq!(c.horizon(), 15);
    }

    #[test]
    fn later_request_fills_earlier_gap() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 10); // [0, 10)
        c.reserve(50, 10); // [50, 60)
                           // A kernel simulated later but wanting cycle 12 slots into the gap.
        assert_eq!(c.reserve(12, 20), (12, 32));
        // And one that does not fit before 50 goes after 60.
        assert_eq!(c.reserve(12, 30), (60, 90));
    }

    #[test]
    fn collision_pushes_right() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 100);
        assert_eq!(c.reserve(40, 10), (100, 110));
    }

    #[test]
    fn zero_duration_is_free() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 10);
        assert_eq!(c.reserve(5, 0), (5, 5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn adjacent_windows_pack_tightly() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 10);
        c.reserve(20, 10);
        assert_eq!(c.reserve(0, 10), (10, 20), "exact-fit gap");
        assert_eq!(c.busy_cycles(), 30);
    }

    #[test]
    fn prune_keeps_future_windows() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 10);
        c.reserve(20, 10);
        c.prune(15);
        assert_eq!(c.len(), 1);
        assert_eq!(c.horizon(), 30);
    }

    #[test]
    fn packed_fills_sub_burst_gaps() {
        // A comb of 6-busy/6-free windows: fragmented booking with a
        // 16-cycle chunk cannot use the 6-cycle gaps, packed booking
        // fills every one of them.
        let mut c = ResourceChannel::new();
        for k in 0..10u64 {
            c.reserve(12 * k, 6);
        }
        let (first, end, bursts) = c.reserve_packed(0, 30, 16);
        assert_eq!(first, 6, "first grant lands in the first gap");
        assert_eq!(end, 60, "five 6-cycle gaps absorb 30 cycles");
        assert_eq!(bursts, 5);
        // The comb is now solid up to 60.
        assert_eq!(c.windows()[0], (0, 66));
    }

    #[test]
    fn packed_respects_burst_cap() {
        let mut c = ResourceChannel::new();
        let (first, end, bursts) = c.reserve_packed(100, 40, 16);
        assert_eq!((first, end), (100, 140), "idle channel grants densely");
        assert_eq!(bursts, 3, "16 + 16 + 8");
        assert_eq!(c.len(), 1, "adjacent bursts coalesce");
    }

    #[test]
    fn packed_books_exactly_total() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 5);
        c.reserve(8, 5);
        let before = c.busy_cycles();
        let (_, _, _) = c.reserve_packed(0, 20, 4);
        assert_eq!(c.busy_cycles(), before + 20);
    }
}
