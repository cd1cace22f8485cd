//! Property-based tests on the calendar/arbiter invariants of the
//! shared-memory fabric:
//!
//! * [`ResourceChannel`] windows stay disjoint, sorted and maximally
//!   coalesced under arbitrary mixes of whole, fragmented and packed
//!   reservations, and the booked busy set is conserved exactly;
//! * the `whole-phase` fabric grants are bit-identical to direct
//!   [`ResourceChannel::reserve`] grants on the same request stream
//!   (the cycle-exactness guarantee every committed baseline relies
//!   on);
//! * the burst arbiters are work-conserving (exactly `duration` busy
//!   cycles per transaction) and `priority-host` never splits a host
//!   transaction;
//! * every [`ResourceChannel`] primitive grants exactly what a naive,
//!   uncoalesced calendar grants for requests before, at and after the
//!   horizon.

use arcane::fabric::{ArbiterKind, Fabric, FabricConfig, ResourceChannel, HOST_PORT};
use proptest::prelude::*;

/// One randomised reservation: which primitive, and its parameters.
#[derive(Debug, Clone, Copy)]
enum Req {
    Whole {
        earliest: u64,
        dur: u64,
    },
    Fragmented {
        earliest: u64,
        total: u64,
        chunk: u64,
    },
    Packed {
        earliest: u64,
        total: u64,
        burst: u64,
    },
}

fn req() -> impl Strategy<Value = Req> {
    prop_oneof![
        (0u64..2000, 1u64..80).prop_map(|(earliest, dur)| Req::Whole { earliest, dur }),
        (0u64..2000, 1u64..200, 1u64..32).prop_map(|(earliest, total, chunk)| {
            Req::Fragmented {
                earliest,
                total,
                chunk,
            }
        }),
        (0u64..2000, 1u64..200, 1u64..64).prop_map(|(earliest, total, burst)| Req::Packed {
            earliest,
            total,
            burst,
        }),
    ]
}

fn check_invariants(chan: &ResourceChannel, booked: u64) -> Result<(), TestCaseError> {
    let windows = chan.windows();
    for w in windows {
        prop_assert!(w.0 < w.1, "window is non-empty: {w:?}");
    }
    for pair in windows.windows(2) {
        prop_assert!(
            pair[0].1 < pair[1].0,
            "windows sorted, disjoint and coalesced (a gap between \
             neighbours): {pair:?}"
        );
    }
    prop_assert_eq!(chan.busy_cycles(), booked, "busy set conserved");
    Ok(())
}

proptest! {
    #[test]
    fn channel_invariants_under_mixed_reservations(
        reqs in prop::collection::vec(req(), 1..80),
    ) {
        let mut chan = ResourceChannel::new();
        let mut booked = 0u64;
        for r in reqs {
            match r {
                Req::Whole { earliest, dur } => {
                    let (s, e) = chan.reserve(earliest, dur);
                    prop_assert!(s >= earliest);
                    prop_assert_eq!(e - s, dur);
                    booked += dur;
                }
                Req::Fragmented { earliest, total, chunk } => {
                    let (s, e) = chan.reserve_fragmented(earliest, total, chunk);
                    prop_assert!(s >= earliest && e >= s + total);
                    booked += total;
                }
                Req::Packed { earliest, total, burst } => {
                    let (s, e, bursts) = chan.reserve_packed(earliest, total, burst);
                    prop_assert!(s >= earliest && e >= s + total);
                    prop_assert!(bursts >= total.div_ceil(burst));
                    booked += total;
                }
            }
            check_invariants(&chan, booked)?;
        }
    }

    #[test]
    fn whole_phase_grants_match_direct_reserve(
        reqs in prop::collection::vec((1usize..5, 0u64..3000, 1u64..400), 1..60),
    ) {
        // The same kernel-port request stream, once through the
        // whole-phase fabric, once against a bare calendar: grants must
        // be bit-identical (the committed-baseline guarantee).
        let mut fabric = Fabric::new(FabricConfig::default(), 4);
        let mut direct = ResourceChannel::new();
        for (port, earliest, dur) in reqs {
            let g = fabric.request(port, 0x2000_0000, earliest, dur);
            let (s, e) = direct.reserve(earliest, dur);
            prop_assert_eq!((g.start, g.end), (s, e));
            prop_assert_eq!(g.bursts, 1, "whole-phase never splits");
        }
        prop_assert_eq!(
            fabric.bank_channels()[0].windows(),
            direct.windows(),
            "identical busy calendars"
        );
    }

    /// Descriptor-batch transfers are ordinary kernel-path traffic:
    /// under whole-phase arbitration a mixed stream of DMA requests and
    /// `issue_batch` transfers books grants bit-identical to direct
    /// contiguous reserves of the same durations (the batch pipeline
    /// adds no hidden cycles to the shared path).
    #[test]
    fn whole_phase_batch_grants_match_direct_reserve(
        reqs in prop::collection::vec(
            (0usize..5, 0u64..3000, 1u64..400, any::<bool>()), 1..60),
    ) {
        let mut fabric = Fabric::new(FabricConfig::default(), 4);
        let mut direct = ResourceChannel::new();
        let bpc = FabricConfig::default().bytes_per_cycle;
        for (port, earliest, dur, as_batch) in reqs {
            let g = if as_batch {
                // A batch whose payload needs exactly `dur` cycles.
                fabric.issue_batch(port, 0x2000_0000, earliest, dur * bpc)
            } else {
                fabric.request(port.max(1), 0x2000_0000, earliest, dur)
            };
            let (s, e) = direct.reserve(earliest, dur);
            prop_assert_eq!((g.start, g.end), (s, e));
            prop_assert_eq!(g.bursts, 1, "whole-phase never splits");
        }
        prop_assert_eq!(
            fabric.bank_channels()[0].windows(),
            direct.windows(),
            "identical busy calendars"
        );
    }

    #[test]
    fn burst_arbiters_are_work_conserving(
        kind in prop_oneof![
            Just(ArbiterKind::RoundRobinBurst),
            Just(ArbiterKind::PriorityHost)
        ],
        reqs in prop::collection::vec((0usize..5, 0u64..3000, 1u64..400), 1..60),
    ) {
        let cfg = FabricConfig { arbiter: kind, ..FabricConfig::default() };
        let mut fabric = Fabric::new(cfg, 4);
        let mut booked = 0u64;
        for (port, earliest, dur) in reqs {
            let g = fabric.request(port, 0x2000_0000, earliest, dur);
            prop_assert!(g.start >= earliest);
            prop_assert!(g.end >= g.start + dur, "span covers the service time");
            if kind == ArbiterKind::PriorityHost && port == HOST_PORT {
                prop_assert_eq!(g.bursts, 1, "host transactions stay whole");
                prop_assert_eq!(g.end - g.start, dur);
            }
            booked += dur;
        }
        prop_assert_eq!(fabric.busy_cycles(), booked, "every cycle granted once");
        let stats_busy: u64 = fabric.port_stats().iter().map(|s| s.busy_cycles).sum();
        prop_assert_eq!(stats_busy, booked, "port accounting agrees");
    }

    #[test]
    fn packed_reservation_is_never_later_than_whole(
        pre in prop::collection::vec((0u64..1500, 1u64..60), 0..30),
        earliest in 0u64..1500,
        total in 1u64..300,
        burst in 1u64..64,
    ) {
        // Against any pre-booked calendar, filling gaps burst-by-burst
        // completes no later than waiting for one contiguous window.
        let mut a = ResourceChannel::new();
        let mut b = ResourceChannel::new();
        for &(t, d) in &pre {
            a.reserve(t, d);
            b.reserve(t, d);
        }
        let (_, packed_end, _) = a.reserve_packed(earliest, total, burst);
        let (_, whole_end) = b.reserve(earliest, total);
        prop_assert!(
            packed_end <= whole_end,
            "packed {packed_end} vs whole {whole_end}"
        );
    }
}

/// The calendar written from its specification: every booked window
/// kept as booked, unsorted and uncoalesced, and each search a scan of
/// all of them.
#[derive(Default)]
struct NaiveCalendar(Vec<(u64, u64)>);

impl NaiveCalendar {
    fn busy_at(&self, t: u64) -> bool {
        self.0.iter().any(|&(s, e)| s <= t && t < e)
    }

    /// The earliest idle cycle at or after `t`: `t` itself or the end of
    /// some window.
    fn next_idle(&self, t: u64) -> u64 {
        std::iter::once(t)
            .chain(self.0.iter().map(|&(_, e)| e).filter(|&e| e >= t))
            .filter(|&c| !self.busy_at(c))
            .min()
            .expect("the latest end is idle")
    }

    /// Length of the idle gap starting at idle cycle `t`.
    fn gap_len(&self, t: u64) -> u64 {
        self.0
            .iter()
            .filter(|&&(s, _)| s > t)
            .map(|&(s, _)| s - t)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Earliest `t >= earliest` with `[t, t + dur)` idle.
    fn reserve(&mut self, earliest: u64, dur: u64) -> (u64, u64) {
        if dur == 0 {
            return (earliest, earliest);
        }
        let mut t = self.next_idle(earliest);
        while self.gap_len(t) < dur {
            t = self.next_idle(t + 1);
        }
        self.0.push((t, t + dur));
        (t, t + dur)
    }

    fn reserve_fragmented(&mut self, earliest: u64, total: u64, chunk: u64) -> (u64, u64) {
        let (mut t, mut first) = (earliest, None);
        for k in 0..total.div_ceil(chunk) {
            let (s, e) = self.reserve(t, chunk.min(total - k * chunk));
            first.get_or_insert(s);
            t = e;
        }
        (first.unwrap_or(earliest), t)
    }

    fn reserve_packed(&mut self, earliest: u64, total: u64, burst: u64) -> (u64, u64, u64) {
        let (mut t, mut left, mut first, mut bursts) = (earliest, total, None, 0);
        while left > 0 {
            let g = self.next_idle(t);
            let d = left.min(burst).min(self.gap_len(g));
            self.0.push((g, g + d));
            first.get_or_insert(g);
            bursts += 1;
            left -= d;
            t = g + d;
        }
        (first.unwrap_or(earliest), t, bursts)
    }

    fn horizon(&self) -> u64 {
        self.0.iter().map(|&(_, e)| e).max().unwrap_or(0)
    }

    fn busy_cycles(&self) -> u64 {
        self.0.iter().map(|&(s, e)| e - s).sum()
    }

    /// The booked set as sorted windows with touching ones merged.
    fn coalesced(&self) -> Vec<(u64, u64)> {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (s, e) in sorted {
            match out.last_mut() {
                Some(last) if last.1 >= s => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        out
    }
}

/// Where a reference-checked request starts relative to the horizon.
#[derive(Debug, Clone, Copy)]
enum When {
    Absolute(u64),
    Before(u64),
    AtHorizon,
    After(u64),
}

fn when() -> impl Strategy<Value = When> {
    prop_oneof![
        (0u64..1500).prop_map(When::Absolute),
        (1u64..200).prop_map(When::Before),
        Just(When::AtHorizon),
        (1u64..40).prop_map(When::After),
    ]
}

proptest! {
    #[test]
    fn channel_matches_the_naive_calendar(
        reqs in prop::collection::vec((0u8..3, when(), 0u64..120, 1u64..40), 1..70),
    ) {
        let mut chan = ResourceChannel::new();
        let mut naive = NaiveCalendar::default();
        for (step, &(kind, when, amount, unit)) in reqs.iter().enumerate() {
            let h = naive.horizon();
            let earliest = match when {
                When::Absolute(t) => t,
                When::Before(d) => h.saturating_sub(d),
                When::AtHorizon => h,
                When::After(d) => h + d,
            };
            match kind {
                0 => prop_assert_eq!(
                    chan.reserve(earliest, amount),
                    naive.reserve(earliest, amount),
                    "reserve {} at {}", step, earliest
                ),
                1 => prop_assert_eq!(
                    chan.reserve_fragmented(earliest, amount, unit),
                    naive.reserve_fragmented(earliest, amount, unit),
                    "reserve_fragmented {} at {}", step, earliest
                ),
                _ => prop_assert_eq!(
                    chan.reserve_packed(earliest, amount, unit),
                    naive.reserve_packed(earliest, amount, unit),
                    "reserve_packed {} at {}", step, earliest
                ),
            }
            prop_assert_eq!(chan.horizon(), naive.horizon(), "horizon after {}", step);
            prop_assert_eq!(chan.busy_cycles(), naive.busy_cycles(), "busy after {}", step);
            prop_assert_eq!(chan.windows(), &naive.coalesced()[..], "windows after {}", step);
        }
    }
}
