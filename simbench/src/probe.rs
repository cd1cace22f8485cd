//! Host-time spans around the calls the benchmark makes into each
//! simulator layer.
//!
//! The point runner is generic over [`Probe`]: the timed run uses
//! [`Untraced`], whose spans compile to plain calls, and the traced run
//! uses [`Tracer`], which sums wall time and call counts per [`Span`].
//! Spans nest: [`Span::Run`] (the RV32 ISS) encloses every
//! [`Span::HostAccess`] and [`Span::Offload`] it causes, and the ISS's
//! self time is the run span minus those two.
//!
//! A clock read costs more than a cached host access, so the tracer
//! times only one [`Span::HostAccess`] call in [`HOST_ACCESS_SAMPLE`]
//! (a fixed stride that runs on across [`Tracer::take`], so a pass with
//! few accesses still gets its share) and scales it up; every call is
//! still counted.

use std::cell::Cell;
use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Input generation (conv planes and filters, graph suite builders).
    Gen,
    /// Golden models of the conv layer.
    Golden,
    /// SoC construction: host core, instruction memory, LLC.
    SocNew,
    /// `arcane_nn::compile`.
    Compile,
    /// Host-program generation plus `Asm::assemble`.
    Assemble,
    /// Seeding operands, descriptor tables and the program image.
    Seed,
    /// `Cpu::run_with_engine`, children included.
    Run,
    /// One host data access through the LLC (`host_access`).
    HostAccess,
    /// One CV-X-IF offload into the ARCANE LLC (C-RT, VPU and fabric).
    Offload,
    /// Reading results back and comparing them with the golden model.
    Verify,
    /// One whole traced pass.
    Pass,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 11] = [
        Span::Gen,
        Span::Golden,
        Span::SocNew,
        Span::Compile,
        Span::Assemble,
        Span::Seed,
        Span::Run,
        Span::HostAccess,
        Span::Offload,
        Span::Verify,
        Span::Pass,
    ];
}

/// One `host_access` call in this many is timed. A prime, so the
/// stride does not line up with the access pattern of a loop body.
pub const HOST_ACCESS_SAMPLE: u64 = 31;

/// Times the closure it is handed, or not.
pub trait Probe {
    /// Runs `f` inside span `s`.
    fn span<R>(&self, s: Span, f: impl FnOnce() -> R) -> R;
}

/// The timed run's probe: no clock reads at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn span<R>(&self, _: Span, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Per-span totals of one traced stretch of work, with the tracer's own
/// clock cost taken out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Estimated host seconds per span, in [`Span::ALL`] order.
    pub secs: [f64; Span::ALL.len()],
    /// Calls per span, in [`Span::ALL`] order.
    pub calls: [u64; Span::ALL.len()],
    /// Seconds the tracer itself added, per span, to the span that
    /// encloses it.
    pub probe: [f64; Span::ALL.len()],
}

impl SpanTotals {
    /// Host seconds spent in `s`.
    pub fn secs(&self, s: Span) -> f64 {
        self.secs[s as usize]
    }

    /// Calls made into `s`.
    pub fn calls(&self, s: Span) -> u64 {
        self.calls[s as usize]
    }

    /// Seconds that timing the calls into `s` added to the span around
    /// them.
    pub fn probe(&self, s: Span) -> f64 {
        self.probe[s as usize]
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SpanTotals) {
        for i in 0..Span::ALL.len() {
            self.secs[i] += other.secs[i];
            self.calls[i] += other.calls[i];
            self.probe[i] += other.probe[i];
        }
    }
}

/// What the tracer's clock reads cost, measured at start-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeCost {
    /// Part of a timed span's cost that lands inside its own window.
    pub window_ns: f64,
    /// Whole cost of a timed span around an empty closure.
    pub timed_ns: f64,
    /// Whole cost of a host access the sampler skips.
    pub skipped_ns: f64,
}

/// The traced run's probe. Interior mutability lets the bus and the
/// coprocessor port share one tracer while the core holds both.
#[derive(Debug, Default)]
pub struct Tracer {
    raw_ns: [Cell<u64>; Span::ALL.len()],
    timed: [Cell<u64>; Span::ALL.len()],
    calls: [Cell<u64>; Span::ALL.len()],
    /// Host accesses since the tracer was built (the sampling stride).
    host_accesses: Cell<u64>,
    cost: ProbeCost,
}

impl Tracer {
    /// A tracer that has measured its own clock cost.
    pub fn calibrated() -> Tracer {
        const N: u64 = 100_000;
        let mut t = Tracer::default();
        let empty = || std::hint::black_box(());
        let t0 = Instant::now();
        for _ in 0..N {
            t.span(Span::Verify, empty);
        }
        let timed_ns = t0.elapsed().as_nanos() as f64 / N as f64;
        let window_ns = t.raw_ns[Span::Verify as usize].get() as f64 / N as f64;
        let t0 = Instant::now();
        for _ in 0..N * HOST_ACCESS_SAMPLE {
            t.span(Span::HostAccess, empty);
        }
        let skipped = (N * (HOST_ACCESS_SAMPLE - 1)) as f64;
        let skipped_ns = (t0.elapsed().as_nanos() as f64 - N as f64 * timed_ns).max(0.0) / skipped;
        t.take();
        t.cost = ProbeCost {
            window_ns,
            timed_ns,
            skipped_ns,
        };
        t
    }

    /// The clock cost this tracer corrects for.
    pub fn cost(&self) -> ProbeCost {
        self.cost
    }

    /// Returns the totals so far and starts again from zero.
    pub fn take(&self) -> SpanTotals {
        let mut t = SpanTotals::default();
        let c = self.cost;
        for i in 0..Span::ALL.len() {
            let (raw, timed, calls) = (
                self.raw_ns[i].take() as f64,
                self.timed[i].take(),
                self.calls[i].take(),
            );
            if timed > 0 {
                // Sampled spans scale by calls per timed call.
                let scale = calls as f64 / timed as f64;
                t.secs[i] = ((raw - c.window_ns * timed as f64) * scale).max(0.0) * 1e-9;
            }
            t.calls[i] = calls;
            t.probe[i] = (timed as f64 * c.timed_ns + (calls - timed) as f64 * c.skipped_ns) * 1e-9;
        }
        t
    }
}

impl Probe for Tracer {
    #[inline]
    fn span<R>(&self, s: Span, f: impl FnOnce() -> R) -> R {
        let i = s as usize;
        self.calls[i].set(self.calls[i].get() + 1);
        if s == Span::HostAccess {
            let n = self.host_accesses.get() + 1;
            self.host_accesses.set(n);
            if !n.is_multiple_of(HOST_ACCESS_SAMPLE) {
                return f();
            }
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.raw_ns[i].set(self.raw_ns[i].get() + ns);
        self.timed[i].set(self.timed[i].get() + 1);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_counts_nested_spans_separately() {
        let t = Tracer::default();
        let v = t.span(Span::Run, || {
            t.span(Span::HostAccess, || 1) + t.span(Span::HostAccess, || 2)
        });
        assert_eq!(v, 3);
        let totals = t.take();
        assert_eq!(totals.calls(Span::Run), 1);
        assert_eq!(totals.calls(Span::HostAccess), 2);
        assert!(totals.secs(Span::Run) >= totals.secs(Span::HostAccess));
        assert_eq!(t.take(), SpanTotals::default(), "take resets");
    }

    #[test]
    fn host_accesses_are_sampled_but_all_counted() {
        let t = Tracer::default();
        let spin = || std::hint::black_box((0..200u64).sum::<u64>());
        // The stride runs on across `take`.
        for _ in 0..HOST_ACCESS_SAMPLE - 1 {
            t.span(Span::HostAccess, spin);
        }
        let none = t.take();
        assert_eq!(none.calls(Span::HostAccess), HOST_ACCESS_SAMPLE - 1);
        assert_eq!(none.secs(Span::HostAccess), 0.0, "no call sampled yet");
        for _ in 0..HOST_ACCESS_SAMPLE {
            t.span(Span::HostAccess, spin);
        }
        let one = t.take();
        assert_eq!(one.calls(Span::HostAccess), HOST_ACCESS_SAMPLE);
        assert!(one.secs(Span::HostAccess) > 0.0, "the last call is sampled");
    }

    #[test]
    fn calibration_measures_a_positive_clock_cost() {
        let c = Tracer::calibrated().cost();
        assert!(c.timed_ns > 0.0 && c.window_ns > 0.0, "{c:?}");
        assert!(c.window_ns <= c.timed_ns, "{c:?}");
        assert!(c.skipped_ns < c.timed_ns, "{c:?}");
    }

    #[test]
    fn untraced_is_transparent() {
        assert_eq!(Untraced.span(Span::Verify, || 7), 7);
    }
}
