//! `arcane-simbench`: end-to-end and per-layer benchmark of the ARCANE
//! simulator.
//!
//! ```text
//! arcane-simbench --workload <paper_fig4|nn_chain|mixed_fabric>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. A run generates its inputs from the seed
//! (set-up, repeated and timed), checks the benchmark's runner against
//! the library entry points (drift guard), runs one untimed reference
//! pass, then runs closed-loop passes for `--seconds`, every point of
//! every pass verified bit-exactly. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics. Either way it then
//! runs the 256×256 paper anchors once, outside set-up and timing. The
//! last stdout line is one JSON object; see `README.md`.

mod drift;
mod heap;
mod probe;
mod report;
mod runner;
mod stats;
mod suite;

use probe::{Probe, Span, SpanTotals, Tracer, Untraced};
use runner::Counters;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use suite::{Workload, ANCHORS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Passes a run makes at least, whatever `--seconds` says, so the tail
/// percentile always has ten passes beyond it.
const MIN_PASSES: usize = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed points over the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, label: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("FAILED {label}: {e}");
        })
        .ok()
    }
}

/// One pass: every point once, each under `catch_unwind`. Returns the
/// per-point counts, `None` for a failed point.
fn pass<P: Probe>(w: &Workload, probe: &P, tally: &mut Tally) -> Vec<Option<Counters>> {
    (0..w.points.len())
        .map(|i| {
            let r = catch_unwind(AssertUnwindSafe(|| w.run_point(probe, i)))
                .unwrap_or_else(|_| Err("panicked".into()));
            tally.record(w.points[i].label(), r).map(|run| run.counters)
        })
        .collect()
}

fn total(points: &[Option<Counters>]) -> Counters {
    let mut t = Counters::default();
    for c in points.iter().flatten() {
        t += *c;
    }
    t
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// nproc, load average and CPU model, for reading host times.
fn machine_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "?".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "?".into());
    format!("nproc={nproc} loadavg=[{load}] cpu=\"{cpu}\"")
}

/// Everything one run measured.
struct Measured {
    /// Host seconds of each set-up.
    setup_s: Vec<f64>,
    /// Set-up spans, summed over all set-ups (traced runs only).
    setup_spans: SpanTotals,
    /// Simulated counts of one pass (the reference pass).
    per_pass: Counters,
    /// Whether every pass repeated the reference pass's counts exactly.
    repeats: bool,
    drifted: usize,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Span totals over all traced passes.
    spans: SpanTotals,
    peak_heap_mib: f64,
    peak_rss_mib: f64,
    /// Measured anchor speed-ups, `None` if an anchor point failed.
    speedups: Option<[f64; 5]>,
    tally: Tally,
}

/// One set-up: operands and golden outputs from the seed, timed into
/// `setup_s` (and traced into `spans` in a traced run).
fn set_up(
    args: &Args,
    tracer: &Tracer,
    setup_s: &mut Vec<f64>,
    spans: &mut SpanTotals,
) -> Workload {
    let t0 = Instant::now();
    let w = if args.trace {
        Workload::build(&args.workload, args.seed, tracer)
    } else {
        Workload::build(&args.workload, args.seed, &Untraced)
    };
    setup_s.push(secs_since(t0));
    spans.add(&tracer.take());
    w.expect("workload name checked by the caller")
}

fn measure(args: &Args, tracer: &Tracer) -> Measured {
    let mut setup_s = Vec::new();
    let mut setup_spans = SpanTotals::default();
    let w = set_up(args, tracer, &mut setup_s, &mut setup_spans);
    let mut tally = Tally::default();

    // Drift guard, then the reference pass every later pass must repeat.
    let drifted = drift::check(&w);
    for d in &drifted {
        eprintln!("DRIFT {d}");
    }
    tally.attempted += w.points.len() as u64;
    tally.failed += drifted.len() as u64;
    let reference = pass(&w, &Untraced, &mut tally);
    print_points(&w, &reference);

    // Closed loop for --seconds; a traced run alternates with traced
    // passes. A set-up follows every pass, so that `setup_s`, like the
    // pass times, samples the machine over the whole run; the workload
    // it builds equals `w` and is dropped.
    let mut m = Measured {
        setup_s,
        setup_spans,
        per_pass: total(&reference),
        repeats: true,
        drifted: drifted.len(),
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        spans: SpanTotals::default(),
        peak_heap_mib: 0.0,
        peak_rss_mib: 0.0,
        speedups: None,
        tally,
    };
    heap::reset_peak();
    let t_start = Instant::now();
    while secs_since(t_start) < args.seconds || m.untraced_s.len() + m.traced_s.len() < MIN_PASSES {
        let t0 = Instant::now();
        let got = pass(&w, &Untraced, &mut m.tally);
        m.untraced_s.push(secs_since(t0));
        m.repeats &= got == reference;
        if args.trace {
            let t0 = Instant::now();
            let got = tracer.span(Span::Pass, || pass(&w, tracer, &mut m.tally));
            m.traced_s.push(secs_since(t0));
            m.spans.add(&tracer.take());
            m.repeats &= got == reference;
        }
        set_up(args, tracer, &mut m.setup_s, &mut m.setup_spans);
    }
    m.peak_heap_mib = heap::peak_mib();
    m.peak_rss_mib = peak_rss_mib();

    // Paper anchors, once, outside set-up and timing.
    let aw = Workload::anchors(args.seed, &Untraced);
    let cycles: Option<Vec<u64>> = pass(&aw, &Untraced, &mut m.tally)
        .into_iter()
        .map(|c| c.map(|c| c.cycles))
        .collect();
    m.speedups = cycles.map(|c| suite::anchor_speedups(&c.try_into().expect("six anchor points")));
    m
}

fn print_points(w: &Workload, reference: &[Option<Counters>]) {
    println!("# per-point simulated counts (every later pass must repeat them)");
    println!(
        "# {:<50} {:>12} {:>12} {:>8}",
        "point", "cycles", "instret", "kernels"
    );
    for (pt, c) in w.points.iter().zip(reference) {
        match c {
            Some(c) => println!(
                "# {:<50} {:>12} {:>12} {:>8}",
                pt.label(),
                c.cycles,
                c.instret,
                c.kernels
            ),
            None => println!("# {:<50} FAILED", pt.label()),
        }
    }
}

/// Prints the fidelity table and returns `anchor_log_err`.
fn fidelity(speedups: Option<[f64; 5]>) -> f64 {
    println!("# fidelity: measured speed-up vs the paper's published value (256x256 int8)");
    println!(
        "# {:<31} {:>10} {:>8} {:>10}",
        "anchor", "measured", "paper", "ln error"
    );
    let mut pairs = Vec::new();
    for (i, (name, paper)) in ANCHORS.iter().enumerate() {
        let m = speedups.map_or(f64::NAN, |s| s[i]);
        pairs.push((m, *paper));
        println!(
            "# {name:<31} {m:>9.2}x {paper:>7.1}x {:>10.3}",
            (m / paper).ln().abs()
        );
    }
    println!("# These five published points are the only reference the repository");
    println!("# holds, and none was held back from calibration: the model is");
    println!("# validated at these points only.");
    stats::mean_log_error(&pairs)
}

fn end_to_end(m: &Measured, anchor_log_err: f64) -> Vec<(&'static str, f64)> {
    let s = &m.untraced_s;
    let p50 = stats::median(s);
    let (q1, q3) = stats::quartiles(s);
    let (tail, pct) = stats::tail(s).expect("at least MIN_PASSES passes");
    println!(
        "# {} passes: p50 {p50:.6} s, q1 {q1:.6} s, q3 {q3:.6} s, tail p{pct:.1} {tail:.6} s",
        s.len()
    );
    let c = &m.per_pass;
    vec![
        ("setup_s", stats::median(&m.setup_s)),
        ("pass_s_p50", p50),
        ("pass_s_tail", tail),
        ("sim_mcycles_per_s", c.cycles as f64 / p50 / 1e6),
        ("sim_mips", c.instret as f64 / p50 / 1e6),
        ("kernels_per_s", c.kernels as f64 / p50),
        ("peak_heap_mib", m.peak_heap_mib),
        (
            "verified_frac",
            1.0 - m.tally.failed as f64 / m.tally.attempted as f64,
        ),
        ("anchor_log_err", anchor_log_err),
    ]
}

fn per_layer(m: &Measured, cost: probe::ProbeCost) -> Vec<(&'static str, f64)> {
    let n = m.traced_s.len() as f64;
    let per = |s: Span| m.spans.secs(s) / n;
    let calls = |s: Span| m.spans.calls(s) as f64 / n;
    let probe = |s: Span| m.spans.probe(s) / n;
    let iss_self = per(Span::Run)
        - [Span::HostAccess, Span::Offload]
            .map(|s| per(s) + probe(s))
            .iter()
            .sum::<f64>();
    // Top-level spans of a pass, with what timing them cost.
    let spanned = [
        Span::SocNew,
        Span::Compile,
        Span::Assemble,
        Span::Seed,
        Span::Run,
        Span::Verify,
    ]
    .map(|s| per(s) + probe(s))
    .iter()
    .sum::<f64>();
    let probe_total = Span::ALL
        .iter()
        .filter(|&&s| s != Span::Pass)
        .map(|&s| probe(s))
        .sum::<f64>();
    let unspanned = per(Span::Pass) - spanned;
    println!(
        "# probe cost: {:.1} ns per timed span ({:.1} ns inside it), {:.1} ns per skipped host access",
        cost.timed_ns, cost.window_ns, cost.skipped_ns
    );
    println!("# traced pass {:.6} s =", per(Span::Pass));
    for (name, v) in [
        ("soc_new", per(Span::SocNew)),
        ("compile", per(Span::Compile)),
        ("assemble", per(Span::Assemble)),
        ("seed", per(Span::Seed)),
        ("iss_self", iss_self),
        ("host_access", per(Span::HostAccess)),
        ("offload", per(Span::Offload)),
        ("verify", per(Span::Verify)),
        ("probe", probe_total),
        ("unspanned", unspanned),
    ] {
        println!("#   {name:<12} {v:.6} s");
    }
    let c = &m.per_pass;
    let setups = m.setup_s.len() as f64;
    let untraced_p50 = stats::median(&m.untraced_s);
    let mut values = vec![
        ("rv32.iss_self.s", iss_self),
        ("rv32.ns_per_instr", 1e9 * iss_self / c.instret as f64),
        ("core.host_access.calls", calls(Span::HostAccess)),
        ("core.host_access.s", per(Span::HostAccess)),
        (
            "core.host_access.ns_per_call",
            1e9 * per(Span::HostAccess) / calls(Span::HostAccess).max(1.0),
        ),
        ("core.offload.calls", calls(Span::Offload)),
        ("core.offload.s", per(Span::Offload)),
        (
            "core.offload.us_per_kernel",
            1e6 * per(Span::Offload) / c.kernels.max(1) as f64,
        ),
        ("system.soc_new.calls", calls(Span::SocNew)),
        ("system.soc_new.s", per(Span::SocNew)),
        ("nn.compile.calls", calls(Span::Compile)),
        ("nn.compile.s", per(Span::Compile)),
        ("isa.assemble.s", per(Span::Assemble)),
        ("mem.seed.s", per(Span::Seed)),
        ("verify.s", per(Span::Verify)),
        ("workloads.gen.s", m.setup_spans.secs(Span::Gen) / setups),
        (
            "workloads.golden.s",
            m.setup_spans.secs(Span::Golden) / setups,
        ),
        (
            "trace.overhead_pct",
            100.0 * (stats::median(&m.traced_s) / untraced_p50 - 1.0),
        ),
        ("trace.pass_s", per(Span::Pass)),
        ("trace.untraced_pass_s", untraced_p50),
        ("trace.unspanned.s", unspanned),
        ("trace.probe.s", probe_total),
        ("sim.cycles", c.cycles as f64),
        ("rv32.instret", c.instret as f64),
        ("rv32.ipc", c.instret as f64 / c.cpu_cycles as f64),
        ("llc.hits", c.hits as f64),
        ("llc.misses", c.misses as f64),
        (
            "llc.hit_rate",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        ),
        ("llc.writebacks", c.writebacks as f64),
        ("llc.stalls", c.stalls as f64),
        ("llc.stall_cycles", c.stall_cycles as f64),
        ("crt.kernels", c.kernels as f64),
        ("crt.renames", c.renames as f64),
        ("crt.preamble_cycles", c.preamble as f64),
        ("crt.allocation_cycles", c.allocation as f64),
        ("crt.compute_cycles", c.compute as f64),
        ("crt.writeback_cycles", c.writeback as f64),
        ("ecpu.busy_cycles", c.ecpu_busy as f64),
        ("ecpu.wait_cycles", c.ecpu_wait as f64),
        ("ecpu.requests", c.ecpu_requests as f64),
        ("fabric.host.busy_cycles", c.host_busy as f64),
        ("fabric.host.wait_cycles", c.host_wait as f64),
        ("fabric.host.requests", c.host_requests as f64),
        ("fabric.vpu.busy_cycles", c.vpu_busy as f64),
        ("fabric.vpu.wait_cycles", c.vpu_wait as f64),
        ("fabric.vpu.requests", c.vpu_requests as f64),
        ("launch.batches", c.batches as f64),
        ("launch.descriptors", c.descriptors as f64),
        ("launch.bindings", c.bindings as f64),
        ("launch.decode_cycles", c.decode_cycles as f64),
        ("host.peak_rss_mib", m.peak_rss_mib),
        ("trace.passes", n),
        ("trace.untraced_passes", m.untraced_s.len() as f64),
    ];
    for (i, (name, _)) in ANCHORS.iter().enumerate() {
        values.push((name, m.speedups.map_or(f64::NAN, |s| s[i])));
    }
    values
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arcane-simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !suite::WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "arcane-simbench: unknown workload {} (one of {:?})",
            args.workload,
            suite::WORKLOADS
        );
        return ExitCode::from(2);
    }
    println!("# machine: {}", machine_context());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let tracer = Tracer::calibrated();
    let m = measure(&args, &tracer);
    let anchor_log_err = fidelity(m.speedups);
    let metrics = if args.trace {
        report::collect(&report::PER_LAYER, &per_layer(&m, tracer.cost()))
    } else {
        report::collect(&report::END_TO_END, &end_to_end(&m, anchor_log_err))
    };
    println!("# machine at end: {}", machine_context());
    let (attempted, failed) = (m.tally.attempted, m.tally.failed);
    println!(
        "# attempted {attempted} points, failed {failed} (failed_frac {}); drifted {}; passes repeat the reference: {}",
        failed as f64 / attempted as f64,
        m.drifted,
        m.repeats
    );
    let metrics = metrics.unwrap_or_else(|e| {
        eprintln!("arcane-simbench: {e}");
        Vec::new()
    });
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    let correct = failed == 0 && m.repeats && m.speedups.is_some() && !metrics.is_empty();
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
