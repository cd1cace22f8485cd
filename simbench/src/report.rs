//! The metric catalogue and the result line.

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("pass_s_p50", "s"),
    ("pass_s_tail", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_mips", "Minstr/s"),
    ("kernels_per_s", "1/s"),
    ("peak_heap_mib", "MiB"),
    ("verified_frac", "ratio"),
    ("anchor_log_err", "ln"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 58] = [
    // Host time of the traced run, per pass unless noted.
    ("rv32.iss_self.s", "s"),
    ("rv32.ns_per_instr", "ns"),
    ("core.host_access.calls", "count"),
    ("core.host_access.s", "s"),
    ("core.host_access.ns_per_call", "ns"),
    ("core.offload.calls", "count"),
    ("core.offload.s", "s"),
    ("core.offload.us_per_kernel", "us"),
    ("system.soc_new.calls", "count"),
    ("system.soc_new.s", "s"),
    ("nn.compile.calls", "count"),
    ("nn.compile.s", "s"),
    ("isa.assemble.s", "s"),
    ("mem.seed.s", "s"),
    ("verify.s", "s"),
    ("workloads.gen.s", "s"),
    ("workloads.golden.s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.unspanned.s", "s"),
    ("trace.probe.s", "s"),
    // Simulated machine, per pass: exact counts.
    ("sim.cycles", "cycles"),
    ("rv32.instret", "count"),
    ("rv32.ipc", "instr/cycle"),
    ("llc.hits", "count"),
    ("llc.misses", "count"),
    ("llc.hit_rate", "ratio"),
    ("llc.writebacks", "count"),
    ("llc.stalls", "count"),
    ("llc.stall_cycles", "cycles"),
    ("crt.kernels", "count"),
    ("crt.renames", "count"),
    ("crt.preamble_cycles", "cycles"),
    ("crt.allocation_cycles", "cycles"),
    ("crt.compute_cycles", "cycles"),
    ("crt.writeback_cycles", "cycles"),
    ("ecpu.busy_cycles", "cycles"),
    ("ecpu.wait_cycles", "cycles"),
    ("ecpu.requests", "count"),
    ("fabric.host.busy_cycles", "cycles"),
    ("fabric.host.wait_cycles", "cycles"),
    ("fabric.host.requests", "count"),
    ("fabric.vpu.busy_cycles", "cycles"),
    ("fabric.vpu.wait_cycles", "cycles"),
    ("fabric.vpu.requests", "count"),
    ("launch.batches", "count"),
    ("launch.descriptors", "count"),
    ("launch.bindings", "count"),
    ("launch.decode_cycles", "cycles"),
    ("anchor.arcane8_3x3", "x"),
    ("anchor.arcane8_7x7", "x"),
    ("anchor.arcane8x4_7x7", "x"),
    ("anchor.xcvpulp_7x7", "x"),
    ("anchor.arcane8_vs_xcvpulp_7x7", "x"),
    // Host peak resident memory: not steady enough to gate (see heap.rs).
    ("host.peak_rss_mib", "MiB"),
    // Passes measured, for reading the rest.
    ("trace.passes", "count"),
    ("trace.untraced_passes", "count"),
];

/// Values for every metric of `catalogue`, looked up by name.
///
/// # Errors
///
/// Names the first catalogue metric with no value or a non-finite one.
pub fn collect<'a>(
    catalogue: &[(&'a str, &'a str)],
    values: &[(&str, f64)],
) -> Result<Vec<(&'a str, f64, &'a str)>, String> {
    catalogue
        .iter()
        .map(
            |&(name, unit)| match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => Ok((name, v, unit)),
                Some(&(_, v)) => Err(format!("metric {name} is {v}")),
                None => Err(format!("metric {name} has no value")),
            },
        )
        .collect()
}

/// The result line: one JSON object.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `s` is a well-formed metric name: 1–64 characters from
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `s` is a well-formed unit: 1–16 characters from
    /// `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_within_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (i, (name, unit)) in END_TO_END.iter().chain(&PER_LAYER).enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_line_shape() {
        let line = json_line(true, 3, 0, &[("a", 1.5, "s"), ("b", 2.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn collect_rejects_missing_and_non_finite() {
        let cat = [("a", "s"), ("b", "s")];
        assert!(collect(&cat, &[("a", 1.0)]).is_err());
        assert!(collect(&cat, &[("a", 1.0), ("b", f64::NAN)]).is_err());
        assert_eq!(
            collect(&cat, &[("b", 2.0), ("a", 1.0)]).expect("both"),
            vec![("a", 1.0, "s"), ("b", 2.0, "s")]
        );
    }
}
