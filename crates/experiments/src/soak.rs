//! The `soak` runner's library half: its command line, and the contracts
//! every soak or sweep cell must meet.
//!
//! The contracts are worked out from each cell's own configuration and
//! workload, so one [`check_cell`] serves every committed scenario:
//!
//! * every cell retires every translation request exactly once;
//! * a Table III application loses no memory instructions;
//! * with overload control on, demand is never rejected and the demand p99
//!   bound stays under the run length — under `max(run length, 65_536)`
//!   when oversubscription is on too, since the histogram reports
//!   power-of-two bucket bounds and a smoke run shorter than one 64Ki
//!   bucket can legitimately report a bound past its own length;
//! * on the bursty workload at 8x, shed traffic is at least 90% background
//!   class whenever anything was shed at all;
//! * at 4x oversubscription (`capacity_pages × gpus × 4 ≤ footprint`)
//!   capacity pressure is real: evictions happened.

use mgpu::RunMetrics;
use workloads::WorkloadSpec;

use crate::cli::flag_value;
use crate::runner::{json_escape, run_json};
use crate::RunSpec;

/// The runner's usage line.
pub const USAGE: &str = "usage: soak <scenario>... [--scale S] [--seeds N] [--sanitize]\n\
    \x20 runs every scenario in scenarios/<scenario>.scn and writes BENCH_<SCENARIO>.json";

/// Parsed `soak` command line.
#[derive(Debug)]
pub struct SoakArgs {
    /// Scenario file names (stems of `scenarios/*.scn`), in run order.
    pub scenarios: Vec<String>,
    /// Work scale replacing every workload's scale, if given.
    pub scale: Option<f64>,
    /// Seed count replacing each scenario's seeds with `1..=N`, if given.
    pub seeds: Option<u64>,
    /// Run every cell under the shadow sanitizer.
    pub sanitize: bool,
}

/// Parses the arguments after the program name; `known` lists the
/// committed scenario names.
///
/// # Errors
///
/// Returns a message for an unknown flag, a missing or malformed value, a
/// non-positive scale, zero seeds, an unknown scenario, or no scenario at
/// all.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    known: &[String],
) -> Result<SoakArgs, String> {
    let mut out = SoakArgs {
        scenarios: Vec::new(),
        scale: None,
        seeds: None,
        sanitize: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let s: f64 = flag_value(&mut it, "--scale")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--scale must be a positive number, got {s}"));
                }
                out.scale = Some(s);
            }
            "--seeds" => {
                let n: u64 = flag_value(&mut it, "--seeds")?;
                if n == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                out.seeds = Some(n);
            }
            "--sanitize" => out.sanitize = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => out.scenarios.push(arg),
        }
    }
    if out.scenarios.is_empty() {
        return Err("name at least one scenario".into());
    }
    if let Some(name) = out.scenarios.iter().find(|n| !known.contains(n)) {
        return Err(format!(
            "unknown scenario \"{name}\" (known: {})",
            known.join(", ")
        ));
    }
    Ok(out)
}

impl SoakArgs {
    /// Applies the overrides to a compiled scenario, so its digest names
    /// exactly the matrix that runs.
    pub fn apply(&self, sc: &mut scn::Scenario) {
        if let Some(n) = self.seeds {
            sc.seeds = (1..=n).collect();
        }
        if let Some(s) = self.scale {
            for w in &mut sc.workloads {
                *w = w.with_scale(s);
            }
        }
        sc.base.sanitize |= self.sanitize;
    }
}

/// Checks one finished cell against the soak contracts (see the module
/// docs).
///
/// # Errors
///
/// Names the first broken contract, prefixed with the cell's label and
/// followed by the counters it reads.
pub fn check_cell(spec: &RunSpec, m: &RunMetrics) -> Result<(), String> {
    let (cfg, ov) = (&spec.cfg, &m.overload);
    let instructions = match &spec.workload {
        WorkloadSpec::App { name, scale } => workloads::app(name)
            .map(|app| app.scaled(*scale))
            .map(|app| (app.ctas * app.accesses_per_cta) as u64),
        _ => None,
    };
    let p99 = ov.demand_lat.percentile_bound(0.99);
    let min_p99_limit = if cfg.oversub.enabled { 65_536 } else { 0 };
    let p99_limit = m.total_cycles.max(min_p99_limit);
    let burst_8x = matches!(spec.workload, WorkloadSpec::Burst { load: 8, .. });
    let pressure = cfg.oversub.capacity_pages as u64 * u64::from(cfg.gpus) * 4;
    #[rustfmt::skip]
    let contracts = [
        (m.resilience.requests_retired == m.translation_requests, "must retire every request exactly once"),
        (instructions.is_none_or(|n| n == m.mem_instructions), "lost instructions"),
        (!cfg.overload.enabled || ov.demand_rejected == 0, "demand must be deferred, never rejected"),
        (!cfg.overload.enabled || p99 < p99_limit, "demand p99 bound exceeds the run length"),
        (!burst_8x || ov.background_shed() * 10 >= ov.total_shed() * 9, "shed traffic must be ≥90% background"),
        (!cfg.oversub.enabled || pressure > spec.workload.footprint_pages() || m.oversub.evictions > 0,
         "4x oversubscription must force evictions"),
    ];
    match contracts.iter().find(|(holds, _)| !holds) {
        None => Ok(()),
        Some((_, broken)) => Err(format!(
            "{}: {broken}: retired {} of {} requests, {} of {instructions:?} instructions, \
             p99 bound {p99} in {} cycles, {ov:?}, {:?}",
            spec.label,
            m.resilience.requests_retired,
            m.translation_requests,
            m.mem_instructions,
            m.total_cycles,
            m.oversub
        )),
    }
}

/// One `BENCH_*.json` row: `{"label":…,"metrics":<run_json>}`.
pub fn row_json(spec: &RunSpec, m: &RunMetrics) -> String {
    format!(
        "{{\"label\":\"{}\",\"metrics\":{}}}",
        json_escape(&spec.label),
        run_json(m, spec.cfg.seed)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu::{OverloadConfig, OversubConfig, SystemConfig};

    fn parse(argv: &str) -> Result<SoakArgs, String> {
        let known = ["chaos_soak", "overload_soak", "policy_sweep"].map(String::from);
        parse_args(argv.split_whitespace().map(String::from), &known)
    }

    #[test]
    fn flags_parse_and_reach_the_scenario_and_its_digest() {
        let args = parse("chaos_soak --scale 0.05 policy_sweep --seeds 3 --sanitize").unwrap();
        assert_eq!(args.scenarios, ["chaos_soak", "policy_sweep"]);
        let src = r#"scenario "s" { seeds = 2 scale = 0.1 workload = [app(name = "KM"), burst] }"#;
        let mut sc = scn::compile_one(src).unwrap();
        let committed = sc.clone();
        parse("chaos_soak").unwrap().apply(&mut sc);
        assert_eq!(sc, committed, "no flags, no overrides");
        args.apply(&mut sc);
        assert_eq!(sc.seeds, [1, 2, 3]);
        assert!(sc.workloads.iter().all(|w| w.scale() == 0.05));
        assert!(sc.base.sanitize);
        assert_ne!(sc.digest(), committed.digest());
    }

    #[test]
    fn rejects_malformed_input() {
        #[rustfmt::skip]
        let cases = [
            ("chaos_soak --scale 0,05", "--scale: invalid value \"0,05\""),
            ("chaos_soak --seeds two", "--seeds: invalid value \"two\""),
            ("chaos_soak --scale", "--scale requires a value"),
            ("chaos_soak --scale 0", "--scale must be a positive number"),
            ("chaos_soak --scale NaN", "--scale must be a positive number"),
            ("chaos_soak --seeds 0", "--seeds must be at least 1"),
            ("chaos_soak --fast", "unknown flag --fast"),
            ("--sanitize", "name at least one scenario"),
            ("chaos_soak 0,05", "unknown scenario \"0,05\" (known: chaos_soak, overload_soak"),
        ];
        for (argv, want) in cases {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with(want), "{argv:?}: {err}");
        }
    }

    /// A cell labelled `cell/7`, plus metrics that meet every contract.
    fn clean(cfg: SystemConfig, workload: WorkloadSpec) -> (RunSpec, RunMetrics) {
        let spec = RunSpec::new(cfg, workload).labeled("cell/7");
        let mut m = RunMetrics {
            total_cycles: 8_192,
            translation_requests: 10,
            ..Default::default()
        };
        m.resilience.requests_retired = 10;
        m.overload.demand_lat.record(100);
        m.oversub.evictions = 1;
        if let WorkloadSpec::App { name, scale } = &spec.workload {
            let app = workloads::app(name).unwrap().scaled(*scale);
            m.mem_instructions = (app.ctas * app.accesses_per_cta) as u64;
        }
        (spec, m)
    }

    fn overloaded() -> SystemConfig {
        let mut cfg = SystemConfig::with_transfw();
        cfg.overload = OverloadConfig::enabled();
        cfg
    }

    /// Overload control on, plus oversubscription at `ratio`x of the
    /// working-set-shift footprint over 4 GPUs.
    fn oversubscribed(ratio: usize) -> SystemConfig {
        let footprint = shift().footprint_pages() as usize;
        let mut cfg = overloaded();
        cfg.oversub = OversubConfig::with_capacity(footprint.div_ceil(4 * ratio));
        cfg
    }

    fn shift() -> WorkloadSpec {
        WorkloadSpec::OversubShift { scale: 0.1 }
    }

    fn burst(load: u64) -> WorkloadSpec {
        WorkloadSpec::Burst { scale: 0.1, load }
    }

    /// An edit to a clean cell's metrics.
    type Edit = fn(&mut RunMetrics);

    fn shed(m: &mut RunMetrics, background: u64, demand_deferred: u64) {
        m.overload.prefetch_shed = background;
        m.overload.demand_deferred = demand_deferred;
    }

    /// Each contract fails, with the cell label, on metrics crafted to
    /// break it (`Some(message)`), and holds only where the cell's config and
    /// workload imply it (`None`).
    #[test]
    fn each_contract_fails_where_the_cell_implies_it() {
        let plain = SystemConfig::with_transfw;
        let km = WorkloadSpec::app("KM", 0.1).unwrap();
        #[rustfmt::skip]
        let cases: [(SystemConfig, WorkloadSpec, Edit, Option<&str>); 12] = [
            (plain(), shift(), |m| m.resilience.requests_retired = 9, Some("must retire")),
            (plain(), km, |m| m.mem_instructions -= 1, Some("lost instructions")),
            (overloaded(), burst(2), |m| m.overload.demand_rejected = 1, Some("demand must be")),
            (plain(), burst(2), |m| m.overload.demand_rejected = 1, None),
            // The run is one 8Ki bucket long: a p99 bound of 8192 is over.
            (overloaded(), burst(2), |m| m.overload.demand_lat.record(5_000), Some("demand p99")),
            // Oversubscription on: the p99 bound is at least one 64Ki bucket.
            (oversubscribed(1), shift(), |m| m.overload.demand_lat.record(5_000), None),
            (oversubscribed(1), shift(), |m| m.overload.demand_lat.record(70_000), Some("demand p99")),
            // Exactly 90% background passes; below 8x nothing is held to it.
            (overloaded(), burst(8), |m| shed(m, 9, 2), Some("shed traffic")),
            (overloaded(), burst(8), |m| shed(m, 9, 1), None),
            (overloaded(), burst(4), |m| shed(m, 9, 2), None),
            (oversubscribed(4), shift(), |m| m.oversub.evictions = 0, Some("4x oversub")),
            (oversubscribed(3), shift(), |m| m.oversub.evictions = 0, None),
        ];
        for (cfg, workload, edit, want) in cases {
            let (spec, mut m) = clean(cfg, workload);
            assert_eq!(
                check_cell(&spec, &m),
                Ok(()),
                "{want:?}: the clean cell must pass"
            );
            edit(&mut m);
            match (check_cell(&spec, &m), want) {
                (Ok(()), None) => {}
                (Err(e), Some(want)) => {
                    assert!(e.starts_with(&format!("cell/7: {want}")), "{e}");
                }
                (got, want) => panic!("{:?}: got {got:?}, want {want:?}", spec.workload),
            }
        }
    }

    #[test]
    fn rows_carry_the_label_and_the_run_json() {
        let (spec, m) = clean(SystemConfig::with_transfw(), shift());
        let metrics = run_json(&m, spec.cfg.seed);
        assert_eq!(
            row_json(&spec, &m),
            format!("{{\"label\":\"cell/7\",\"metrics\":{metrics}}}")
        );
    }
}
