//! Canonical printing and digesting of resolved scenarios.
//!
//! The canonical form is the *identity* of a scenario: every field of the
//! lowered IR printed in a fixed order with fixed formatting, independent
//! of how the source spelled it. Reparsing a canonical print yields an
//! identical IR (the parse→print→parse fixed point the round-trip tests
//! enforce), and the digest is computed over the canonical form — so
//! comments, whitespace, key order and sugar (`seeds = 2` vs
//! `seeds = [1, 2]`) never change a scenario's identity, while any
//! semantic change does. A recorded digest therefore names one run
//! matrix; the soundness chain in DESIGN.md rests on exactly this
//! property plus simulator determinism.

use std::fmt::Write as _;

use mgpu::{FarFaultMode, PwcKind, SystemConfig};
use sim_core::fault::ComponentEvent;
use sim_core::FaultPlan;
use uvm::{EvictPolicy, PolicyKind};
use workloads::WorkloadSpec;

use crate::sema::Scenario;

/// FNV-1a 64-bit hash (the repo's stable, dependency-free digest idiom).
pub fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Scenario {
    /// The canonical source form of this scenario. Guaranteed to reparse
    /// and re-lower to an identical [`Scenario`].
    pub fn canonical(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "scenario {} {{", quote(&self.name));
        let _ = writeln!(o, "  seeds = [{}]", join(self.seeds.iter()));
        print_system(&mut o, &self.base);
        print_transfw(&mut o, &self.base);
        print_overload(&mut o, &self.base);
        print_oversub(&mut o, &self.base);
        let _ = writeln!(
            o,
            "  placement = [{}]",
            join_by(self.placements.iter(), |p| placement_str(*p))
        );
        let _ = writeln!(
            o,
            "  workload = [{}]",
            join_by(self.workloads.iter(), workload_str)
        );
        let _ = writeln!(o, "  faults = [{}]", join_by(self.faults.iter(), fault_str));
        o.push_str("}\n");
        o
    }

    /// Stable identity of the scenario: FNV-1a 64 over the canonical form.
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.canonical())
    }

    /// The digest as a fixed-width hex string (cache keys, file names).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

fn print_system(o: &mut String, c: &SystemConfig) {
    o.push_str("  system {\n");
    let kv = |o: &mut String, k: &str, v: String| {
        let _ = writeln!(o, "    {k} = {v}");
    };
    kv(o, "gpus", c.gpus.to_string());
    kv(o, "cus_per_gpu", c.cus_per_gpu.to_string());
    kv(o, "wavefronts_per_cu", c.wavefronts_per_cu.to_string());
    kv(o, "page_size_bits", c.page_size_bits.to_string());
    kv(o, "page_table_levels", c.page_table_levels.to_string());
    kv(o, "l1_tlb_entries", c.l1_tlb_entries.to_string());
    kv(o, "l1_tlb_latency", c.l1_tlb_latency.to_string());
    kv(o, "l2_tlb_entries", c.l2_tlb_entries.to_string());
    kv(o, "l2_tlb_assoc", c.l2_tlb_assoc.to_string());
    kv(o, "l2_tlb_latency", c.l2_tlb_latency.to_string());
    kv(o, "host_tlb_entries", c.host_tlb_entries.to_string());
    kv(o, "host_tlb_assoc", c.host_tlb_assoc.to_string());
    kv(o, "gmmu_walkers", c.gmmu_walkers.to_string());
    kv(o, "host_walkers", c.host_walkers.to_string());
    kv(o, "gmmu_pwc_entries", c.gmmu_pwc_entries.to_string());
    kv(o, "host_pwc_entries", c.host_pwc_entries.to_string());
    kv(
        o,
        "pwc_kind",
        match c.pwc_kind {
            PwcKind::Utc => "utc",
            PwcKind::Stc => "stc",
            PwcKind::Infinite => "infinite",
        }
        .into(),
    );
    kv(o, "pw_queue_entries", c.pw_queue_entries.to_string());
    kv(o, "walk_level_latency", c.walk_level_latency.to_string());
    kv(o, "host_fault_overhead", c.host_fault_overhead.to_string());
    kv(o, "cpu_link_latency", c.cpu_link_latency.to_string());
    kv(o, "peer_link_latency", c.peer_link_latency.to_string());
    kv(o, "link_bytes_per_cycle", c.link_bytes_per_cycle.to_string());
    kv(o, "dram_latency", c.dram_latency.to_string());
    kv(o, "cache_latency", c.cache_latency.to_string());
    kv(
        o,
        "fault_mode",
        match c.fault_mode {
            FarFaultMode::HostMmu => "host_mmu",
            FarFaultMode::UvmDriver => "uvm_driver",
        }
        .into(),
    );
    kv(o, "driver_per_gpu_poll", c.driver_per_gpu_poll.to_string());
    kv(o, "asap", opt_str(c.asap.map(|x| format!("{x:?}"))));
    kv(o, "least_tlb", c.least_tlb.to_string());
    kv(o, "sanitize", c.sanitize.to_string());
    kv(
        o,
        "checkpoint_interval",
        opt_str(c.checkpoint_interval.map(|x| x.to_string())),
    );
    o.push_str("    ideal {\n");
    let _ = writeln!(o, "      infinite_walkers = {}", c.ideal.infinite_walkers);
    let _ = writeln!(
        o,
        "      zero_migration_latency = {}",
        c.ideal.zero_migration_latency
    );
    let _ = writeln!(o, "      no_local_faults = {}", c.ideal.no_local_faults);
    o.push_str("    }\n");
    o.push_str("    watchdog {\n");
    let _ = writeln!(o, "      enabled = {}", c.watchdog.enabled);
    let _ = writeln!(o, "      request_timeout = {}", c.watchdog.request_timeout);
    let _ = writeln!(o, "      max_retries = {}", c.watchdog.max_retries);
    let _ = writeln!(
        o,
        "      liveness_interval = {}",
        c.watchdog.liveness_interval
    );
    let _ = writeln!(
        o,
        "      max_cycles = {}",
        opt_str(c.watchdog.max_cycles.map(|x| x.to_string()))
    );
    o.push_str("    }\n");
    o.push_str("  }\n");
}

fn print_transfw(o: &mut String, c: &SystemConfig) {
    match &c.transfw {
        None => {
            o.push_str("  transfw {\n    enabled = false\n  }\n");
        }
        Some(k) => {
            o.push_str("  transfw {\n    enabled = true\n");
            let _ = writeln!(o, "    gmmu_short_circuit = {}", k.gmmu_short_circuit);
            let _ = writeln!(o, "    host_forwarding = {}", k.host_forwarding);
            let _ = writeln!(o, "    prt_fingerprints = {}", k.config.prt_fingerprints);
            let _ = writeln!(o, "    prt_fp_bits = {}", k.config.prt_fp_bits);
            let _ = writeln!(o, "    prt_slots = {}", k.config.prt_slots);
            let _ = writeln!(o, "    ft_fingerprints = {}", k.config.ft_fingerprints);
            let _ = writeln!(o, "    ft_fp_bits = {}", k.config.ft_fp_bits);
            let _ = writeln!(o, "    ft_slots = {}", k.config.ft_slots);
            let _ = writeln!(o, "    vpn_mask_bits = {}", k.config.vpn_mask_bits);
            let _ = writeln!(
                o,
                "    forward_threshold = {:?}",
                k.config.forward_threshold
            );
            o.push_str("  }\n");
        }
    }
}

fn print_overload(o: &mut String, c: &SystemConfig) {
    let v = &c.overload;
    o.push_str("  overload {\n");
    let _ = writeln!(o, "    enabled = {}", v.enabled);
    let _ = writeln!(o, "    host_queue_high = {}", v.host_queue_high);
    let _ = writeln!(o, "    host_queue_low = {}", v.host_queue_low);
    let _ = writeln!(o, "    gpu_queue_high = {}", v.gpu_queue_high);
    let _ = writeln!(o, "    gpu_queue_low = {}", v.gpu_queue_low);
    let _ = writeln!(o, "    mshr_high = {}", v.mshr_high);
    let _ = writeln!(o, "    mshr_low = {}", v.mshr_low);
    let _ = writeln!(o, "    backoff_base = {}", v.backoff_base);
    let _ = writeln!(o, "    backoff_cap = {}", v.backoff_cap);
    let _ = writeln!(o, "    retry_budget = {}", v.retry_budget);
    let _ = writeln!(o, "    retry_refill_permille = {}", v.retry_refill_permille);
    let _ = writeln!(o, "    breaker_window = {}", v.breaker_window);
    let _ = writeln!(
        o,
        "    breaker_failure_permille = {}",
        v.breaker_failure_permille
    );
    let _ = writeln!(o, "    breaker_min_samples = {}", v.breaker_min_samples);
    let _ = writeln!(o, "    breaker_open_cycles = {}", v.breaker_open_cycles);
    let _ = writeln!(o, "    breaker_probes = {}", v.breaker_probes);
    let _ = writeln!(o, "    peer_backlog_high = {}", v.peer_backlog_high);
    o.push_str("  }\n");
}

fn print_oversub(o: &mut String, c: &SystemConfig) {
    let v = &c.oversub;
    o.push_str("  oversub {\n");
    let _ = writeln!(o, "    enabled = {}", v.enabled);
    let _ = writeln!(o, "    capacity_pages = {}", v.capacity_pages);
    let _ = writeln!(
        o,
        "    policy = {}",
        match v.policy {
            EvictPolicy::Lru => "lru",
            EvictPolicy::AccessCounter => "access_counter",
        }
    );
    let _ = writeln!(o, "    thrash_high = {}", v.thrash_high);
    let _ = writeln!(o, "    thrash_low = {}", v.thrash_low);
    let _ = writeln!(o, "    refault_window = {}", v.refault_window);
    let _ = writeln!(o, "    hot_protect = {}", v.hot_protect);
    o.push_str("  }\n");
}

fn placement_str(p: Option<PolicyKind>) -> String {
    match p {
        None => "legacy".into(),
        Some(PolicyKind::FirstTouch) => "first_touch".into(),
        Some(PolicyKind::ReadDuplicate) => "read_duplicate".into(),
        Some(PolicyKind::DelayedMigration { threshold }) => {
            format!("delayed_migration(threshold = {threshold})")
        }
        Some(PolicyKind::PrefetchNeighborhood { radius }) => {
            format!("prefetch_neighborhood(radius = {radius})")
        }
    }
}

fn workload_str(w: &WorkloadSpec) -> String {
    match w {
        WorkloadSpec::App { name, scale } => {
            format!("app(name = {}, scale = {scale:?})", quote(name))
        }
        WorkloadSpec::Uniform {
            pages,
            ctas,
            accesses_per_cta,
            write_frac,
            scale,
        } => format!(
            "uniform(pages = {pages}, ctas = {ctas}, accesses = {accesses_per_cta}, \
             write_frac = {write_frac:?}, scale = {scale:?})"
        ),
        WorkloadSpec::PhaseShift { scale } => format!("phase_shift(scale = {scale:?})"),
        WorkloadSpec::Burst { scale, load } => {
            format!("burst(scale = {scale:?}, load = {load})")
        }
        WorkloadSpec::OversubShift { scale } => format!("oversub_shift(scale = {scale:?})"),
    }
}

fn fault_str(f: &FaultPlan) -> String {
    if *f == FaultPlan::none() {
        return "none".into();
    }
    // The general `plan(...)` form: the seed always, then every
    // non-default field in a fixed order. Lowering `plan(...)` starts from
    // `FaultPlan::none()`, so this round-trips exactly.
    fn num(parts: &mut Vec<String>, name: &str, v: f64, dv: f64) {
        if v != dv {
            parts.push(format!("{name} = {v:?}"));
        }
    }
    let d = FaultPlan::none();
    let mut parts = vec![format!("seed = {}", f.seed)];
    num(&mut parts, "drop", f.message_drop_prob, d.message_drop_prob);
    num(&mut parts, "delay_p", f.message_delay_prob, d.message_delay_prob);
    if f.message_delay_cycles != d.message_delay_cycles {
        parts.push(format!("delay = {}", f.message_delay_cycles));
    }
    num(&mut parts, "dup", f.message_duplicate_prob, d.message_duplicate_prob);
    num(&mut parts, "stall_p", f.walker_stall_prob, d.walker_stall_prob);
    if f.walker_stall_cycles != d.walker_stall_cycles {
        parts.push(format!("stall = {}", f.walker_stall_cycles));
    }
    num(&mut parts, "table_drop", f.table_update_drop_prob, d.table_update_drop_prob);
    if f.table_pollution != d.table_pollution {
        parts.push(format!("pollution = {}", f.table_pollution));
    }
    if f.host_burst_period != d.host_burst_period {
        parts.push(format!("burst_period = {}", f.host_burst_period));
    }
    if f.host_burst_len != d.host_burst_len {
        parts.push(format!("burst_len = {}", f.host_burst_len));
    }
    if f.host_burst_extra != d.host_burst_extra {
        parts.push(format!("burst_extra = {}", f.host_burst_extra));
    }
    if !f.component_events.is_empty() {
        parts.push(format!(
            "events = [{}]",
            join_by(f.component_events.iter(), event_str)
        ));
    }
    format!("plan({})", parts.join(", "))
}

fn event_str(e: &ComponentEvent) -> String {
    match *e {
        ComponentEvent::GpuOffline { gpu, at_cycle, duration } => {
            format!("gpu_offline(gpu = {gpu}, at = {at_cycle}, dur = {duration})")
        }
        ComponentEvent::LinkPartition { a, b, at_cycle, duration } => {
            format!("link_partition(a = {a}, b = {b}, at = {at_cycle}, dur = {duration})")
        }
        ComponentEvent::HostMmuFailover { at_cycle, stall } => {
            format!("host_failover(at = {at_cycle}, stall = {stall})")
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt_str(v: Option<String>) -> String {
    v.unwrap_or_else(|| "none".into())
}

fn join(items: impl Iterator<Item = impl ToString>) -> String {
    items
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn join_by<T>(items: impl Iterator<Item = T>, f: impl Fn(T) -> String) -> String {
    items.map(f).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_one;

    #[test]
    fn canonical_is_a_parse_print_fixed_point() {
        let sc = compile_one(
            r#"scenario "fix" {
                 seeds = 2   # sugar for [1, 2]
                 scale = 0.1
                 transfw { enabled = true prt_fingerprints = 2000 }
                 placement = [first_touch, prefetch_neighborhood(radius = 3)]
                 workload = [app(name = "KM"), burst(load = 4)]
                 faults = [none, message_loss(seed = 5, p = 0.02)]
               }"#,
        )
        .unwrap();
        let canon = sc.canonical();
        let again = compile_one(&canon).expect("canonical form must reparse");
        assert_eq!(sc, again, "IR must survive a print/parse cycle");
        assert_eq!(canon, again.canonical(), "canonical form is a fixed point");
        assert_eq!(sc.digest(), again.digest());
    }

    #[test]
    fn formatting_never_changes_the_digest_but_semantics_do() {
        let a = compile_one(r#"scenario "s" { seeds = 2 workload = app(name = "KM") }"#).unwrap();
        let b = compile_one(
            "scenario \"s\" {\n  # reformatted, reordered, sugared differently\n  workload = [app(\"KM\")]\n  seeds = [1, 2]\n}",
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c =
            compile_one(r#"scenario "s" { seeds = 3 workload = app(name = "KM") }"#).unwrap();
        assert_ne!(a.digest(), c.digest(), "a semantic edit must change identity");
    }

    #[test]
    fn digest_is_stable_across_builds() {
        // Frozen vectors: if these change, every recorded digest is
        // invalidated — bump them deliberately, never accidentally. Empty
        // input hashes to the FNV offset basis; one byte applies exactly
        // one xor-multiply round.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            fnv1a64("a"),
            (0xcbf2_9ce4_8422_2325_u64 ^ u64::from(b'a')).wrapping_mul(0x0000_0100_0000_01b3)
        );
    }

    #[test]
    fn fault_plans_round_trip_through_the_plan_form() {
        let sc = compile_one(
            r#"scenario "s" {
                 workload = phase_shift
                 faults = plan(seed = 3, drop = 0.01, delay_p = 0.02, delay = 150,
                               stall_p = 0.1, stall = 300, pollution = 64,
                               burst_period = 1000, burst_len = 100, burst_extra = 50,
                               events = [link_partition(a = 0, b = 1, at = 5, dur = 9),
                                         host_failover(at = 7, stall = 11)])
               }"#,
        )
        .unwrap();
        let again = compile_one(&sc.canonical()).unwrap();
        assert_eq!(sc.faults, again.faults);
    }
}
