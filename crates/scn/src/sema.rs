//! Semantic analysis: AST to the resolved scenario IR.
//!
//! Lowering interprets every key against the real configuration structs
//! (`SystemConfig`, `TransFwKnobs`, `OverloadConfig`, `OversubConfig`,
//! `FaultPlan`, `WorkloadSpec`) and checks only what belongs to the
//! language: unknown or duplicate keys, value types, seed counts, scales
//! and workload arguments. Every rule on a configuration value lives in
//! `SystemConfig::validate`; lowering calls it on each cell of the matrix
//! and turns the field it names into the position of that key, else of the
//! enclosing section, else of the scenario. So a scenario that compiles
//! constructs its systems without a panic, which is what lets the fuzz
//! tests demand error-or-success, never a panic.

use std::collections::BTreeMap;

use mgpu::{FarFaultMode, PwcKind, SystemConfig, TransFwKnobs};
use sim_core::fault::ComponentEvent;
use sim_core::FaultPlan;
use uvm::{EvictPolicy, PolicyKind};
use workloads::WorkloadSpec;

use crate::ast::{Arg, File, Item, ScenarioDecl, Value, ValueKind};
use crate::{Error, Pos};

/// One resolved scenario: a base configuration plus the axes of its sweep
/// matrix (placements × workloads × fault plans, run at each seed).
///
/// The base configuration is *normalised*: its `placement`, `faults` and
/// `seed` fields are held at their defaults and applied per-cell/per-run,
/// so two scenarios that describe the same matrix compare equal however
/// their source spelled it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The scenario's declared name.
    pub name: String,
    /// Seeds each cell runs at (nonempty).
    pub seeds: Vec<u64>,
    /// Shared base configuration (placement/faults/seed normalised out).
    pub base: SystemConfig,
    /// Placement axis (nonempty; `[first_touch]` when omitted).
    pub placements: Vec<PolicyKind>,
    /// Workload axis (nonempty).
    pub workloads: Vec<WorkloadSpec>,
    /// Fault-plan axis.
    pub faults: Vec<FaultPlan>,
}

/// One cell of a scenario's sweep matrix: a complete configuration (still
/// seedless — the consumer sets `cfg.seed` per run) plus its workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Report label (`policy/workload+fault`, axes with one point elided).
    pub label: String,
    /// Complete configuration with placement and fault plan applied.
    pub cfg: SystemConfig,
    /// The workload to run.
    pub workload: WorkloadSpec,
}

impl Scenario {
    /// Expands the sweep matrix in placement → workload → fault order
    /// (the nesting order the hard-coded experiment bins used).
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for placement in &self.placements {
            for workload in &self.workloads {
                for (fi, fault) in self.faults.iter().enumerate() {
                    let mut cfg = self.base.clone();
                    cfg.placement = *placement;
                    cfg.faults = fault.clone();
                    let mut label = String::new();
                    if self.placements.len() > 1 {
                        label.push_str(placement.name());
                        label.push('/');
                    }
                    label.push_str(&workload.label());
                    if self.faults.len() > 1 {
                        label.push('+');
                        label.push_str(&fault_label(fault, fi));
                    }
                    out.push(Cell {
                        label,
                        cfg,
                        workload: workload.clone(),
                    });
                }
            }
        }
        out
    }
}

/// Short label for a fault plan within a multi-plan sweep: `clean`,
/// `loss` and `chaos` for the common shapes, `faults<index>` otherwise.
fn fault_label(plan: &FaultPlan, index: usize) -> String {
    if !plan.is_active() {
        return "clean".into();
    }
    if *plan == FaultPlan::message_loss(plan.seed, plan.message_drop_prob) {
        return "loss".into();
    }
    if *plan
        == FaultPlan::message_chaos(plan.seed, plan.message_drop_prob, plan.message_delay_cycles)
    {
        return "chaos".into();
    }
    format!("faults{index}")
}

/// Lowers a parsed file into resolved scenarios.
///
/// # Errors
///
/// Returns a positioned [`Error`] on any unknown key, type mismatch,
/// duplicate binding, or violated configuration constraint.
pub fn lower(file: &File) -> Result<Vec<Scenario>, Error> {
    let mut out = Vec::new();
    for decl in &file.scenarios {
        let sc = lower_scenario(decl)?;
        if out.iter().any(|s: &Scenario| s.name == sc.name) {
            return Err(Error::at(
                decl.pos,
                format!("duplicate scenario name \"{}\"", sc.name),
            ));
        }
        out.push(sc);
    }
    Ok(out)
}

fn lower_scenario(decl: &ScenarioDecl) -> Result<Scenario, Error> {
    if decl.name.is_empty() {
        return Err(Error::at(decl.pos, "scenario name must be nonempty".into()));
    }
    // Index the body once, rejecting duplicates; interpretation below is in
    // fixed key order, independent of source order.
    let mut by_key: BTreeMap<&str, &Item> = BTreeMap::new();
    for item in &decl.items {
        if by_key.insert(item.key(), item).is_some() {
            return Err(Error::at(
                item.pos(),
                format!("duplicate key `{}` in scenario body", item.key()),
            ));
        }
    }
    const TOP_KEYS: [&str; 9] = [
        "seeds",
        "scale",
        "placement",
        "workload",
        "faults",
        "system",
        "transfw",
        "overload",
        "oversub",
    ];
    for item in &decl.items {
        if !TOP_KEYS.contains(&item.key()) {
            return Err(Error::at(
                item.pos(),
                format!("unknown scenario key `{}`", item.key()),
            ));
        }
    }

    let mut base = SystemConfig {
        seed: 0,
        ..SystemConfig::default()
    };
    if let Some(item) = by_key.get("system") {
        system_section(&mut base, section_items(item)?)?;
    }
    base.transfw = match by_key.get("transfw") {
        Some(item) => transfw_section(section_items(item)?)?,
        None => None,
    };
    if let Some(item) = by_key.get("overload") {
        overload_section(&mut base.overload, section_items(item)?)?;
    }
    if let Some(item) = by_key.get("oversub") {
        oversub_section(&mut base.oversub, section_items(item)?)?;
    }

    let default_scale = match by_key.get("scale") {
        Some(item) => {
            let v = binding_value(item)?;
            let s = want_f64(v)?;
            if s <= 0.0 {
                return Err(Error::at(v.pos, "scale must be positive".into()));
            }
            s
        }
        None => 1.0,
    };

    let seeds = match by_key.get("seeds") {
        Some(item) => seeds_value(binding_value(item)?)?,
        None => vec![1],
    };

    let (placements, placement_pos) = match by_key.get("placement") {
        Some(item) => {
            let vs = list_of(binding_value(item)?);
            let mut ps = Vec::new();
            for v in &vs {
                ps.push(placement_value(v)?);
            }
            (ps, vs.iter().map(|v| v.pos).collect())
        }
        None => (vec![PolicyKind::FirstTouch], vec![decl.pos]),
    };

    let workloads = match by_key.get("workload") {
        Some(item) => {
            let vs = list_of(binding_value(item)?);
            let mut ws = Vec::new();
            for v in vs {
                ws.push(workload_value(v, default_scale)?);
            }
            ws
        }
        None => {
            return Err(Error::at(
                decl.pos,
                format!("scenario \"{}\" declares no workload", decl.name),
            ))
        }
    };
    if workloads.is_empty() {
        return Err(Error::at(decl.pos, "workload list must be nonempty".into()));
    }

    let (faults, fault_pos) = match by_key.get("faults") {
        Some(item) => {
            let vs = list_of(binding_value(item)?);
            if vs.is_empty() {
                return Err(Error::at(item.pos(), "faults list must be nonempty".into()));
            }
            let mut fs = Vec::new();
            for v in &vs {
                fs.push(fault_value(v)?);
            }
            (fs, vs.iter().map(|v| v.pos).collect())
        }
        None => (vec![FaultPlan::none()], vec![decl.pos]),
    };
    if placements.is_empty() {
        return Err(Error::at(
            decl.pos,
            "placement list must be nonempty".into(),
        ));
    }

    let sc = Scenario {
        name: decl.name.clone(),
        seeds,
        base,
        placements,
        workloads,
        faults,
    };
    // `cells()` nests placement → workload → fault, so a cell's index names
    // the placement and fault plan it was built from.
    let per_placement = sc.workloads.len() * sc.faults.len();
    for (i, cell) in sc.cells().iter().enumerate() {
        cell.cfg.validate().map_err(|e| {
            let pos = match e.field {
                "placement" => placement_pos[i / per_placement],
                "faults" => fault_pos[i % sc.faults.len()],
                field => field_pos(decl, field),
            };
            Error::at(pos, e.msg)
        })?;
    }
    Ok(sc)
}

/// Where a configuration error on `field` points: the key that sets it,
/// else the `system` section (every field without a key of its own lives
/// there), else the scenario.
fn field_pos(decl: &ScenarioDecl, field: &str) -> Pos {
    let key_in = |items: &[Item]| items.iter().find(|i| i.key() == field).map(Item::pos);
    if let Some(pos) = key_in(&decl.items) {
        return pos;
    }
    match decl.items.iter().find(|i| i.key() == "system") {
        Some(Item::Section(system)) => key_in(&system.items).unwrap_or(system.pos),
        Some(Item::Binding(_)) | None => decl.pos,
    }
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

fn section_items(item: &Item) -> Result<&[Item], Error> {
    match item {
        Item::Section(s) => Ok(&s.items),
        Item::Binding(b) => Err(Error::at(
            b.pos,
            format!("`{}` is a section; write `{} {{ ... }}`", b.key, b.key),
        )),
    }
}

fn binding_value(item: &Item) -> Result<&Value, Error> {
    match item {
        Item::Binding(b) => Ok(&b.value),
        Item::Section(s) => Err(Error::at(
            s.pos,
            format!("`{}` is a binding; write `{} = ...`", s.name, s.name),
        )),
    }
}

/// Indexes a section body, rejecting duplicate keys.
fn index_items(items: &[Item]) -> Result<BTreeMap<&str, &Item>, Error> {
    let mut map = BTreeMap::new();
    for item in items {
        if map.insert(item.key(), item).is_some() {
            return Err(Error::at(
                item.pos(),
                format!("duplicate key `{}`", item.key()),
            ));
        }
    }
    Ok(map)
}

fn system_section(cfg: &mut SystemConfig, items: &[Item]) -> Result<(), Error> {
    for (key, item) in index_items(items)? {
        match key {
            "ideal" => ideal_section(&mut cfg.ideal, section_items(item)?)?,
            "watchdog" => watchdog_section(&mut cfg.watchdog, section_items(item)?)?,
            _ => {
                let v = binding_value(item)?;
                system_key(cfg, key, v)?;
            }
        }
    }
    Ok(())
}

fn system_key(cfg: &mut SystemConfig, key: &str, v: &Value) -> Result<(), Error> {
    match key {
        "gpus" => cfg.gpus = want_u16(v)?,
        "cus_per_gpu" => cfg.cus_per_gpu = want_u16(v)?,
        "wavefronts_per_cu" => cfg.wavefronts_per_cu = want_u16(v)?,
        "page_size_bits" => cfg.page_size_bits = want_u32(v)?,
        "page_table_levels" => cfg.page_table_levels = want_u32(v)?,
        "l1_tlb_entries" => cfg.l1_tlb_entries = want_usize(v)?,
        "l1_tlb_latency" => cfg.l1_tlb_latency = want_u64(v)?,
        "l2_tlb_entries" => cfg.l2_tlb_entries = want_usize(v)?,
        "l2_tlb_assoc" => cfg.l2_tlb_assoc = want_usize(v)?,
        "l2_tlb_latency" => cfg.l2_tlb_latency = want_u64(v)?,
        "host_tlb_entries" => cfg.host_tlb_entries = want_usize(v)?,
        "host_tlb_assoc" => cfg.host_tlb_assoc = want_usize(v)?,
        "gmmu_walkers" => cfg.gmmu_walkers = want_usize(v)?,
        "host_walkers" => cfg.host_walkers = want_usize(v)?,
        "gmmu_pwc_entries" => cfg.gmmu_pwc_entries = want_usize(v)?,
        "host_pwc_entries" => cfg.host_pwc_entries = want_usize(v)?,
        "pwc_kind" => {
            cfg.pwc_kind = match want_ident(v)? {
                "utc" => PwcKind::Utc,
                "stc" => PwcKind::Stc,
                "infinite" => PwcKind::Infinite,
                other => {
                    return Err(Error::at(
                        v.pos,
                        format!("unknown pwc_kind `{other}` (utc, stc or infinite)"),
                    ))
                }
            }
        }
        "pw_queue_entries" => cfg.pw_queue_entries = want_usize(v)?,
        "walk_level_latency" => cfg.walk_level_latency = want_u64(v)?,
        "host_fault_overhead" => cfg.host_fault_overhead = want_u64(v)?,
        "cpu_link_latency" => cfg.cpu_link_latency = want_u64(v)?,
        "peer_link_latency" => cfg.peer_link_latency = want_u64(v)?,
        "link_bytes_per_cycle" => cfg.link_bytes_per_cycle = want_u64(v)?,
        "dram_latency" => cfg.dram_latency = want_u64(v)?,
        "cache_latency" => cfg.cache_latency = want_u64(v)?,
        "fault_mode" => {
            cfg.fault_mode = match want_ident(v)? {
                "host_mmu" => FarFaultMode::HostMmu,
                "uvm_driver" => FarFaultMode::UvmDriver,
                other => {
                    return Err(Error::at(
                        v.pos,
                        format!("unknown fault_mode `{other}` (host_mmu or uvm_driver)"),
                    ))
                }
            }
        }
        "driver_per_gpu_poll" => cfg.driver_per_gpu_poll = want_u64(v)?,
        "asap" => cfg.asap = want_opt(v, want_f64)?,
        "least_tlb" => cfg.least_tlb = want_bool(v)?,
        "sanitize" => cfg.sanitize = want_bool(v)?,
        "checkpoint_interval" => cfg.checkpoint_interval = want_opt(v, want_u64)?,
        other => return Err(Error::at(v.pos, format!("unknown system key `{other}`"))),
    }
    Ok(())
}

fn ideal_section(ideal: &mut mgpu::IdealKnobs, items: &[Item]) -> Result<(), Error> {
    for (key, item) in index_items(items)? {
        let v = binding_value(item)?;
        match key {
            "infinite_walkers" => ideal.infinite_walkers = want_bool(v)?,
            "zero_migration_latency" => ideal.zero_migration_latency = want_bool(v)?,
            "no_local_faults" => ideal.no_local_faults = want_bool(v)?,
            other => {
                return Err(Error::at(v.pos, format!("unknown ideal key `{other}`")));
            }
        }
    }
    Ok(())
}

fn watchdog_section(wd: &mut mgpu::WatchdogConfig, items: &[Item]) -> Result<(), Error> {
    for (key, item) in index_items(items)? {
        let v = binding_value(item)?;
        match key {
            "enabled" => wd.enabled = want_bool(v)?,
            "request_timeout" => wd.request_timeout = want_u64(v)?,
            "max_retries" => wd.max_retries = want_u32(v)?,
            "liveness_interval" => wd.liveness_interval = want_u64(v)?,
            "max_cycles" => wd.max_cycles = want_opt(v, want_u64)?,
            other => {
                return Err(Error::at(v.pos, format!("unknown watchdog key `{other}`")));
            }
        }
    }
    Ok(())
}

fn transfw_section(items: &[Item]) -> Result<Option<TransFwKnobs>, Error> {
    let mut knobs = TransFwKnobs::full();
    let mut enabled = true;
    for (key, item) in index_items(items)? {
        let v = binding_value(item)?;
        match key {
            "enabled" => enabled = want_bool(v)?,
            "gmmu_short_circuit" => knobs.gmmu_short_circuit = want_bool(v)?,
            "host_forwarding" => knobs.host_forwarding = want_bool(v)?,
            "prt_fingerprints" => knobs.config.prt_fingerprints = want_usize(v)?,
            "prt_fp_bits" => knobs.config.prt_fp_bits = want_u32(v)?,
            "prt_slots" => knobs.config.prt_slots = want_usize(v)?,
            "ft_fingerprints" => knobs.config.ft_fingerprints = want_usize(v)?,
            "ft_fp_bits" => knobs.config.ft_fp_bits = want_u32(v)?,
            "ft_slots" => knobs.config.ft_slots = want_usize(v)?,
            "vpn_mask_bits" => knobs.config.vpn_mask_bits = want_u32(v)?,
            "forward_threshold" => knobs.config.forward_threshold = want_f64(v)?,
            other => {
                return Err(Error::at(v.pos, format!("unknown transfw key `{other}`")));
            }
        }
    }
    Ok(enabled.then_some(knobs))
}

fn overload_section(ov: &mut mgpu::OverloadConfig, items: &[Item]) -> Result<(), Error> {
    for (key, item) in index_items(items)? {
        let v = binding_value(item)?;
        match key {
            "enabled" => ov.enabled = want_bool(v)?,
            "host_queue_high" => ov.host_queue_high = want_usize(v)?,
            "host_queue_low" => ov.host_queue_low = want_usize(v)?,
            "gpu_queue_high" => ov.gpu_queue_high = want_usize(v)?,
            "gpu_queue_low" => ov.gpu_queue_low = want_usize(v)?,
            "mshr_high" => ov.mshr_high = want_usize(v)?,
            "mshr_low" => ov.mshr_low = want_usize(v)?,
            "backoff_base" => ov.backoff_base = want_u64(v)?,
            "backoff_cap" => ov.backoff_cap = want_u64(v)?,
            "retry_budget" => ov.retry_budget = want_u64(v)?,
            "retry_refill_permille" => ov.retry_refill_permille = want_u64(v)?,
            "breaker_window" => ov.breaker_window = want_u32(v)?,
            "breaker_failure_permille" => ov.breaker_failure_permille = want_u32(v)?,
            "breaker_min_samples" => ov.breaker_min_samples = want_u32(v)?,
            "breaker_open_cycles" => ov.breaker_open_cycles = want_u64(v)?,
            "breaker_probes" => ov.breaker_probes = want_usize(v)?,
            "peer_backlog_high" => ov.peer_backlog_high = want_u64(v)?,
            other => {
                return Err(Error::at(v.pos, format!("unknown overload key `{other}`")));
            }
        }
    }
    Ok(())
}

fn oversub_section(os: &mut mgpu::OversubConfig, items: &[Item]) -> Result<(), Error> {
    for (key, item) in index_items(items)? {
        let v = binding_value(item)?;
        match key {
            "enabled" => os.enabled = want_bool(v)?,
            "capacity_pages" => os.capacity_pages = want_usize(v)?,
            "policy" => {
                os.policy = match want_ident(v)? {
                    "lru" => EvictPolicy::Lru,
                    "access_counter" => EvictPolicy::AccessCounter,
                    other => {
                        return Err(Error::at(
                            v.pos,
                            format!("unknown eviction policy `{other}` (lru or access_counter)"),
                        ))
                    }
                }
            }
            "thrash_high" => os.thrash_high = want_usize(v)?,
            "thrash_low" => os.thrash_low = want_usize(v)?,
            "refault_window" => os.refault_window = want_u64(v)?,
            "hot_protect" => os.hot_protect = want_usize(v)?,
            other => {
                return Err(Error::at(v.pos, format!("unknown oversub key `{other}`")));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Axis values
// ---------------------------------------------------------------------------

fn seeds_value(v: &Value) -> Result<Vec<u64>, Error> {
    match &v.kind {
        ValueKind::Int(n) => {
            if *n == 0 {
                return Err(Error::at(v.pos, "seed count must be positive".into()));
            }
            if *n > 100_000 {
                return Err(Error::at(v.pos, "seed count is implausibly large".into()));
            }
            Ok((1..=*n).collect())
        }
        ValueKind::List(vs) => {
            if vs.is_empty() {
                return Err(Error::at(v.pos, "seed list must be nonempty".into()));
            }
            vs.iter().map(want_u64).collect()
        }
        _ => Err(Error::at(
            v.pos,
            format!("expected a seed count or seed list, found {}", v.describe()),
        )),
    }
}

fn placement_value(v: &Value) -> Result<PolicyKind, Error> {
    let (name, args): (&str, &[Arg]) = match &v.kind {
        ValueKind::Ident(s) => (s, &[]),
        ValueKind::Call { name, args } => (name, args),
        _ => {
            return Err(Error::at(
                v.pos,
                format!("expected a placement policy, found {}", v.describe()),
            ))
        }
    };
    match name {
        "first_touch" => {
            no_args(name, args)?;
            Ok(PolicyKind::FirstTouch)
        }
        "read_duplicate" => {
            no_args(name, args)?;
            Ok(PolicyKind::ReadDuplicate)
        }
        "delayed_migration" => {
            let m = bind_args(name, v.pos, args, &["threshold"])?;
            let threshold = want_u32(req(&m, name, v.pos, "threshold")?)?;
            Ok(PolicyKind::DelayedMigration { threshold })
        }
        "prefetch_neighborhood" => {
            let m = bind_args(name, v.pos, args, &["radius"])?;
            let radius = want_u32(req(&m, name, v.pos, "radius")?)?;
            Ok(PolicyKind::PrefetchNeighborhood { radius })
        }
        other => Err(Error::at(
            v.pos,
            format!("unknown placement policy `{other}`"),
        )),
    }
}

fn workload_value(v: &Value, default_scale: f64) -> Result<WorkloadSpec, Error> {
    let (name, args): (&str, &[Arg]) = match &v.kind {
        ValueKind::Ident(s) => (s, &[]),
        ValueKind::Call { name, args } => (name, args),
        _ => {
            return Err(Error::at(
                v.pos,
                format!("expected a workload, found {}", v.describe()),
            ))
        }
    };
    let scale_of = |m: &BTreeMap<&'static str, &Value>| -> Result<f64, Error> {
        match m.get("scale") {
            Some(v) => {
                let s = want_f64(v)?;
                if s <= 0.0 {
                    return Err(Error::at(v.pos, "scale must be positive".into()));
                }
                Ok(s)
            }
            None => Ok(default_scale),
        }
    };
    match name {
        "app" => {
            let m = bind_args(name, v.pos, args, &["name", "scale"])?;
            let app_name = want_str(req(&m, name, v.pos, "name")?)?;
            let scale = scale_of(&m)?;
            WorkloadSpec::app(app_name, scale)
                .ok_or_else(|| Error::at(v.pos, format!("unknown application \"{app_name}\"")))
        }
        "uniform" => {
            let m = bind_args(
                name,
                v.pos,
                args,
                &["pages", "ctas", "accesses", "write_frac", "scale"],
            )?;
            let spec = WorkloadSpec::Uniform {
                pages: want_u64(req(&m, name, v.pos, "pages")?)?,
                ctas: want_usize(req(&m, name, v.pos, "ctas")?)?,
                accesses_per_cta: want_usize(req(&m, name, v.pos, "accesses")?)?,
                write_frac: match m.get("write_frac") {
                    Some(v) => want_f64(v)?,
                    None => 0.2,
                },
                scale: scale_of(&m)?,
            };
            if !spec.is_valid() {
                return Err(Error::at(
                    v.pos,
                    "uniform workload needs positive pages/ctas/accesses and write_frac in [0, 1]"
                        .into(),
                ));
            }
            Ok(spec)
        }
        "phase_shift" => {
            let m = bind_args(name, v.pos, args, &["scale"])?;
            Ok(WorkloadSpec::PhaseShift {
                scale: scale_of(&m)?,
            })
        }
        "burst" => {
            let m = bind_args(name, v.pos, args, &["scale", "load"])?;
            let load = match m.get("load") {
                Some(v) => {
                    let l = want_u64(v)?;
                    if l == 0 {
                        return Err(Error::at(v.pos, "load multiplier must be positive".into()));
                    }
                    l
                }
                None => 1,
            };
            Ok(WorkloadSpec::Burst {
                scale: scale_of(&m)?,
                load,
            })
        }
        "oversub_shift" => {
            let m = bind_args(name, v.pos, args, &["scale"])?;
            Ok(WorkloadSpec::OversubShift {
                scale: scale_of(&m)?,
            })
        }
        other => Err(Error::at(v.pos, format!("unknown workload `{other}`"))),
    }
}

fn fault_value(v: &Value) -> Result<FaultPlan, Error> {
    let (name, args): (&str, &[Arg]) = match &v.kind {
        ValueKind::Ident(s) => (s, &[]),
        ValueKind::Call { name, args } => (name, args),
        _ => {
            return Err(Error::at(
                v.pos,
                format!("expected a fault plan, found {}", v.describe()),
            ))
        }
    };
    Ok(match name {
        "none" => {
            no_args(name, args)?;
            FaultPlan::none()
        }
        "message_loss" => {
            let m = bind_args(name, v.pos, args, &["seed", "p"])?;
            FaultPlan::message_loss(
                want_u64(req(&m, name, v.pos, "seed")?)?,
                want_f64(req(&m, name, v.pos, "p")?)?,
            )
        }
        "message_chaos" => {
            let m = bind_args(name, v.pos, args, &["seed", "p", "delay"])?;
            FaultPlan::message_chaos(
                want_u64(req(&m, name, v.pos, "seed")?)?,
                want_f64(req(&m, name, v.pos, "p")?)?,
                want_u64(req(&m, name, v.pos, "delay")?)?,
            )
        }
        "plan" => {
            let m = bind_args(
                name,
                v.pos,
                args,
                &[
                    "seed",
                    "drop",
                    "delay_p",
                    "delay",
                    "dup",
                    "stall_p",
                    "stall",
                    "table_drop",
                    "pollution",
                    "burst_period",
                    "burst_len",
                    "burst_extra",
                    "events",
                ],
            )?;
            let mut p = FaultPlan::none();
            if let Some(v) = m.get("seed") {
                p.seed = want_u64(v)?;
            }
            if let Some(v) = m.get("drop") {
                p.message_drop_prob = want_f64(v)?;
            }
            if let Some(v) = m.get("delay_p") {
                p.message_delay_prob = want_f64(v)?;
            }
            if let Some(v) = m.get("delay") {
                p.message_delay_cycles = want_u64(v)?;
            }
            if let Some(v) = m.get("dup") {
                p.message_duplicate_prob = want_f64(v)?;
            }
            if let Some(v) = m.get("stall_p") {
                p.walker_stall_prob = want_f64(v)?;
            }
            if let Some(v) = m.get("stall") {
                p.walker_stall_cycles = want_u64(v)?;
            }
            if let Some(v) = m.get("table_drop") {
                p.table_update_drop_prob = want_f64(v)?;
            }
            if let Some(v) = m.get("pollution") {
                p.table_pollution = want_usize(v)?;
            }
            if let Some(v) = m.get("burst_period") {
                p.host_burst_period = want_u64(v)?;
            }
            if let Some(v) = m.get("burst_len") {
                p.host_burst_len = want_u64(v)?;
            }
            if let Some(v) = m.get("burst_extra") {
                p.host_burst_extra = want_u64(v)?;
            }
            if let Some(v) = m.get("events") {
                for ev in list_of(v) {
                    p.component_events.push(event_value(ev)?);
                }
            }
            p
        }
        other => return Err(Error::at(v.pos, format!("unknown fault plan `{other}`"))),
    })
}

fn event_value(v: &Value) -> Result<ComponentEvent, Error> {
    let ValueKind::Call { name, args } = &v.kind else {
        return Err(Error::at(
            v.pos,
            format!("expected a component event call, found {}", v.describe()),
        ));
    };
    match name.as_str() {
        "gpu_offline" => {
            let m = bind_args(name, v.pos, args, &["gpu", "at", "dur"])?;
            Ok(ComponentEvent::GpuOffline {
                gpu: want_usize(req(&m, name, v.pos, "gpu")?)?,
                at_cycle: want_u64(req(&m, name, v.pos, "at")?)?,
                duration: want_u64(req(&m, name, v.pos, "dur")?)?,
            })
        }
        "link_partition" => {
            let m = bind_args(name, v.pos, args, &["a", "b", "at", "dur"])?;
            Ok(ComponentEvent::LinkPartition {
                a: want_usize(req(&m, name, v.pos, "a")?)?,
                b: want_usize(req(&m, name, v.pos, "b")?)?,
                at_cycle: want_u64(req(&m, name, v.pos, "at")?)?,
                duration: want_u64(req(&m, name, v.pos, "dur")?)?,
            })
        }
        "host_failover" => {
            let m = bind_args(name, v.pos, args, &["at", "stall"])?;
            Ok(ComponentEvent::HostMmuFailover {
                at_cycle: want_u64(req(&m, name, v.pos, "at")?)?,
                stall: want_u64(req(&m, name, v.pos, "stall")?)?,
            })
        }
        other => Err(Error::at(
            v.pos,
            format!("unknown component event `{other}`"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Value and argument plumbing
// ---------------------------------------------------------------------------

/// A non-list value is a one-element axis; a list is itself.
fn list_of(v: &Value) -> Vec<&Value> {
    match &v.kind {
        ValueKind::List(vs) => vs.iter().collect(),
        _ => vec![v],
    }
}

/// Binds a call's arguments against its parameter names: positional
/// arguments fill `allowed` in order, named arguments bind by name, and
/// duplicates/unknowns/excess are errors.
fn bind_args<'a>(
    call: &str,
    pos: Pos,
    args: &'a [Arg],
    allowed: &[&'static str],
) -> Result<BTreeMap<&'static str, &'a Value>, Error> {
    let mut map: BTreeMap<&'static str, &'a Value> = BTreeMap::new();
    let mut next_positional = 0usize;
    for arg in args {
        let slot: &'static str = match &arg.name {
            Some(n) => match allowed.iter().find(|a| **a == n.as_str()) {
                Some(a) => a,
                None => {
                    return Err(Error::at(
                        arg.pos,
                        format!("`{call}` has no parameter `{n}`"),
                    ))
                }
            },
            None => {
                let Some(a) = allowed.get(next_positional) else {
                    return Err(Error::at(
                        arg.pos,
                        format!("too many arguments to `{call}`"),
                    ));
                };
                next_positional += 1;
                a
            }
        };
        if map.insert(slot, &arg.value).is_some() {
            return Err(Error::at(
                arg.pos,
                format!("duplicate argument `{slot}` to `{call}`"),
            ));
        }
    }
    let _ = pos;
    Ok(map)
}

fn req<'a>(
    m: &BTreeMap<&'static str, &'a Value>,
    call: &str,
    pos: Pos,
    key: &str,
) -> Result<&'a Value, Error> {
    m.get(key)
        .copied()
        .ok_or_else(|| Error::at(pos, format!("`{call}` requires `{key} = ...`")))
}

fn no_args(call: &str, args: &[Arg]) -> Result<(), Error> {
    match args.first() {
        None => Ok(()),
        Some(a) => Err(Error::at(a.pos, format!("`{call}` takes no arguments"))),
    }
}

fn want_u64(v: &Value) -> Result<u64, Error> {
    match v.kind {
        ValueKind::Int(n) => Ok(n),
        _ => Err(Error::at(
            v.pos,
            format!("expected an integer, found {}", v.describe()),
        )),
    }
}

fn want_usize(v: &Value) -> Result<usize, Error> {
    usize::try_from(want_u64(v)?)
        .map_err(|_| Error::at(v.pos, "integer too large for this platform".into()))
}

fn want_u32(v: &Value) -> Result<u32, Error> {
    u32::try_from(want_u64(v)?).map_err(|_| Error::at(v.pos, "integer exceeds 32 bits".into()))
}

fn want_u16(v: &Value) -> Result<u16, Error> {
    u16::try_from(want_u64(v)?).map_err(|_| Error::at(v.pos, "integer exceeds 16 bits".into()))
}

fn want_f64(v: &Value) -> Result<f64, Error> {
    match v.kind {
        ValueKind::Float(x) => Ok(x),
        ValueKind::Int(n) => Ok(n as f64),
        _ => Err(Error::at(
            v.pos,
            format!("expected a number, found {}", v.describe()),
        )),
    }
}

fn want_bool(v: &Value) -> Result<bool, Error> {
    match &v.kind {
        ValueKind::Ident(s) if s == "true" => Ok(true),
        ValueKind::Ident(s) if s == "false" => Ok(false),
        _ => Err(Error::at(
            v.pos,
            format!("expected `true` or `false`, found {}", v.describe()),
        )),
    }
}

fn want_str(v: &Value) -> Result<&str, Error> {
    match &v.kind {
        ValueKind::Str(s) => Ok(s),
        _ => Err(Error::at(
            v.pos,
            format!("expected a string, found {}", v.describe()),
        )),
    }
}

fn want_ident(v: &Value) -> Result<&str, Error> {
    match &v.kind {
        ValueKind::Ident(s) => Ok(s),
        _ => Err(Error::at(
            v.pos,
            format!("expected an identifier, found {}", v.describe()),
        )),
    }
}

/// `none` or a value parsed by `inner`.
fn want_opt<T>(v: &Value, inner: impl Fn(&Value) -> Result<T, Error>) -> Result<Option<T>, Error> {
    match &v.kind {
        ValueKind::Ident(s) if s == "none" => Ok(None),
        _ => inner(v).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_one;

    #[test]
    fn minimal_scenario_fills_table_ii_defaults() {
        let sc = compile_one(r#"scenario "s" { workload = app(name = "KM") }"#).unwrap();
        assert_eq!(sc.seeds, vec![1]);
        assert_eq!(sc.base.gpus, 4);
        assert_eq!(sc.base.seed, 0, "seed is normalised out of the base");
        assert!(sc.base.transfw.is_none());
        assert_eq!(sc.placements, vec![PolicyKind::FirstTouch]);
        assert_eq!(sc.workloads, vec![WorkloadSpec::app("KM", 1.0).unwrap()]);
        assert_eq!(sc.faults, vec![FaultPlan::none()]);
    }

    #[test]
    fn default_scale_flows_into_workloads() {
        let sc = compile_one(
            r#"scenario "s" {
                 scale = 0.1
                 workload = [app(name = "AES"), phase_shift, burst(scale = 0.5, load = 4)]
               }"#,
        )
        .unwrap();
        assert_eq!(sc.workloads[0].scale(), 0.1);
        assert_eq!(sc.workloads[1].scale(), 0.1);
        assert_eq!(sc.workloads[2].scale(), 0.5, "explicit scale wins");
    }

    #[test]
    fn the_policy_sweep_matrix_lowers_exactly() {
        let sc = compile_one(
            r#"scenario "sweep" {
                 seeds = 2
                 scale = 0.1
                 transfw { enabled = true }
                 placement = [first_touch, delayed_migration(threshold = 4),
                              read_duplicate, prefetch_neighborhood(radius = 3)]
                 workload = [app(name = "AES"), app(name = "KM"),
                             app(name = "PR"), phase_shift]
               }"#,
        )
        .unwrap();
        assert_eq!(sc.seeds, vec![1, 2]);
        assert_eq!(sc.base.transfw, Some(TransFwKnobs::full()));
        assert_eq!(sc.placements.len(), 4);
        assert_eq!(
            sc.placements[1],
            PolicyKind::DelayedMigration { threshold: 4 }
        );
        let cells = sc.cells();
        assert_eq!(cells.len(), 16);
        assert_eq!(cells[0].label, "first-touch/AES");
        assert_eq!(cells[0].cfg.placement, PolicyKind::FirstTouch);
        assert_eq!(cells[15].label, "prefetch-neighborhood/PhaseShift");
    }

    #[test]
    fn fault_axis_and_events() {
        let sc = compile_one(
            r#"scenario "s" {
                 workload = phase_shift
                 faults = [none, message_loss(seed = 38, p = 0.02),
                           plan(seed = 9, events = [gpu_offline(gpu = 1, at = 1000, dur = 500)])]
               }"#,
        )
        .unwrap();
        assert_eq!(sc.faults.len(), 3);
        assert_eq!(sc.faults[1], FaultPlan::message_loss(38, 0.02));
        assert_eq!(
            sc.faults[2].component_events,
            vec![ComponentEvent::GpuOffline {
                gpu: 1,
                at_cycle: 1000,
                duration: 500
            }]
        );
        let cells = sc.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].label, "PhaseShift+clean");
        assert_eq!(cells[1].label, "PhaseShift+loss");
        assert_eq!(cells[2].label, "PhaseShift+faults2");
    }

    #[test]
    fn validation_mirrors_are_errors_not_panics() {
        let cases: &[(&str, &str)] = &[
            (
                r#"scenario "s" { workload = phase_shift system { gpus = 0 } }"#,
                "at least one GPU",
            ),
            (
                r#"scenario "s" { workload = phase_shift system { gpus = 65 } }"#,
                "at most 64 GPUs",
            ),
            (
                r#"scenario "s" { workload = phase_shift system { l2_tlb_entries = 100 } }"#,
                "associativity",
            ),
            (
                r#"scenario "s" { workload = phase_shift system { page_size_bits = 13 } }"#,
                "page size",
            ),
            (
                r#"scenario "s" { workload = phase_shift system { l1_tlb_entries = 0 } }"#,
                "L1 TLB",
            ),
            (
                r#"scenario "s" { workload = phase_shift system { gmmu_pwc_entries = 0 } }"#,
                "GMMU PW cache",
            ),
            (
                r#"scenario "s" { workload = phase_shift system { host_pwc_entries = 0 } }"#,
                "host PW cache",
            ),
            (
                r#"scenario "s" { workload = phase_shift faults = message_loss(seed = 1, p = 1.5) }"#,
                "not in [0, 1]",
            ),
            (
                r#"scenario "s" { workload = phase_shift faults = plan(events = [gpu_offline(gpu = 9, at = 1, dur = 1)]) }"#,
                "",
            ),
            (
                r#"scenario "s" { workload = phase_shift overload { enabled = true host_queue_low = 99 } }"#,
                "inverted",
            ),
            (
                r#"scenario "s" { workload = phase_shift oversub { enabled = true capacity_pages = 0 } }"#,
                "capacity",
            ),
            (
                r#"scenario "s" { workload = phase_shift transfw { enabled = true prt_fp_bits = 20 } }"#,
                "1..=16 bits",
            ),
            (
                r#"scenario "s" { workload = phase_shift transfw { enabled = true ft_fingerprints = 200000 ft_slots = 2 } }"#,
                "65536 buckets",
            ),
            (
                r#"scenario "s" { workload = app(name = "nope") }"#,
                "unknown application",
            ),
            (
                r#"scenario "s" { workload = phase_shift(scale = 0.0) }"#,
                "positive",
            ),
            (
                r#"scenario "s" { workload = phase_shift seeds = 0 }"#,
                "positive",
            ),
            (
                r#"scenario "s" { workload = phase_shift gpus = 8 }"#,
                "unknown scenario key",
            ),
            (
                r#"scenario "s" { workload = phase_shift workload = burst }"#,
                "duplicate key",
            ),
        ];
        for (src, needle) in cases {
            let e = compile_one(src).expect_err(src);
            assert!(
                e.msg.contains(needle),
                "source {src}: error `{e}` does not mention `{needle}`"
            );
        }
    }

    #[test]
    fn config_errors_point_at_the_key_or_its_section() {
        let at = |line, col| Pos { line, col };
        let cases: &[(&str, Pos)] = &[
            // The key that is wrong.
            (
                "scenario \"s\" {\n  workload = phase_shift\n  system { gpus = 0 }\n}",
                at(3, 12),
            ),
            // `l2_tlb_assoc` is absent: its section.
            (
                "scenario \"s\" {\n  workload = phase_shift\n  system { l2_tlb_entries = 100 }\n}",
                at(3, 3),
            ),
            (
                "scenario \"s\" {\n  workload = phase_shift\n  system {\n    watchdog { request_timeout = 0 }\n  }\n}",
                at(4, 5),
            ),
            (
                "scenario \"s\" {\n  workload = phase_shift\n  transfw { prt_fp_bits = 20 }\n}",
                at(3, 3),
            ),
            // The plan or policy of the cell that breaks the rule.
            (
                "scenario \"s\" {\n  workload = phase_shift\n  faults = [none, message_loss(seed = 1, p = 2.0)]\n}",
                at(3, 19),
            ),
            (
                "scenario \"s\" {\n  workload = [phase_shift, burst]\n  placement = [first_touch, delayed_migration(threshold = 0)]\n}",
                at(3, 29),
            ),
        ];
        for (src, pos) in cases {
            let e = compile_one(src).expect_err(src);
            assert_eq!(e.pos, *pos, "source {src}: {e}");
        }
    }

    #[test]
    fn positional_and_named_args_mix() {
        let sc = compile_one(
            r#"scenario "s" { workload = uniform(512, 32, 64, write_frac = 0.3, scale = 1.0) }"#,
        )
        .unwrap();
        assert_eq!(
            sc.workloads[0],
            WorkloadSpec::Uniform {
                pages: 512,
                ctas: 32,
                accesses_per_cta: 64,
                write_frac: 0.3,
                scale: 1.0
            }
        );
    }

    #[test]
    fn disabled_transfw_section_is_baseline() {
        let sc =
            compile_one(r#"scenario "s" { workload = phase_shift transfw { enabled = false } }"#)
                .unwrap();
        assert!(sc.base.transfw.is_none());
    }
}
