//! Host-time benchmark of the Trans-FW simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig11 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload on one thread: a closed loop with one
//! client, cells one after another. With `--trace 0` it repeats untraced
//! passes for `--seconds` and prints the end-to-end metrics (wall time of
//! the fastest pass, median set-up time). With `--trace 1` it runs untraced and traced passes for half
//! the time each, then the layer replays, and prints the per-layer
//! metrics. Every cell must return `Ok` with every request retired once,
//! and each cell's `experiments::run_json` digest must repeat across all
//! passes, traced or not. The last stdout line is the result object; the
//! line before it is the run manifest. See `perfbench/README.md`.

mod catalog;
mod pass;
mod probe;
mod replay;

#[cfg(test)]
mod json;
#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use catalog::{Metric, END_TO_END, PER_LAYER};
use pass::{cell_specs, BenchWorkload, Pass};
use probe::Spans;

/// Seed used when `--seed` is not given, and the seed `digests.json` was
/// recorded at.
pub const DEFAULT_SEED: u64 = 1;
/// The paper's Fig. 11 mean Trans-FW speedup over the baseline (+53.8%).
pub const PAPER_MEAN_SPEEDUP: f64 = 1.538;
/// Cell digests recorded at [`DEFAULT_SEED`] (`perfbench --digests`).
const RECORDED_DIGESTS: &str = include_str!("../digests.json");

const USAGE: &str = "usage: perfbench --workload <fig11|tlb_local|soak> [--seed N] \
                     [--seconds S] [--trace 0|1]\n       perfbench --catalog | --digests";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: &'static BenchWorkload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    Catalog,
    Digests,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--catalog" => return Ok(Command::Catalog),
            "--digests" => return Ok(Command::Digests),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(pass::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(a)) => {
            let out = run(&a);
            println!("{}", out.manifest);
            println!("{}", out.result_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Catalog) => {
            catalog::print();
            ExitCode::SUCCESS
        }
        Ok(Command::Digests) => {
            print!("{}", digests_file());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A finished run: its result and manifest.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
    manifest: String,
}

impl Outcome {
    /// The final stdout line.
    fn result_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, v, m.unit))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        )
    }
}

/// Per-cell checks over every pass: the run completed (see
/// [`pass::CellRun::outcome`]) with the same digest as the cell's first run.
struct Check {
    attempted: u64,
    /// `label → digest` of each cell's first completed run.
    digests: BTreeMap<String, u64>,
    /// One line per failed cell run.
    errors: Vec<String>,
}

impl Check {
    fn failed(&self) -> u64 {
        self.errors.len() as u64
    }
}

fn check(passes: &[&Pass]) -> Check {
    let mut c = Check {
        attempted: 0,
        digests: BTreeMap::new(),
        errors: Vec::new(),
    };
    for pass in passes {
        for cell in &pass.cells {
            c.attempted += 1;
            let problem = match &cell.outcome {
                Err(e) => Some(format!("{}: {e}", cell.label)),
                Ok(done) => {
                    let d = done.digest;
                    let first = *c.digests.entry(cell.label.clone()).or_insert(d);
                    (first != d).then(|| format!("{}: digest {d:016x} != {first:016x}", cell.label))
                }
            };
            c.errors.extend(problem);
        }
    }
    c
}

/// Mean Trans-FW speedup over the baseline across cells that appear in
/// both a `*_baseline` and a `*_transfw` scenario, if any do.
fn mean_speedup(pass: &Pass) -> Option<f64> {
    let cycles: BTreeMap<&str, u64> = pass
        .cells
        .iter()
        .filter_map(|c| Some((c.label.as_str(), c.outcome.as_ref().ok()?.total_cycles)))
        .collect();
    let speedups: Vec<f64> = cycles
        .iter()
        .filter_map(|(label, &base)| {
            let (scenario, cell) = label.split_once('/')?;
            let stem = scenario.strip_suffix("_baseline")?;
            let opt = *cycles.get(format!("{stem}_transfw/{cell}").as_str())?;
            (opt > 0).then(|| base as f64 / opt as f64)
        })
        .collect();
    (!speedups.is_empty()).then(|| speedups.iter().sum::<f64>() / speedups.len() as f64)
}

/// Peak resident set of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (non-Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The checkout's git revision, read from `.git` in the working directory
/// only ("unknown" outside a git checkout).
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// One digest over every cell digest of the run.
fn combined_digest(digests: &BTreeMap<String, u64>) -> u64 {
    let text: Vec<String> = digests
        .iter()
        .map(|(l, d)| format!("{l}={d:016x}"))
        .collect();
    scn::fnv1a64(&text.join("\n"))
}

/// Whether every cell digest of this run appears in `digests.json`
/// (meaningful at [`DEFAULT_SEED`] only).
fn matches_recorded(digests: &BTreeMap<String, u64>) -> bool {
    digests
        .iter()
        .all(|(l, d)| RECORDED_DIGESTS.contains(&format!("\"{l}\": \"{d:016x}\"")))
}

fn manifest(args: &Args, first: &Pass, check: &Check, passes: usize, traced: usize) -> String {
    let scenarios = args.workload.scenarios();
    let scn_digests: Vec<String> = scenarios
        .iter()
        .map(|s| format!("\"{}\":\"{}\"", s.name, s.digest_hex()))
        .collect();
    let mut scales: Vec<f64> = cell_specs(&scenarios, args.seed)
        .iter()
        .map(|s| s.workload.scale())
        .collect();
    scales.sort_by(f64::total_cmp);
    scales.dedup();
    let scales: Vec<String> = scales.iter().map(f64::to_string).collect();
    let sum = |f: fn(&mgpu::RunMetrics) -> u64| first.metrics.iter().map(f).sum::<u64>();
    let recorded = if args.seed == DEFAULT_SEED {
        matches_recorded(&check.digests).to_string()
    } else {
        "null".into()
    };
    format!(
        concat!(
            "{{\"manifest\":{{\"workload\":\"{}\",\"seed\":{},\"default_seed\":{},",
            "\"scales\":[{}],\"cells\":{},\"scn_digests\":{{{}}},\"digest\":\"{:016x}\",",
            "\"digest_matches_recorded\":{},\"git_rev\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",",
            "\"passes\":{},\"traced_passes\":{},\"mem_instructions\":{},",
            "\"translation_requests\":{},\"local_faults\":{},\"sim_cycles\":{},",
            "\"errors\":{}}}}}"
        ),
        args.workload.name,
        args.seed,
        DEFAULT_SEED,
        scales.join(","),
        first.cells.len(),
        scn_digests.join(","),
        combined_digest(&check.digests),
        recorded,
        git_revision(),
        std::thread::available_parallelism().map_or(0, usize::from),
        env!("PERFBENCH_RUSTC"),
        passes,
        traced,
        sum(|m| m.mem_instructions),
        sum(|m| m.translation_requests),
        sum(|m| m.local_faults),
        sum(|m| m.total_cycles),
        check.errors.len(),
    )
}

fn run(args: &Args) -> Outcome {
    let seconds = Duration::from_secs(args.seconds);
    let plain = pass::run_passes(
        args.workload,
        args.seed,
        false,
        if args.trace { seconds / 2 } else { seconds },
        if args.trace { 2 } else { 3 },
    );
    let traced = if args.trace {
        pass::run_passes(args.workload, args.seed, true, seconds / 2, 2)
    } else {
        Vec::new()
    };
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let check = check(&all);
    for e in &check.errors {
        eprintln!("perfbench: {e}");
    }
    let speedup = mean_speedup(&plain[0]);
    let correct = check.failed() == 0 && speedup.is_none_or(|s| s > 1.0);
    let values = if args.trace {
        per_layer(args, &plain, &traced, &check, speedup)
    } else {
        end_to_end(&plain)
    };
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(stray) = values.keys().find(|k| !list.iter().any(|m| m.name == **k)) {
        panic!("measured metric {stray} is missing from the catalog");
    }
    let metrics = list
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            (m, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    Outcome {
        correct,
        attempted: check.attempted,
        failed: check.failed(),
        metrics,
        manifest: manifest(args, &plain[0], &check, plain.len(), traced.len()),
    }
}

/// The fastest pass's wall time. On a shared host, interference only adds
/// time and swings a pass by a quarter within seconds; the fastest of a
/// run's passes repeats across runs about twice as closely as their median.
fn fastest_wall_s(passes: &[Pass]) -> f64 {
    passes
        .iter()
        .map(|p| p.wall_s)
        .fold(f64::INFINITY, f64::min)
}

fn end_to_end(plain: &[Pass]) -> BTreeMap<&'static str, f64> {
    let wall_s = fastest_wall_s(plain);
    let mem = plain[0].mem_instructions();
    BTreeMap::from([
        ("wall_s", wall_s),
        ("mem_instr_per_s", mem as f64 / wall_s),
        ("setup_s", median(plain.iter().map(Pass::setup_s).collect())),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

fn per_layer(
    args: &Args,
    plain: &[Pass],
    traced: &[Pass],
    check: &Check,
    speedup: Option<f64>,
) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    // Traced spans, median over traced passes.
    let span = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(f).collect());
    let spans = |p: &Pass| p.spans.as_deref().map_or(0, |s| Spans::get(&s.stream_ns));
    let owner = |p: &Pass| p.spans.as_deref().map_or(0, |s| Spans::get(&s.owner_ns));
    let cells_sum = |p: &Pass, f: fn(&pass::CellRun) -> f64| p.cells.iter().map(f).sum::<f64>();
    v.insert("scn.compile_s", span(&|p| p.compile_s));
    v.insert("mgpu.new_s", span(&|p| cells_sum(p, |c| c.new_s)));
    v.insert("mgpu.warm_s", span(&|p| cells_sum(p, |c| c.warm_s)));
    v.insert("workloads.stream_s", span(&|p| spans(p) as f64 * 1e-9));
    v.insert(
        "workloads.initial_owner_s",
        span(&|p| owner(p) as f64 * 1e-9),
    );
    let loop_s = span(&|p| cells_sum(p, |c| c.run_s - c.warm_s) - spans(p) as f64 * 1e-9);
    v.insert("mgpu.loop_s", loop_s);
    let first = &traced[0];
    let mem = first.mem_instructions();
    v.insert(
        "mgpu.loop_ns_per_mem_instr",
        loop_s * 1e9 / mem.max(1) as f64,
    );
    if let Some(s) = first.spans.as_deref() {
        v.insert(
            "workloads.next_access_calls",
            Spans::get(&s.next_access_calls) as f64,
        );
        v.insert(
            "workloads.initial_owner_calls",
            Spans::get(&s.initial_owner_calls) as f64,
        );
    }
    v.insert(
        "trace.overhead_ratio",
        fastest_wall_s(traced) / fastest_wall_s(plain) - 1.0,
    );
    v.insert("bench.fail_ratio", ratio(check.failed(), check.attempted));
    if let Some(s) = speedup {
        v.insert("model.mean_speedup", s);
        v.insert(
            "model.speedup_err",
            (s - PAPER_MEAN_SPEEDUP).abs() / PAPER_MEAN_SPEEDUP,
        );
    }
    simulated_counts(first, &mut v);
    // Replays over the same cells.
    let scenarios = args.workload.scenarios();
    let inputs: Vec<replay::CellInputs> = cell_specs(&scenarios, args.seed)
        .iter()
        .map(replay::CellInputs::new)
        .collect();
    v.extend(replay::run(&inputs));
    v
}

/// Simulated counts of one pass, summed over its cells.
fn simulated_counts(pass: &Pass, v: &mut BTreeMap<&'static str, f64>) {
    let sum = |f: &dyn Fn(&mgpu::RunMetrics) -> u64| pass.metrics.iter().map(f).sum::<u64>();
    let pwc_hits = |p: &ptw::PwCacheStats| p.lookups - p.misses;
    let counts: [(&'static str, u64); 32] = [
        ("mgpu.mem_instructions", sum(&|m| m.mem_instructions)),
        (
            "mgpu.translation_requests",
            sum(&|m| m.translation_requests),
        ),
        ("mgpu.local_faults", sum(&|m| m.local_faults)),
        ("mgpu.sim_cycles", sum(&|m| m.total_cycles)),
        (
            "simcore.checkpoints",
            sum(&|m| m.recovery.checkpoints_taken),
        ),
        (
            "simcore.faults_injected",
            sum(&|m| {
                let f = &m.resilience.faults_injected;
                f.messages_dropped
                    + f.messages_delayed
                    + f.messages_duplicated
                    + f.walker_stalls
                    + f.table_updates_dropped
                    + f.host_burst_walks
            }),
        ),
        ("ptw.gmmu_walk_accesses", sum(&|m| m.gmmu_walk_accesses)),
        ("ptw.host_walk_accesses", sum(&|m| m.host_walk_accesses)),
        ("ptw.gmmu_queue_cycles", sum(&|m| m.breakdown.gmmu_queue)),
        ("ptw.host_queue_cycles", sum(&|m| m.breakdown.host_queue)),
        ("transfw.gmmu_bypassed", sum(&|m| m.transfw.gmmu_bypassed)),
        (
            "transfw.prt_false_positives",
            sum(&|m| m.transfw.prt_false_positives),
        ),
        ("transfw.forwarded", sum(&|m| m.transfw.forwarded)),
        (
            "transfw.cancelled_host_walks",
            sum(&|m| m.transfw.cancelled_host_walks),
        ),
        ("uvm.migrations", sum(&|m| m.directory.migrations)),
        ("uvm.replications", sum(&|m| m.directory.replications)),
        (
            "uvm.write_invalidations",
            sum(&|m| m.directory.write_invalidations),
        ),
        ("uvm.evictions", sum(&|m| m.oversub.evictions)),
        ("uvm.refaults", sum(&|m| m.oversub.refaults)),
        ("uvm.driver_batches", sum(&|m| m.driver_batches)),
        ("uvm.migration_cycles", sum(&|m| m.breakdown.migration)),
        ("interconnect.network_cycles", sum(&|m| m.breakdown.network)),
        (
            "interconnect.rerouted",
            sum(&|m| m.recovery.rerouted_messages),
        ),
        (
            "overload.shed",
            sum(&|m| {
                let o = &m.overload;
                o.prefetch_shed + o.migration_shed + o.remote_walks_shed
            }),
        ),
        (
            "overload.demand_deferred",
            sum(&|m| m.overload.demand_deferred),
        ),
        ("overload.breaker_opens", sum(&|m| m.overload.breaker_opens)),
        (
            "overload.demand_p99_cycles",
            pass.metrics
                .iter()
                .map(|m| m.overload.demand_lat.percentile_bound(0.99))
                .max()
                .unwrap_or(0),
        ),
        ("resilience.retries", sum(&|m| m.resilience.retries)),
        (
            "resilience.remote_timeouts",
            sum(&|m| m.resilience.remote_timeouts),
        ),
        (
            "resilience.fallback_walks",
            sum(&|m| m.resilience.fallback_walks),
        ),
        ("oversub.thrash_trips", sum(&|m| m.oversub.thrash_trips)),
        (
            "recovery.reissued_walks",
            sum(&|m| m.recovery.reissued_walks),
        ),
    ];
    for (name, n) in counts {
        v.insert(name, n as f64);
    }
    let hit_ratio = |hits: &dyn Fn(&mgpu::RunMetrics) -> u64,
                     misses: &dyn Fn(&mgpu::RunMetrics) -> u64| {
        let h = sum(hits);
        ratio(h, h + sum(misses))
    };
    v.insert(
        "tlb.l1_hit_ratio",
        hit_ratio(&|m| m.l1_hits, &|m| m.l1_misses),
    );
    v.insert(
        "tlb.l2_hit_ratio",
        hit_ratio(&|m| m.l2_hits, &|m| m.l2_misses),
    );
    v.insert(
        "tlb.host_hit_ratio",
        hit_ratio(&|m| m.host_tlb_hits, &|m| m.host_tlb_misses),
    );
    v.insert(
        "ptw.gmmu_pwc_hit_ratio",
        ratio(
            sum(&|m| pwc_hits(&m.gmmu_pwc)),
            sum(&|m| m.gmmu_pwc.lookups),
        ),
    );
    v.insert(
        "ptw.host_pwc_hit_ratio",
        ratio(
            sum(&|m| pwc_hits(&m.host_pwc)),
            sum(&|m| m.host_pwc.lookups),
        ),
    );
    v.insert(
        "transfw.remote_supplied_ratio",
        ratio(
            sum(&|m| m.transfw.remote_supplied),
            sum(&|m| m.transfw.forwarded),
        ),
    );
}

/// `digests.json`: every cell digest of every workload at [`DEFAULT_SEED`].
fn digests_file() -> String {
    let mut out = format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"digest\": \"FNV-1a 64 of each cell's experiments::run_json record\",\n  \"workloads\": {{\n"
    );
    for (wi, bench) in pass::WORKLOADS.iter().enumerate() {
        let p = pass::run_pass(bench, DEFAULT_SEED, false, false);
        let c = check(&[&p]);
        assert!(c.errors.is_empty(), "{}: {:?}", bench.name, c.errors);
        let scn: Vec<String> = bench
            .scenarios()
            .iter()
            .map(|s| format!("\"{}\": \"{}\"", s.name, s.digest_hex()))
            .collect();
        out.push_str(&format!(
            "    \"{}\": {{\n      \"scn_digests\": {{{}}},\n      \"cells\": {{\n",
            bench.name,
            scn.join(", ")
        ));
        let cells: Vec<String> = c
            .digests
            .iter()
            .map(|(l, d)| format!("        \"{l}\": \"{d:016x}\""))
            .collect();
        out.push_str(&cells.join(",\n"));
        out.push_str("\n      }\n    }");
        out.push_str(if wi + 1 < pass::WORKLOADS.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}
