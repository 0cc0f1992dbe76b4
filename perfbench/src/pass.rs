//! The benchmark workloads and one timed pass over a workload's cells.
//!
//! A workload is a committed `.scn` file. A pass compiles it, expands the
//! cells in scenario order and runs each one after the other on this
//! thread: `System::new`, `WorkloadSpec::build`, then `System::run` on
//! the wrapped workload — the same steps as `experiments::RunSpec::run`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use experiments::spec::{scenario_specs, RunSpec};
use mgpu::{RunMetrics, System};

use crate::probe::{Probe, Spans};

/// One named benchmark workload.
#[derive(Debug)]
pub struct BenchWorkload {
    /// Name given on the command line.
    pub name: &'static str,
    /// The `.scn` source of its cells.
    pub source: &'static str,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [BenchWorkload; 3] = [
    BenchWorkload {
        name: "fig11",
        source: include_str!("../scenarios/fig11.scn"),
    },
    BenchWorkload {
        name: "tlb_local",
        source: include_str!("../scenarios/tlb_local.scn"),
    },
    BenchWorkload {
        name: "soak",
        source: include_str!("../scenarios/soak.scn"),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static BenchWorkload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl BenchWorkload {
    /// Compiles the workload's scenarios.
    ///
    /// # Panics
    ///
    /// Panics if a committed scenario no longer compiles.
    pub fn scenarios(&self) -> Vec<scn::Scenario> {
        scn::compile(self.source).unwrap_or_else(|e| panic!("scenarios/{}.scn:{e}", self.name))
    }
}

/// The workload's cells at `seed`, labelled `scenario/cell`.
pub fn cell_specs(scenarios: &[scn::Scenario], seed: u64) -> Vec<RunSpec> {
    scenarios
        .iter()
        .flat_map(|sc| {
            scenario_specs(sc).into_iter().map(move |spec| {
                let label = format!("{}/{}", sc.name, spec.label);
                spec.labeled(label).with_seed(seed)
            })
        })
        .collect()
}

/// Identity of one cell's simulated output: the FNV-1a hash of its
/// `experiments::run_json` record.
pub fn digest(m: &RunMetrics, seed: u64) -> u64 {
    scn::fnv1a64(&experiments::run_json(m, seed))
}

/// What a completed cell leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completed {
    /// [`digest`] of the run's metrics.
    pub digest: u64,
    /// Simulated memory instructions.
    pub mem_instructions: u64,
    /// Simulated cycles.
    pub total_cycles: u64,
}

/// One cell of one pass.
#[derive(Debug)]
pub struct CellRun {
    /// `scenario/cell` label.
    pub label: String,
    /// The completed run, or why the cell failed: the simulator's error, or
    /// a translation request not retired exactly once.
    pub outcome: Result<Completed, String>,
    /// Host time of `System::new`.
    pub new_s: f64,
    /// Host time of `WorkloadSpec::build`.
    pub build_s: f64,
    /// Host time from `System::run` entry to the first CTA stream.
    pub warm_s: f64,
    /// Host time of the whole `System::run` call.
    pub run_s: f64,
}

/// One pass over every cell of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Host time of `scn::compile`.
    pub compile_s: f64,
    /// Host time of the whole pass.
    pub wall_s: f64,
    /// The cells, in scenario order.
    pub cells: Vec<CellRun>,
    /// Workload-layer spans, on a traced pass.
    pub spans: Option<Arc<Spans>>,
    /// Full metrics of the completed cells, kept only when asked for:
    /// `RunMetrics` holds a per-page sharing profile, and keeping it for
    /// every pass would make peak memory grow with the pass count.
    pub metrics: Vec<RunMetrics>,
}

impl Pass {
    /// Set-up host time: scenario compile plus, per cell, `System::new`,
    /// workload build and warm placement.
    pub fn setup_s(&self) -> f64 {
        self.compile_s
            + self
                .cells
                .iter()
                .map(|c| c.new_s + c.build_s + c.warm_s)
                .sum::<f64>()
    }

    /// Simulated memory instructions summed over the completed cells.
    pub fn mem_instructions(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
            .map(|c| c.mem_instructions)
            .sum()
    }
}

/// Runs one pass of `bench` at `seed`; `traced` selects the probe and
/// `keep_metrics` keeps every completed cell's full metrics.
pub fn run_pass(bench: &BenchWorkload, seed: u64, traced: bool, keep_metrics: bool) -> Pass {
    let pass_start = Instant::now();
    let scenarios = bench.scenarios();
    let compile_s = pass_start.elapsed().as_secs_f64();
    let spans = traced.then(|| Arc::new(Spans::default()));
    let mut cells = Vec::new();
    let mut metrics = Vec::new();
    for spec in cell_specs(&scenarios, seed) {
        let t = Instant::now();
        let system = System::new(spec.cfg.clone());
        let new_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let workload = spec.workload.build();
        let build_s = t.elapsed().as_secs_f64();
        let probe = match &spans {
            Some(s) => Probe::traced(workload.as_ref(), Arc::clone(s)),
            None => Probe::plain(workload.as_ref()),
        };
        let run_start = Instant::now();
        let result = system.run(&probe);
        let run_s = run_start.elapsed().as_secs_f64();
        let warm_s = probe
            .first_stream()
            .map_or(run_s, |t| t.duration_since(run_start).as_secs_f64());
        let outcome = match result {
            Err(e) => Err(e.to_string()),
            Ok(m) if m.resilience.requests_retired != m.translation_requests => Err(format!(
                "retired {} of {} translation requests",
                m.resilience.requests_retired, m.translation_requests
            )),
            Ok(m) => {
                let done = Completed {
                    digest: digest(&m, seed),
                    mem_instructions: m.mem_instructions,
                    total_cycles: m.total_cycles,
                };
                if keep_metrics {
                    metrics.push(m);
                }
                Ok(done)
            }
        };
        cells.push(CellRun {
            label: spec.label,
            outcome,
            new_s,
            build_s,
            warm_s,
            run_s,
        });
    }
    Pass {
        compile_s,
        wall_s: pass_start.elapsed().as_secs_f64(),
        cells,
        spans,
        metrics,
    }
}

/// Runs passes until `budget` has passed and at least `min_passes` ran;
/// the first pass keeps its full metrics.
pub fn run_passes(
    bench: &BenchWorkload,
    seed: u64,
    traced: bool,
    budget: Duration,
    min_passes: usize,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed() < budget {
        let p = run_pass(bench, seed, traced, passes.is_empty());
        eprintln!(
            "perfbench: {} pass {}{}: wall {:.4} s, setup {:.4} s",
            bench.name,
            passes.len(),
            if traced { " (traced)" } else { "" },
            p.wall_s,
            p.setup_s(),
        );
        passes.push(p);
    }
    passes
}
