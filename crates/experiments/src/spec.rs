//! The shared run-specification builder: one path from a declarative spec
//! to a running [`System`].
//!
//! A [`RunSpec`] is one complete [`SystemConfig`] plus its workload. The
//! `.scn` scenario compiler's cells expand into `RunSpec`s
//! ([`scenario_specs`]), the `soak` runner and the benchmark execute them,
//! and all of them go through [`RunSpec::run`], which is the *only*
//! spec-to-`System` path.
//!
//! # Examples
//!
//! ```
//! use experiments::spec::RunSpec;
//! use mgpu::SystemConfig;
//! use workloads::WorkloadSpec;
//!
//! let spec = RunSpec::new(
//!     SystemConfig::with_transfw(),
//!     WorkloadSpec::app("FIR", 0.05).unwrap(),
//! )
//! .with_seed(7);
//! let m = spec.run().expect("clean run");
//! assert!(m.total_cycles > 0);
//! ```

use mgpu::{RunMetrics, System, SystemConfig};
use sim_core::SimError;
use workloads::WorkloadSpec;

/// One fully resolved simulation run: the complete system configuration
/// (seed included) plus the workload to execute on it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Complete system configuration, including the seed, fault plan,
    /// placement policy and every subsystem knob.
    pub cfg: SystemConfig,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Cell label for reports (defaults to the workload label).
    pub label: String,
}

impl RunSpec {
    /// Builds a spec from a configuration and workload.
    pub fn new(cfg: SystemConfig, workload: WorkloadSpec) -> Self {
        let label = workload.label();
        Self {
            cfg,
            workload,
            label,
        }
    }

    /// The same spec with a different cell label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The same spec with the simulation seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// The same spec with the workload's work-scale factor replaced.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.workload = self.workload.with_scale(scale);
        self
    }

    /// Executes the run. This is the single spec-to-`System` path: every
    /// bin and scenario cell funnels through here.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error when the run fails a liveness or
    /// invariant check.
    pub fn run(&self) -> Result<RunMetrics, SimError> {
        System::new(self.cfg.clone()).run(self.workload.build().as_ref())
    }
}

/// Expands a compiled `.scn` scenario into the full run matrix: every
/// sweep cell ([`scn::Scenario::cells`], placement → workload → fault
/// order) at every seed, seeds innermost. Each [`RunSpec`] carries the
/// cell's complete configuration with the seed applied; the golden
/// equivalence test pins the committed scenarios to the hand-built
/// configurations they replaced.
pub fn scenario_specs(sc: &scn::Scenario) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for cell in sc.cells() {
        for &seed in &sc.seeds {
            specs.push(
                RunSpec::new(cell.cfg.clone(), cell.workload.clone())
                    .labeled(cell.label.clone())
                    .with_seed(seed),
            );
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_one;

    #[test]
    fn run_spec_is_the_same_path_as_run_one() {
        let cfg = SystemConfig::with_transfw();
        let spec = RunSpec::new(cfg.clone(), WorkloadSpec::app("FIR", 0.05).unwrap())
            .with_seed(3);
        let direct = run_one(cfg, &*spec.workload.build(), 3);
        let via_spec = spec.run().expect("clean run");
        assert_eq!(direct, via_spec, "two paths to System must not exist");
    }

    #[test]
    fn with_seed_and_scale_round_trip() {
        let spec = RunSpec::new(
            SystemConfig::baseline(),
            WorkloadSpec::Burst { scale: 1.0, load: 2 },
        )
        .with_seed(9)
        .with_scale(0.05);
        assert_eq!(spec.cfg.seed, 9);
        assert_eq!(spec.workload.scale(), 0.05);
        assert_eq!(spec.label, "burst@2x");
    }
}
