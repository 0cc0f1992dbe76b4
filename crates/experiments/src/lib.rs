//! Experiment definitions reproducing every table and figure of the
//! Trans-FW paper's evaluation.
//!
//! [`figures::FIGURES`] registers each table and figure under its
//! `repro --only` id. A figure builds its configurations, runs the
//! simulator over the Table III applications (in parallel, averaged over
//! seeds) through the module's per-app driver and returns
//! [`Report`]s whose rows mirror the figure's series. The `repro` bin
//! prints these reports; EXPERIMENTS.md records paper-vs-measured values.
//! The `soak` bin runs the committed `scenarios/*.scn` robustness matrices.
//!
//! # Examples
//!
//! ```no_run
//! use experiments::{figures, RunOpts};
//!
//! // Full-scale headline experiment (Fig. 11).
//! let fig11 = figures::figure("fig11").expect("registered id");
//! for report in fig11(&RunOpts::default()) {
//!     println!("{report}");
//! }
//! ```

pub mod cli;
pub mod figures;
pub mod report;
pub mod runner;
pub mod soak;
pub mod spec;

pub use report::Report;
pub use runner::{average_cycles, parallel_map, run_json, run_one, RunOpts};
pub use spec::{scenario_specs, RunSpec};
