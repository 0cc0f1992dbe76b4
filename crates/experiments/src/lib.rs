//! Experiment definitions reproducing every table and figure of the
//! Trans-FW paper's evaluation.
//!
//! Each `figNN` module reproduces one figure: it builds the configurations,
//! runs the simulator over the Table III applications (in parallel, averaged
//! over seeds) and returns a [`Report`] whose rows mirror the figure's
//! series. The `repro` bin prints these reports (`repro --only figNN` for
//! one figure); EXPERIMENTS.md records paper-vs-measured values. The `soak`
//! bin runs the committed `scenarios/*.scn` robustness matrices.
//!
//! # Examples
//!
//! ```no_run
//! use experiments::{fig11, RunOpts};
//!
//! // Full-scale headline experiment (Fig. 11).
//! let report = fig11::run(&RunOpts::default());
//! println!("{report}");
//! ```

pub mod cli;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05_06;
pub mod fig07;
pub mod fig08;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod fig25;
pub mod fig26;
pub mod fig27;
pub mod fig28;
pub mod fig29;
pub mod fig30;
pub mod report;
pub mod runner;
pub mod soak;
pub mod spec;
pub mod table3;

pub use report::Report;
pub use runner::{average_cycles, parallel_map, run_json, run_one, RunOpts};
pub use spec::{scenario_specs, RunSpec};
