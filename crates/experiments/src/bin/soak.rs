//! Scenario-driven soak runner: compiles every scenario committed in
//! `scenarios/<name>.scn`, runs its cells in parallel, checks each one
//! against the soak contracts (`experiments::soak`) and writes
//! `BENCH_<NAME>.json`, one `{"label":…,"metrics":<run_json>}` row per
//! cell. The summary prints each scenario's digest (overrides included)
//! and cell count. `--sanitize` runs every cell under the read-only shadow
//! sanitizer, so the output file is byte-identical either way. Bad
//! arguments exit 2 with the usage; a failed cell exits 1 and leaves no
//! output file.
//!
//! ```sh
//! cargo run --release -p experiments --bin soak -- <scenario>... [--scale S] [--seeds N] [--sanitize]
//! ```

use std::process::ExitCode;

use experiments::soak::{self, SoakArgs, USAGE};
use experiments::{cli, parallel_map, scenario_specs};

fn main() -> ExitCode {
    let committed = scn::committed_sources().unwrap_or_else(|e| cli::exit_usage(USAGE, &e));
    let known: Vec<String> = committed.iter().map(|(name, _)| name.clone()).collect();
    let args = soak::parse_args(std::env::args().skip(1), &known)
        .unwrap_or_else(|e| cli::exit_usage(USAGE, &e));
    for name in &args.scenarios {
        let i = known
            .iter()
            .position(|k| k == name)
            .expect("parse_args checked the name");
        if let Err(errors) = run_file(name, &committed[i].1, &args) {
            for e in errors {
                eprintln!("[soak] FAILED {e}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs every scenario in `scenarios/<name>.scn` (source `src`) and writes
/// its BENCH file.
fn run_file(name: &str, src: &str, args: &SoakArgs) -> Result<(), Vec<String>> {
    // simlint::allow(det-wallclock): harness progress timing, never fed into the sim
    let t0 = std::time::Instant::now();
    let mut scenarios = scn::compile(src).map_err(|e| vec![format!("scenarios/{name}.scn:{e}")])?;
    let mut specs = Vec::new();
    for sc in &mut scenarios {
        args.apply(sc);
        specs.extend(scenario_specs(sc).into_iter().map(|spec| {
            let label = format!("{}/{} seed {}", sc.name, spec.label, spec.cfg.seed);
            spec.labeled(label)
        }));
    }

    let results = parallel_map(specs, |spec| {
        let m = spec.run().map_err(|e| format!("{}: {e}", spec.label))?;
        soak::check_cell(&spec, &m)?;
        eprintln!(
            "[soak] {}: {} cycles, {} requests retired",
            spec.label, m.total_cycles, m.resilience.requests_retired
        );
        Ok(soak::row_json(&spec, &m))
    });
    let errors: Vec<String> = results.iter().filter_map(|r| r.clone().err()).collect();
    if !errors.is_empty() {
        return Err(errors);
    }
    let rows: Vec<String> = results.into_iter().flatten().collect();

    let file = format!("BENCH_{}.json", name.to_uppercase());
    std::fs::write(&file, format!("[{}]", rows.join(",")))
        .map_err(|e| vec![format!("{file}: {e}")])?;
    for sc in &scenarios {
        let (scenario, digest) = (&sc.name, sc.digest_hex());
        let (cells, seeds) = (sc.cells().len(), sc.seeds.len());
        eprintln!("[soak] {scenario} digest {digest}: {cells} cells x {seeds} seed(s)");
    }
    eprintln!(
        "[soak] {name}: {} cells clean in {:.1?}{} -> {file}",
        rows.len(),
        t0.elapsed(),
        if args.sanitize { ", sanitized" } else { "" }
    );
    Ok(())
}
