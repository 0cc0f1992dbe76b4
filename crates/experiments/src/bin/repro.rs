//! Full reproduction driver: regenerates every table and figure and writes
//! the collected reports to a file (or stdout).
//!
//! ```sh
//! cargo run --release -p experiments --bin repro -- [--scale S] [--seeds N] [--out FILE] [--only figNN]
//! ```

use std::fmt::Write as _;

use experiments::cli::{exit_usage, flag_value};
use experiments::{Report, RunOpts};

const USAGE: &str = "usage: repro [--scale S] [--seeds N] [--out FILE] [--only figNN]";

#[derive(Debug)]
struct Args {
    scale: f64,
    seeds: u64,
    out: Option<String>,
    only: Option<String>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scale: 1.0,
        seeds: 2,
        out: None,
        only: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => args.scale = flag_value(&mut it, "--scale")?,
            "--seeds" => args.seeds = flag_value(&mut it, "--seeds")?,
            "--out" => args.out = Some(flag_value(&mut it, "--out")?),
            "--only" => args.only = Some(flag_value(&mut it, "--only")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.scale.is_finite() && args.scale > 0.0) {
        return Err(format!(
            "--scale must be a positive number, got {}",
            args.scale
        ));
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let opts = RunOpts {
        scale: args.scale,
        seeds: (1..=args.seeds.max(1)).collect(),
    };

    type Runner = fn(&RunOpts) -> Vec<Report>;
    type BoxedRunner = Box<dyn Fn(&RunOpts) -> Vec<Report>>;
    let single = |f: fn(&RunOpts) -> Report| move |o: &RunOpts| vec![f(o)];
    let experiments_list: Vec<(&str, BoxedRunner)> = vec![
        ("table3", Box::new(single(experiments::table3::run))),
        ("fig02", Box::new(experiments::fig02::run as Runner)),
        ("fig03", Box::new(single(experiments::fig03::run))),
        ("fig04", Box::new(single(experiments::fig04::run))),
        ("fig05_06", Box::new(experiments::fig05_06::run as Runner)),
        ("fig07", Box::new(single(experiments::fig07::run))),
        ("fig08", Box::new(single(experiments::fig08::run))),
        ("fig11", Box::new(single(experiments::fig11::run))),
        ("fig12", Box::new(single(experiments::fig12::run))),
        ("fig13", Box::new(single(experiments::fig13::run))),
        ("fig14", Box::new(single(experiments::fig14::run))),
        ("fig15", Box::new(single(experiments::fig15::run))),
        ("fig16", Box::new(single(experiments::fig16::run))),
        ("fig17", Box::new(single(experiments::fig17::run))),
        ("fig18", Box::new(single(experiments::fig18::run))),
        ("fig19", Box::new(single(experiments::fig19::run))),
        ("fig20", Box::new(single(experiments::fig20::run))),
        ("fig21", Box::new(single(experiments::fig21::run))),
        ("fig22", Box::new(single(experiments::fig22::run))),
        ("fig23", Box::new(single(experiments::fig23::run))),
        ("fig24", Box::new(single(experiments::fig24::run))),
        ("fig25", Box::new(single(experiments::fig25::run))),
        ("fig26", Box::new(single(experiments::fig26::run))),
        ("fig27", Box::new(single(experiments::fig27::run))),
        ("fig28", Box::new(single(experiments::fig28::run))),
        ("fig29", Box::new(single(experiments::fig29::run))),
        ("fig30", Box::new(single(experiments::fig30::run))),
    ];

    let mut doc = String::new();
    let _ = writeln!(
        doc,
        "# Trans-FW reproduction run (scale {}, {} seed(s))\n",
        opts.scale,
        opts.seeds.len()
    );
    for (name, runner) in &experiments_list {
        if let Some(only) = &args.only {
            if !name.starts_with(only.as_str()) {
                continue;
            }
        }
        eprintln!("running {name}…");
        #[allow(clippy::disallowed_types, reason = "harness timing, never fed into the sim")]
        let t0 = std::time::Instant::now();
        for report in runner(&opts) {
            let _ = writeln!(doc, "```\n{report}```\n");
        }
        eprintln!("  {name} done in {:.1?}", t0.elapsed());
    }

    match args.out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<Args, String> {
        parse_args(argv.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_flags_and_rejects_malformed_input() {
        let a = parse("--scale 0.02 --seeds 1 --out r.md --only fig03").unwrap();
        assert_eq!((a.scale, a.seeds), (0.02, 1));
        assert_eq!(
            (a.out.as_deref(), a.only.as_deref()),
            (Some("r.md"), Some("fig03"))
        );
        assert_eq!(parse("--fast").unwrap_err(), "unknown flag --fast");
        assert_eq!(
            parse("--scale 0,05").unwrap_err(),
            "--scale: invalid value \"0,05\""
        );
        assert_eq!(parse("--seeds").unwrap_err(), "--seeds requires a value");
        assert!(parse("--scale -1").unwrap_err().contains("positive"));
    }
}
