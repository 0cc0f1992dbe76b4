//! Full reproduction driver: regenerates every table and figure of
//! `experiments::figures::FIGURES` and writes the collected reports to a
//! file (or stdout). Bad arguments, an unknown figure id included, exit 2
//! with the usage and the valid ids.
//!
//! ```sh
//! cargo run --release -p experiments --bin repro -- [--scale S] [--seeds N] [--out FILE] [--only ID]
//! ```

use std::fmt::Write as _;

use experiments::cli::{exit_usage, flag_value};
use experiments::figures::{figure, FIGURES};
use experiments::RunOpts;

const USAGE: &str = "usage: repro [--scale S] [--seeds N] [--out FILE] [--only ID]";

#[derive(Debug)]
struct Args {
    scale: f64,
    seeds: u64,
    out: Option<String>,
    only: Option<String>,
}

/// The valid `--only` ids, space-separated.
fn ids() -> String {
    FIGURES
        .iter()
        .map(|(id, _)| *id)
        .collect::<Vec<_>>()
        .join(" ")
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
    if args.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if let Some(only) = &args.only {
        if figure(only).is_none() {
            return Err(format!("unknown figure id \"{only}\""));
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| exit_usage(&format!("{USAGE}\n  figure ids: {}", ids()), &e));
    let opts = RunOpts {
        scale: args.scale,
        seeds: (1..=args.seeds).collect(),
    };

    let mut doc = String::new();
    let _ = writeln!(
        doc,
        "# Trans-FW reproduction run (scale {}, {} seed(s))\n",
        opts.scale,
        opts.seeds.len()
    );
    for (name, run) in FIGURES {
        if args.only.as_ref().is_some_and(|only| only != name) {
            continue;
        }
        eprintln!("running {name}…");
        #[allow(
            clippy::disallowed_types,
            reason = "harness timing, never fed into the sim"
        )]
        let t0 = std::time::Instant::now();
        for report in run(&opts) {
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
        assert_eq!(
            parse("--seeds 0").unwrap_err(),
            "--seeds must be at least 1"
        );
        // `--only` names one registry id exactly: no prefixes, no unknowns.
        for id in ["fig1", "fig99", "fig06", "fig05"] {
            assert_eq!(
                parse(&format!("--only {id}")).unwrap_err(),
                format!("unknown figure id \"{id}\"")
            );
        }
        for (id, _) in FIGURES {
            assert_eq!(
                parse(&format!("--only {id}")).unwrap().only.as_deref(),
                Some(*id)
            );
        }
    }
}
