//! Seeded pseudo-property fuzzing of the `.scn` front end.
//!
//! The contract under test: `scn::compile` (lexer → parser → sema) returns
//! a positioned [`scn::Error`] for every malformed input and *never*
//! panics — the daemon feeds untrusted scenario text straight into it. The
//! generators are seeded with [`sim_core::SimRng`], so every run explores
//! the same inputs and a failure reproduces deterministically.

use sim_core::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Compiles `src`, converting a panic into a test failure that prints the
/// offending input.
fn must_not_panic(src: &str) {
    let r = catch_unwind(AssertUnwindSafe(|| {
        let _ = scn::compile(src);
    }));
    assert!(r.is_ok(), "compile panicked on input:\n{src}");
}

/// Random character soup over an alphabet biased toward the grammar's
/// structural characters, so the parser sees deeply confusing but
/// plausible-looking streams.
#[test]
fn random_character_soup_never_panics() {
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', '(', ')', '=', ',', '"', '\\', '#', '/', '.', '_', '-', '+', 'e',
        'E', 'x', '0', '1', '9', 'a', 'z', 'A', 'Z', ' ', '\t', '\n', 'é', '∞', '\u{0}',
    ];
    let mut rng = SimRng::new(0x5c4e_f022);
    for _ in 0..4_000 {
        let len = rng.gen_index(200);
        let src: String = (0..len)
            .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())])
            .collect();
        must_not_panic(&src);
    }
}

/// Random streams of syntactically valid *tokens* in random order: every
/// token lexes, so this drives the parser and sema past the lexer into
/// every recovery path.
#[test]
fn random_token_streams_never_panic() {
    const TOKENS: &[&str] = &[
        "scenario", "system", "transfw", "overload", "oversub", "seeds", "scale", "placement",
        "workload", "faults", "enabled", "none", "true", "false", "gpus", "app", "name",
        "plan", "events", "gpu_offline", "uniform", "burst", "ideal", "watchdog", "{", "}",
        "[", "]", "(", ")", "=", ",", "\"KM\"", "\"x\"", "0", "1", "2", "4096", "0.1",
        "1e3", "100000000000", "0.0",
    ];
    let mut rng = SimRng::new(0x0070_c311);
    for _ in 0..4_000 {
        let len = rng.gen_index(80);
        let src: String = (0..len)
            .map(|_| TOKENS[rng.gen_index(TOKENS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        must_not_panic(&src);
    }
}

/// Single random mutations (delete / insert / duplicate / replace one
/// byte position's character) of every committed scenario: near-valid
/// inputs stress the deepest sema paths. When a mutant still compiles, its
/// canonical form must round-trip with an identical digest.
#[test]
fn mutated_committed_scenarios_never_panic() {
    let sources = scn::committed_sources().expect("readable scenarios/ directory");
    assert!(sources.len() >= 4, "expected the committed scenarios");

    const INSERTS: &[char] = &['{', '}', '=', '"', ',', '(', ')', '[', ']', '0', '9', 'x', '.'];
    let mut rng = SimRng::new(0x9e37_79b9);
    for (_, src) in &sources {
        let chars: Vec<char> = src.chars().collect();
        for _ in 0..400 {
            let at = rng.gen_index(chars.len());
            let mut mutant: Vec<char> = chars.clone();
            match rng.gen_index(4) {
                0 => {
                    mutant.remove(at);
                }
                1 => mutant.insert(at, INSERTS[rng.gen_index(INSERTS.len())]),
                2 => {
                    let c = mutant[at];
                    mutant.insert(at, c);
                }
                _ => mutant[at] = INSERTS[rng.gen_index(INSERTS.len())],
            }
            let mutant: String = mutant.into_iter().collect();
            let r = catch_unwind(AssertUnwindSafe(|| scn::compile(&mutant)));
            let Ok(outcome) = r else {
                panic!("compile panicked on mutant:\n{mutant}");
            };
            if let Ok(scenarios) = outcome {
                for sc in scenarios {
                    let reparsed = scn::compile_one(&sc.canonical())
                        .expect("canonical form of a valid mutant recompiles");
                    assert_eq!(sc, reparsed, "mutant canonical round-trip");
                    assert_eq!(sc.digest(), reparsed.digest());
                }
            }
        }
    }
}

/// Truncation at every character boundary of a valid scenario: incomplete
/// input is the classic recursive-descent panic trap.
#[test]
fn every_prefix_of_a_valid_scenario_never_panics() {
    let dir = scn::find_scenarios_dir().expect("scenarios/ directory exists");
    let src = std::fs::read_to_string(dir.join("policy_sweep.scn")).expect("committed scenario");
    let chars: Vec<char> = src.chars().collect();
    for end in 0..chars.len() {
        let prefix: String = chars[..end].iter().collect();
        must_not_panic(&prefix);
    }
}
