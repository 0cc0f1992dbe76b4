//! Round-trip and digest-stability properties over the committed
//! scenarios: parse → print → parse is a fixed point, and the digest is a
//! function of scenario *semantics*, not formatting.

use sim_core::SimRng;

fn committed_sources() -> Vec<(String, String)> {
    let out = scn::committed_sources().expect("readable scenarios/ directory");
    assert!(out.len() >= 4, "expected the committed scenarios");
    out
}

/// parse(print(parse(src))) == parse(src), with an identical digest, for
/// every committed scenario — and the canonical form is itself a fixed
/// point of printing.
#[test]
fn canonical_print_is_a_fixed_point_over_committed_scenarios() {
    for (name, src) in committed_sources() {
        let scenarios = scn::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for sc in scenarios {
            let canon = sc.canonical();
            let reparsed =
                scn::compile_one(&canon).unwrap_or_else(|e| panic!("{name}/{}: {e}", sc.name));
            assert_eq!(sc, reparsed, "{name}/{}: IR round-trip", sc.name);
            assert_eq!(sc.digest(), reparsed.digest(), "{name}/{}", sc.name);
            assert_eq!(
                canon,
                reparsed.canonical(),
                "{name}/{}: canonical form must be a printing fixed point",
                sc.name
            );
        }
    }
}

/// Seeded formatting fuzz: random whitespace and comment injection at
/// token boundaries never changes the digest. This is the cache-key
/// soundness property — two sources that differ only in formatting must
/// hit the same cache entry.
#[test]
fn formatting_noise_never_changes_the_digest() {
    let mut rng = SimRng::new(0x00d1_6e57);
    for (name, src) in committed_sources() {
        let base: Vec<u64> = scn::compile(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .iter()
            .map(scn::Scenario::digest)
            .collect();
        for _ in 0..50 {
            let mut noisy = String::new();
            for line in src.lines() {
                // Leading indentation noise.
                for _ in 0..rng.gen_index(4) {
                    noisy.push(if rng.chance(0.5) { ' ' } else { '\t' });
                }
                noisy.push_str(line);
                // Trailing comment noise on structural lines only: inside
                // a multi-line list a comment would be harmless too, but
                // keeping it unconditional is simplest and still valid.
                if rng.chance(0.3) {
                    noisy.push_str("  # noise");
                }
                noisy.push('\n');
                if rng.chance(0.2) {
                    noisy.push('\n');
                }
            }
            let digests: Vec<u64> = scn::compile(&noisy)
                .unwrap_or_else(|e| panic!("{name} with formatting noise: {e}"))
                .iter()
                .map(scn::Scenario::digest)
                .collect();
            assert_eq!(base, digests, "{name}: formatting noise changed a digest");
        }
    }
}

/// Digests are unique across every committed scenario (16-cell sweeps,
/// soak matrices, eight oversubscription points): no accidental
/// collisions in the cache keyspace we actually ship.
#[test]
fn committed_scenario_digests_are_distinct() {
    let mut digests = Vec::new();
    for (name, src) in committed_sources() {
        for sc in scn::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")) {
            digests.push((sc.digest(), format!("{name}/{}", sc.name)));
        }
    }
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(
                digests[i].0, digests[j].0,
                "digest collision: {} vs {}",
                digests[i].1, digests[j].1
            );
        }
    }
}

/// Sugar desugars to the same digest as its expansion: `seeds = 2` is
/// exactly `seeds = [1, 2]`, and a scalar axis is a one-element list.
#[test]
fn sugar_and_expansion_share_a_digest() {
    let sugared = r#"
        scenario "s" {
            seeds = 2
            placement = first_touch
            workload = phase_shift
        }
    "#;
    let expanded = r#"
        scenario "s" {
            seeds = [1, 2]
            placement = [first_touch]
            workload = [phase_shift(scale = 1.0)]
            faults = [none]
        }
    "#;
    let a = scn::compile_one(sugared).expect("sugared compiles");
    let b = scn::compile_one(expanded).expect("expanded compiles");
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
}

/// One-token semantic edits each produce a distinct digest: the cache can
/// never serve a stale result for an edited scenario.
#[test]
fn single_token_semantic_edits_change_the_digest() {
    let base = r#"
        scenario "s" {
            seeds = 2
            scale = 0.1
            transfw { enabled = true }
            placement = first_touch
            workload = app(name = "KM")
        }
    "#;
    let d0 = scn::compile_one(base).expect("base compiles").digest();
    let edits = [
        base.replace("seeds = 2", "seeds = 3"),
        base.replace("scale = 0.1", "scale = 0.2"),
        base.replace("enabled = true", "enabled = false"),
        base.replace("first_touch", "read_duplicate"),
        base.replace("\"KM\"", "\"PR\""),
    ];
    let mut seen = vec![d0];
    for edit in &edits {
        let d = scn::compile_one(edit).expect("edited scenario compiles").digest();
        assert!(!seen.contains(&d), "semantic edit failed to change the digest:\n{edit}");
        seen.push(d);
    }
}
