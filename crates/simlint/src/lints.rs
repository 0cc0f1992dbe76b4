//! The six lint passes, operating on [`crate::lexer`] token streams.
//!
//! Each pass is a pure function from tokens to [`Violation`]s; the inline
//! `simlint::allow` waiver mechanism is applied uniformly on top by
//! [`lint_file_with_allows`]. Keys are chosen to be stable under unrelated
//! edits (identifier names, enum names), never line numbers.

use crate::lexer::{self, Lexed, Tok, TokKind};
use crate::{Config, FileCtx, Lint, Violation};

/// A violation after waiver resolution.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Counts against the baseline.
    Fires(Violation),
    /// Waived by an inline `simlint::allow` directive.
    Waived(Violation),
}

/// Lints one file, ignoring inline waivers (the fixture-test entry point).
pub fn lint_file(ctx: &FileCtx, src: &str, cfg: &Config) -> Vec<Violation> {
    lint_file_with_allows(ctx, src, cfg)
        .into_iter()
        .map(|o| match o {
            Outcome::Fires(v) | Outcome::Waived(v) => v,
        })
        .collect()
}

/// Lints one file and resolves inline waivers: a `simlint::allow(<lint>)`
/// comment waives that lint's violations on the same line or the line
/// directly below (for directives placed on their own comment line).
pub fn lint_file_with_allows(ctx: &FileCtx, src: &str, cfg: &Config) -> Vec<Outcome> {
    let lexed = lexer::lex(src);
    let regions = lexer::test_regions(&lexed.tokens);
    let mut violations = Vec::new();
    det_collections(ctx, &lexed, &regions, cfg, &mut violations);
    det_wallclock(ctx, &lexed, cfg, &mut violations);
    panic_freedom(ctx, &lexed, &regions, cfg, &mut violations);
    protocol_exhaustive(ctx, &lexed, &regions, cfg, &mut violations);
    protocol_transition(ctx, &lexed, &regions, cfg, &mut violations);
    violations
        .into_iter()
        .map(|v| {
            let waived = lexed.allows.iter().any(|a| {
                a.lint == v.lint.name() && (a.line == v.line || a.line + 1 == v.line)
            });
            if waived {
                Outcome::Waived(v)
            } else {
                Outcome::Fires(v)
            }
        })
        .collect()
}

/// `det-collections`: raw `HashMap`/`HashSet` in non-test code of a
/// sim-state crate. Hash collections iterate in a per-process-random
/// order (`RandomState`), so any state they back can replay differently
/// run to run; `DetMap`/`DetSet` are the drop-in ordered replacements.
fn det_collections(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_regions: &[(usize, usize)],
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    if !cfg.sim_state_crates.contains(&ctx.crate_dir) || ctx.is_test_file {
        return;
    }
    for tok in &lexed.tokens {
        let Some(name) = tok.ident() else { continue };
        if (name == "HashMap" || name == "HashSet")
            && !lexer::in_regions(test_regions, tok.line)
        {
            out.push(Violation {
                lint: Lint::DetCollections,
                file: ctx.rel_path.clone(),
                line: tok.line,
                key: name.to_string(),
                message: format!(
                    "raw `{name}` in sim-state crate {}; use `sim_core::det::{}` \
                     so iteration order is identical on every run",
                    ctx.crate_dir,
                    if name == "HashMap" { "DetMap" } else { "DetSet" },
                ),
            });
        }
    }
}

/// `det-wallclock`: wall-clock time or ambient randomness anywhere in the
/// simulator (test code included — a test that consults the host clock is
/// a flaky test). Simulated time is `Cycle`s; randomness is the seeded
/// `SimRng`.
fn det_wallclock(ctx: &FileCtx, lexed: &Lexed, _cfg: &Config, out: &mut Vec<Violation>) {
    for (i, tok) in lexed.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        let key = match name {
            "Instant" | "SystemTime" | "thread_rng" => name.to_string(),
            "random" => {
                // Only the ambient `rand::random` path form; a method or
                // field named `random` on the seeded RNG is fine.
                let is_path = i >= 3
                    && lexed.tokens[i - 1].is_punct(':')
                    && lexed.tokens[i - 2].is_punct(':')
                    && lexed.tokens[i - 3].is_ident("rand");
                if !is_path {
                    continue;
                }
                "rand::random".to_string()
            }
            _ => continue,
        };
        out.push(Violation {
            lint: Lint::DetWallclock,
            file: ctx.rel_path.clone(),
            line: tok.line,
            key: key.clone(),
            message: format!(
                "`{key}` is nondeterministic; simulated time is `Cycle`s and \
                 randomness comes from the seeded `SimRng`"
            ),
        });
    }
}

/// Rust keywords that may legitimately precede a `[` without the bracket
/// being an index expression (slice patterns, attribute positions, etc.).
const NON_INDEX_PRECEDERS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "for", "while",
    "loop", "move", "dyn", "as", "break", "continue", "where", "impl", "fn",
    "pub", "use", "crate", "super", "const", "static", "type", "struct", "enum",
    "mod", "trait", "unsafe", "async", "await", "yield", "box",
];

/// `panic-freedom`: `.unwrap()`, `.expect(` and direct `container[index]`
/// expressions in the event-loop hot paths, outside test code. A panic
/// mid-event tears down the run and loses the checkpoint window; hot-path
/// code must degrade through `Result`/`Option` instead.
fn panic_freedom(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_regions: &[(usize, usize)],
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    if !cfg.hot_path_files.contains(&ctx.rel_path) || ctx.is_test_file {
        return;
    }
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if lexer::in_regions(test_regions, tok.line) {
            continue;
        }
        match &tok.kind {
            TokKind::Ident(name) if name == "unwrap" || name == "expect" => {
                let is_method_call = i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                if is_method_call {
                    out.push(Violation {
                        lint: Lint::PanicFreedom,
                        file: ctx.rel_path.clone(),
                        line: tok.line,
                        key: name.clone(),
                        message: format!(
                            "`.{name}()` can panic mid-event; hot-path code must \
                             handle the failure (or recover, e.g. \
                             `unwrap_or_else(PoisonError::into_inner)`)"
                        ),
                    });
                }
            }
            TokKind::Punct('[') => {
                // An index expression's `[` directly follows the indexed
                // expression: an identifier, `)`, or `]`. Anything else
                // (slice literals, patterns, attributes, `vec![`) does not.
                let is_index = i >= 1
                    && match &toks[i - 1].kind {
                        TokKind::Ident(prev) => {
                            !NON_INDEX_PRECEDERS.contains(&prev.as_str())
                        }
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        TokKind::Punct(_) | TokKind::Num(_) => false,
                    };
                if is_index {
                    out.push(Violation {
                        lint: Lint::PanicFreedom,
                        file: ctx.rel_path.clone(),
                        line: tok.line,
                        key: "index".to_string(),
                        message: "direct indexing panics on out-of-bounds; use \
                                  `.get()` or justify in the baseline"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// `protocol-exhaustive`: a `_ =>` arm in a match whose arms name one of
/// the protocol enums. Wildcards silently swallow future variants; every
/// protocol handler must fail to compile when the protocol grows.
fn protocol_exhaustive(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_regions: &[(usize, usize)],
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    if ctx.is_test_file {
        return;
    }
    let toks = &lexed.tokens;
    let bodies = match_bodies(toks);
    for &(kw, body_start, body_end) in &bodies {
        if lexer::in_regions(test_regions, toks[kw].line) {
            continue;
        }
        // Direct tokens of this match's arms: exclude any nested match
        // bodies (they are linted as their own entries in `bodies`).
        let nested: Vec<(usize, usize)> = bodies
            .iter()
            .filter(|&&(_, s, e)| s > body_start && e <= body_end)
            .map(|&(_, s, e)| (s, e))
            .collect();
        let direct = |idx: usize| !nested.iter().any(|&(s, e)| idx > s && idx < e);

        // Which protocol enum (if any) the arms name: `Enum::Variant`.
        let mut enum_name: Option<&str> = None;
        for i in body_start + 1..body_end {
            if !direct(i) {
                continue;
            }
            if let TokKind::Ident(name) = &toks[i].kind {
                if cfg.protocol_enums.iter().any(|e| e == name)
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                {
                    enum_name = Some(name);
                    break;
                }
            }
        }
        let Some(enum_name) = enum_name else { continue };
        for i in body_start + 1..body_end {
            if direct(i)
                && toks[i].is_ident("_")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('='))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('>'))
            {
                out.push(Violation {
                    lint: Lint::ProtocolExhaustive,
                    file: ctx.rel_path.clone(),
                    line: toks[i].line,
                    key: format!("wildcard-arm({enum_name})"),
                    message: format!(
                        "`_ =>` in a match over `{enum_name}` silently swallows \
                         future protocol variants; list every variant explicitly"
                    ),
                });
            }
        }
    }
}

/// `protocol-transition`: a `match` whose scrutinee or arms name
/// `ProtocolEvent`, outside `crates/mgpu/src/protocol`. Transition
/// semantics must live in the one module the simulator and the `simcheck`
/// model checker both execute; a handler elsewhere would let the two drift
/// apart, and the checker would silently verify something the simulator no
/// longer does.
fn protocol_transition(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_regions: &[(usize, usize)],
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    if ctx.rel_path.starts_with(&cfg.transition_home) || ctx.is_test_file {
        return;
    }
    let toks = &lexed.tokens;
    let bodies = match_bodies(toks);
    for &(kw, body_start, body_end) in &bodies {
        if lexer::in_regions(test_regions, toks[kw].line) {
            continue;
        }
        // Exclude nested match bodies: they are their own entries.
        let nested: Vec<(usize, usize)> = bodies
            .iter()
            .filter(|&&(_, s, e)| s > body_start && e <= body_end)
            .map(|&(_, s, e)| (s, e))
            .collect();
        let names_enum = (kw + 1..body_end).any(|i| {
            let direct = !nested.iter().any(|&(s, e)| i > s && i < e);
            direct && toks[i].is_ident(&cfg.transition_enum)
        });
        if names_enum {
            out.push(Violation {
                lint: Lint::ProtocolTransition,
                file: ctx.rel_path.clone(),
                line: toks[kw].line,
                key: format!("match({})", cfg.transition_enum),
                message: format!(
                    "`match` over `{}` outside `{}`; transition logic must \
                     stay in the shared module the simulator and the model \
                     checker both execute",
                    cfg.transition_enum, cfg.transition_home
                ),
            });
        }
    }
}

/// Finds every `match` expression: returns `(match keyword index,
/// body-open-brace index, body-close-brace index)` for each, including
/// nested matches.
fn match_bodies(toks: &[Tok]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_ident("match") {
            continue;
        }
        // `match` used as a path segment or macro name is impossible (it
        // is a keyword); scan the scrutinee for the body `{` at zero
        // paren/bracket depth.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut open = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                TokKind::Punct(';') if depth == 0 => break, // malformed
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut brace = 0i32;
        let mut k = open;
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct('{') => brace += 1,
                TokKind::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        out.push((i, open, k));
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    out
}

/// `metrics-complete`: every `pub` field of the metrics struct must appear
/// by name inside the serializer function. Destructuring the struct (the
/// idiom `run_json` uses) makes a missing field a compile error *only* if
/// no `..` rest pattern is used — this lint closes that hole and also
/// catches a field being destructured but dropped.
pub fn lint_metrics(metrics_src: &str, serializer_src: &str, cfg: &Config) -> Vec<Violation> {
    let (metrics_file, struct_name) = &cfg.metrics_struct;
    let (ser_file, fn_name) = &cfg.metrics_serializer;
    let mut out = Vec::new();

    let fields = pub_struct_fields(&lexer::lex(metrics_src).tokens, struct_name);
    if fields.is_empty() {
        out.push(Violation {
            lint: Lint::MetricsComplete,
            file: metrics_file.clone(),
            line: 1,
            key: format!("struct-not-found({struct_name})"),
            message: format!("could not locate `struct {struct_name}` (or it has no pub fields)"),
        });
        return out;
    }
    let ser_toks = lexer::lex(serializer_src).tokens;
    let Some((fn_line, body)) = fn_body_idents(&ser_toks, fn_name) else {
        out.push(Violation {
            lint: Lint::MetricsComplete,
            file: ser_file.clone(),
            line: 1,
            key: format!("fn-not-found({fn_name})"),
            message: format!("could not locate `fn {fn_name}`"),
        });
        return out;
    };
    for field in fields {
        if !body.contains(&field) {
            out.push(Violation {
                lint: Lint::MetricsComplete,
                file: ser_file.clone(),
                line: fn_line,
                key: format!("missing-field({field})"),
                message: format!(
                    "`{struct_name}.{field}` is public but never appears in \
                     `{fn_name}`; every metric must be serialized"
                ),
            });
        }
    }
    out
}

/// Collects the `pub` field names of `struct name { ... }`.
fn pub_struct_fields(toks: &[Tok], name: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("struct") && toks[i + 1].is_ident(name) {
            // Find the body `{`, then scan depth-1 `pub field:` patterns.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') {
                    return fields; // unit/tuple struct
                }
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            return fields;
                        }
                    }
                    TokKind::Ident(id)
                        if id == "pub"
                            && depth == 1
                            && toks.get(j + 1).and_then(Tok::ident).is_some()
                            && toks.get(j + 2).is_some_and(|t| t.is_punct(':')) =>
                    {
                        if let Some(field) = toks[j + 1].ident() {
                            fields.push(field.to_string());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        i += 1;
    }
    fields
}

/// Finds `fn name` and returns its line plus every identifier in its body.
fn fn_body_idents(toks: &[Tok], name: &str) -> Option<(usize, Vec<String>)> {
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].is_ident(name) {
            let fn_line = toks[i].line;
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            let mut idents = Vec::new();
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            return Some((fn_line, idents));
                        }
                    }
                    TokKind::Ident(id) => idents.push(id.clone()),
                    _ => {}
                }
                j += 1;
            }
            return Some((fn_line, idents));
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::trans_fw()
    }

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        lint_file(&FileCtx::new(path), src, &cfg())
    }

    #[test]
    fn hashmap_flagged_in_sim_state_crate_only() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n";
        let v = lint("crates/tlb/src/lib.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.lint == Lint::DetCollections));
        // experiments is not a sim-state crate
        assert!(lint("crates/experiments/src/runner.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_cfg_test_is_fine() {
        let src = "struct S;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(lint("crates/cuckoo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wallclock_flagged_everywhere_but_waivable() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let v = lint("crates/experiments/src/bin/repro.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].key, "Instant");
        let waived = "// simlint::allow(det-wallclock): harness timing\nfn f() { let t = std::time::Instant::now(); }\n";
        let outs = lint_file_with_allows(
            &FileCtx::new("crates/experiments/src/bin/repro.rs"),
            waived,
            &cfg(),
        );
        assert!(matches!(outs.as_slice(), [Outcome::Waived(_)]));
    }

    #[test]
    fn rand_random_needs_the_path_form() {
        let flagged = "fn f() { let x: u8 = rand::random(); }\n";
        assert_eq!(lint("crates/mgpu/src/policy.rs", flagged).len(), 1);
        let fine = "fn f(rng: &mut SimRng) { let x = rng.random(); }\n";
        assert!(lint("crates/mgpu/src/policy.rs", fine).is_empty());
    }

    #[test]
    fn unwrap_and_indexing_in_hot_path() {
        let src = "fn f(v: &[u32], m: M) { let a = v[0]; m.get().unwrap(); }\n";
        let v = lint("crates/mgpu/src/system.rs", src);
        let keys: Vec<&str> = v.iter().map(|v| v.key.as_str()).collect();
        assert_eq!(keys, ["index", "unwrap"]);
        // Same code outside a hot-path file is not flagged.
        assert!(lint("crates/mgpu/src/policy.rs", src).is_empty());
    }

    #[test]
    fn slice_patterns_attrs_and_macros_are_not_indexing() {
        let src = "\
#[derive(Debug)]\n\
struct S;\n\
fn f() { let [a, b] = pair(); let v = vec![1, 2]; let w: [u8; 4] = make(); }\n";
        assert!(lint("crates/mgpu/src/system.rs", src).is_empty());
    }

    #[test]
    fn wildcard_over_protocol_enum_flagged() {
        let src = "\
fn f(e: Event) {\n\
    match e {\n\
        Event::Tick => go(),\n\
        _ => {}\n\
    }\n\
}\n";
        let v = lint("crates/mgpu/src/policy.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].key, "wildcard-arm(Event)");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn wildcard_over_other_enum_is_fine() {
        let src = "fn f(k: TxnKind) { match k { TxnKind::Read => r(), _ => w() } }\n";
        assert!(lint("crates/mgpu/src/policy.rs", src).is_empty());
    }

    #[test]
    fn nested_match_wildcards_attribute_to_the_inner_match() {
        // Outer match over Event is exhaustive; inner match over a plain
        // enum uses a wildcard — no violation. And vice versa.
        let fine = "\
fn f(e: Event) {\n\
    match e {\n\
        Event::Tick => match mode { Mode::A => a(), _ => b() },\n\
        Event::Stop => s(),\n\
    }\n\
}\n";
        assert!(lint("crates/mgpu/src/policy.rs", fine).is_empty());
        let bad = "\
fn f(m: Mode) {\n\
    match m {\n\
        Mode::A => match e { Event::Tick => t(), _ => u() },\n\
        _ => b(),\n\
    }\n\
}\n";
        let v = lint("crates/mgpu/src/policy.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn protocol_event_match_outside_the_transition_module_flagged() {
        let src = "\
fn apply(e: &ProtocolEvent) {\n\
    match e {\n\
        ProtocolEvent::Map { .. } => m(),\n\
        ProtocolEvent::Unmap { .. } => u(),\n\
    }\n\
}\n";
        let v = lint("crates/mgpu/src/host.rs", src);
        let transition: Vec<_> = v
            .iter()
            .filter(|v| v.lint == Lint::ProtocolTransition)
            .collect();
        assert_eq!(transition.len(), 1, "{v:?}");
        assert_eq!(transition[0].key, "match(ProtocolEvent)");
        assert_eq!(transition[0].line, 2);
        // The same match inside the shared transition module is the point.
        assert!(lint("crates/mgpu/src/protocol/mod.rs", src).is_empty());
        assert!(lint("crates/mgpu/src/protocol/model.rs", src).is_empty());
    }

    #[test]
    fn constructing_or_passing_protocol_events_elsewhere_is_fine() {
        // Only *matching* centralises transition logic; building events and
        // handing them to `protocol::step` is exactly the intended idiom.
        let src = "\
fn send(gpu: u32, vpn: u64) {\n\
    let e = ProtocolEvent::Unmap { gpu, vpn };\n\
    protocol::step(self, &e);\n\
    match color { Color::Red => r(), Color::Blue => b() }\n\
}\n";
        assert!(lint("crates/mgpu/src/policy.rs", src).is_empty());
    }

    #[test]
    fn metrics_lint_catches_missing_field() {
        let metrics = "pub struct RunMetrics { pub app: String, pub total_cycles: u64 }\n";
        let ser_ok = "pub fn run_json(m: &RunMetrics) -> String { fmt(m.app, m.total_cycles) }\n";
        assert!(lint_metrics(metrics, ser_ok, &cfg()).is_empty());
        let ser_bad = "pub fn run_json(m: &RunMetrics) -> String { fmt(m.app) }\n";
        let v = lint_metrics(metrics, ser_bad, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].key, "missing-field(total_cycles)");
    }
}
