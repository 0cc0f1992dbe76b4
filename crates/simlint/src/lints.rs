//! The token lints, operating on [`crate::lexer`] token streams, and the
//! inline-waiver resolution shared by every pass.
//!
//! Each lint is a pure function from tokens to [`Violation`]s; the inline
//! `simlint::allow` waiver mechanism is applied uniformly on top by
//! `apply_allows`. Keys are chosen to be stable under unrelated edits
//! (identifier names, enum names), never line numbers.

use crate::lexer::{self, Lexed, Tok, TokKind};
use crate::symbols::Workspace;
use crate::{Config, FileCtx, Lint, Violation};

/// Lints one file with the token lints, ignoring inline waivers (the
/// fixture-test entry point).
pub fn lint_file(ctx: &FileCtx, src: &str, cfg: &Config) -> Vec<Violation> {
    let lexed = lexer::lex(src);
    let regions = lexer::test_regions(&lexed.tokens);
    let mut out = Vec::new();
    lint_tokens(ctx, &lexed, &regions, cfg, &mut out);
    out
}

/// Runs every token lint over one already-lexed file.
pub(crate) fn lint_tokens(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_regions: &[(usize, usize)],
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    protocol_exhaustive(ctx, lexed, test_regions, cfg, out);
    protocol_transition(ctx, lexed, test_regions, cfg, out);
}

/// Splits `found` into unwaived and waived findings. A
/// `simlint::allow(<lint>)` comment waives that lint's findings on its own
/// line or the line directly below (for directives on their own comment
/// line). A directive that names no lint, or waives nothing, is itself an
/// `unfulfilled-allow` finding, so dead waivers cannot pile up.
pub(crate) fn apply_allows(
    ws: &Workspace,
    found: Vec<Violation>,
) -> (Vec<Violation>, Vec<Violation>) {
    let mut used: Vec<Vec<bool>> = ws
        .units
        .iter()
        .map(|u| vec![false; u.lexed.allows.len()])
        .collect();
    let mut violations = Vec::new();
    let mut waived = Vec::new();
    for v in found {
        let covers = |a: &lexer::AllowDirective| {
            a.lint == v.lint.name() && (a.line == v.line || a.line + 1 == v.line)
        };
        let hit = ws.units.iter().position(|u| u.ctx.rel_path == v.file).and_then(|ui| {
            ws.units[ui].lexed.allows.iter().position(covers).map(|ai| (ui, ai))
        });
        match hit {
            Some((ui, ai)) => {
                used[ui][ai] = true;
                waived.push(v);
            }
            None => violations.push(v),
        }
    }
    for (unit, used) in ws.units.iter().zip(&used) {
        for (a, _) in unit.lexed.allows.iter().zip(used).filter(|(_, &u)| !u) {
            let (key, message) = if Lint::from_name(&a.lint).is_some() {
                (
                    format!("unfulfilled({})", a.lint),
                    format!(
                        "`simlint::allow({})` waives nothing on its line or the \
                         next; delete the stale waiver",
                        a.lint
                    ),
                )
            } else {
                (
                    format!("unknown-lint({})", a.lint),
                    format!("`simlint::allow({})` names no simlint lint", a.lint),
                )
            };
            violations.push(Violation {
                lint: Lint::UnfulfilledAllow,
                file: unit.ctx.rel_path.clone(),
                line: a.line,
                key,
                message,
            });
        }
    }
    (violations, waived)
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
    fn stale_and_unknown_waivers_are_findings() {
        let src = "\
fn f(e: Event) {\n\
    match e {\n\
        Event::Tick => go(),\n\
        // simlint::allow(protocol-exhaustive): the arm below\n\
        _ => {}\n\
    }\n\
}\n\
// simlint::allow(protocol-transition): nothing here to waive\n\
fn g() {}\n\
// simlint::allow(no-such-lint)\n\
/// Doc comments only quote the syntax: simlint::allow(no-such-lint)\n\
fn h() {}\n";
        let report = crate::run_sources(
            &[(FileCtx::new("crates/mgpu/src/policy.rs"), src.to_string())],
            &cfg(),
        );
        let waived: Vec<&str> = report.waived.iter().map(|v| v.key.as_str()).collect();
        assert_eq!(waived, ["wildcard-arm(Event)"]);
        let found: Vec<(Lint, usize, &str)> = report
            .violations
            .iter()
            .map(|v| (v.lint, v.line, v.key.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                (Lint::UnfulfilledAllow, 8, "unfulfilled(protocol-transition)"),
                (Lint::UnfulfilledAllow, 10, "unknown-lint(no-such-lint)"),
            ]
        );
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
