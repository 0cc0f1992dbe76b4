//! Recursive-descent parser: token stream to [`ast::File`].
//!
//! The grammar is small enough for one token of lookahead everywhere (see
//! the EBNF in DESIGN.md). The parser is total over arbitrary token
//! streams — fuzzed input produces a positioned [`Error`], never a panic —
//! and nesting depth is capped so adversarial bracket towers cannot
//! overflow the stack.

use crate::ast::{Arg, Binding, File, Item, ScenarioDecl, Section, Value, ValueKind};
use crate::lexer::{Tok, TokKind};
use crate::{Error, Pos};

/// Maximum value/section nesting depth. The deepest legitimate scenario
/// nests four levels (`scenario > system > watchdog > value`); 32 leaves
/// headroom while keeping fuzzer-constructed `[[[[…]]]]` towers from
/// recursing unboundedly.
const MAX_DEPTH: u32 = 32;

/// Parses a lexed token stream into a file AST.
///
/// # Errors
///
/// Returns a positioned [`Error`] on any syntax error.
pub fn parse(toks: &[Tok]) -> Result<File, Error> {
    let mut p = Parser { toks, i: 0 };
    let mut scenarios = Vec::new();
    while !p.peek().is_eof() {
        scenarios.push(p.scenario()?);
    }
    Ok(File { scenarios })
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
}

impl Tok {
    fn is_eof(&self) -> bool {
        self.kind == TokKind::Eof
    }
}

impl Parser<'_> {
    /// The current token. The lexer guarantees a trailing `Eof`, so the
    /// final token is always a safe resting place.
    fn peek(&self) -> &Tok {
        self.toks.get(self.i).unwrap_or_else(|| {
            // Unreachable with lexer-produced input; kept total for safety.
            &self.toks[self.toks.len() - 1]
        })
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn err<T>(&self, expected: &str) -> Result<T, Error> {
        let t = self.peek();
        Err(Error::at(
            t.pos,
            format!("expected {expected}, found {}", t.describe()),
        ))
    }

    fn expect_punct(&mut self, c: char) -> Result<Pos, Error> {
        if self.peek().is_punct(c) {
            Ok(self.bump().pos)
        } else {
            self.err(&format!("`{c}`"))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Pos), Error> {
        if let TokKind::Ident(s) = &self.peek().kind {
            let s = s.clone();
            let pos = self.bump().pos;
            Ok((s, pos))
        } else {
            self.err(what)
        }
    }

    /// `scenario = "scenario" string "{" { item } "}"`.
    fn scenario(&mut self) -> Result<ScenarioDecl, Error> {
        let (kw, pos) = self.ident("`scenario`")?;
        if kw != "scenario" {
            return Err(Error::at(pos, format!("expected `scenario`, found `{kw}`")));
        }
        let name = match &self.peek().kind {
            TokKind::Str(s) => {
                let s = s.clone();
                self.bump();
                s
            }
            _ => return self.err("scenario name string"),
        };
        let items = self.body(0)?;
        Ok(ScenarioDecl { name, pos, items })
    }

    /// `"{" { binding | section } "}"`.
    fn body(&mut self, depth: u32) -> Result<Vec<Item>, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::at(self.peek().pos, "nesting too deep".into()));
        }
        self.expect_punct('{')?;
        let mut items = Vec::new();
        loop {
            if self.peek().is_punct('}') {
                self.bump();
                return Ok(items);
            }
            let (key, pos) = self.ident("a key, section name or `}`")?;
            if self.peek().is_punct('=') {
                self.bump();
                let value = self.value(depth + 1)?;
                items.push(Item::Binding(Binding { key, pos, value }));
            } else if self.peek().is_punct('{') {
                let inner = self.body(depth + 1)?;
                items.push(Item::Section(Section {
                    name: key,
                    pos,
                    items: inner,
                }));
            } else {
                return self.err("`=` or `{` after a key");
            }
        }
    }

    /// `value = int | float | string | list | ident | call`.
    fn value(&mut self, depth: u32) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::at(self.peek().pos, "nesting too deep".into()));
        }
        let pos = self.peek().pos;
        let kind = match &self.peek().kind {
            TokKind::Int(n) => {
                let n = *n;
                self.bump();
                ValueKind::Int(n)
            }
            TokKind::Float(x) => {
                let x = *x;
                self.bump();
                ValueKind::Float(x)
            }
            TokKind::Str(s) => {
                let s = s.clone();
                self.bump();
                ValueKind::Str(s)
            }
            TokKind::Punct('[') => {
                self.bump();
                let mut vals = Vec::new();
                loop {
                    if self.peek().is_punct(']') {
                        self.bump();
                        break;
                    }
                    vals.push(self.value(depth + 1)?);
                    if self.peek().is_punct(',') {
                        self.bump();
                    } else if !self.peek().is_punct(']') {
                        return self.err("`,` or `]` in list");
                    }
                }
                ValueKind::List(vals)
            }
            TokKind::Ident(s) => {
                let name = s.clone();
                self.bump();
                if self.peek().is_punct('(') {
                    self.bump();
                    let args = self.args(depth + 1)?;
                    ValueKind::Call { name, args }
                } else {
                    ValueKind::Ident(name)
                }
            }
            _ => return self.err("a value"),
        };
        Ok(Value { pos, kind })
    }

    /// Call arguments after the opening `(`, consuming the closing `)`.
    fn args(&mut self, depth: u32) -> Result<Vec<Arg>, Error> {
        let mut args = Vec::new();
        loop {
            if self.peek().is_punct(')') {
                self.bump();
                return Ok(args);
            }
            let pos = self.peek().pos;
            // `ident =` starts a named argument; a bare ident (or anything
            // else) is a positional value.
            let name = match &self.peek().kind {
                TokKind::Ident(s) if self.toks.get(self.i + 1).is_some_and(|t| t.is_punct('=')) => {
                    let s = s.clone();
                    self.bump();
                    self.bump();
                    Some(s)
                }
                _ => None,
            };
            let value = self.value(depth + 1)?;
            args.push(Arg { name, pos, value });
            if self.peek().is_punct(',') {
                self.bump();
            } else if !self.peek().is_punct(')') {
                return self.err("`,` or `)` in call arguments");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<File, Error> {
        parse(&lex(src)?)
    }

    #[test]
    fn parses_bindings_sections_calls_and_lists() {
        let f = parse_src(
            r#"scenario "s" {
                 seeds = 2
                 system { gpus = 4 watchdog { enabled = true } }
                 workload = [app(name = "KM", scale = 0.1), phase_shift()]
               }"#,
        )
        .unwrap();
        assert_eq!(f.scenarios.len(), 1);
        let sc = &f.scenarios[0];
        assert_eq!(sc.name, "s");
        assert_eq!(sc.items.len(), 3);
        assert_eq!(sc.items[1].key(), "system");
        match &sc.items[2] {
            Item::Binding(b) => match &b.value.kind {
                ValueKind::List(vs) => {
                    assert_eq!(vs.len(), 2);
                    match &vs[0].kind {
                        ValueKind::Call { name, args } => {
                            assert_eq!(name, "app");
                            assert_eq!(args[0].name.as_deref(), Some("name"));
                            assert_eq!(args[1].name.as_deref(), Some("scale"));
                        }
                        other => panic!("expected call, got {other:?}"),
                    }
                }
                other => panic!("expected list, got {other:?}"),
            },
            other => panic!("expected binding, got {other:?}"),
        }
    }

    #[test]
    fn trailing_commas_allowed() {
        assert!(parse_src(r#"scenario "s" { a = [1, 2,] b = f(x = 1,) }"#).is_ok());
    }

    #[test]
    fn multiple_scenarios_per_file() {
        let f = parse_src(r#"scenario "a" {} scenario "b" {}"#).unwrap();
        assert_eq!(f.scenarios.len(), 2);
    }

    #[test]
    fn errors_are_positioned() {
        let e = parse_src("scenario \"s\" {\n  a = = 1\n}").unwrap_err();
        assert_eq!(e.pos.line, 2);
        assert!(e.msg.contains("expected a value"));
        let e = parse_src(r#"scenario "s" { a 1 }"#).unwrap_err();
        assert!(e.msg.contains("`=` or `{`"));
        let e = parse_src(r#"notscenario "s" {}"#).unwrap_err();
        assert!(e.msg.contains("expected `scenario`"));
    }

    #[test]
    fn unclosed_body_is_an_error_not_a_hang() {
        let e = parse_src(r#"scenario "s" { a = 1"#).unwrap_err();
        assert!(e.msg.contains("found end of input"), "{}", e.msg);
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let src = format!(
            r#"scenario "s" {{ a = {}1{} }}"#,
            "[".repeat(100),
            "]".repeat(100)
        );
        let e = parse_src(&src).unwrap_err();
        assert!(e.msg.contains("nesting too deep"));
    }
}
