//! The `.scn` lexer: source text to a token stream with line/column spans.
//!
//! Hand-rolled for the scenario language: identifiers, unsigned integer
//! and float literals, double-quoted strings, single-character
//! punctuation, and `#`/`//` comments. It *reports* malformed input (unterminated strings, bad numbers) as positioned
//! errors — the compiler is the authority here, and fuzzed input must
//! come back as a clean [`Error`], never a panic.

use crate::{Error, Pos};

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// Token payload.
    pub kind: TokKind,
    /// Source position the token starts at.
    pub pos: Pos,
}

/// Token payload.
#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// An identifier or keyword (`scenario`, `gpus`, `true`, `none`, …).
    Ident(String),
    /// An unsigned integer literal (`_` separators allowed).
    Int(u64),
    /// A float literal (`0.02`, `1.5e3`).
    Float(f64),
    /// A double-quoted string literal, unescaped.
    Str(String),
    /// A single punctuation character (`{`, `}`, `=`, `,`, `(`, `)`, `[`,
    /// `]`).
    Punct(char),
    /// End of input (always the final token).
    Eof,
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match &self.kind {
            TokKind::Ident(s) => format!("`{s}`"),
            TokKind::Int(n) => format!("`{n}`"),
            TokKind::Float(x) => format!("`{x:?}`"),
            TokKind::Str(s) => format!("\"{s}\""),
            TokKind::Punct(c) => format!("`{c}`"),
            TokKind::Eof => "end of input".into(),
        }
    }
}

/// Lexes `.scn` source into tokens (terminated by an [`TokKind::Eof`]).
///
/// # Errors
///
/// Returns a positioned [`Error`] on unterminated strings, malformed
/// numbers, string escapes other than `\"` `\\` `\n` `\t`, or control
/// characters inside a string.
pub fn lex(src: &str) -> Result<Vec<Tok>, Error> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    while i < chars.len() {
        let c = chars[i];
        let pos = Pos { line, col };
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += 1;
            }
            '#' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '"' => {
                let (tok, ni, ncol) = lex_string(&chars, i, pos)?;
                out.push(tok);
                i = ni;
                col = ncol;
            }
            c if c.is_ascii_digit() => {
                let (tok, ni) = lex_number(&chars, i, pos)?;
                col += u32::try_from(ni - i).unwrap_or(u32::MAX);
                out.push(tok);
                i = ni;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                col += u32::try_from(i - start).unwrap_or(u32::MAX);
                out.push(Tok {
                    kind: TokKind::Ident(chars[start..i].iter().collect()),
                    pos,
                });
            }
            p => {
                out.push(Tok {
                    kind: TokKind::Punct(p),
                    pos,
                });
                col += 1;
                i += 1;
            }
        }
    }
    out.push(Tok {
        kind: TokKind::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}

/// Lexes the string starting at the `"` at index `i`; returns the token,
/// the index past the closing quote, and the column after it.
fn lex_string(chars: &[char], mut i: usize, pos: Pos) -> Result<(Tok, usize, u32), Error> {
    let mut s = String::new();
    let mut col = pos.col + 1;
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '"' => {
                return Ok((
                    Tok {
                        kind: TokKind::Str(s),
                        pos,
                    },
                    i + 1,
                    col + 1,
                ));
            }
            '\\' => {
                let esc = chars.get(i + 1).copied();
                let lit = match esc {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('t') => '\t',
                    other => {
                        return Err(Error::at(
                            Pos {
                                line: pos.line,
                                col,
                            },
                            format!(
                                "unknown string escape `\\{}`",
                                other.map_or("<eof>".into(), |c| c.to_string())
                            ),
                        ));
                    }
                };
                s.push(lit);
                i += 2;
                col += 2;
            }
            '\n' => {
                return Err(Error::at(pos, "unterminated string literal".into()));
            }
            c if (c as u32) < 0x20 => {
                return Err(Error::at(
                    Pos {
                        line: pos.line,
                        col,
                    },
                    "control character in string literal".into(),
                ));
            }
            c => {
                s.push(c);
                i += 1;
                col += 1;
            }
        }
    }
    Err(Error::at(pos, "unterminated string literal".into()))
}

/// Lexes the number starting at index `i`; returns the token and the index
/// past it. Grammar: `digits ('.' digits)? ([eE] [+-]? digits)?`, with `_`
/// separators allowed between digits.
fn lex_number(chars: &[char], start: usize, pos: Pos) -> Result<(Tok, usize), Error> {
    let mut i = start;
    let mut text = String::new();
    let digits = |i: &mut usize, text: &mut String| {
        let mut any = false;
        while *i < chars.len() && (chars[*i].is_ascii_digit() || chars[*i] == '_') {
            if chars[*i] != '_' {
                text.push(chars[*i]);
                any = true;
            }
            *i += 1;
        }
        any
    };
    digits(&mut i, &mut text);
    let mut is_float = false;
    if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
        is_float = true;
        text.push('.');
        i += 1;
        digits(&mut i, &mut text);
    }
    if matches!(chars.get(i), Some('e') | Some('E')) {
        is_float = true;
        text.push('e');
        i += 1;
        if matches!(chars.get(i), Some('+') | Some('-')) {
            text.push(chars[i]);
            i += 1;
        }
        if !digits(&mut i, &mut text) {
            return Err(Error::at(pos, "exponent needs digits".into()));
        }
    }
    // A number must not run straight into an identifier (`4x` is a typo,
    // not a literal plus an ident).
    if chars
        .get(i)
        .is_some_and(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
    {
        return Err(Error::at(pos, format!("malformed number near `{text}`")));
    }
    let kind = if is_float {
        let x: f64 = text
            .parse()
            .map_err(|_| Error::at(pos, format!("malformed float `{text}`")))?;
        if !x.is_finite() {
            return Err(Error::at(pos, format!("float `{text}` overflows")));
        }
        TokKind::Float(x)
    } else {
        TokKind::Int(
            text.parse()
                .map_err(|_| Error::at(pos, format!("integer `{text}` out of range")))?,
        )
    };
    Ok((Tok { kind, pos }, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_basic_shapes() {
        let ks = kinds("gpus = 4 # comment\nscale = 0.1 // also\nname = \"KM\"");
        assert_eq!(
            ks,
            vec![
                TokKind::Ident("gpus".into()),
                TokKind::Punct('='),
                TokKind::Int(4),
                TokKind::Ident("scale".into()),
                TokKind::Punct('='),
                TokKind::Float(0.1),
                TokKind::Ident("name".into()),
                TokKind::Punct('='),
                TokKind::Str("KM".into()),
                TokKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_are_one_based_line_and_col() {
        let toks = lex("a = 1\n  bb = 2").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[2].pos, Pos { line: 1, col: 5 });
        assert_eq!(toks[3].pos, Pos { line: 2, col: 3 });
        assert_eq!(toks[5].pos, Pos { line: 2, col: 8 });
    }

    #[test]
    fn underscore_separators_and_exponents() {
        assert_eq!(kinds("1_000")[0], TokKind::Int(1000));
        assert_eq!(kinds("1.5e3")[0], TokKind::Float(1500.0));
        assert_eq!(kinds("2e2")[0], TokKind::Float(200.0));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds("\"a\\\"b\\\\c\"")[0], TokKind::Str("a\"b\\c".into()));
    }

    #[test]
    fn errors_carry_positions() {
        let e = lex("x = \"open").unwrap_err();
        assert_eq!((e.pos.line, e.pos.col), (1, 5));
        assert!(e.msg.contains("unterminated"));
        let e = lex("n = 18446744073709551616").unwrap_err();
        assert!(e.msg.contains("out of range"));
        let e = lex("n = 4x").unwrap_err();
        assert!(e.msg.contains("malformed number"));
        let e = lex("n = 1e").unwrap_err();
        assert!(e.msg.contains("exponent"));
    }

    #[test]
    fn dot_without_digit_is_not_part_of_number() {
        // `1.` is a malformed-number error (nothing in the grammar uses a
        // trailing dot), while `1 .` lexes as int + punct.
        assert!(lex("1.").is_err());
        let ks = kinds("1 .");
        assert_eq!(ks[0], TokKind::Int(1));
        assert_eq!(ks[1], TokKind::Punct('.'));
    }
}
