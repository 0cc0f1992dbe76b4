//! A minimal Rust lexer: just enough structure for the simlint passes.
//!
//! The workspace builds fully offline, so a real parser (`syn`) is not an
//! option; instead the lints operate on a token stream with comments,
//! string/char literals and lifetimes stripped. That is exactly the level
//! the lints need — every rule is about *which identifiers appear where*,
//! never about expression structure beyond bracket matching.
//!
//! Two extras ride along with tokenisation:
//!
//! * `simlint::allow(<lint>)` directives are harvested from non-doc
//!   comments (the inline waiver mechanism — see DESIGN.md);
//! * every token carries its 1-based source line, so violations point at
//!   real locations and `#[cfg(test)]` regions can be expressed as line
//!   ranges.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What the token is.
    pub kind: TokKind,
    /// 1-based source line the token starts on.
    pub line: usize,
}

/// Token payload: the lints distinguish identifiers (including keywords),
/// numeric literals (the RNG-stream pass compares seed literals) and
/// punctuation; string/char literals and comments are dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident(String),
    /// A numeric literal, verbatim (`0xC0C0_0F11`, `1u64`, `0.5`).
    Num(String),
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            TokKind::Num(_) | TokKind::Punct(_) => None,
        }
    }

    /// The numeric literal text, if this token is one.
    pub fn num(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Num(s) => Some(s),
            TokKind::Ident(_) | TokKind::Punct(_) => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Whether this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// An inline waiver harvested from a comment: `simlint::allow(lint-name)`
/// waives violations of that lint on the same or the following line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the directive appears on.
    pub line: usize,
    /// The waived lint's name (e.g. `digest-complete`).
    pub lint: String,
}

/// Lexer output: the token stream plus any inline allow directives.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Inline waivers found in comments.
    pub allows: Vec<AllowDirective>,
}

/// Lexes `src`, stripping comments, literals and lifetimes.
///
/// Malformed input (unterminated strings or comments) does not error: the
/// lexer consumes to end-of-file, which is the forgiving behaviour a linter
/// wants — the compiler is the authority on well-formedness.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                harvest_allows(&chars[start..i], line, &mut out.allows);
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                harvest_allows(&chars[start..i], start_line, &mut out.allows);
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
            }
            '\'' => {
                i = skip_char_or_lifetime(&chars, i, &mut line);
            }
            c if c.is_ascii_digit() => {
                // Numeric literal: digits, alphanumeric suffixes, `_`, and
                // a `.` only when followed by a digit (so `0..10` stops).
                let start = i;
                i += 1;
                while i < chars.len() {
                    let d = chars[i];
                    let continues = d.is_ascii_alphanumeric()
                        || d == '_'
                        || (d == '.'
                            && chars.get(i + 1).is_some_and(char::is_ascii_digit));
                    if continues {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let lit: String = chars[start..i].iter().collect();
                out.tokens.push(Tok { kind: TokKind::Num(lit), line });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // Raw string literals (no escapes): r".."/r#".."#, their
                // byte (br, rb) and C-string (cr) forms.
                let raw_prefix = matches!(word.as_str(), "r" | "br" | "rb" | "cr");
                // Escaped string literals with a prefix: b"..", c"..".
                let esc_prefix = matches!(word.as_str(), "b" | "c");
                if raw_prefix && matches!(chars.get(i), Some('"') | Some('#')) {
                    i = skip_raw_string(&chars, i, &mut line);
                } else if esc_prefix && chars.get(i) == Some(&'"') {
                    i = skip_string(&chars, i, &mut line);
                } else if word == "b" && chars.get(i) == Some(&'\'') {
                    i = skip_char_or_lifetime(&chars, i, &mut line);
                } else {
                    out.tokens.push(Tok { kind: TokKind::Ident(word), line });
                }
            }
            p => {
                out.tokens.push(Tok { kind: TokKind::Punct(p), line });
                i += 1;
            }
        }
    }
    out
}

/// Consumes a `"…"` string starting at `i` (the opening quote), returning
/// the index past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // An escaped newline (line-continuation) still ends a
                // source line; skipping it without counting would shift
                // every later violation's line number.
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

/// Consumes a raw string whose `#`/`"` sequence starts at `i` (the prefix
/// ident was already consumed), returning the index past the close.
fn skip_raw_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return i; // `r#` in `r#keyword` raw identifiers: not a string
    }
    i += 1;
    while i < chars.len() {
        if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        if chars[i] == '\n' {
            *line += 1;
        }
        i += 1;
    }
    i
}

/// Consumes either a lifetime (`'a`) or a char literal (`'x'`, `'\n'`)
/// starting at the `'` at `i`, returning the index past it.
fn skip_char_or_lifetime(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let at = if chars.get(i) == Some(&'b') { i + 1 } else { i };
    debug_assert_eq!(chars.get(at), Some(&'\''));
    let mut j = at + 1;
    // Lifetime: `'` + ident not closed by another `'`.
    if chars
        .get(j)
        .is_some_and(|c| c.is_alphabetic() || *c == '_')
    {
        let mut k = j;
        while chars.get(k).is_some_and(|c| c.is_alphanumeric() || *c == '_') {
            k += 1;
        }
        if chars.get(k) != Some(&'\'') {
            return k; // lifetime, e.g. `&'a str`
        }
    }
    // Char literal: consume to the closing quote, honouring escapes.
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                }
                j += 2;
            }
            '\'' => return j + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                j += 1;
            }
        }
    }
    i = j;
    i
}

/// Extracts `simlint::allow(name[, name…])` directives from one comment.
///
/// `start_line` is the comment's first line; a directive inside a
/// multi-line block comment is attributed to the line it actually appears
/// on, so the same-line-or-next-line waiver rule keeps working. Doc
/// comments (`///`, `//!`, `/**`, `/*!`) are skipped: they document the
/// syntax rather than waive anything.
fn harvest_allows(comment: &[char], start_line: usize, out: &mut Vec<AllowDirective>) {
    const NEEDLE: &str = "simlint::allow(";
    let text: String = comment.iter().collect();
    let is_doc = (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
        || text.starts_with("/*!");
    if is_doc {
        return;
    }
    let mut from = 0;
    while let Some(pos) = text[from..].find(NEEDLE) {
        let abs = from + pos;
        let line = start_line + text[..abs].matches('\n').count();
        let after = &text[abs + NEEDLE.len()..];
        let Some(close) = after.find(')') else {
            return;
        };
        for name in after[..close].split(',') {
            let name = name.trim();
            if !name.is_empty() {
                out.push(AllowDirective { line, lint: name.to_string() });
            }
        }
        from = abs + NEEDLE.len() + close;
    }
}

/// Line ranges (1-based, inclusive) of test-gated code: items annotated
/// `#[cfg(test)]` or `#[test]`, including everything inside their braces.
///
/// The check is attribute-based, not semantic: an attribute gates the next
/// item if it contains the `test` ident and no `not` (so `#[cfg(not(test))]`
/// correctly does *not* mark a region).
pub fn test_regions(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_start_line = tokens[i].line;
            let (attr_end, is_test) = scan_attr(tokens, i + 1);
            if is_test {
                // Skip any further attributes, then find the item's body.
                let mut j = attr_end;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    let (next_end, _) = scan_attr(tokens, j + 1);
                    j = next_end;
                }
                if let Some((_, end_line)) = item_body_span(tokens, j) {
                    regions.push((attr_start_line, end_line));
                }
            }
            i = attr_end;
        } else {
            i += 1;
        }
    }
    regions
}

/// Scans the attribute whose `[` is at `open`; returns (index past the
/// closing `]`, whether the attribute test-gates the next item).
fn scan_attr(tokens: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, has_test && !has_not);
                }
            }
            TokKind::Ident(s) if s == "test" => has_test = true,
            TokKind::Ident(s) if s == "not" => has_not = true,
            _ => {}
        }
        i += 1;
    }
    (i, false)
}

/// From `start` (just past an item's attributes), finds the item's brace
/// body and returns `(index past closing brace, line of closing brace)`.
/// Returns `None` for bodyless items (`mod foo;`, `fn f();`).
fn item_body_span(tokens: &[Tok], start: usize) -> Option<(usize, usize)> {
    let mut i = start;
    // Find the opening `{` of the item, stopping at `;` (bodyless item).
    let mut depth = 0i32; // () and [] nesting, e.g. fn args, where clauses
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => return None,
            TokKind::Punct('{') if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= tokens.len() {
        return None;
    }
    // Match braces to the item body's end.
    let mut brace_depth = 0;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('{') => brace_depth += 1,
            TokKind::Punct('}') => {
                brace_depth -= 1;
                if brace_depth == 0 {
                    return Some((i + 1, tokens[i].line));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Whether `line` falls inside any of `regions`.
pub fn in_regions(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" here"#;
            let c = 'H';
            fn real_ident() {}
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"real_ident".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let y = 'z';";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // The lifetime ident `a` is dropped; lexing continued correctly.
        assert!(ids.contains(&"f".to_string()));
        assert!(ids.contains(&"y".to_string()));
    }

    #[test]
    fn numeric_range_does_not_eat_dots() {
        let src = "for i in 0..10 { x[i]; }";
        let lexed = lex(src);
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn harvest_allow_directive() {
        let src = "let t = now(); // simlint::allow(digest-complete) derived field\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].lint, "digest-complete");
        assert_eq!(lexed.allows[0].line, 1);
    }

    #[test]
    fn cfg_test_region_covers_module() {
        let src = "\
fn live() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn helper() {}\n\
}\n\
fn also_live() {}\n";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(2, 5)]);
        assert!(in_regions(&regions, 4));
        assert!(!in_regions(&regions, 1));
        assert!(!in_regions(&regions, 6));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let src = "#[cfg(not(test))]\nmod real { fn f() {} }\n";
        let lexed = lex(src);
        assert!(test_regions(&lexed.tokens).is_empty());
    }

    #[test]
    fn test_attr_with_following_attrs() {
        let src = "#[test]\n#[should_panic]\nfn boom() {\n  x();\n}\n";
        let lexed = lex(src);
        assert_eq!(test_regions(&lexed.tokens), vec![(1, 5)]);
    }

    #[test]
    fn numeric_literals_are_tokens() {
        let src = "let s = SimRng::new(0xC0C0_0F11); let f = 0.5; let n = 7u64;";
        let nums: Vec<String> = lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.num().map(str::to_string))
            .collect();
        assert_eq!(nums, ["0xC0C0_0F11", "0.5", "7u64"]);
    }

    #[test]
    fn c_strings_are_stripped() {
        let src = r##"let a = c"HashMap"; let b = cr#"HashMap "x""#; real();"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn byte_string_escaped_quote_does_not_derail() {
        let src = "let a = b\"x\\\"y\"; after();";
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()), "{ids:?}");
        assert!(!ids.contains(&"x".to_string()));
    }

    #[test]
    fn escaped_newline_in_string_counts_the_line() {
        let src = "let s = \"a\\\nb\";\nmarker();\n";
        let lexed = lex(src);
        let marker = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("marker"))
            .expect("marker lexed");
        assert_eq!(marker.line, 3, "line after a \\-continued string");
    }

    #[test]
    fn allow_in_multiline_block_comment_uses_its_own_line() {
        let src = "/* intro\n   simlint::allow(panic-reach) here\n*/\nx.unwrap();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].line, 2, "directive sits on comment line 2");
    }

    #[test]
    fn doc_comments_are_not_directives() {
        let src = "\
/// simlint::allow(panic-reach)\n\
//! simlint::allow(panic-reach)\n\
/** simlint::allow(panic-reach) */\n\
/*! simlint::allow(panic-reach) */\n\
//// simlint::allow(digest-complete)\n";
        let lexed = lex(src);
        let names: Vec<(usize, &str)> =
            lexed.allows.iter().map(|a| (a.line, a.lint.as_str())).collect();
        assert_eq!(names, [(5, "digest-complete")]);
    }

    #[test]
    fn two_allows_in_one_comment_both_harvested() {
        let src = "// simlint::allow(digest-complete) and simlint::allow(panic-reach)\n";
        let lexed = lex(src);
        let names: Vec<&str> = lexed.allows.iter().map(|a| a.lint.as_str()).collect();
        assert_eq!(names, ["digest-complete", "panic-reach"]);
    }
}
