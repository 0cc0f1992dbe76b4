//! A small item-level HIR over the [`crate::lexer`] token stream.
//!
//! The flow-aware passes (digest-completeness, RNG-stream discipline,
//! counter saturation, panic reachability) need more structure than a flat
//! token stream: which struct has which fields, which `impl` a function
//! belongs to, and what each function body calls. This module recovers
//! exactly that much — structs with typed field lists, enums with variant
//! names, and functions with their `impl` self type, signature identifiers,
//! body identifiers and callee names — without attempting expression-level
//! parsing. The parser is forgiving by design (a linter must never reject a
//! file the compiler accepts): anything it cannot classify is skipped, which
//! only ever costs recall, never soundness of the build.

use crate::lexer::{self, Tok, TokKind};

/// One named struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// 1-based line of the field's declaration.
    pub line: usize,
    /// Identifiers appearing in the field's type (`u64`, `DetMap`, …).
    pub ty: Vec<String>,
}

/// A struct definition with its named fields (tuple/unit structs parse to
/// an empty field list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<Field>,
    /// Whether the definition sits in test-gated code.
    pub in_test: bool,
}

/// An enum definition and its variant names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
    /// Whether the definition sits in test-gated code.
    pub in_test: bool,
}

/// A function definition: enough of its shape for symbol-table and
/// call-graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `Some(Type)` when the fn sits inside `impl Type` (or
    /// `impl Trait for Type`).
    pub self_ty: Option<String>,
    /// Whether the fn carries any `pub` visibility.
    pub is_pub: bool,
    /// Identifiers in the parameter list and return type.
    pub sig_idents: Vec<String>,
    /// Every identifier in the body, with its line.
    pub body_idents: Vec<(String, usize)>,
    /// Names this fn calls — free calls `name(…)` and method calls
    /// `.name(…)` alike; resolution is the call graph's job.
    pub callees: Vec<String>,
    /// `.unwrap()` / `.expect(` sites in the body: (method, line).
    pub panics: Vec<(String, usize)>,
    /// Whether the definition sits in test-gated code.
    pub in_test: bool,
}

/// The HIR of one source file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileHir {
    /// Struct definitions, in source order.
    pub structs: Vec<StructDef>,
    /// Enum definitions, in source order.
    pub enums: Vec<EnumDef>,
    /// Function definitions, in source order (trait/impl methods included).
    pub fns: Vec<FnDef>,
}

/// Keywords that look like a call when followed by `(` but never are.
const CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "let", "in", "move",
    "else", "unsafe", "await", "yield", "box", "as", "ref", "mut",
];

/// Parses one file's token stream into its item-level HIR.
///
/// `test_regions` come from [`lexer::test_regions`]; `file_is_test` marks
/// whole-file test code (integration tests, `*_tests.rs` modules).
pub fn parse(toks: &[Tok], test_regions: &[(usize, usize)], file_is_test: bool) -> FileHir {
    let mut hir = FileHir::default();
    parse_items(toks, 0, toks.len(), None, test_regions, file_is_test, &mut hir);
    hir
}

#[allow(clippy::too_many_arguments)]
fn parse_items(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    self_ty: Option<&str>,
    regions: &[(usize, usize)],
    file_is_test: bool,
    out: &mut FileHir,
) {
    while i < end {
        let Some(word) = toks[i].ident() else {
            i += 1;
            continue;
        };
        match word {
            "struct" => i = parse_struct(toks, i, end, regions, file_is_test, out),
            "enum" => i = parse_enum(toks, i, end, regions, file_is_test, out),
            "fn" => i = parse_fn(toks, i, end, self_ty, regions, file_is_test, out),
            "impl" | "trait" => {
                let (ty, body) = impl_header(toks, i + 1, end);
                match body {
                    Some((open, close)) => {
                        let inner_ty = if word == "impl" { ty.as_deref() } else { None };
                        parse_items(toks, open + 1, close, inner_ty, regions, file_is_test, out);
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            "mod" => {
                // `mod name { … }`: recurse; `mod name;`: skip.
                let mut j = i + 1;
                while j < end && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < end && toks[j].is_punct('{') {
                    match matching_brace(toks, j, end) {
                        Some(close) => {
                            parse_items(toks, j + 1, close, None, regions, file_is_test, out);
                            i = close + 1;
                        }
                        None => i = end,
                    }
                } else {
                    i = j + 1;
                }
            }
            "macro_rules" => {
                // `macro_rules! name { … }`: the body is token soup that
                // would confuse the item scanner — skip it whole.
                let mut j = i + 1;
                while j < end && !toks[j].is_punct('{') {
                    j += 1;
                }
                i = match matching_brace(toks, j, end) {
                    Some(close) => close + 1,
                    None => end,
                };
            }
            _ => i += 1,
        }
    }
}

/// Scans an `impl`/`trait` header starting just past the keyword: returns
/// the self type (for `impl Trait for Type`, the type after `for`) and the
/// body's `{`/`}` token indices.
fn impl_header(toks: &[Tok], start: usize, end: usize) -> (Option<String>, Option<(usize, usize)>) {
    let mut angle = 0i32;
    let mut first_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut i = start;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            // `->` in an associated-fn-pointer bound is not a close.
            TokKind::Punct('>') if i == 0 || !toks[i - 1].is_punct('-') => {
                angle = (angle - 1).max(0);
            }
            TokKind::Punct('{') if angle == 0 => {
                let ty = if saw_for { after_for } else { first_ty };
                return match matching_brace(toks, i, end) {
                    Some(close) => (ty, Some((i, close))),
                    None => (ty, None),
                };
            }
            TokKind::Punct(';') if angle == 0 => return (None, None),
            TokKind::Ident(id) if angle == 0 => {
                if id == "for" {
                    saw_for = true;
                } else if id == "where" {
                    // Bounds follow; the types are already captured.
                } else if saw_for {
                    if after_for.is_none() {
                        after_for = Some(id.clone());
                    }
                } else if first_ty.is_none() && id != "dyn" && id != "const" && id != "unsafe" {
                    first_ty = Some(id.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    (None, None)
}

/// Index of the `}` matching the `{` at `open`, or `None` if unbalanced.
fn matching_brace(toks: &[Tok], open: usize, end: usize) -> Option<usize> {
    if open >= end || !toks[open].is_punct('{') {
        return None;
    }
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

fn parse_struct(
    toks: &[Tok],
    kw: usize,
    end: usize,
    regions: &[(usize, usize)],
    file_is_test: bool,
    out: &mut FileHir,
) -> usize {
    let Some(name) = toks.get(kw + 1).and_then(Tok::ident) else {
        return kw + 1;
    };
    let line = toks[kw].line;
    let in_test = file_is_test || lexer::in_regions(regions, line);
    // Skip generics to the body `{`, a tuple `(`, or a unit `;`.
    let mut angle = 0i32;
    let mut i = kw + 2;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = (angle - 1).max(0),
            TokKind::Punct(';') if angle == 0 => {
                out.structs.push(StructDef { name: name.into(), line, fields: Vec::new(), in_test });
                return i + 1;
            }
            TokKind::Punct('(') if angle == 0 => {
                // Tuple struct: no named fields; skip to the closing `;`.
                let mut depth = 0i32;
                while i < end {
                    if toks[i].is_punct('(') {
                        depth += 1;
                    } else if toks[i].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
                out.structs.push(StructDef { name: name.into(), line, fields: Vec::new(), in_test });
                return (i + 1).min(end);
            }
            TokKind::Punct('{') if angle == 0 => break,
            _ => {}
        }
        i += 1;
    }
    let Some(close) = matching_brace(toks, i, end) else {
        return end;
    };
    let fields = parse_fields(toks, i + 1, close);
    out.structs.push(StructDef { name: name.into(), line, fields, in_test });
    close + 1
}

/// Parses the named fields between a struct body's braces.
fn parse_fields(toks: &[Tok], start: usize, end: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = start;
    while i < end {
        // Skip attributes and doc metadata.
        while i + 1 < end && toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < end {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = (j + 1).min(end);
        }
        // Skip visibility: `pub`, `pub(crate)`, `pub(in path)`.
        if i < end && toks[i].is_ident("pub") {
            i += 1;
            if i < end && toks[i].is_punct('(') {
                while i < end && !toks[i].is_punct(')') {
                    i += 1;
                }
                i += 1;
            }
        }
        // Field: `name :` then type tokens to the `,` at depth 0.
        if i + 1 < end
            && toks[i].ident().is_some()
            && toks[i + 1].is_punct(':')
        {
            let name = toks[i].ident().unwrap_or_default().to_string();
            let line = toks[i].line;
            let mut ty = Vec::new();
            let mut depth = 0i32; // (), [], {}
            let mut angle = 0i32;
            let mut j = i + 2;
            while j < end {
                match &toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') if !toks[j - 1].is_punct('-') => {
                        angle = (angle - 1).max(0);
                    }
                    TokKind::Punct(',') if depth == 0 && angle == 0 => break,
                    TokKind::Ident(id) => ty.push(id.clone()),
                    _ => {}
                }
                j += 1;
            }
            fields.push(Field { name, line, ty });
            i = (j + 1).min(end);
        } else {
            // Not a field start (trailing comma, malformed): advance.
            i += 1;
        }
    }
    fields
}

fn parse_enum(
    toks: &[Tok],
    kw: usize,
    end: usize,
    regions: &[(usize, usize)],
    file_is_test: bool,
    out: &mut FileHir,
) -> usize {
    let Some(name) = toks.get(kw + 1).and_then(Tok::ident) else {
        return kw + 1;
    };
    let line = toks[kw].line;
    let in_test = file_is_test || lexer::in_regions(regions, line);
    let mut i = kw + 2;
    while i < end && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
        i += 1;
    }
    if i >= end || toks[i].is_punct(';') {
        return (i + 1).min(end);
    }
    let Some(close) = matching_brace(toks, i, end) else {
        return end;
    };
    // Variants: identifiers at depth 1 followed by `,` `(` `{` `=` or `}`.
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut j = i;
    while j <= close {
        match &toks[j].kind {
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Ident(id) if depth == 1 => {
                let next_ok = toks.get(j + 1).is_some_and(|t| {
                    t.is_punct(',') || t.is_punct('(') || t.is_punct('{') || t.is_punct('=') || t.is_punct('}')
                });
                // Attributes contribute idents at depth 1 too; require the
                // previous token to be `{` `,` or `]` (end of an attribute).
                let prev_ok = j > i
                    && (toks[j - 1].is_punct('{') || toks[j - 1].is_punct(',') || toks[j - 1].is_punct(']'));
                if next_ok && prev_ok {
                    variants.push(id.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    out.enums.push(EnumDef { name: name.into(), line, variants, in_test });
    close + 1
}

#[allow(clippy::too_many_arguments)]
fn parse_fn(
    toks: &[Tok],
    kw: usize,
    end: usize,
    self_ty: Option<&str>,
    regions: &[(usize, usize)],
    file_is_test: bool,
    out: &mut FileHir,
) -> usize {
    // `fn` in type position (`fn(u32) -> u32`) has no name ident.
    let Some(name) = toks.get(kw + 1).and_then(Tok::ident) else {
        return kw + 1;
    };
    let line = toks[kw].line;
    let in_test = file_is_test || lexer::in_regions(regions, line);
    let is_pub = fn_is_pub(toks, kw);
    // Generics, then the parameter list.
    let mut angle = 0i32;
    let mut i = kw + 2;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !toks[i - 1].is_punct('-') => {
                angle = (angle - 1).max(0);
            }
            TokKind::Punct('(') if angle == 0 => break,
            TokKind::Punct('{') | TokKind::Punct(';') if angle == 0 => return i, // malformed
            _ => {}
        }
        i += 1;
    }
    if i >= end {
        return end;
    }
    let mut sig_idents = Vec::new();
    let mut depth = 0i32;
    let params_end = {
        let mut j = i;
        loop {
            if j >= end {
                break j;
            }
            match &toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break j;
                    }
                }
                TokKind::Ident(id) => sig_idents.push(id.clone()),
                _ => {}
            }
            j += 1;
        }
    };
    // Return type / where clause up to the body `{` or a bodyless `;`.
    let mut j = params_end + 1;
    let mut depth = 0i32;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => {
                out.fns.push(FnDef {
                    name: name.into(),
                    line,
                    self_ty: self_ty.map(str::to_string),
                    is_pub,
                    sig_idents,
                    body_idents: Vec::new(),
                    callees: Vec::new(),
                    panics: Vec::new(),
                    in_test,
                });
                return j + 1;
            }
            TokKind::Punct('{') if depth == 0 => break,
            TokKind::Ident(id) => sig_idents.push(id.clone()),
            _ => {}
        }
        j += 1;
    }
    let Some(close) = matching_brace(toks, j, end) else {
        return end;
    };
    let mut body_idents = Vec::new();
    let mut callees = Vec::new();
    let mut panics = Vec::new();
    for k in j + 1..close {
        let TokKind::Ident(id) = &toks[k].kind else { continue };
        body_idents.push((id.clone(), toks[k].line));
        let next_is_open = toks.get(k + 1).is_some_and(|t| t.is_punct('('));
        if next_is_open && !CALL_KEYWORDS.contains(&id.as_str()) {
            callees.push(id.clone());
            if (id == "unwrap" || id == "expect") && k > 0 && toks[k - 1].is_punct('.') {
                panics.push((id.clone(), toks[k].line));
            }
        }
    }
    out.fns.push(FnDef {
        name: name.into(),
        line,
        self_ty: self_ty.map(str::to_string),
        is_pub,
        sig_idents,
        body_idents,
        callees,
        panics,
        in_test,
    });
    close + 1
}

/// Whether the fn at `kw` carries a `pub` visibility, scanning back over
/// `const`/`unsafe`/`async`/`extern` qualifiers and a `pub(…)` group.
fn fn_is_pub(toks: &[Tok], kw: usize) -> bool {
    let mut j = kw;
    while j > 0 {
        let prev = &toks[j - 1];
        match &prev.kind {
            TokKind::Ident(id)
                if matches!(id.as_str(), "const" | "unsafe" | "async" | "extern") =>
            {
                j -= 1;
            }
            TokKind::Punct(')') => {
                // Walk back over a `pub(crate)`-style group.
                let mut depth = 0i32;
                while j > 0 {
                    if toks[j - 1].is_punct(')') {
                        depth += 1;
                    } else if toks[j - 1].is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            j -= 1;
                            break;
                        }
                    }
                    j -= 1;
                }
            }
            TokKind::Ident(id) if id == "pub" => return true,
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn hir_of(src: &str) -> FileHir {
        let lexed = lex(src);
        let regions = lexer::test_regions(&lexed.tokens);
        parse(&lexed.tokens, &regions, false)
    }

    #[test]
    fn struct_fields_with_types() {
        let src = "\
pub struct Gate {\n\
    pub level: u64,\n\
    pub(crate) map: DetMap<u64, Vec<(u32, u64)>>,\n\
    engaged: bool,\n\
}\n";
        let h = hir_of(src);
        assert_eq!(h.structs.len(), 1);
        let s = &h.structs[0];
        assert_eq!(s.name, "Gate");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["level", "map", "engaged"]);
        assert!(s.fields[0].ty.contains(&"u64".to_string()));
        assert!(s.fields[1].ty.contains(&"DetMap".to_string()));
        assert_eq!(s.fields[1].line, 3);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let h = hir_of("struct A(u32, u64);\nstruct B;\nstruct C { x: u8 }\n");
        assert_eq!(h.structs.len(), 3);
        assert!(h.structs[0].fields.is_empty());
        assert!(h.structs[1].fields.is_empty());
        assert_eq!(h.structs[2].fields.len(), 1);
    }

    #[test]
    fn impl_methods_carry_self_ty() {
        let src = "\
impl Gate {\n\
    pub fn observe(&mut self, occ: usize) -> bool { self.check(occ) }\n\
    fn check(&self, occ: usize) -> bool { occ > self.level }\n\
}\n\
impl Display for Gate {\n\
    fn fmt(&self, f: &mut Formatter<'_>) -> Result { write(f) }\n\
}\n\
fn free() { helper(); }\n";
        let h = hir_of(src);
        let names: Vec<(&str, Option<&str>, bool)> = h
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            [
                ("observe", Some("Gate"), true),
                ("check", Some("Gate"), false),
                ("fmt", Some("Gate"), false),
                ("free", None, false),
            ]
        );
        assert_eq!(h.fns[0].callees, ["check"]);
        assert_eq!(h.fns[3].callees, ["helper"]);
    }

    #[test]
    fn generic_impl_resolves_self_ty() {
        let src = "impl<T: Clone> Driver<T> { fn poll(&mut self) { tick(); } }\n";
        let h = hir_of(src);
        assert_eq!(h.fns[0].self_ty.as_deref(), Some("Driver"));
    }

    #[test]
    fn panic_sites_and_method_callees() {
        let src = "fn f(m: &M) { m.get(k).unwrap(); other.expect(\"boom\"); }\n";
        let h = hir_of(src);
        let f = &h.fns[0];
        assert_eq!(f.panics, [("unwrap".to_string(), 1), ("expect".to_string(), 1)]);
        assert!(f.callees.contains(&"get".to_string()));
    }

    #[test]
    fn enum_variants() {
        let src = "\
pub enum Fate {\n\
    Deliver,\n\
    Delay(Cycle),\n\
    Dup { n: u32 },\n\
}\n";
        let h = hir_of(src);
        assert_eq!(h.enums.len(), 1);
        assert_eq!(h.enums[0].variants, ["Deliver", "Delay", "Dup"]);
    }

    #[test]
    fn test_gated_items_are_marked() {
        let src = "\
fn live() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    struct Harness { x: u32 }\n\
    fn helper() {}\n\
}\n";
        let h = hir_of(src);
        let live = h.fns.iter().find(|f| f.name == "live").unwrap();
        let helper = h.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(!live.in_test);
        assert!(helper.in_test);
        assert!(h.structs[0].in_test);
    }

    #[test]
    fn bodyless_trait_fns_parse() {
        let src = "trait Cache { fn lookup(&mut self, vpn: u64) -> Option<u64>; fn evict(&mut self) { self.drop_one(); } }\n";
        let h = hir_of(src);
        assert_eq!(h.fns.len(), 2);
        assert!(h.fns[0].body_idents.is_empty());
        assert!(h.fns[1].callees.contains(&"drop_one".to_string()));
    }

    #[test]
    fn body_range_brackets_the_braces() {
        let src = "trait T { fn sig(&self) -> u64; fn done(&self) { fin(); } }\n";
        let h = hir_of(src);
        assert!(h.fns[0].body_idents.is_empty());
        // Only the tokens between the body's braces count as its body.
        let body: Vec<&str> = h.fns[1].body_idents.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(body, ["fin"]);
    }

    #[test]
    fn nested_match_in_body_does_not_break_item_scan() {
        let src = "\
fn a() { match x { Y(v) => { f(v) } _ => {} } }\n\
struct After { z: u8 }\n";
        let h = hir_of(src);
        assert_eq!(h.fns.len(), 1);
        assert_eq!(h.structs.len(), 1);
        assert_eq!(h.structs[0].name, "After");
    }
}
