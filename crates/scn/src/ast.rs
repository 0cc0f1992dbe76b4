//! The `.scn` abstract syntax tree, as produced by the parser.
//!
//! The AST is purely syntactic: keys are uninterpreted identifiers and
//! values carry their source positions, so the semantic pass
//! ([`crate::sema`]) can report *where* a constraint was violated, not
//! just that one was.

use crate::Pos;

/// A parsed `.scn` file: a sequence of scenario declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct File {
    /// The scenarios, in source order.
    pub scenarios: Vec<ScenarioDecl>,
}

/// One `scenario "name" { ... }` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDecl {
    /// The scenario's quoted name.
    pub name: String,
    /// Position of the `scenario` keyword.
    pub pos: Pos,
    /// Bindings and sections in the body, in source order.
    pub items: Vec<Item>,
}

/// One item in a scenario or section body.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `key = value`.
    Binding(Binding),
    /// `name { ... }`.
    Section(Section),
}

impl Item {
    /// The item's key/section name.
    pub fn key(&self) -> &str {
        match self {
            Item::Binding(b) => &b.key,
            Item::Section(s) => &s.name,
        }
    }

    /// The item's source position.
    pub fn pos(&self) -> Pos {
        match self {
            Item::Binding(b) => b.pos,
            Item::Section(s) => s.pos,
        }
    }
}

/// A `key = value` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The key identifier.
    pub key: String,
    /// Position of the key.
    pub pos: Pos,
    /// The bound value.
    pub value: Value,
}

/// A nested `name { ... }` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// The section name.
    pub name: String,
    /// Position of the name.
    pub pos: Pos,
    /// Bindings and sections in the body, in source order.
    pub items: Vec<Item>,
}

/// A value with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Position of the value's first token.
    pub pos: Pos,
    /// The value payload.
    pub kind: ValueKind,
}

/// Value payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueKind {
    /// An unsigned integer literal.
    Int(u64),
    /// A float literal.
    Float(f64),
    /// A string literal.
    Str(String),
    /// A bare identifier (`true`, `none`, `lru`, `first_touch`, …).
    Ident(String),
    /// A call such as `app(name = "KM", scale = 0.1)`.
    Call {
        /// The callee identifier.
        name: String,
        /// Arguments, positional or named, in source order.
        args: Vec<Arg>,
    },
    /// A bracketed list of values.
    List(Vec<Value>),
}

impl Value {
    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match &self.kind {
            ValueKind::Int(n) => format!("integer `{n}`"),
            ValueKind::Float(x) => format!("float `{x:?}`"),
            ValueKind::Str(s) => format!("string \"{s}\""),
            ValueKind::Ident(s) => format!("`{s}`"),
            ValueKind::Call { name, .. } => format!("call `{name}(...)`"),
            ValueKind::List(_) => "list".into(),
        }
    }
}

/// One argument of a call, optionally named.
#[derive(Debug, Clone, PartialEq)]
pub struct Arg {
    /// The argument name for `name = value` form, `None` for positional.
    pub name: Option<String>,
    /// Position of the argument.
    pub pos: Pos,
    /// The argument value.
    pub value: Value,
}
