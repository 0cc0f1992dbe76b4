//! Positive lexer fixture: the same tricky literals as the negative twin,
//! but a real wildcard protocol arm *after* them — a lexer derailed by the
//! raw strings or nested comments would miss it.

/* outer /* nested: match e { Event::Tick => t(), _ => {} } */ done */

pub fn decoy() -> String {
    r#"match e { Event::Tick => t(), _ => {} } in a raw string is fine"#.to_string()
}

pub fn handle(e: Event) {
    match e {
        Event::Tick => tick(),
        _ => {}
    }
}
