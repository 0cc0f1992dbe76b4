//! Negative lexer fixture: every forbidden match below is inert text inside
//! raw strings, byte/C strings, nested block comments, or escapes — a lexer
//! that mis-tracks any of them will leak a false `protocol-exhaustive` or
//! `protocol-transition` finding.

/* outer comment
   /* nested: match e { Event::Tick => t(), _ => {} } lives here */
   still commented: match p { ProtocolEvent::Map => m() }
*/

pub fn banners() -> Vec<String> {
    vec![
        r#"raw: match e { Event::Tick => t(), _ => {} } with a " quote"#.to_string(),
        r##"rawer: "# match p { ProtocolEvent::Map => m() } "# inside"##.to_string(),
        br#"byte raw: match f { MessageFate::Drop => d(), _ => {} }"#.escape_ascii().to_string(),
        c"c string: match k { PolicyKind::FirstTouch => f(), _ => {} }".to_string_lossy().into_owned(),
        "escaped quote \" then match e { Event::Tick => t(), _ => {} }, still a string".to_string(),
        "escaped newline spans \
         a line: match p { ProtocolEvent::Unmap => u() }"
            .to_string(),
    ]
}

pub fn not_a_lifetime() -> char {
    let b = b'\'';
    let c = '\u{5f}'; // '_', not the start of a wildcard arm
    char::from(b).max(c)
}
