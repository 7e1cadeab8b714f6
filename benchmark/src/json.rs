//! The two JSON primitives the emitters need (the build has no registry
//! access, so there is no serde): string escaping and finite numbers.

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with every digit it was measured with (the
/// shortest text that reads back as the same `f64`); `None` when `v` is not
/// finite, which JSON cannot say.
pub fn number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}
