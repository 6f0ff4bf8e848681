//! The one JSON string escaper behind every hand-formatted JSON emitter
//! in the workspace (reports, diagnostics, call-graph exports, JSONL).

use std::fmt::Write as _;

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, `\n` / `\r` / `\t` use their short forms, every
/// other control character below U+0020 becomes `\u00XX`, and everything
/// else — DEL and non-ASCII included — passes through as UTF-8.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::json_string;

    #[test]
    fn escapes_exactly_what_json_requires() {
        for (raw, quoted) in [
            ("plain", r#""plain""#),
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("\n", r#""\n""#),
            ("\r", r#""\r""#),
            ("\t", r#""\t""#),
            ("\x01", r#""\u0001""#),
            ("\x7f", "\"\x7f\""),
            ("é→", "\"é→\""),
            ("a\"b\\c\nd", r#""a\"b\\c\nd""#),
        ] {
            assert_eq!(json_string(raw), quoted, "{raw:?}");
        }
    }
}
