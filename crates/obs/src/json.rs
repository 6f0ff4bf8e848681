//! The one compact JSON writer behind every hand-built JSON document in
//! the workspace (reports, health, diagnostics, call-graph rows, JSONL):
//! commas, brackets and string escapes are placed here and nowhere else.
//! Typed documents go through `serde_json`.

use std::fmt::Write as _;

/// A value the writer can place: integers, bools, strings, `Option`s
/// (`None` is `null`) and [`Raw`] JSON rendered elsewhere.
pub trait Value {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// A JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, `\n` / `\r` / `\t` use their short forms, every
/// other control character below U+0020 becomes `\u00XX`, and
/// everything else — DEL and non-ASCII included — passes through as
/// UTF-8. The writer places every string and key through this one loop.
impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
    }
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

macro_rules! verbatim_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
verbatim_values!(bool, u32, u64, usize);

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Value> Value for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Already-rendered JSON, embedded verbatim.
pub struct Raw<'a>(pub &'a str);

impl Value for Raw<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// A compact JSON writer (no whitespace) that places every comma itself.
/// The buffer is its only state: an item gets a comma unless the last
/// byte written is an opening bracket or a key's `:` (or nothing) —
/// every complete value ends in another byte.
#[derive(Debug, Default)]
pub struct JsonWriter(String);

impl JsonWriter {
    /// One whole object: `{`, whatever `fill` writes, `}`.
    pub fn object(fill: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> String {
        let mut w = JsonWriter::default();
        fill(w.open('{')).close('}');
        w.0
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.0
    }

    /// Open an object (`{`) or an array (`[`).
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.item().push(bracket);
        self
    }

    /// Close the innermost object (`}`) or array (`]`).
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.0.push(bracket);
        self
    }

    /// An object key; the next item written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        key.write_json(self.item());
        self.0.push(':');
        self
    }

    /// `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        value.write_json(self.key(key).item());
        self
    }

    /// `"key":[values…]`.
    pub fn array(&mut self, key: &str, values: impl IntoIterator<Item = impl Value>) -> &mut Self {
        self.key(key).open('[');
        for v in values {
            v.write_json(self.item());
        }
        self.close(']')
    }

    /// The buffer, after the comma the next item needs.
    fn item(&mut self) -> &mut String {
        if !matches!(self.0.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.0.push(',');
        }
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::{JsonWriter, Raw, Value};

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
            let mut out = String::new();
            raw.write_json(&mut out);
            assert_eq!(out, quoted, "{raw:?}");
        }
    }

    #[test]
    fn writer_places_every_comma_and_null() {
        let mut w = JsonWriter::default();
        w.open('{')
            .field("n", 3u64)
            .field("ok", true)
            .field("name", "a\"b")
            .field("none", None::<u64>)
            .array("empty", Vec::<usize>::new())
            .array("xs", [1usize, 2, 3])
            .key("nested")
            .open('[')
            .open('{')
            .field("raw", Raw("{\"k\":[]}"))
            .close('}')
            .open('{')
            .close('}')
            .close(']')
            .field("s", Some("x"))
            .close('}');
        assert_eq!(
            w.finish(),
            r#"{"n":3,"ok":true,"name":"a\"b","none":null,"empty":[],"xs":[1,2,3],"nested":[{"raw":{"k":[]}},{}],"s":"x"}"#
        );
    }
}
