//! The JSON writers behind the JSONL exports (trace, series, alerts): all of
//! them append to the caller's one `String` — an export line is built in
//! place, with no temporary per field.

use std::fmt::{self, Write as _};

/// Escape `src` for inclusion inside a JSON string literal.
pub(crate) fn escape_into(out: &mut String, src: &str) {
    // Everything escaped is ASCII, so byte offsets are char boundaries.
    let mut clean = 0;
    for (i, b) in src.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&src[clean..i]);
        clean = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&src[clean..]);
}

/// A writer that JSON-escapes what passes through: `{:?}` of a payload goes
/// straight into the export line.
pub(crate) struct Escaped<'a>(pub(crate) &'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Append `v` as a JSON integer, or `null`.
pub(crate) fn opt_into(out: &mut String, v: Option<u64>) {
    let _ = match v {
        Some(v) => write!(out, "{v}"),
        None => out.write_str("null"),
    };
}

/// Append `pairs` as a JSON object of integers (`{"name":1,...}`).
pub(crate) fn pairs_into(out: &mut String, pairs: &[(&'static str, u64)]) {
    out.push('{');
    for (i, (name, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, name);
        let _ = write!(out, "\":{v}");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_and_passes_unicode_through() {
        let mut out = String::from("[");
        escape_into(&mut out, "a\u{1}é\t\"q\"\\ ✓");
        assert_eq!(out, "[a\\u0001é\\t\\\"q\\\"\\\\ ✓");
        let mut out = String::new();
        pairs_into(&mut out, &[("x", 1), ("y\"", 20)]);
        assert_eq!(out, "{\"x\":1,\"y\\\"\":20}");
    }
}
