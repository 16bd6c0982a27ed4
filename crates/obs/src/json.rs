//! A minimal JSON reader for the pinned export schemas: the JSONL streams
//! and the bench suite's `BENCH.json`.
//!
//! The vendored `serde` is a no-op stub, so the exports are hand-written —
//! and this, their independent re-parser, is hand-written too. It supports
//! exactly the subset the exports use (objects, arrays, strings with the
//! escapes `json_escape_into` emits, integers, fixed-point decimals,
//! booleans, `null`) and fails loudly on anything else, which is what a
//! schema pin wants.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer. The JSONL exports only ever write integers (tick counts,
    /// ids, counter values, and `-1` for the external endpoint), so the
    /// reader keeps them exact in an `i64`.
    Num(i64),
    /// A number written with a fraction or an exponent (`BENCH.json`'s
    /// four-decimal ratios). Never an integer: [`Json::as_i64`] and
    /// [`Json::as_u64`] reject it, so a schema that says integer still does.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the schemas pin field order, but lookups
    /// here are by name).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's members, or an empty slice.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            _ => &[],
        }
    }

    /// The value as a signed integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (negative numbers are `None`).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as a float: a [`Json::Float`], or an integer widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Num(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integer = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => integer = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let bad = |e: &dyn std::fmt::Display| format!("bad number {text:?}: {e}");
        if integer {
            text.parse().map(Json::Num).map_err(|e| bad(&e))
        } else {
            text.parse().map(Json::Float).map_err(|e| bad(&e))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the source is a &str, so the
                    // bytes are valid).
                    let rest = std::str::from_utf8(&self.src[self.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_trace_line() {
        let line = r#"{"seq":3,"at":12,"from":-1,"to":0,"event":"deliver","kind":"client","span":null,"redelivery":false,"wait":0,"detail":"quote \" nl \n","deltas":{"x":1}}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("from").unwrap().as_i64(), Some(-1));
        assert_eq!(v.get("span"), Some(&Json::Null));
        assert_eq!(v.get("redelivery").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("detail").unwrap().as_str(), Some("quote \" nl \n"));
        assert_eq!(
            v.get("deltas").unwrap().members(),
            &[("x".to_string(), Json::Num(1))]
        );
    }

    #[test]
    fn parses_bench_decimals() {
        // BENCH.json's fixed four-decimal encoding, as the baseline has it.
        let row = r#"{"throughput_kops":279.7203,"seg_stall":0.0000,"ops":120}"#;
        let v = Json::parse(row).unwrap();
        assert_eq!(v.get("throughput_kops"), Some(&Json::Float(279.7203)));
        assert_eq!(v.get("seg_stall").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("ops").unwrap().as_f64(), Some(120.0));
        assert_eq!(Json::parse("-2.5e1"), Ok(Json::Float(-25.0)));
    }

    #[test]
    fn rejects_floats_and_garbage() {
        // A float parses, but never as an integer — whatever its value.
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("3.0").unwrap().as_i64(), None);
        assert!(Json::parse("1.5.2").is_err());
        assert!(Json::parse("1e").is_err());
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\"").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nested_arrays_and_unicode_escapes() {
        let v = Json::parse(r#"[{"k":"A"},[true,null,-7]]"#).unwrap();
        if let Json::Arr(items) = &v {
            assert_eq!(items[0].get("k").unwrap().as_str(), Some("A"));
            assert_eq!(
                items[1],
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-7)])
            );
        } else {
            panic!("expected array");
        }
    }
}
