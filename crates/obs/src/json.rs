//! A minimal JSON value model shared by the flight-trace reader and writer
//! (`crate::trace`, `crate::recorder`), the experiment-spec codec, the
//! result-cache report codec, and the daemon wire protocol.
//!
//! The workspace is offline (no serde), so it carries its own parser — one,
//! here at the bottom of the dependency graph, re-exported as
//! `denovo_waste::Json`. It deliberately supports only the subset the codecs
//! emit: strings, **unsigned integers**, arrays and objects. There are no
//! floats — `f64` round-tripping through decimal JSON is lossy, and the
//! result cache must be bit-exact, so floating-point fields are stored as
//! 16-hex-digit IEEE-754 bit patterns in strings (see `denovo_waste`'s
//! `codec.rs`); the daemon's wire headers render rates as fixed-precision
//! decimal strings for the same reason. Booleans/null/negative numbers are
//! rejected with an error naming the offending construct.
//!
//! The type is public because the experiments daemon (`tw-bench`) frames its
//! wire protocol with exactly these documents: one compact header line per
//! request/response (see [`Json::compact`]), optionally followed by an
//! opaque byte body.

use std::fmt::Write as _;

/// A parsed JSON value (strings, unsigned ints, arrays, ordered objects).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string.
    Str(String),
    /// An unsigned integer (the only number form supported).
    UInt(u64),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys rejected at parse time.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Names the kind actually found when the value is not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {}", other.kind())),
        }
    }

    /// The value as an unsigned integer.
    ///
    /// # Errors
    ///
    /// Names the kind actually found when the value is not an integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::UInt(v) => Ok(*v),
            other => Err(format!("expected an integer, found {}", other.kind())),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Names the kind actually found when the value is not an array.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {}", other.kind())),
        }
    }

    /// The value as an object's field list.
    ///
    /// # Errors
    ///
    /// Names the kind actually found when the value is not an object.
    pub fn as_obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(format!("expected an object, found {}", other.kind())),
        }
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// Names the missing key.
    pub fn require(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Str(_) => "a string",
            Json::UInt(_) => "an integer",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Any structural problem, with the offending byte offset or construct
    /// named.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { input, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders the value as pretty-printed JSON (2-space indent, stable
    /// field order — the emitted bytes are deterministic).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value as a single line with no decorative whitespace —
    /// the framing used by the daemon wire protocol, where every header is
    /// exactly one LF-terminated line. The output contains no raw newline
    /// bytes (string newlines are escaped), so `read_line` framing is safe.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.emit_compact(&mut out);
        out
    }

    fn emit_compact(&self, out: &mut String) {
        match self {
            Json::Str(s) => emit_str(s, out),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_str(k, out);
                    out.push(':');
                    v.emit_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn emit(&self, out: &mut String, depth: usize) {
        match self {
            Json::Str(s) => emit_str(s, out),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars render inline; arrays of containers
                // render one element per line.
                let scalar = items
                    .iter()
                    .all(|i| matches!(i, Json::Str(_) | Json::UInt(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if scalar {
                        if i > 0 {
                            out.push(' ');
                        }
                    } else {
                        out.push('\n');
                        indent(out, depth + 1);
                    }
                    item.emit(out, depth + 1);
                }
                if !scalar {
                    out.push('\n');
                    indent(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    emit_str(k, out);
                    out.push_str(": ");
                    v.emit(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    crate::escape_into(s, out);
    out.push('"');
}

struct Parser<'a> {
    /// The document; string runs are copied out of it as slices.
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {}",
                b as char,
                self.pos,
                self.peek()
                    .map(|c| format!("`{}`", c as char))
                    .unwrap_or_else(|| "end of input".to_string())
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.uint(),
            Some(b't') | Some(b'f') | Some(b'n') => Err(format!(
                "booleans and null are not part of this schema (byte {})",
                self.pos
            )),
            Some(b'-') => Err(format!(
                "negative numbers are not part of this schema (byte {})",
                self.pos
            )),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn uint(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "floats are not part of this schema (byte {}); encode f64 fields as bit-pattern strings",
                self.pos
            ));
        }
        let text = &self.input[start..self.pos];
        text.parse::<u64>()
            .map(Json::UInt)
            .map_err(|e| format!("integer `{text}` at byte {start}: {e}"))
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
                        b'u' => {
                            if self.pos + 4 > self.input.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = self
                                .input
                                .get(self.pos..self.pos + 4)
                                .ok_or("non-ASCII \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // The codecs only escape control characters; no
                            // surrogate-pair support needed or provided.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("\\u{hex} is not a scalar value"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the plain run up to the next `"` or `\` in one
                    // go. Both are ASCII, so the run ends on a char boundary
                    // of the input, and no byte is examined twice.
                    let rest = &self.bytes()[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// One character of each UTF-8 width.
    const WIDE: [&str; 4] = ["a", "\u{e9}", "\u{20ac}", "\u{1d11e}"];

    #[test]
    fn multi_byte_text_next_to_escapes_survives() {
        // (as written in a document, as decoded)
        let neighbours = [
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\n", "\n"),
            ("\u{e9}", "\u{e9}"),
        ];
        for c in WIDE {
            assert_eq!(Json::parse(&format!("\"{c}\"")), Ok(Json::str(c)));
            for (written, decoded) in neighbours {
                for (doc, want) in [
                    (format!("\"{c}{written}{c}\""), format!("{c}{decoded}{c}")),
                    (format!("\"{written}{c}\""), format!("{decoded}{c}")),
                    (format!("\"{c}{written}\""), format!("{c}{decoded}")),
                ] {
                    assert_eq!(Json::parse(&doc), Ok(Json::Str(want)), "{doc}");
                }
                // The same text as an object key.
                let doc = format!("{{\"{c}{written}\":\"{c}\"}}");
                let want = Json::Obj(vec![(format!("{c}{decoded}"), Json::str(c))]);
                assert_eq!(Json::parse(&doc), Ok(want), "{doc}");
            }
        }
    }

    /// A seeded xorshift stream: the round trip below is the same test on
    /// every run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn text(&mut self) -> String {
            let alphabet: Vec<char> = "ab /\"\\\n\r\t\u{0}\u{1}\u{1f}\u{7f}\u{e9}\u{20ac}\u{1d11e}"
                .chars()
                .collect();
            (0..self.below(24))
                .map(|_| alphabet[self.below(alphabet.len())])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Json {
            match self.below(if depth == 0 { 2 } else { 4 }) {
                0 => Json::Str(self.text()),
                1 => Json::UInt(self.0 >> self.below(64)),
                2 => Json::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => {
                    let mut fields: Vec<(String, Json)> = Vec::new();
                    for _ in 0..self.below(4) {
                        let key = self.text();
                        if fields.iter().all(|(k, _)| *k != key) {
                            fields.push((key, self.value(depth - 1)));
                        }
                    }
                    Json::Obj(fields)
                }
            }
        }
    }

    #[test]
    fn random_documents_round_trip_through_both_writers() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2000 {
            let doc = rng.value(3);
            assert_eq!(
                Json::parse(&doc.pretty()).as_ref(),
                Ok(&doc),
                "{}",
                doc.pretty()
            );
            assert_eq!(
                Json::parse(&doc.compact()).as_ref(),
                Ok(&doc),
                "{}",
                doc.compact()
            );
        }
    }

    #[test]
    fn error_texts_are_unchanged() {
        for (input, want) in [
            ("\"abc", "unterminated string"),
            ("\"a\u{e9}\u{1d11e}", "unterminated string"),
            ("[\"a\\\"b", "unterminated string"),
            ("\"a\\", "unterminated escape"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\u123\u{e9}\"", "non-ASCII \\u escape"),
            ("\"\\u12\u{e9}\"", "bad \\u escape `12\u{e9}`"),
            ("\"\\u12g4\"", "bad \\u escape `12g4`"),
            ("\"\\ud800\"", "\\ud800 is not a scalar value"),
            ("\"\\x\"", "unknown escape `\\x`"),
            ("", "unexpected end of input"),
            ("@", "unexpected `@` at byte 0"),
            ("null", "booleans and null are not part of this schema (byte 0)"),
            ("-1", "negative numbers are not part of this schema (byte 0)"),
            (
                "[1.5]",
                "floats are not part of this schema (byte 2); encode f64 fields as bit-pattern strings",
            ),
            (
                "99999999999999999999",
                "integer `99999999999999999999` at byte 0: number too large to fit in target type",
            ),
            ("[1 2]", "expected `,` or `]` at byte 3"),
            ("{\"a\":1 \"b\"}", "expected `,` or `}` at byte 7"),
            ("{\"a\" 1}", "expected `:` at byte 5, found `1`"),
            ("{\"a\"", "expected `:` at byte 4, found end of input"),
            ("{1:2}", "expected `\"` at byte 1, found `1`"),
            ("{\"k\":1,\"k\":2}", "duplicate key `k`"),
            ("{} x", "trailing data at byte 3"),
        ] {
            assert_eq!(Json::parse(input), Err(want.to_string()), "{input}");
        }
    }

    #[test]
    fn a_sixteen_mib_string_parses_in_linear_time() {
        let piece = "plain text \u{e9} \u{20ac} \u{1d11e} \" \\ \n\t";
        let doc = Json::Arr(vec![Json::Str(piece.repeat((16 << 20) / piece.len() + 1))]);
        let text = doc.compact();
        let started = Instant::now();
        let parsed = Json::parse(&text);
        let took = started.elapsed();
        assert_eq!(parsed, Ok(doc));
        // Linear takes milliseconds even unoptimized; a reader quadratic in
        // its input would take hours.
        assert!(took < Duration::from_secs(10), "{took:?}");
    }
}
