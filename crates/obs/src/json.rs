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
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
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
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "non-ASCII \\u escape".to_string())?;
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
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always well-formed).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
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
