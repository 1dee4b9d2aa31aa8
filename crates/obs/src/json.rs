//! The workspace's one JSON value model, reader and writer: the flight-trace
//! reader and writer (`crate::trace`, `crate::recorder`), the experiment-spec
//! codec, the result-cache report codec, the daemon wire protocol and the
//! results documents (`BENCH_results.json`, `plan run --json` and
//! `--stats`) all build a [`Json`] value and render it here, so one module
//! decides how every document the workspace writes is encoded.
//!
//! The workspace is offline (no serde), so it carries its own parser — one,
//! here at the bottom of the dependency graph, re-exported as
//! `denovo_waste::Json`. It deliberately supports only the subset the codecs
//! read back: strings, **unsigned integers**, arrays and objects. There are
//! no floats — `f64` round-tripping through decimal JSON is lossy, and the
//! result cache must be bit-exact, so floating-point fields are stored as
//! 16-hex-digit IEEE-754 bit patterns in strings (see `denovo_waste`'s
//! `codec.rs`); the daemon's wire headers render rates as fixed-precision
//! decimal strings for the same reason. Booleans/null/negative numbers are
//! rejected with an error naming the offending construct.
//!
//! Two leaves are output-only, for documents people and plotting scripts
//! read rather than ones the workspace parses back: [`Json::F64`], a
//! decimal number written straight into the output (`null` when not
//! finite), and [`Json::Inline`], a value kept on one line inside a
//! [`Json::pretty`] document. [`Json::parse`] never produces either.
//!
//! One tokenizer reads every document: [`Reader`], which steps through the
//! text a token at a time and builds nothing. [`Json::parse`] is one of its
//! consumers and builds a value; the result cache's entry decoder
//! (`denovo_waste`'s `codec.rs`) is the other and reads a report's fields
//! straight from the text, borrowing its strings. The reader refuses a
//! document nested deeper than [`MAX_DEPTH`] arrays and objects with an
//! error naming the byte offset, so a hostile spec file or daemon header
//! is an error, not a stack overflow.
//!
//! The type is public because the experiments daemon (`tw-bench`) frames its
//! wire protocol with exactly these documents: one compact header line per
//! request/response (see [`Json::compact`]), optionally followed by an
//! opaque byte body.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value (strings, unsigned ints, arrays, ordered objects, and the
/// two output-only leaves).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string.
    Str(String),
    /// An unsigned integer (the only number form [`Json::parse`] reads).
    UInt(u64),
    /// A decimal number, written as Rust's shortest round-trip `{}` form
    /// (`7068`, `-0`, `0.5`, never an exponent), or `null` when not finite.
    /// Output only: `parse` refuses floats.
    F64(f64),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys rejected at parse time.
    Obj(Vec<(String, Json)>),
    /// A value written on one line, as [`Json::compact`] writes it, even
    /// inside a [`Json::pretty`] document. Output only: `parse` returns the
    /// value itself.
    Inline(Box<Json>),
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
            Json::F64(_) => "a float",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
            Json::Inline(_) => "a one-line value",
        }
    }

    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Any structural problem, with the offending byte offset or construct
    /// named.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut r = Reader::new(input);
        let v = Json::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Reads the reader's next value whole. The recursion is as deep as the
    /// document, which the reader bounds at [`MAX_DEPTH`].
    fn read(r: &mut Reader<'_>) -> Result<Json, String> {
        Ok(match r.kind()? {
            ValueKind::Str => Json::Str(r.str()?.into_owned()),
            ValueKind::UInt => Json::UInt(r.uint()?),
            ValueKind::Arr => {
                r.open_arr()?;
                let mut items = Vec::new();
                while r.next_item()? {
                    items.push(Json::read(r)?);
                }
                Json::Arr(items)
            }
            ValueKind::Obj => {
                r.open_obj()?;
                let mut fields: Vec<(String, Json)> = Vec::new();
                while let Some(key) = r.next_key()? {
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key `{key}`"));
                    }
                    let value = Json::read(r)?;
                    fields.push((key.into_owned(), value));
                }
                Json::Obj(fields)
            }
        })
    }

    /// Renders the value as pretty-printed JSON (2-space indent, stable
    /// field order — the emitted bytes are deterministic). Arrays of
    /// strings and numbers stay on one line, and so does an
    /// [`Json::Inline`] value.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders the value as a single line with no decorative whitespace —
    /// the framing used by the daemon wire protocol, where every header is
    /// exactly one LF-terminated line. The output contains no raw newline
    /// bytes (string newlines are escaped), so `read_line` framing is safe.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, None);
        out
    }

    /// Writes the value at pretty-printing depth `depth`, or on one line
    /// when `depth` is `None`.
    fn emit(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Str(s) => emit_str(s, out),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            // Formatted in place: numbers are most of a figures document,
            // and a `String` per number would cost more than the rest of
            // the writer.
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Inline(v) => v.emit(out, None),
            Json::Arr(items) => {
                // A pretty array of scalars is one line with `, ` between
                // items; any other pretty array puts each item on its own.
                let scalars = items
                    .iter()
                    .all(|i| matches!(i, Json::Str(_) | Json::UInt(_) | Json::F64(_)));
                let lines = if scalars { None } else { depth };
                let sep = if scalars && depth.is_some() {
                    ", "
                } else {
                    ","
                };
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    new_line(out, lines.map(|d| d + 1));
                    item.emit(out, inner);
                }
                if !items.is_empty() {
                    new_line(out, lines);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, inner);
                    emit_str(k, out);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.emit(out, inner);
                }
                if !fields.is_empty() {
                    new_line(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Starts a new line indented to `depth`; nothing on the one-line layout.
fn new_line(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Writes `s` as a JSON string literal: quote, backslash and control
/// characters escaped, everything else as is.
fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Every character that needs an escape is ASCII, so the run before one
    // ends on a char boundary and is copied whole.
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// How deeply arrays and objects may nest in a document a [`Reader`]
/// reads. The deepest document the workspace writes nests six levels (a
/// figure's values in a results document); a deeper one is refused with an
/// error naming the byte offset, so no input drives a consumer's recursion
/// off the end of its stack.
pub const MAX_DEPTH: usize = 128;

/// What the next value of a [`Reader`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// A string: read it with [`Reader::str`].
    Str,
    /// An unsigned integer: read it with [`Reader::uint`].
    UInt,
    /// An array: open it with [`Reader::open_arr`].
    Arr,
    /// An object: open it with [`Reader::open_obj`].
    Obj,
}

/// The workspace's one JSON tokenizer. It steps through a document a
/// value, key or bracket at a time and builds nothing: the caller drives
/// it with the grammar it expects. [`Reader::kind`] names the next value,
/// [`Reader::str`] and [`Reader::uint`] read a scalar, and an array or
/// object is [`Reader::open_arr`] or [`Reader::open_obj`] followed by
/// [`Reader::next_item`] or [`Reader::next_key`] until they report its
/// close. A string borrows from the input unless it holds an escape.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The document; strings without escapes are slices of it.
    input: &'a str,
    pos: usize,
    /// Arrays and objects open at the position.
    depth: usize,
    /// Whether the innermost array or object has not yet been asked for an
    /// item or key, so its first one takes no `,`.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// What the next value is.
    ///
    /// # Errors
    ///
    /// The end of input, or a construct outside the schema (booleans,
    /// null, negative numbers, any other byte), named with its offset.
    pub fn kind(&mut self) -> Result<ValueKind, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(ValueKind::Str),
            Some(b'[') => Ok(ValueKind::Arr),
            Some(b'{') => Ok(ValueKind::Obj),
            Some(b'0'..=b'9') => Ok(ValueKind::UInt),
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

    /// Reads a string, borrowed from the input unless it holds an escape.
    ///
    /// # Errors
    ///
    /// No string here, an unterminated string, or a bad escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut run = self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::new();
        loop {
            out.push_str(run);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
            run = self.run();
        }
    }

    /// Steps over the run of string text up to the next `"` or `\` (or the
    /// end of input) and returns it. Both are ASCII, so the run ends on a
    /// char boundary of the input, and no byte is examined twice.
    fn run(&mut self) -> &'a str {
        let rest = &self.bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        let run = &self.input[self.pos..self.pos + len];
        self.pos += len;
        run
    }

    /// Reads the character an escape stands for, the `\` already read.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                if self.pos + 4 > self.input.len() {
                    return Err("truncated \\u escape".to_string());
                }
                let hex = self
                    .input
                    .get(self.pos..self.pos + 4)
                    .ok_or("non-ASCII \\u escape")?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
                // The codecs only escape control characters; no surrogate-pair
                // support needed or provided.
                let c = char::from_u32(code).ok_or(format!("\\u{hex} is not a scalar value"))?;
                self.pos += 4;
                c
            }
            other => return Err(format!("unknown escape `\\{}`", other as char)),
        })
    }

    /// Reads an unsigned integer.
    ///
    /// # Errors
    ///
    /// No integer here, a float, or one too large for a `u64`.
    pub fn uint(&mut self) -> Result<u64, String> {
        self.skip_ws();
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
            .map_err(|e| format!("integer `{text}` at byte {start}: {e}"))
    }

    /// Opens an array; read its items with [`Reader::next_item`].
    ///
    /// # Errors
    ///
    /// No array here, or one nested deeper than [`MAX_DEPTH`].
    pub fn open_arr(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Opens an object; read its fields with [`Reader::next_key`].
    ///
    /// # Errors
    ///
    /// No object here, or one nested deeper than [`MAX_DEPTH`].
    pub fn open_obj(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels at byte {}",
                self.pos - 1
            ));
        }
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Moves to the open array's next item: `true` when there is one to
    /// read, `false` once the array is closed.
    ///
    /// # Errors
    ///
    /// Neither `,` nor `]` after an item.
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.next(b']')
    }

    /// Reads the open object's next key and the `:` after it, or `None`
    /// once the object is closed.
    ///
    /// # Errors
    ///
    /// Neither `,` nor `}` after a field, or a malformed key.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Steps past the `,` before the next item or field, or past `close`:
    /// whether another item or field follows.
    fn next(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Checks that nothing but whitespace follows.
    ///
    /// # Errors
    ///
    /// Names the offset of the trailing data.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

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
    fn the_reader_steps_through_a_document_borrowing_plain_strings() {
        let doc = r#" {"k": ["plain", "esc\"aped", 7], "e": {}} "#;
        let mut r = Reader::new(doc);
        r.open_obj().unwrap();
        assert_eq!(r.next_key().unwrap(), Some(Cow::Borrowed("k")));
        assert_eq!(r.kind(), Ok(ValueKind::Arr));
        r.open_arr().unwrap();
        assert!(r.next_item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
        assert!(r.next_item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "esc\"aped"));
        assert!(r.next_item().unwrap());
        assert_eq!(r.kind(), Ok(ValueKind::UInt));
        assert_eq!(r.uint(), Ok(7));
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap(), Some(Cow::Borrowed("e")));
        r.open_obj().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn nesting_deeper_than_the_bound_is_an_error_naming_its_offset() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let too_deep = |at: usize| {
            Err(format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels at byte {at}"
            ))
        };
        for n in [MAX_DEPTH + 1, 200_000] {
            assert_eq!(Json::parse(&"[".repeat(n)), too_deep(MAX_DEPTH));
        }
        let objects = format!("{}{{}}", "{\"k\": ".repeat(MAX_DEPTH));
        assert_eq!(Json::parse(&objects), too_deep(6 * MAX_DEPTH));
        let mixed = "[{\"k\":".repeat(MAX_DEPTH);
        assert_eq!(Json::parse(&mixed), too_deep(6 * (MAX_DEPTH / 2)));
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

    #[test]
    fn parse_emit_round_trip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("l2 \"sweep\"\n")),
            ("count".into(), Json::UInt(u64::MAX)),
            (
                "items".into(),
                Json::Arr(vec![Json::UInt(1), Json::str("two")]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("nested".into(), Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // u64::MAX survives exactly (the usual JSON-as-f64 trap).
        assert!(text.contains("18446744073709551615"));
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let doc = Json::Obj(vec![
            ("op".into(), Json::str("submit")),
            ("note".into(), Json::str("line\nbreak")),
            ("body_bytes".into(), Json::UInt(42)),
            (
                "tags".into(),
                Json::Arr(vec![Json::str("a"), Json::UInt(7)]),
            ),
        ]);
        let line = doc.compact();
        assert!(!line.contains('\n'), "compact form must be newline-free");
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(
            line,
            r#"{"op":"submit","note":"line\nbreak","body_bytes":42,"tags":["a",7]}"#
        );
    }

    #[test]
    fn human_written_whitespace_is_accepted() {
        let doc = Json::parse(
            r#"
            { "a" : [ 1 , 2 ] ,
              "b" : { "c" : "d" } }
            "#,
        )
        .unwrap();
        assert_eq!(doc.require("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            doc.require("b").unwrap().require("c").unwrap().as_str(),
            Ok("d")
        );
    }

    #[test]
    fn unsupported_constructs_are_named() {
        for (input, needle) in [
            ("1.5", "floats"),
            ("true", "booleans"),
            ("-3", "negative"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("[1", "expected"),
            ("\"ab", "unterminated"),
            ("{}, 1", "trailing"),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.contains(needle), "`{input}` -> {err}");
        }
    }

    #[test]
    fn accessor_errors_name_the_found_kind() {
        let v = Json::parse("[1]").unwrap();
        assert!(v.as_str().unwrap_err().contains("array"));
        assert!(v.as_obj().unwrap_err().contains("array"));
        assert!(Json::UInt(3).as_arr().unwrap_err().contains("integer"));
        assert!(Json::str("x").require("k").is_err());
        assert!(Json::str("x").get("k").is_none());
    }

    #[test]
    fn output_only_leaves_render_in_place() {
        let numbers = [
            1.5,
            7068.0,
            -0.0,
            1e21,
            1e-7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let doc = Json::Obj(vec![
            ("n".into(), Json::Arr(numbers.map(Json::F64).to_vec())),
            (
                "rows".into(),
                Json::Arr(vec![
                    Json::Inline(Box::new(Json::Obj(vec![
                        ("k".into(), Json::Arr(vec![Json::F64(0.25), Json::UInt(2)])),
                        ("e".into(), Json::Obj(vec![])),
                    ]))),
                    Json::Inline(Box::new(Json::str("s"))),
                ]),
            ),
            (
                "one".into(),
                Json::Inline(Box::new(Json::Arr(vec![Json::Arr(vec![])]))),
            ),
        ]);
        assert_eq!(
            doc.pretty(),
            r#"{
  "n": [1.5, 7068, -0, 1000000000000000000000, 0.0000001, null, null, null],
  "rows": [
    {"k":[0.25,2],"e":{}},
    "s"
  ],
  "one": [[]]
}
"#
        );
        assert_eq!(
            doc.compact(),
            r#"{"n":[1.5,7068,-0,1000000000000000000000,0.0000001,null,null,null],"rows":[{"k":[0.25,2],"e":{}},"s"],"one":[[]]}"#
        );
        assert_eq!(
            Json::F64(0.5).as_u64(),
            Err("expected an integer, found a float".to_string())
        );
        assert_eq!(
            Json::Inline(Box::new(Json::UInt(1))).as_u64(),
            Err("expected an integer, found a one-line value".to_string())
        );
    }
}
