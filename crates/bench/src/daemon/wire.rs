//! Frame codec for the daemon's Unix-socket protocol.
//!
//! A frame is one LF-terminated compact-JSON header line, optionally
//! followed by a raw byte body whose exact length the header declares in a
//! `body_bytes` field. The header uses the experiment layer's JSON subset
//! ([`Json`]): strings, unsigned integers, arrays, objects — no floats, so
//! rates travel as fixed-precision decimal strings. Bodies are **opaque
//! bytes**, never parsed as wire JSON; that is what lets a `submit` response
//! carry the full figures document (which contains floats) while keeping the
//! framing layer trivial: `read_line`, parse, `read_exact`.

use denovo_waste::Json;
use std::io::{BufRead, ErrorKind, Write};

/// Header lines above this are rejected (a header is one request/response
/// summary — kilobytes at most; a megabyte means a confused client).
pub const MAX_HEADER_BYTES: usize = 1 << 20;

/// Bodies above this are rejected. Figures documents for the full paper
/// matrix are well under a megabyte; 64 MiB leaves room for absurdly large
/// custom plans while still bounding a bad client's memory damage.
pub const MAX_BODY_BYTES: u64 = 64 << 20;

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// Writes one frame: the compact header line, then the body bytes.
///
/// When a body is present, its exact length is appended to the header as
/// `body_bytes` — callers never count bytes themselves, so the declared and
/// actual lengths cannot drift.
///
/// # Errors
///
/// `InvalidInput`, with nothing written, for a header [`header_line`]
/// refuses; any I/O error from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, header: Json, body: Option<&[u8]>) -> std::io::Result<()> {
    let line =
        header_line(header, body).map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
    write_line(w, &line, body)
}

/// Renders a frame's header line, LF included, with `body_bytes` appended
/// when a body is present.
///
/// # Errors
///
/// A line longer than [`MAX_HEADER_BYTES`], which [`read_frame`] would
/// refuse; the message names its size and the limit.
pub fn header_line(mut header: Json, body: Option<&[u8]>) -> Result<String, String> {
    if let (Json::Obj(fields), Some(body)) = (&mut header, body) {
        fields.push(("body_bytes".to_string(), Json::UInt(body.len() as u64)));
    }
    let mut line = header.compact();
    if line.len() > MAX_HEADER_BYTES {
        return Err(format!(
            "header of {} bytes exceeds the {MAX_HEADER_BYTES}-byte frame limit",
            line.len()
        ));
    }
    line.push('\n');
    Ok(line)
}

/// Writes a line from [`header_line`] and the body it was rendered with.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_line<W: Write>(w: &mut W, line: &str, body: Option<&[u8]>) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    if let Some(body) = body {
        w.write_all(body)?;
    }
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream (the peer
/// closed before sending another header byte) and the parsed header plus
/// body (empty when the header declares none) otherwise.
///
/// # Errors
///
/// * `InvalidData` — oversized header/body, a header that is not a JSON
///   object, or a `body_bytes` field that is not an integer;
/// * `UnexpectedEof` — the stream ended inside a header line or body;
/// * any I/O error from the underlying reader.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<(Json, Vec<u8>)>> {
    let Some(line) = read_header_line(r)? else {
        return Ok(None);
    };
    let header = Json::parse(&line).map_err(|e| bad_data(format!("bad frame header: {e}")))?;
    if header.as_obj().is_err() {
        return Err(bad_data("frame header must be a JSON object"));
    }
    let body = match header.get("body_bytes") {
        None => Vec::new(),
        Some(len) => {
            let len = len
                .as_u64()
                .map_err(|e| bad_data(format!("bad body_bytes: {e}")))?;
            if len > MAX_BODY_BYTES {
                return Err(bad_data(format!(
                    "body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )));
            }
            let mut body = vec![0u8; len as usize];
            r.read_exact(&mut body)?;
            body
        }
    };
    Ok(Some((header, body)))
}

/// Reads up to and including one `\n`, enforcing [`MAX_HEADER_BYTES`].
/// `Ok(None)` only when the stream ends before the first byte.
fn read_header_line<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "stream ended inside a frame header",
            ));
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let line_part = &chunk[..nl.unwrap_or(chunk.len())];
        buf.extend_from_slice(line_part);
        let used = line_part.len() + usize::from(nl.is_some());
        r.consume(used);
        if buf.len() > MAX_HEADER_BYTES {
            return Err(bad_data(format!(
                "frame header exceeds the {MAX_HEADER_BYTES}-byte limit"
            )));
        }
        if nl.is_some() {
            break;
        }
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| bad_data("frame header is not UTF-8"))
}

/// Builds an error-response header: `{"status":"error","error":msg}`.
pub fn error_header(msg: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("status".to_string(), Json::str("error")),
        ("error".to_string(), Json::Str(msg.into())),
    ])
}

/// Builds a success-response header for `op` with extra fields appended.
pub fn ok_header(op: &str, fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![
        ("status".to_string(), Json::str("ok")),
        ("op".to_string(), Json::str(op)),
    ];
    all.extend(fields);
    Json::Obj(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(header: Json, body: Option<&[u8]>) -> (Json, Vec<u8>) {
        let mut wire = Vec::new();
        write_frame(&mut wire, header, body).unwrap();
        let mut r = BufReader::new(&wire[..]);
        read_frame(&mut r).unwrap().expect("one frame")
    }

    #[test]
    fn frames_round_trip_with_and_without_bodies() {
        let (h, b) = round_trip(ok_header("ping", vec![]), None);
        assert_eq!(h.get("status").unwrap().as_str(), Ok("ok"));
        assert!(b.is_empty());

        let body = b"figures {\"x\": 1.5}\nsecond line".to_vec();
        let (h, b) = round_trip(ok_header("submit", vec![]), Some(&body));
        assert_eq!(h.get("body_bytes").unwrap().as_u64(), Ok(body.len() as u64));
        assert_eq!(b, body);
    }

    #[test]
    fn two_frames_on_one_stream_are_read_in_order() {
        let mut wire = Vec::new();
        write_frame(&mut wire, ok_header("a", vec![]), Some(b"AA")).unwrap();
        write_frame(&mut wire, ok_header("b", vec![]), None).unwrap();
        let mut r = BufReader::new(&wire[..]);
        let (h1, b1) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(h1.get("op").unwrap().as_str(), Ok("a"));
        assert_eq!(b1, b"AA");
        let (h2, b2) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(h2.get("op").unwrap().as_str(), Ok("b"));
        assert!(b2.is_empty());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_frames_are_invalid_data_not_panics() {
        for wire in [
            &b"not json\n"[..],
            b"[1,2]\n",                               // header must be an object
            b"{\"op\":\"x\",\"body_bytes\":\"9\"}\n", // non-integer length
        ] {
            let err = read_frame(&mut BufReader::new(wire)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        }
        // Truncated body: declared 10 bytes, stream has 3.
        let err = read_frame(&mut BufReader::new(
            &b"{\"op\":\"x\",\"body_bytes\":10}\nabc"[..],
        ))
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        // Truncated header (no newline).
        let err = read_frame(&mut BufReader::new(&b"{\"op\""[..])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_header_the_reader_would_refuse_is_not_written() {
        let pad = |n: usize| ok_header("x", vec![("pad".to_string(), Json::Str("p".repeat(n)))]);
        let fits = MAX_HEADER_BYTES + 1 - header_line(pad(0), None).unwrap().len();
        assert_eq!(
            header_line(pad(fits), None).unwrap().len(),
            MAX_HEADER_BYTES + 1
        );
        let (h, _) = round_trip(pad(fits), None);
        assert_eq!(h.get("pad").unwrap().as_str().unwrap().len(), fits);

        let err = header_line(pad(fits + 1), None).unwrap_err();
        assert_eq!(
            err,
            format!("header of 1048577 bytes exceeds the {MAX_HEADER_BYTES}-byte frame limit")
        );
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, pad(fits + 1), Some(b"body")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "nothing is written");

        // The reader draws the line exactly there too, however the line
        // falls into its buffer's chunks.
        let mut line = vec![b' '; MAX_HEADER_BYTES + 1];
        line[..2].copy_from_slice(b"{}");
        line.push(b'\n');
        let err = read_frame(&mut BufReader::new(&line[..])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("limit"), "{err}");
        line.remove(2);
        assert!(read_frame(&mut BufReader::new(&line[..]))
            .unwrap()
            .is_some());
    }

    #[test]
    fn oversized_bodies_are_rejected_before_allocation() {
        let wire = format!("{{\"op\":\"x\",\"body_bytes\":{}}}\n", MAX_BODY_BYTES + 1);
        let err = read_frame(&mut BufReader::new(wire.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("limit"), "{err}");
    }
}
