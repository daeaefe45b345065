//! A minimal HTTP/1.1 subset over `std::net`, shared by server and client.
//!
//! Supported: request line + headers + `Content-Length` bodies, persistent
//! connections (`Connection: keep-alive` semantics, the HTTP/1.1 default),
//! explicit `Connection: close`, and — on **responses only** — chunked
//! transfer encoding, which `/sweep` and `/batch` use to stream result rows
//! before the total body length is known ([`write_chunked_head`], frames
//! from a [`ChunkBatcher`], then [`LAST_CHUNK`]; [`read_response`]
//! reassembles the chunks transparently). Not supported (and rejected where it matters):
//! chunked *requests*, HTTP/0.9/2, multi-line header folding. That subset
//! is exactly what `lis client` and `loadgen` speak, and keeps the parser
//! small enough to audit.
//!
//! Hard limits guard the daemon against hostile or broken peers: the head
//! (request/status line + headers) may not exceed [`MAX_HEAD_BYTES`] and
//! bodies may not exceed [`MAX_BODY_BYTES`].

use std::io::{self, BufRead, Write};

/// Maximum bytes of request/status line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The cross-tier correlation header, in the lowercase form header lookup
/// uses. Clients (or the gateway) set it; the server echoes it back, so a
/// request can be traced through every tier it crossed.
pub const REQUEST_ID_HEADER: &str = "x-lis-request-id";

/// Maximum accepted `Content-Length`.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request (server side) with its body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Request target, e.g. `/analyze` (query strings are kept verbatim).
    pub path: String,
    /// Header name/value pairs; names are lowercased during parsing.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there is no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to tear the connection down after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A parsed HTTP response (client side) with its body.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Header name/value pairs; names are lowercased during parsing.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn read_head(reader: &mut impl BufRead) -> io::Result<Option<Vec<String>>> {
    let mut lines = Vec::new();
    let mut total = 0usize;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            // Clean EOF before any bytes: the peer closed an idle
            // connection. EOF mid-head is a protocol error.
            if lines.is_empty() && total == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        total += n;
        if total > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            if lines.is_empty() {
                // Tolerate stray blank lines before the request line.
                continue;
            }
            return Ok(Some(lines));
        }
        lines.push(trimmed.to_string());
    }
}

fn parse_headers(lines: &[String]) -> io::Result<Vec<(String, String)>> {
    lines
        .iter()
        .map(|line| {
            let (name, value) = line.split_once(':').ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad header {line:?}"))
            })?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect()
}

fn read_body(reader: &mut impl BufRead, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
    // Conflicting duplicate Content-Length headers are a request-smuggling
    // vector: reject them rather than silently taking the first.
    let mut length: Option<usize> = None;
    for (k, v) in headers {
        if k == "content-length" {
            let n = v
                .parse::<usize>()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
            if length.is_some_and(|prev| prev != n) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "conflicting Content-Length headers",
                ));
            }
            length = Some(n);
        }
    }
    let length = length.unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunked transfer encoding is not supported",
        ));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Reads one request from a connection.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly between
/// requests (normal keep-alive teardown).
///
/// # Errors
///
/// I/O errors pass through; protocol violations surface as
/// [`io::ErrorKind::InvalidData`] and mid-request EOF as
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(lines) = read_head(reader)? else {
        return Ok(None);
    };
    let mut parts = lines[0].split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad request line {:?}", lines[0]),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {version:?}"),
        ));
    }
    let headers = parse_headers(&lines[1..])?;
    let body = read_body(reader, &headers)?;
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        body,
    }))
}

/// Reads one response from a connection (client side).
///
/// # Errors
///
/// Same taxonomy as [`read_request`]; a clean EOF before the status line is
/// `UnexpectedEof` here, because the client is always owed a response.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let Some(lines) = read_head(reader)? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without responding",
        ));
    };
    let mut parts = lines[0].split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code.parse::<u16>().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {:?}", lines[0]),
            )
        })?,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {:?}", lines[0]),
            ))
        }
    };
    let headers = parse_headers(&lines[1..])?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked_body(reader)?
    } else {
        read_body(reader, &headers)?
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Reassembles a chunked response body: `<hex size>\r\n<data>\r\n` frames
/// terminated by a zero-size chunk. Chunk extensions (after `;`) are
/// ignored; trailer headers are consumed up to the final blank line.
fn read_chunked_body(reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut body = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || !line.ends_with('\n') {
            // A line cut short by EOF is an incomplete frame, not data —
            // the incremental scanner relies on this to keep reading.
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-chunk",
            ));
        }
        let size_text = line
            .trim_end_matches(['\r', '\n'])
            .split(';')
            .next()
            .unwrap_or("");
        let size =
            usize::from_str_radix(size_text.trim(), 16).map_err(|_| bad("bad chunk size line"))?;
        if size == 0 {
            // Consume optional trailers up to the terminating blank line.
            loop {
                let mut trailer = String::new();
                if reader.read_line(&mut trailer)? == 0 || !trailer.ends_with('\n') {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before the chunked trailer",
                    ));
                }
                if trailer.trim_end_matches(['\r', '\n']).is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len().saturating_add(size) > MAX_BODY_BYTES {
            return Err(bad("chunked body too large"));
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk data not terminated by CRLF"));
        }
    }
}

/// The zero-size chunk that terminates a chunked response body.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Writes the head of a chunked response (status line + headers +
/// `Transfer-Encoding: chunked`, no `Content-Length`). Follow with
/// [`ChunkBatcher`] frames and one [`LAST_CHUNK`].
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_chunked_head(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    use std::fmt::Write as _;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\n",
        reason(status),
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {}\r\n", sanitize_header_value(value));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.flush()
}

/// Coalesces many small streamed payloads into fewer, larger chunk frames —
/// the one chunk framer of the crate.
///
/// A frame per NDJSON row would be ruinous on a `TCP_NODELAY` socket, where
/// every write is a syscall and a segment. A batcher accumulates rows until
/// `threshold` payload bytes are pending, then emits them as **one** chunk
/// frame with a single `write_all`. A threshold of `0` flushes on every
/// push: one row per chunk, for paced streams that must hit the wire row by
/// row. Worker jobs flush into a `Vec<u8>` and hand the framed bytes to the
/// event loop, which writes them unchanged.
///
/// The resulting byte stream is still standard chunked encoding — only the
/// frame boundaries move, never the payload — so clients reassembling the
/// body see identical bytes.
pub struct ChunkBatcher {
    payload: Vec<u8>,
    frame: Vec<u8>,
    threshold: usize,
}

impl ChunkBatcher {
    /// A batcher flushing once `threshold` payload bytes are pending
    /// (`0` = flush every push).
    pub fn new(threshold: usize) -> ChunkBatcher {
        ChunkBatcher {
            payload: Vec::new(),
            frame: Vec::new(),
            threshold,
        }
    }

    /// Appends `data` to the pending chunk, flushing if the pending payload
    /// has reached the threshold.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream.
    pub fn push(&mut self, writer: &mut impl Write, data: &[u8]) -> io::Result<()> {
        self.payload.extend_from_slice(data);
        if self.payload.len() >= self.threshold {
            self.flush(writer)
        } else {
            Ok(())
        }
    }

    /// Writes the pending payload as one chunk frame (no-op when empty —
    /// an empty chunk would terminate the body).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream.
    pub fn flush(&mut self, writer: &mut impl Write) -> io::Result<()> {
        if self.payload.is_empty() {
            return Ok(());
        }
        self.frame.clear();
        let _ = write!(self.frame, "{:x}\r\n", self.payload.len());
        self.frame.extend_from_slice(&self.payload);
        self.frame.extend_from_slice(b"\r\n");
        self.payload.clear();
        writer.write_all(&self.frame)?;
        writer.flush()
    }
}

/// Renders a complete response (head + body) to a byte buffer, with
/// `Content-Length` framing. [`write_response`] sends exactly these bytes;
/// the fault injector slices them to simulate a truncated peer.
pub fn render_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    render_response_with(status, content_type, body, keep_alive, &[])
}

/// [`render_response`] with extra response headers (e.g. the propagated
/// `X-LIS-Request-Id`). Header values are sanitized against CR/LF
/// injection: any control character is replaced with `_`.
pub fn render_response_with(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    use std::fmt::Write as _;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {}\r\n", sanitize_header_value(value));
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Replaces control characters (notably CR/LF) in a header value so an
/// attacker-supplied string cannot smuggle extra headers into a response.
fn sanitize_header_value(value: &str) -> String {
    value
        .chars()
        .map(|c| if c.is_control() { '_' } else { c })
        .collect()
}

/// Writes a complete response, with `Content-Length` framing.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    writer.write_all(&render_response(status, content_type, body, keep_alive))?;
    writer.flush()
}

/// Writes a complete request, with `Content-Length` framing when a body is
/// present.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    write_request_with(writer, method, path, &[], body)
}

/// [`write_request`] with extra request headers (e.g. the propagated
/// `X-LIS-Request-Id` on the gateway → shard hop). Values are sanitized
/// against CR/LF injection.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_request_with(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: lis\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        use std::fmt::Write as _;
        let _ = write!(head, "{name}: {}\r\n", sanitize_header_value(value));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trip() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/analyze", b"{\"x\":1}").unwrap();
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .expect("one request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.body, b"{\"x\":1}");
        assert_eq!(req.header("host"), Some("lis"));
        assert!(!req.wants_close());
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 503, "application/json", b"{}", false).unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, b"{}");
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.header("content-type"), Some("application/json"));
    }

    #[test]
    fn two_pipelined_requests_parse_in_order() {
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/metrics", b"").unwrap();
        write_request(&mut wire, "POST", "/shutdown", b"").unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/metrics");
        assert_eq!(
            read_request(&mut reader).unwrap().unwrap().path,
            "/shutdown"
        );
        assert!(read_request(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn connection_close_is_detected() {
        let wire = b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn protocol_violations_are_invalid_data() {
        let cases: &[&[u8]] = &[
            b"GARBAGE\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
        ];
        for wire in cases {
            let err = read_request(&mut BufReader::new(&wire[..])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{wire:?}");
        }
    }

    #[test]
    fn eof_mid_request_is_unexpected_eof() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        let err = read_request(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = read_request(&mut BufReader::new(&b"GET / HT"[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        wire.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES)).as_bytes());
        let err = read_request(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn duplicate_but_agreeing_content_lengths_are_tolerated() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        for code in [200, 400, 404, 405, 408, 413, 422, 429, 500, 502, 503, 504] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
        assert_eq!(reason(299), "Unknown");
    }

    #[test]
    fn extra_headers_round_trip_on_requests_and_responses() {
        let mut wire = Vec::new();
        write_request_with(
            &mut wire,
            "POST",
            "/analyze",
            &[("X-LIS-Request-Id", "req-42")],
            b"{}",
        )
        .unwrap();
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .expect("one request");
        assert_eq!(req.header("x-lis-request-id"), Some("req-42"));

        let wire = render_response_with(
            200,
            "application/json",
            b"{}",
            true,
            &[("X-LIS-Request-Id", "req-42")],
        );
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.header("x-lis-request-id"), Some("req-42"));
    }

    #[test]
    fn chunked_response_round_trip() {
        let mut wire = Vec::new();
        write_chunked_head(
            &mut wire,
            200,
            "application/x-ndjson",
            true,
            &[("X-LIS-Request-Id", "sweep-1")],
        )
        .unwrap();
        let mut frames = ChunkBatcher::new(0);
        frames.push(&mut wire, b"{\"point\":0}\n").unwrap();
        frames.flush(&mut wire).unwrap(); // nothing pending: no empty frame
        frames.push(&mut wire, b"{\"point\":1}\n").unwrap();
        frames.push(&mut wire, b"{\"done\":true}\n").unwrap();
        wire.extend_from_slice(LAST_CHUNK);
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
        assert_eq!(resp.header("x-lis-request-id"), Some("sweep-1"));
        assert_eq!(
            resp.body,
            b"{\"point\":0}\n{\"point\":1}\n{\"done\":true}\n"
        );
    }

    #[test]
    fn chunk_batcher_coalesces_without_changing_the_body() {
        // Batched (threshold 32, 8192) and per-push (threshold 0) framings
        // must reassemble to the same body.
        let rows: Vec<String> = (0..10).map(|i| format!("{{\"point\":{i}}}\n")).collect();
        let expected: String = rows.concat();
        for threshold in [0usize, 32, 8192] {
            let mut wire = Vec::new();
            write_chunked_head(&mut wire, 200, "application/x-ndjson", true, &[]).unwrap();
            let mut batcher = ChunkBatcher::new(threshold);
            for row in &rows {
                batcher.push(&mut wire, row.as_bytes()).unwrap();
            }
            batcher.push(&mut wire, b"").unwrap(); // empty push is harmless
            batcher.flush(&mut wire).unwrap();
            batcher.flush(&mut wire).unwrap(); // idempotent when drained
            wire.extend_from_slice(LAST_CHUNK);
            let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
            assert_eq!(resp.body, expected.as_bytes(), "threshold {threshold}");
            // Frame count: threshold 0 streams one frame per row; a large
            // threshold coalesces everything into a single frame.
            let frames = wire.windows(2).filter(|w| w == b"}\n").count();
            assert!(frames >= 1, "threshold {threshold}");
        }
        // Threshold 0 really does put each row on the wire immediately.
        let mut wire = Vec::new();
        let mut batcher = ChunkBatcher::new(0);
        batcher.push(&mut wire, b"abc").unwrap();
        assert_eq!(wire, b"3\r\nabc\r\n");
        // A large threshold holds the row back until flushed.
        let mut wire = Vec::new();
        let mut batcher = ChunkBatcher::new(8192);
        batcher.push(&mut wire, b"abc").unwrap();
        assert!(wire.is_empty());
        batcher.flush(&mut wire).unwrap();
        assert_eq!(wire, b"3\r\nabc\r\n");
    }

    #[test]
    fn chunked_requests_are_still_rejected() {
        let wire = b"POST /sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        let err = read_request(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_chunked_responses_are_rejected() {
        // Garbage size line.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n";
        let err = read_response(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Chunk data not terminated by CRLF.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXY0\r\n\r\n";
        let err = read_response(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // EOF before the terminating chunk.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n";
        let err = read_response(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A chunk claiming more than the body cap.
        let wire = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_response(&mut BufReader::new(wire.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_values_cannot_smuggle_crlf() {
        let rendered = render_response_with(
            200,
            "application/json",
            b"{}",
            false,
            &[("X-LIS-Request-Id", "evil\r\nX-Injected: 1")],
        );
        let text = String::from_utf8(rendered).unwrap();
        assert!(
            !text.lines().any(|l| l.starts_with("X-Injected")),
            "a header was smuggled: {text}"
        );
        assert!(text.contains("evil__X-Injected: 1"), "{text}");
    }

    #[test]
    fn render_response_matches_write_response_byte_for_byte() {
        let mut written = Vec::new();
        write_response(&mut written, 200, "application/json", b"{\"t\":1}", true).unwrap();
        assert_eq!(
            written,
            render_response(200, "application/json", b"{\"t\":1}", true)
        );
    }
}
