//! Per-connection HTTP state machines for the readiness front tier.
//!
//! The event loop cannot block in the strict parsers of [`crate::http`],
//! so each connection accumulates bytes in a growable buffer and a cheap
//! incremental scanner ([`request_progress`]) decides when one *complete*
//! request is buffered. The complete slice is then handed to the blocking
//! [`crate::http::read_request`] — every protocol decision (limits,
//! smuggling rejections, error wording) is made by that one parser.
//!
//! The client side gets the mirror image: [`ResponseProgress`] detects a
//! complete response (Content-Length or chunked framing) in a growing
//! buffer, and the complete slice replays through
//! [`crate::http::read_response`]. The gateway's multiplexed probes and
//! hedge races and the loadgen open-loop driver are built on it.

use std::io::{self, Cursor};

use crate::http::{read_request, read_response, Request, Response, MAX_HEAD_BYTES};

/// What the incremental request scanner concluded about a buffer.
#[derive(Debug)]
pub enum RequestProgress {
    /// No complete request yet; keep reading.
    Partial,
    /// The buffer holds nothing but (ignorable) leading blank lines.
    Empty,
    /// One complete request occupying `consumed` buffer bytes.
    Complete {
        /// The parsed request.
        request: Box<Request>,
        /// Bytes of the buffer it consumed (head + body).
        consumed: usize,
    },
    /// The buffer can never become a valid request.
    Violation(io::Error),
}

/// Scans `buf` for one complete HTTP request.
///
/// The scanner only decides *completeness*; parsing and every protocol
/// check run through [`read_request`] on the complete prefix, so error
/// taxonomy and wording are the blocking parser's. A head that
/// exceeds [`MAX_HEAD_BYTES`] without terminating is handed to the parser
/// early, which reports the same "request head too large" violation the
/// blocking reader produces.
pub fn request_progress(buf: &[u8]) -> RequestProgress {
    // Leading blank lines are tolerated (`read_head` skips them) but they
    // still count toward the head budget there, so a blank flood larger
    // than the budget must reach the parser and fail exactly like the
    // blocking reader — not sit in the buffer forever.
    let mut start = 0usize;
    while start < buf.len() && matches!(buf[start], b'\r' | b'\n') {
        start += 1;
    }
    if start == buf.len() && buf.len() <= MAX_HEAD_BYTES {
        return RequestProgress::Empty;
    }
    if !head_terminated(&buf[start..]) && buf.len() <= MAX_HEAD_BYTES {
        return RequestProgress::Partial;
    }
    // A complete head (or an over-budget prefix): every protocol decision
    // is made by the real parser over the buffered bytes. An under-buffered
    // body (the head announced more Content-Length than has arrived) comes
    // back as UnexpectedEof, which means: keep reading.
    let mut cursor = Cursor::new(buf);
    match read_request(&mut cursor) {
        Ok(Some(request)) => RequestProgress::Complete {
            request: Box::new(request),
            consumed: cursor.position() as usize,
        },
        Ok(None) => RequestProgress::Empty,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => RequestProgress::Partial,
        Err(e) => RequestProgress::Violation(e),
    }
}

/// Whether `buf` (starting at its first non-blank byte) contains a head
/// terminator: an empty line after at least one head line. `read_head` is
/// `read_line`-based, so a bare `\n\n` terminates as well as `\r\n\r\n`.
fn head_terminated(buf: &[u8]) -> bool {
    for i in 0..buf.len().saturating_sub(1) {
        if buf[i] == b'\n'
            && (buf[i + 1] == b'\n' || (buf[i + 1] == b'\r' && buf.get(i + 2) == Some(&b'\n')))
        {
            return true;
        }
    }
    false
}

/// What the incremental response scanner concluded about a buffer.
#[derive(Debug)]
pub enum ResponseProgress {
    /// No complete response yet; keep reading.
    Partial,
    /// One complete response occupying `consumed` buffer bytes.
    Complete {
        /// The parsed response.
        response: Box<Response>,
        /// Bytes of the buffer it consumed.
        consumed: usize,
    },
    /// The buffer can never become a valid response.
    Violation(io::Error),
}

/// Scans `buf` for one complete HTTP response (Content-Length or chunked).
pub fn response_progress(buf: &[u8]) -> ResponseProgress {
    let mut start = 0usize;
    while start < buf.len() && matches!(buf[start], b'\r' | b'\n') {
        start += 1;
    }
    if (start == buf.len() || !head_terminated(&buf[start..])) && buf.len() <= MAX_HEAD_BYTES {
        return ResponseProgress::Partial;
    }
    let mut cursor = Cursor::new(buf);
    match read_response(&mut cursor) {
        Ok(response) => ResponseProgress::Complete {
            response: Box::new(response),
            consumed: cursor.position() as usize,
        },
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => ResponseProgress::Partial,
        Err(e) => ResponseProgress::Violation(e),
    }
}

/// An outbound byte queue with partial-write resume.
///
/// The loop appends rendered responses (or chunk frames) and drains as the
/// socket accepts bytes; a short write leaves the offset in place and the
/// connection re-arms write interest.
#[derive(Debug, Default)]
pub struct WriteQueue {
    segments: std::collections::VecDeque<Vec<u8>>,
    /// Bytes of the front segment already written.
    offset: usize,
}

impl WriteQueue {
    /// Queues `bytes` for transmission (no-op when empty).
    pub fn push(&mut self, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.segments.push_back(bytes);
        }
    }

    /// Whether any bytes are pending.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Writes pending bytes into `writer` until drained or `WouldBlock`.
    /// `max_per_call` bounds bytes written per invocation — the test hook
    /// behind fault-injected short writes (`usize::MAX` in production).
    ///
    /// Returns `true` when the queue drained completely.
    ///
    /// # Errors
    ///
    /// Propagates fatal I/O errors (a dead peer); `WouldBlock` is not an
    /// error — it reports an undrained queue instead.
    pub fn drain(&mut self, writer: &mut impl io::Write, max_per_call: usize) -> io::Result<bool> {
        let mut budget = max_per_call;
        while let Some(front) = self.segments.front() {
            if budget == 0 {
                return Ok(false);
            }
            let slice = &front[self.offset..front.len().min(self.offset.saturating_add(budget))];
            match writer.write(slice) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.offset += n;
                    budget -= n;
                    if self.offset == front.len() {
                        self.segments.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// Reads everything currently available from a nonblocking stream into
/// `buf`. Returns `(bytes_read, saw_eof)`.
///
/// # Errors
///
/// Propagates fatal I/O errors; `WouldBlock` ends the read normally.
pub fn read_available(stream: &mut impl io::Read, buf: &mut Vec<u8>) -> io::Result<(usize, bool)> {
    let mut total = 0usize;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok((total, true)),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                total += n;
                if n < chunk.len() {
                    // The socket buffer is drained; don't pay another
                    // syscall just to learn WouldBlock.
                    return Ok((total, false));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((total, false)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{write_request, write_response};

    #[test]
    fn request_scanner_walks_a_pipelined_buffer() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/analyze", b"{\"a\":1}").unwrap();
        write_request(&mut wire, "GET", "/metrics", b"").unwrap();
        // First request parses and reports its exact span.
        let RequestProgress::Complete { request, consumed } = request_progress(&wire) else {
            panic!("first request should be complete");
        };
        assert_eq!(request.path, "/analyze");
        assert_eq!(request.body, b"{\"a\":1}");
        // The remainder is exactly the second request.
        let rest = &wire[consumed..];
        let RequestProgress::Complete { request, consumed } = request_progress(rest) else {
            panic!("second request should be complete");
        };
        assert_eq!(request.path, "/metrics");
        assert_eq!(consumed, rest.len());
        assert!(matches!(request_progress(&[]), RequestProgress::Empty));
    }

    #[test]
    fn request_scanner_reports_partials_at_every_split_point() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/analyze", b"{\"key\":\"value\"}").unwrap();
        for cut in 1..wire.len() {
            match request_progress(&wire[..cut]) {
                RequestProgress::Partial | RequestProgress::Empty => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
        assert!(matches!(
            request_progress(&wire),
            RequestProgress::Complete { .. }
        ));
    }

    #[test]
    fn request_scanner_matches_the_blocking_parser_on_violations() {
        let cases: &[&[u8]] = &[
            b"GARBAGE\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ];
        for wire in cases {
            let RequestProgress::Violation(mine) = request_progress(wire) else {
                panic!("{wire:?} should be a violation");
            };
            let theirs = read_request(&mut Cursor::new(*wire)).unwrap_err();
            assert_eq!(mine.kind(), theirs.kind(), "{wire:?}");
            assert_eq!(mine.to_string(), theirs.to_string(), "{wire:?}");
        }
    }

    #[test]
    fn oversized_head_is_a_violation_even_without_a_terminator() {
        let mut wire = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 64));
        let RequestProgress::Violation(e) = request_progress(&wire) else {
            panic!("oversized head should be a violation");
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("head too large"), "{e}");
    }

    #[test]
    fn leading_blank_lines_are_tolerated() {
        let mut wire = b"\r\n\r\n\n".to_vec();
        write_request(&mut wire, "GET", "/healthz", b"").unwrap();
        let RequestProgress::Complete { request, consumed } = request_progress(&wire) else {
            panic!("request after blank lines should parse");
        };
        assert_eq!(request.path, "/healthz");
        assert_eq!(consumed, wire.len());
        assert!(matches!(
            request_progress(b"\r\n\r\n"),
            RequestProgress::Empty
        ));
    }

    #[test]
    fn response_scanner_handles_content_length_and_chunked() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", b"{\"ok\":true}", true).unwrap();
        let tail_start = wire.len();
        // A chunked response right behind it.
        crate::http::write_chunked_head(&mut wire, 200, "application/x-ndjson", true, &[]).unwrap();
        let mut frames = crate::http::ChunkBatcher::new(0);
        frames.push(&mut wire, b"{\"row\":0}\n").unwrap();
        frames.push(&mut wire, b"{\"row\":1}\n").unwrap();
        wire.extend_from_slice(crate::http::LAST_CHUNK);

        let ResponseProgress::Complete { response, consumed } = response_progress(&wire) else {
            panic!("first response should be complete");
        };
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"{\"ok\":true}");
        assert_eq!(consumed, tail_start);
        for cut in tail_start + 1..wire.len() {
            assert!(
                matches!(
                    response_progress(&wire[consumed..cut]),
                    ResponseProgress::Partial
                ),
                "cut {cut}"
            );
        }
        let ResponseProgress::Complete { response, consumed } =
            response_progress(&wire[consumed..])
        else {
            panic!("chunked response should be complete");
        };
        assert_eq!(response.body, b"{\"row\":0}\n{\"row\":1}\n");
        assert_eq!(consumed, wire.len() - tail_start);
    }

    #[test]
    fn write_queue_resumes_partial_writes() {
        struct Trickle(Vec<u8>);
        impl io::Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = WriteQueue::default();
        q.push(b"hello ".to_vec());
        q.push(Vec::new()); // ignored
        q.push(b"world".to_vec());
        let mut sink = Trickle(Vec::new());
        // A 4-byte budget cannot finish; the queue reports undrained.
        assert!(!q.drain(&mut sink, 4).unwrap());
        assert!(!q.is_empty());
        while !q.drain(&mut sink, usize::MAX).unwrap() {}
        assert_eq!(sink.0, b"hello world");
        assert!(q.is_empty());
    }
}
