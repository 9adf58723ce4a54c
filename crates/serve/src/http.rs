//! A minimal, defensive HTTP/1.1 wire layer.
//!
//! Hand-rolled on `std::io` because the workspace is hermetic (zero
//! registry dependencies): no hyper, no epoll crate. One parser,
//! [`parse_request`], works over a byte buffer: the server feeds it
//! each connection's buffered bytes, and [`read_request`] adapts it to
//! any [`BufRead`] so the property suite can drive it with in-memory
//! cursors at fuzzing speed. Every input dimension is hard-limited
//! (request line, header count, header size, body size) so a hostile
//! peer can cost at most a bounded read before a 4xx.
//!
//! Supported surface: `GET`/`POST`/`HEAD`, `Content-Length` bodies,
//! keep-alive and pipelining. Chunked transfer encoding is refused
//! with `501` rather than half-implemented.

use std::io::{self, BufRead, Write};

/// Input hard limits. Exceeding any of them is a client error, never a
/// panic or an unbounded allocation.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Longest accepted request line, in bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, in bytes.
    pub max_header_line: usize,
    /// Most headers accepted per request.
    pub max_headers: usize,
    /// Largest accepted body, in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `HEAD`).
    pub method: String,
    /// Path component of the target, before any `?`.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything that can go wrong while reading a request. Each variant
/// maps to one response status; none of them panic.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (syntax, bad framing, truncated mid-request).
    BadRequest(&'static str),
    /// Request line exceeded [`Limits::max_request_line`] → 414.
    UriTooLong,
    /// A header exceeded [`Limits::max_header_line`] or there were more
    /// than [`Limits::max_headers`] → 431.
    HeadersTooLarge,
    /// Body exceeded [`Limits::max_body`] → 413.
    BodyTooLarge,
    /// The socket read timed out mid-request (slow-loris) → 408.
    Timeout,
    /// Chunked or otherwise unsupported framing → 501.
    Unsupported(&'static str),
    /// Transport-level failure; the connection is unusable.
    Io(io::Error),
}

impl HttpError {
    /// The response status for this error (0 for [`HttpError::Io`],
    /// where no response can be sent).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 0,
            HttpError::BadRequest(_) => 400,
            HttpError::UriTooLong => 414,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Timeout => 408,
            HttpError::Unsupported(_) => 501,
        }
    }

    /// Short operator-facing description.
    pub fn reason(&self) -> &'static str {
        match self {
            HttpError::BadRequest(why) => why,
            HttpError::UriTooLong => "request line too long",
            HttpError::HeadersTooLarge => "headers too large",
            HttpError::BodyTooLarge => "body too large",
            HttpError::Timeout => "request read timed out",
            HttpError::Unsupported(why) => why,
            HttpError::Io(_) => "io error",
        }
    }
}

/// How far a request that is not complete yet has arrived — what the
/// connection gauge needs to pick the deadline that applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pending {
    /// No bytes buffered: the connection is idle between requests.
    Empty,
    /// A request has started arriving but its head is incomplete.
    Head,
    /// The head is complete and valid; the declared body is arriving.
    Body,
}

impl Pending {
    /// The error for a stream that ends in this state: none between
    /// requests, a 400 naming the truncation otherwise.
    pub fn truncation(self) -> Option<HttpError> {
        match self {
            Pending::Empty => None,
            Pending::Head => Some(HttpError::BadRequest("truncated head")),
            Pending::Body => Some(HttpError::BadRequest("truncated body")),
        }
    }
}

/// What [`parse_request`] made of the buffered bytes.
#[derive(Debug)]
pub enum Parsed {
    /// More bytes are needed before the request can be decided.
    Incomplete(Pending),
    /// One complete request and the number of leading buffer bytes it
    /// spans (head plus body); later bytes belong to the next request.
    Complete(Request, usize),
}

/// Read timeouts surface as `WouldBlock` on Unix sockets and
/// `TimedOut` elsewhere; both mean the peer stalled.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Minimal percent-decoding for query values (`%xx` and `+`). Invalid
/// escapes pass through literally — queries here carry years and small
/// identifiers, not arbitrary documents.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(p), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// The line of `buf` starting at `*pos`, without its `\n` or `\r\n`,
/// advancing `*pos` past it; `Ok(None)` while the line has not ended.
/// The length checked against `max` counts a trailing `\r`, so a line
/// over the limit is `too_long` before its end arrives.
fn next_line<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    max: usize,
    too_long: HttpError,
) -> Result<Option<&'a str>, HttpError> {
    let rest = &buf[*pos..];
    let Some(len) = rest.iter().position(|&b| b == b'\n') else {
        return if rest.len() > max {
            Err(too_long)
        } else {
            Ok(None)
        };
    };
    if len > max {
        return Err(too_long);
    }
    *pos += len + 1;
    let line = &rest[..len];
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    std::str::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-utf8 line"))
}

/// Parses the request at the front of `buf` — the one request parser.
///
/// Returns [`Parsed::Incomplete`] while more bytes are needed, saying
/// how far the request got, and [`Parsed::Complete`] with the request
/// and the byte count it spans once head and declared body are all
/// buffered. Nothing is consumed: the caller drops the span.
///
/// # Errors
///
/// The first defect in wire order, as soon as it is decidable: an
/// over-limit line before the line ends, a malformed line when it
/// ends, a refused framing when the head ends. Every limit violation
/// and framing defect maps to a 4xx/5xx status, never a panic.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parsed, HttpError> {
    if buf.is_empty() {
        return Ok(Parsed::Incomplete(Pending::Empty));
    }
    let mut pos = 0;
    // Tolerate a little CRLF noise between pipelined requests
    // (RFC 9112 §2.2), but only a little: endless blank lines are a
    // stall, not a request.
    let mut blank_lines = 0;
    let request_line = loop {
        match next_line(
            buf,
            &mut pos,
            limits.max_request_line,
            HttpError::UriTooLong,
        )? {
            None => return Ok(Parsed::Incomplete(Pending::Head)),
            Some("") if blank_lines == 3 => return Err(HttpError::BadRequest("blank-line flood")),
            Some("") => blank_lines += 1,
            Some(line) => break line,
        }
    };

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest("malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("malformed method token"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest("target must be origin-form"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported http version")),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(line) = next_line(
            buf,
            &mut pos,
            limits.max_header_line,
            HttpError::HeadersTooLarge,
        )?
        else {
            return Ok(Parsed::Incomplete(Pending::Head));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("header without colon"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(HttpError::Unsupported("transfer-encoding not supported"));
    }
    let content_length = match find("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("malformed content-length"))?,
    };
    if content_length > limits.max_body {
        return Err(HttpError::BodyTooLarge);
    }
    let Some(body) = buf[pos..].get(..content_length) else {
        return Ok(Parsed::Incomplete(Pending::Body));
    };

    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => http11,
    };
    let (path, query) = split_target(target);
    let request = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: body.to_vec(),
        keep_alive,
    };
    Ok(Parsed::Complete(request, pos + content_length))
}

/// Reads and parses one request from a stream: feeds [`parse_request`]
/// what `fill_buf` offers and consumes exactly the request's bytes, so
/// pipelined requests parse back to back.
///
/// `Ok(None)` means the peer closed cleanly between requests (normal
/// keep-alive teardown). Any other [`HttpError`] than
/// [`HttpError::Io`] should be answered with [`Response::from_error`]
/// before closing.
///
/// # Errors
///
/// See [`parse_request`]; a stream that ends inside a request is a 400
/// naming the truncation ([`Pending::truncation`]), and a read timeout
/// is [`HttpError::Timeout`].
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    let mut buf = Vec::new();
    let mut pending = Pending::Empty;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Io(e)),
        };
        if chunk.is_empty() {
            return pending.truncation().map_or(Ok(None), Err);
        }
        let consumed = buf.len();
        buf.extend_from_slice(chunk);
        match parse_request(&buf, limits)? {
            Parsed::Complete(request, len) => {
                reader.consume(len - consumed);
                return Ok(Some(request));
            }
            Parsed::Incomplete(now) => {
                reader.consume(buf.len() - consumed);
                pending = now;
            }
        }
    }
}

/// One response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server should close the connection after writing.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A JSON error response: `{"error":message}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\":{}}}", crate::json::string(message)),
        )
    }

    /// A JSON error response with a detail:
    /// `{"error":message,"detail":detail}`.
    pub fn error_with_detail(status: u16, message: &str, detail: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\":{},\"detail\":{}}}",
                crate::json::string(message),
                crate::json::string(detail)
            ),
        )
    }

    /// The error response for a failed request read (connection always
    /// closes afterwards: framing state is unrecoverable).
    pub fn from_error(err: &HttpError) -> Self {
        let mut r = Response::error(err.status(), err.reason());
        r.close = true;
        r
    }

    /// The standard reason phrase for this status.
    pub fn reason_phrase(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Content Too Large",
            414 => "URI Too Long",
            422 => "Unprocessable Content",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes the response into one buffer (status line, headers,
    /// body) — the unit the rotation loop queues for non-blocking
    /// writes, so header and body always share a packet.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            self.reason_phrase(),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )
        .expect("write! to a Vec cannot fail");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes()), &Limits::default())
    }

    fn parse_buf(buf: &[u8]) -> Result<Parsed, HttpError> {
        parse_request(buf, &Limits::default())
    }

    fn pending(buf: &[u8]) -> Pending {
        match parse_buf(buf) {
            Ok(Parsed::Incomplete(p)) => p,
            other => panic!(
                "{:?} should be incomplete, got {other:?}",
                String::from_utf8_lossy(buf)
            ),
        }
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req =
            parse("GET /attribute?year=2018&k=v HTTP/1.1\r\nHost: x\r\nX-Client-Id: abc\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/attribute");
        assert_eq!(req.query_param("year"), Some("2018"));
        assert_eq!(req.query_param("k"), Some("v"));
        assert_eq!(req.header("x-client-id"), Some("abc"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloEXTRA")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 EXTRA\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let err = parse(raw).expect_err(raw);
            assert_eq!(err.status(), 400, "{raw:?} → {err:?}");
        }
    }

    #[test]
    fn oversized_inputs_map_to_their_statuses() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
        assert_eq!(parse(&long_target).unwrap_err().status(), 414);

        let big_header = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "b".repeat(9000));
        assert_eq!(parse(&big_header).unwrap_err().status(), 431);

        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..70)
                .map(|i| format!("X-H{i}: v\r\n"))
                .collect::<String>()
        );
        assert_eq!(parse(&many_headers).unwrap_err().status(), 431);

        let huge_body = "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(parse(huge_body).unwrap_err().status(), 413);
    }

    #[test]
    fn the_first_defect_in_wire_order_wins_over_a_later_oversize() {
        // A bad line followed by an over-limit one: the bad line is
        // reported, whether the over-limit line has ended or not.
        let headers70: String = (0..70).map(|i| format!("X-H{i}: v\r\n")).collect();
        for raw in [
            format!("GET / HTTP/1.1\r\nnocolon\r\nX: {}", "b".repeat(9000)),
            format!("get / http/1.1\r\n{headers70}"),
            format!("GET / HTTP/1.1\r\nbad name: v\r\n{headers70}"),
        ] {
            let err = parse(&raw).expect_err(&raw[..32]);
            assert_eq!(err.status(), 400, "{:?} → {err:?}", &raw[..32]);
        }
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn chunked_encoding_is_refused_not_half_implemented() {
        let err = parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close.keep_alive);
        let http10 = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!http10.keep_alive, "HTTP/1.0 defaults to close");
        let http10_ka = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(http10_ka.keep_alive);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        // A cursor offers everything in one `fill_buf`; a 3-byte reader
        // makes each request span many, and neither may over-consume.
        let cursor = Cursor::new(raw.as_bytes());
        let dribble = BufReader::with_capacity(3, Cursor::new(raw.as_bytes()));
        let readers: [Box<dyn BufRead>; 2] = [Box::new(cursor), Box::new(dribble)];
        for mut reader in readers {
            let a = read_request(&mut reader, &Limits::default())
                .unwrap()
                .unwrap();
            let b = read_request(&mut reader, &Limits::default())
                .unwrap()
                .unwrap();
            assert_eq!(a.path, "/a");
            assert_eq!(b.path, "/b");
            assert_eq!(b.body, b"hi");
            assert!(read_request(&mut reader, &Limits::default())
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn percent_decoding_covers_the_query_surface() {
        let req = parse("GET /x?a=1%202&b=c+d&flag&bad=%zz HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("a"), Some("1 2"));
        assert_eq!(req.query_param("b"), Some("c d"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("bad"), Some("%zz"));
    }

    #[test]
    fn parser_classifies_prefixes_of_a_posted_request() {
        let full = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let head_end = full
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
            .unwrap();
        let total = full.len(); // head + the 5 declared body bytes
        assert_eq!(pending(b""), Pending::Empty);
        for cut in 1..head_end {
            // Everything before the blank line ends is a partial head.
            assert_eq!(pending(&full[..cut]), Pending::Head, "cut={cut}");
        }
        assert_eq!(pending(&full[..head_end]), Pending::Body, "body missing");
        assert_eq!(pending(&full[..total - 2]), Pending::Body, "body partial");
        // Extra pipelined bytes never change the first request's span.
        let mut two = full.to_vec();
        two.extend_from_slice(b"GET /y HTTP/1.1\r\n\r\n");
        for buf in [&full[..], &two[..]] {
            let Ok(Parsed::Complete(req, len)) = parse_buf(buf) else {
                panic!("whole request buffered");
            };
            assert_eq!((len, &req.body[..]), (total, &b"hello"[..]));
        }
    }

    #[test]
    fn complete_spans_and_statuses() {
        // `Ok(())`: one request spanning the whole input; `Err(status)`:
        // rejected from the buffered bytes alone, with that status.
        for (raw, want) in [
            ("GET /a HTTP/1.1\r\n\r\n", Ok(())),
            ("\r\n\r\nGET /a HTTP/1.1\r\nHost: x\r\n\r\n", Ok(())),
            ("POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi", Ok(())),
            ("GET /a HTTP/1.0\nConnection: keep-alive\n\n", Ok(())),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                Err(501),
            ),
            ("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", Err(400)),
            (
                "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
                Err(413),
            ),
            ("GET /x HTTP/1.1\r\nno-colon\r\n\r\n", Err(400)),
            ("\r\n\r\n\r\n\r\n", Err(400)),
        ] {
            let got = match parse_buf(raw.as_bytes()) {
                Ok(Parsed::Complete(_, len)) => Ok(len),
                Ok(Parsed::Incomplete(p)) => panic!("{raw:?} is incomplete: {p:?}"),
                Err(err) => Err(err.status()),
            };
            assert_eq!(got, want.map(|()| raw.len()), "{raw:?}");
        }
    }

    #[test]
    fn parser_rejects_oversized_lines_before_they_finish() {
        let long_target = format!("GET /{}", "a".repeat(9000));
        assert_eq!(
            parse_buf(long_target.as_bytes()).unwrap_err().status(),
            414,
            "partial oversize request line is decidable early"
        );
        let big_header = format!("GET / HTTP/1.1\r\nX-Big: {}", "b".repeat(9000));
        assert_eq!(parse_buf(big_header.as_bytes()).unwrap_err().status(), 431);
        let many = format!(
            "GET / HTTP/1.1\r\n{}",
            (0..70)
                .map(|i| format!("X-H{i}: v\r\n"))
                .collect::<String>()
        );
        assert_eq!(parse_buf(many.as_bytes()).unwrap_err().status(), 431);
        // Exactly at the limit is still fine.
        let at_limit = format!("GET /{}", "a".repeat(8 * 1024 - 5));
        assert_eq!(pending(at_limit.as_bytes()), Pending::Head);
    }

    #[test]
    fn the_first_content_length_wins() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\nhi";
        let Ok(Parsed::Complete(req, len)) = parse_buf(raw) else {
            panic!("the first Content-Length frames the body");
        };
        assert_eq!((len, &req.body[..]), (raw.len(), &b"hi"[..]));
    }

    #[test]
    fn responses_serialize_with_exact_framing() {
        let bytes = Response::json(200, "{\"ok\":true}".to_string()).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_responses_always_close() {
        let r = Response::from_error(&HttpError::Timeout);
        assert_eq!(r.status, 408);
        assert!(r.close);
        assert!(String::from_utf8(r.body).unwrap().contains("timed out"));
    }

    #[test]
    fn error_bodies_are_escaped_json_objects() {
        let r = Response::error(404, "not found");
        assert_eq!((r.status, r.close), (404, false));
        assert_eq!(r.body, b"{\"error\":\"not found\"}");
        let d = Response::error_with_detail(422, "rejected", "line 1: \"x\"");
        assert_eq!(
            String::from_utf8(d.body).unwrap(),
            r#"{"error":"rejected","detail":"line 1: \"x\""}"#
        );
    }
}
