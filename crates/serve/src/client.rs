//! A minimal blocking HTTP/1.1 client for the integration tests and
//! the `e2ebench` serve workload.
//!
//! Hand-rolled for the same reason the server is: the workspace is
//! hermetic. It speaks exactly the subset the server emits —
//! `Content-Length`-framed responses with a handful of headers — and
//! supports keep-alive so the benchmark can measure per-request
//! latency without paying a TCP handshake each time.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::Limits;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// The status code from the status line.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The (possibly empty) body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on invalid bytes — fine for tests).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body was not utf-8")
    }
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// The default read timeout: generous, so a hung server fails a
    /// test instead of wedging it. Chaos suites that need tight
    /// deadlines use [`Client::connect_with_timeout`] with the
    /// server's advertised
    /// [`crate::server::ServeConfig::client_timeout`] instead.
    pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

    /// Connects to `addr` with [`Client::DEFAULT_READ_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Connection or socket-option errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Client::DEFAULT_READ_TIMEOUT)
    }

    /// Connects to `addr` with an explicit read timeout — typically
    /// the server's advertised
    /// [`crate::server::ServeConfig::client_timeout`], so client
    /// patience tracks the server's own stall deadlines instead of a
    /// hard-coded constant.
    ///
    /// # Errors
    ///
    /// Connection or socket-option errors.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request and reads one response on the persistent
    /// connection.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` when the response violates the
    /// server's framing subset.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        let mut req = format!("{method} {target} HTTP/1.1\r\nHost: synthattr\r\n");
        for (name, value) in headers {
            req.push_str(&format!("{name}: {value}\r\n"));
        }
        req.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        self.stream.write_all(req.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        read_response(&mut self.reader)
    }
}

/// One-shot request on a fresh connection (the common test idiom).
///
/// # Errors
///
/// Same as [`Client::request`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    Client::connect(addr)?.request(method, target, headers, body)
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one status or header line, held to the server's own header
/// line limit ([`Limits::max_header_line`], counting a trailing `\r`),
/// so a peer that never ends its line cannot grow it without bound.
fn read_line(reader: &mut impl BufRead) -> std::io::Result<String> {
    let max = Limits::default().max_header_line;
    let mut line = String::new();
    // One byte past the limit leaves room for the `\n`.
    let read = reader.take(max as u64 + 1).read_line(&mut line)?;
    if read == 0 {
        return Err(invalid("connection closed mid-response"));
    }
    if read > max && !line.ends_with('\n') {
        return Err(invalid("response line too long"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn read_response(reader: &mut impl BufRead) -> std::io::Result<ClientResponse> {
    let status_line = read_line(reader)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("bad status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status code"))?;

    let mut headers = Vec::new();
    let mut content_length = 0u64;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= Limits::default().max_headers {
            return Err(invalid("too many headers"));
        }
        let (name, value) = line.split_once(':').ok_or_else(|| invalid("bad header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
        }
        headers.push((name, value));
    }

    // The length is the peer's claim: allocate for the bytes that
    // actually arrive, never for the claim.
    let mut body = Vec::new();
    reader.take(content_length).read_to_end(&mut body)?;
    if (body.len() as u64) < content_length {
        return Err(invalid("connection closed mid-body"));
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_framed_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        let resp = read_response(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.text(), "{}");
    }

    #[test]
    fn rejects_garbage_status_lines() {
        let raw = b"SMTP nope\r\n\r\n";
        assert!(read_response(&mut Cursor::new(&raw[..])).is_err());
    }

    #[test]
    fn truncated_bodies_error_instead_of_hanging() {
        // Forged lengths must not size an allocation: allocating 1 TiB
        // aborts the process, and u64::MAX overflows capacity.
        for length in ["10", "1099511627776", "18446744073709551615"] {
            let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\nshort");
            let err = read_response(&mut Cursor::new(raw.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{length}");
        }
    }

    #[test]
    fn long_lines_and_header_floods_error_instead_of_growing() {
        let limits = Limits::default();
        let over = "x".repeat(limits.max_header_line);
        for raw in [
            format!("HTTP/1.1 200 {over}\r\n\r\n"),
            format!("HTTP/1.1 200 OK\r\nX-Pad: {over}\r\n\r\n"),
            format!("HTTP/1.1 200 OK\r\nX-Pad: {over}"),
        ] {
            let err = read_response(&mut Cursor::new(raw.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        let flood: String = (0..=limits.max_headers)
            .map(|i| format!("X-H{i}: v\r\n"))
            .collect();
        let raw = format!("HTTP/1.1 200 OK\r\n{flood}\r\n");
        let err = read_response(&mut Cursor::new(raw.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Exactly at both limits still parses: the longest line counts
        // its `\r`, as the server's parser does.
        let pad = "p".repeat(limits.max_header_line - "X-Pad: \r".len());
        let headers: String = (1..limits.max_headers)
            .map(|i| format!("X-H{i}: v\r\n"))
            .collect();
        let raw = format!("HTTP/1.1 200 OK\r\nX-Pad: {pad}\r\n{headers}\r\n");
        let resp = read_response(&mut Cursor::new(raw.as_bytes())).unwrap();
        assert_eq!(resp.headers.len(), limits.max_headers);
        assert_eq!(resp.header("x-pad"), Some(pad.as_str()));
    }
}
