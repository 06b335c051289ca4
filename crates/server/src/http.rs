//! A deliberately small HTTP/1.1 layer over `std::net` — just enough for
//! the repair daemon's request/response cycle, in keeping with the
//! workspace's no-third-party-code rule.
//!
//! One request per connection (`Connection: close` on every response), a
//! `Content-Length` body (no chunked encoding), and bounded sizes for the
//! request line, each header, the header section, and the body so a
//! hostile client cannot balloon a worker's memory. The socket's read
//! timeout is treated as a deadline for the *whole* request, re-armed with
//! the remaining time before every read, so trickling one byte per timeout
//! window cannot stall a worker indefinitely (slowloris).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Largest request body accepted, in bytes. Specs are text; anything
/// bigger than this is either a mistake or an attack.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest single line (request line or one header), in bytes, excluding
/// nothing — the terminator counts too.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Largest header section (all header lines together), in bytes.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/repair`.
    pub path: String,
    /// Query parameters in order of appearance (no percent-decoding; the
    /// daemon's parameters are all simple tokens).
    pub query: Vec<(String, String)>,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Is the flag-style query parameter present and not `0`/`false`?
    pub fn query_flag(&self, key: &str) -> bool {
        match self.query(key) {
            Some(v) => !matches!(v, "0" | "false"),
            None => false,
        }
    }

    /// A header by (case-insensitive) name.
    pub fn header(&self, key: &str) -> Option<&str> {
        let key = key.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. `status == 0` means the peer closed
/// the connection before sending anything — not worth a response at all.
#[derive(Clone, Debug)]
pub struct HttpError {
    /// Status code to answer with (400, 413, …), or 0 for a silent close.
    pub status: u16,
    /// Human-readable cause, echoed in the error body.
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> HttpError {
        HttpError { status: 400, message: message.into() }
    }
}

/// Re-arm the socket timeout with whatever remains of the whole-request
/// deadline. Without this, each read resets the timeout and a client
/// trickling one byte per window holds the worker forever.
fn arm_deadline(stream: &TcpStream, deadline: Option<Instant>) -> Result<(), HttpError> {
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(HttpError {
                status: 408,
                message: "request read deadline exceeded".into(),
            });
        }
        let _ = stream.set_read_timeout(Some(remaining));
    }
    Ok(())
}

/// Read one CRLF/LF-terminated line of at most `max` bytes. `Ok(None)`
/// means EOF before any byte arrived. Never buffers more than `max` bytes
/// no matter how the peer frames its writes.
fn read_line_bounded(
    reader: &mut BufReader<&TcpStream>,
    deadline: Option<Instant>,
    max: usize,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        arm_deadline(reader.get_ref(), deadline)?;
        let (consumed, done) = match reader.fill_buf() {
            Ok([]) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::bad_request("connection closed mid-line"));
            }
            Ok(buf) => match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    line.extend_from_slice(&buf[..i]);
                    (i + 1, true)
                }
                None => {
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(HttpError { status: 408, message: "timed out reading request".into() });
            }
            Err(e) => {
                return Err(if line.is_empty() {
                    HttpError { status: 0, message: format!("read failed: {e}") }
                } else {
                    HttpError::bad_request(format!("read failed: {e}"))
                });
            }
        };
        reader.consume(consumed);
        if line.len() > max {
            return Err(HttpError { status: 431, message: format!("line exceeds {max} bytes") });
        }
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::bad_request("non-UTF-8 bytes in request head"));
        }
    }
}

/// Read one request from the stream. The socket's read timeout (as
/// configured by the caller) is interpreted as a deadline for the entire
/// request; timeouts and early closes surface as errors.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let stream: &TcpStream = &*stream;
    let deadline = stream.read_timeout().ok().flatten().map(|t| Instant::now() + t);
    let mut reader = BufReader::new(stream);

    let line = match read_line_bounded(&mut reader, deadline, MAX_LINE_BYTES)? {
        Some(line) => line,
        None => return Err(HttpError { status: 0, message: "closed before request".into() }),
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1") {
        return Err(HttpError::bad_request(format!("malformed request line {line:?}")));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, Vec::new()),
    };

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let h = match read_line_bounded(&mut reader, deadline, MAX_LINE_BYTES) {
            Ok(Some(h)) => h,
            Ok(None) => return Err(HttpError::bad_request("truncated headers")),
            Err(e) if e.status == 0 => {
                return Err(HttpError::bad_request(format!("header read failed: {}", e.message)));
            }
            Err(e) => return Err(e),
        };
        if h.is_empty() {
            break;
        }
        header_bytes += h.len();
        if headers.len() >= 100 || header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError { status: 431, message: "header section too large".into() });
        }
        match h.split_once(':') {
            Some((k, v)) => headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string())),
            None => return Err(HttpError::bad_request(format!("malformed header {h:?}"))),
        }
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| HttpError::bad_request("unparsable Content-Length"))?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError { status: 413, message: "request body too large".into() });
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        arm_deadline(reader.get_ref(), deadline)
            .map_err(|_| HttpError::bad_request("request read deadline exceeded mid-body"))?;
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::bad_request("short body: connection closed")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::bad_request(format!("short body: {e}"))),
        }
    }

    Ok(Request { method, path, query, headers, body })
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::from("1")),
        })
        .collect()
}

/// Write a complete response (status line, headers, body) and flush.
/// Every response closes the connection.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response_with_headers(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra response headers (e.g. the echoed
/// `X-Trace-Id`). Header values must be line-safe; callers only pass
/// values the daemon minted or re-rendered itself.
pub fn write_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    // Head and body go out in one write: one syscall, and no second small
    // segment for Nagle's algorithm to hold back.
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Standard reason phrase for the handful of codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Push raw bytes through a real socket pair and parse them.
    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream);
        let _keepalive = writer.join().unwrap();
        result
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = roundtrip(
            b"POST /repair?mode=cautious&trace HTTP/1.1\r\n\
              Host: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/repair");
        assert_eq!(req.query("mode"), Some("cautious"));
        assert!(req.query_flag("trace"));
        assert!(!req.query_flag("missing"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_request_line() {
        let err = roundtrip(b"NOT-HTTP\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn rejects_oversized_bodies_with_413() {
        let raw =
            format!("POST /repair HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = roundtrip(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn rejects_unterminated_request_line_with_431() {
        // A "request line" that never ends must be rejected once it passes
        // the line cap, not buffered until the peer feels like stopping.
        let mut raw = vec![b'A'; MAX_LINE_BYTES + 1024];
        raw.extend_from_slice(b" / HTTP/1.1\r\n\r\n");
        let err = roundtrip(&raw).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn rejects_oversized_header_line_with_431() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(vec![b'x'; MAX_LINE_BYTES + 1024]);
        raw.extend_from_slice(b"\r\n\r\n");
        let err = roundtrip(&raw).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn rejects_oversized_header_section_with_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = roundtrip(&raw).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn slow_trickle_is_bounded_by_a_total_deadline() {
        // One byte per 30ms with a 120ms socket timeout: per-read timeouts
        // alone would never fire; the whole-request deadline must.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for _ in 0..40 {
                if s.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_millis(120))).unwrap();
        let start = std::time::Instant::now();
        let err = read_request(&mut stream).unwrap_err();
        assert!(err.status == 408 || err.status == 0, "got {err:?}");
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        drop(stream);
        let _ = writer.join();
    }

    #[test]
    fn empty_connection_is_a_silent_close() {
        let err = roundtrip(b"").unwrap_err();
        assert_eq!(err.status, 0);
    }

    #[test]
    fn short_body_is_a_bad_request() {
        let err = roundtrip(b"POST /repair HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.status, 400);
    }
}
