//! The HTTP client the HTTP workloads load the daemon with: one request
//! per connection (the daemon answers `Connection: close`), timed from
//! connect start to the last byte of the reply. No retries: a request that
//! gets no `200` is a failed operation, never a hidden second attempt.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest any single request may take.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A complete reply.
pub struct Reply {
    pub status: u16,
    /// The `X-Trace-Id` response header, if present.
    pub trace_id: Option<String>,
    pub body: String,
    /// Connect start to connection established.
    pub connect: Duration,
    /// Connect start to the reply's last byte.
    pub latency: Duration,
}

/// Why a request got no reply, classified where it happened.
#[derive(Debug)]
pub enum RequestError {
    /// The TCP connect failed: the daemon is down or its backlog is full.
    Connect(String),
    /// Connected, then a read or write timed out: the daemon went quiet.
    Timeout(String),
    /// Reset mid-reply, short read, or a reply that is not HTTP.
    Transport(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Connect(m) => write!(f, "connect: {m}"),
            RequestError::Timeout(m) => write!(f, "timeout: {m}"),
            RequestError::Transport(m) => write!(f, "transport: {m}"),
        }
    }
}

fn io_error(stage: &str, e: std::io::Error) -> RequestError {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            RequestError::Timeout(format!("{stage}: {e}"))
        }
        _ => RequestError::Transport(format!("{stage}: {e}")),
    }
}

/// Send `method path` with `body`, optionally tagged with `X-Trace-Id`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    trace_id: Option<&str>,
    body: &str,
) -> Result<Reply, RequestError> {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)
        .map_err(|e| RequestError::Connect(format!("{addr}: {e}")))?;
    let connect = started.elapsed();
    stream.set_read_timeout(Some(TIMEOUT)).map_err(|e| io_error("configure", e))?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(|e| io_error("configure", e))?;
    let trace_header = trace_id.map(|id| format!("X-Trace-Id: {id}\r\n")).unwrap_or_default();
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{trace_header}Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).map_err(|e| io_error("write", e))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| io_error("read", e))?;
    let latency = started.elapsed();

    let text =
        String::from_utf8(raw).map_err(|_| RequestError::Transport("reply is not UTF-8".into()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| RequestError::Transport("reply has no header end".into()))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| RequestError::Transport(format!("bad status line in {head:?}")))?;
    let trace_id = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("x-trace-id").then(|| value.trim().to_string())
    });
    Ok(Reply { status, trace_id, body: body.to_string(), connect, latency })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve one canned reply on a loopback port; returns the address and
    /// the thread that captures the request it received.
    fn one_shot(reply: &'static str) -> (SocketAddr, std::thread::JoinHandle<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let n = s.read(&mut buf).unwrap();
            s.write_all(reply.as_bytes()).unwrap();
            String::from_utf8_lossy(&buf[..n]).into_owned()
        });
        (addr, server)
    }

    #[test]
    fn parses_status_trace_header_and_body() {
        let (addr, server) =
            one_shot("HTTP/1.1 200 OK\r\nx-trace-id: 00000000000000ab\r\n\r\n{\"ok\":true}");
        let r = request(addr, "POST", "/repair", Some("00000000000000ab"), "spec").unwrap();
        let sent = server.join().unwrap();
        assert!(sent.starts_with("POST /repair HTTP/1.1\r\n"), "{sent}");
        assert!(
            sent.contains("X-Trace-Id: 00000000000000ab\r\n") && sent.ends_with("\r\n\r\nspec")
        );
        assert_eq!(r.status, 200);
        assert_eq!(r.trace_id.as_deref(), Some("00000000000000ab"));
        assert_eq!(r.body, "{\"ok\":true}");
        assert!(r.latency >= r.connect);
    }

    #[test]
    fn classifies_failures() {
        let (addr, server) = one_shot("garbage");
        assert!(matches!(request(addr, "GET", "/", None, ""), Err(RequestError::Transport(_))));
        server.join().unwrap();
        // Nothing listens on the port the dropped listener held.
        let gone = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        assert!(matches!(request(gone, "GET", "/", None, ""), Err(RequestError::Connect(_))));
    }
}
