//! Minimal HTTP/1.1 plumbing over `std::net` — just enough protocol for
//! the service API: one request per connection, `Content-Length` bodies,
//! `Connection: close` responses. No keep-alive, no chunked encoding, no
//! TLS; the server sits behind trusted transport (localhost or a fronting
//! proxy) by design.
//!
//! Request heads are read in chunks, so a typical request costs one
//! `read`; each response leaves in one `write_all`.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest request head (request line + headers + blank line) accepted.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest request body accepted.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Bytes asked of each `read` while looking for the end of the head. A
/// typical head arrives whole in the first one.
const READ_CHUNK: usize = 2048;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded `key=value` query pairs (no percent-decoding: the API uses
    /// plain tokens only).
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`.
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a query flag is set truthily (`?verify=1`, `?wait=true`).
    pub fn query_flag(&self, key: &str) -> bool {
        matches!(self.query_get(key), Some("1" | "true" | "yes"))
    }

    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request from the stream. `Ok(None)` means the peer closed
/// before sending anything (a health-checker poking the port).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    // Read chunks until the blank line. Whatever arrived after it is the
    // start of the body; the buffer never holds more than the head limit
    // plus one chunk.
    let mut buf = Vec::with_capacity(READ_CHUNK);
    let head_len = loop {
        let start = buf.len();
        buf.resize(start + READ_CHUNK, 0);
        let n = stream.read(&mut buf[start..])?;
        buf.truncate(start + n);
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        // The terminator may straddle the previous chunk's last 3 bytes.
        let from = start.saturating_sub(3);
        let end = buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|at| from + at + 4);
        match end {
            Some(end) if end <= MAX_HEAD_BYTES => break end,
            None if buf.len() < MAX_HEAD_BYTES => {}
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request head too large",
                ))
            }
        }
    };
    let text = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF8 request head"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing path"))?;
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
            headers.push((name, value));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    // Bytes past `Content-Length` are ignored: one request per connection.
    let mut body = buf.split_off(head_len);
    let have = body.len().min(content_length);
    body.resize(content_length, 0);
    stream.read_exact(&mut body[have..])?;
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Writes a complete response in one `write_all`. Always closes: the
/// reply carries `Connection: close` and the caller drops the stream.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(stream, status, reason, content_type, &[], body)
}

/// [`write_response`] plus extra `(name, value)` headers — how the
/// server attaches `Retry-After` to 429/503 refusals.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("connection: close\r\n\r\n");
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)
}

/// Status reason phrases for the codes the API uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Head and body in one write.
    #[test]
    fn parses_request_with_query_headers_and_body() {
        let message = b"POST /v1/runs?wait=1&verify=1 HTTP/1.1\r\n\
                  Host: test\r\n\
                  X-Duet-Tenant: alice\r\n\
                  Content-Length: 4\r\n\r\nbody";
        let req = read_from(vec![message.to_vec()], false).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/runs");
        assert!(req.query_flag("wait"));
        assert!(req.query_flag("verify"));
        assert_eq!(req.header("x-duet-tenant"), Some("alice"));
        assert_eq!(req.body, b"body");
    }

    /// Sends each of `writes` as its own `write_all` on a no-delay
    /// connection, shuts the write half if `eof`, and returns what
    /// `read_request` made of the bytes.
    fn read_from(writes: Vec<Vec<u8>>, eof: bool) -> io::Result<Option<Request>> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            for w in writes {
                // The reader may give up (head too large) before the last
                // byte is sent.
                if s.write_all(&w).and_then(|()| s.flush()).is_err() {
                    return;
                }
            }
            if eof {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
            // Hold the connection open until the reader is done.
            let _ = s.read_to_end(&mut Vec::new());
        });
        let (mut stream, _) = listener.accept().unwrap();
        // A reader waiting for bytes that never come fails, not hangs.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let req = read_request(&mut stream);
        drop(stream);
        client.join().unwrap();
        req
    }

    fn post(body: &[u8], content_length: usize) -> Vec<u8> {
        let mut m = format!("POST /v1/runs HTTP/1.1\r\ncontent-length: {content_length}\r\n\r\n")
            .into_bytes();
        m.extend_from_slice(body);
        m
    }

    /// A `GET` head of exactly `len` bytes, blank line included.
    fn head_of_len(len: usize) -> Vec<u8> {
        let mut h = b"GET /big HTTP/1.1\r\nx-pad: ".to_vec();
        h.resize(len - 4, b'a');
        h.extend_from_slice(b"\r\n\r\n");
        h
    }

    #[test]
    fn head_trickled_one_byte_per_write() {
        let message = post(b"trickled", 8);
        let writes = message.iter().map(|&b| vec![b]).collect();
        let req = read_from(writes, false).unwrap().unwrap();
        assert_eq!(req.path, "/v1/runs");
        assert_eq!(req.body, b"trickled");
    }

    #[test]
    fn body_split_across_writes() {
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut first = post(&[], body.len());
        first.extend_from_slice(&body[..100]);
        let writes = vec![first, body[100..5_000].to_vec(), body[5_000..].to_vec()];
        let req = read_from(writes, false).unwrap().unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn head_limit_is_exact() {
        // The blank line straddles the first chunk boundary.
        for len in [READ_CHUNK + 2, MAX_HEAD_BYTES] {
            let req = read_from(vec![head_of_len(len)], false).unwrap().unwrap();
            assert_eq!(req.path, "/big", "a {len}-byte head is accepted");
        }
        // One byte over: sent whole, reads fill whole chunks up to the
        // limit; split off-chunk, the blank line lands in a read that
        // crosses it.
        let over = head_of_len(MAX_HEAD_BYTES + 1);
        let split = MAX_HEAD_BYTES - 100;
        for writes in [
            vec![over.clone()],
            vec![over[..split].to_vec(), over[split..].to_vec()],
        ] {
            let err = read_from(writes, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "request head too large");
        }
    }

    #[test]
    fn eof_before_any_byte_is_not_a_request() {
        assert!(read_from(Vec::new(), true).unwrap().is_none());
    }

    #[test]
    fn eof_mid_head_or_mid_body_is_an_error() {
        let err = read_from(vec![b"GET /v1/st".to_vec()], true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = read_from(vec![post(b"abc", 10)], true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bytes_past_content_length_are_ignored() {
        let req = read_from(vec![post(b"bodyEXTRA", 4)], true)
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"body");
    }
}
