//! Minimal HTTP/1.1 plumbing over `std::net` — just enough protocol for
//! the service API: `Content-Length` bodies and opt-in persistent
//! connections. A request whose `Connection` header carries
//! `keep-alive` may get a `connection: keep-alive` reply and the next
//! request on the same stream; every other reply carries
//! `connection: close`. No chunked encoding, no TLS; the server sits
//! behind trusted transport (localhost or a fronting proxy) by design.
//!
//! Request heads are read in chunks, so a typical request costs one
//! `read`; each response leaves in one `write_all`. Bytes read past one
//! request stay in the caller's buffer as the start of the next, so
//! framing must be unambiguous: a request with conflicting
//! `Content-Length` values or any `Transfer-Encoding` is refused.

use std::io::{self, Read, Write};

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

    /// Whether the peer asked to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        keeps_alive(&self.headers)
    }
}

/// Whether a `Connection` header among `headers` (names lower-cased)
/// carries the `keep-alive` token.
pub(crate) fn keeps_alive(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .filter(|(name, _)| name == "connection")
        .flat_map(|(_, value)| value.split(','))
        .any(|token| token.trim().eq_ignore_ascii_case("keep-alive"))
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads chunks into `buf` until it holds a whole message head (ending in
/// the first `\r\n\r\n`) and returns the head's length; what follows it
/// stays in `buf`. `Ok(None)` means the peer closed with `buf` empty.
/// `buf` never holds more than [`MAX_HEAD_BYTES`] plus one chunk, and on
/// any error it holds exactly the bytes received, so an empty `buf` tells
/// the caller that nothing of this message arrived. `what` names the
/// message in errors.
pub(crate) fn read_head(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    what: &str,
) -> io::Result<Option<usize>> {
    let mut searched = 0usize;
    loop {
        // The terminator may straddle the previous chunk's last 3 bytes.
        let from = searched.saturating_sub(3);
        let end = buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|at| from + at + 4);
        match end {
            Some(end) if end <= MAX_HEAD_BYTES => return Ok(Some(end)),
            None if buf.len() < MAX_HEAD_BYTES => {}
            _ => return Err(invalid(&format!("{what} head too large"))),
        }
        searched = buf.len();
        buf.resize(searched + READ_CHUNK, 0);
        let read = stream.read(&mut buf[searched..]);
        buf.truncate(searched + *read.as_ref().unwrap_or(&0));
        if read? == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed mid-{what}"),
            ));
        }
    }
}

/// Reads one request from a fresh connection. `Ok(None)` means the peer
/// closed before sending anything (a health-checker poking the port).
/// Bytes past `Content-Length` are ignored.
pub fn read_request(stream: &mut impl Read) -> io::Result<Option<Request>> {
    read_next(stream, &mut Vec::new())
}

/// Reads the next request on a connection. `buf` carries the bytes read
/// past one request into the next call, so pipelined requests parse in
/// order; start each connection with an empty one. `Ok(None)` means a
/// clean close between requests. On an error `buf` is empty only if none
/// of the failed request had arrived — how the server tells an idle
/// keep-alive timeout from a stalled request.
pub fn read_next(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Option<Request>> {
    let Some(head_len) = read_head(stream, buf, "request")? else {
        return Ok(None);
    };
    let text =
        std::str::from_utf8(&buf[..head_len]).map_err(|_| invalid("non-UTF8 request head"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| invalid("missing method"))?
        .to_string();
    let target = parts.next().ok_or_else(|| invalid("missing path"))?;
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
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                let n = value.parse().map_err(|_| invalid("bad content-length"))?;
                if content_length.is_some_and(|m| m != n) {
                    return Err(invalid("conflicting content-length"));
                }
                content_length = Some(n);
            }
            if name == "transfer-encoding" {
                return Err(invalid("transfer-encoding is not supported"));
            }
            headers.push((name, value));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("request body too large"));
    }
    // The head stays in `buf` until the body is complete, so a stall
    // mid-body still leaves it non-empty.
    let end = head_len + content_length;
    let have = buf.len();
    if have < end {
        buf.resize(end, 0);
        stream.read_exact(&mut buf[have..])?;
    }
    let body = buf[head_len..end].to_vec();
    buf.drain(..end);
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Writes a complete JSON response in one `write_all`: status,
/// `extra_headers` (how the server attaches `Retry-After` to 429/503
/// refusals), and `connection: keep-alive` or `connection: close`. After
/// a `close` reply the caller drops the stream.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(String, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    head.push_str(&format!("connection: {connection}\r\n\r\n"));
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
    use std::collections::VecDeque;
    use std::net::{TcpListener, TcpStream};

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

    /// A reader that hands out one scripted chunk per `read` (less if the
    /// caller's buffer is smaller), then EOF: exact control over where
    /// each read ends.
    struct Script(VecDeque<Vec<u8>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.0.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.0.pop_front();
            }
            Ok(n)
        }
    }

    fn script(chunks: &[&[u8]]) -> Script {
        Script(chunks.iter().map(|c| c.to_vec()).collect())
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let wire = [post(b"first", 5), post(b"second!", 7)].concat();
        let mut stream = script(&[&wire]);
        let mut buf = Vec::new();
        let a = read_next(&mut stream, &mut buf).unwrap().unwrap();
        assert_eq!(a.body, b"first");
        assert_eq!(buf, post(b"second!", 7), "the second request is carried");
        let b = read_next(&mut stream, &mut buf).unwrap().unwrap();
        assert_eq!(
            (b.path.as_str(), b.body.as_slice()),
            ("/v1/runs", &b"second!"[..])
        );
        assert!(buf.is_empty());
        assert!(read_next(&mut stream, &mut buf).unwrap().is_none());
    }

    #[test]
    fn second_head_straddling_the_first_chunk_is_parsed() {
        // The second head's blank line spans bytes READ_CHUNK - 2 .. + 2.
        let first = post(b"x", 1);
        let second = head_of_len(READ_CHUNK + 2 - first.len());
        let wire = [&first[..], &second].concat();
        let mut stream = script(&[&wire]);
        let mut buf = Vec::new();
        assert_eq!(
            read_next(&mut stream, &mut buf).unwrap().unwrap().body,
            b"x"
        );
        assert_eq!(buf.len(), READ_CHUNK - first.len(), "one chunk was read");
        let req = read_next(&mut stream, &mut buf).unwrap().unwrap();
        assert_eq!(req.path, "/big");
        assert!(buf.is_empty());
    }

    #[test]
    fn carried_partial_head_is_completed_by_the_next_read() {
        let second = post(b"tail", 4);
        let split = 10;
        let first_write = [&post(b"a", 1)[..], &second[..split]].concat();
        let mut stream = script(&[&first_write, &second[split..]]);
        let mut buf = Vec::new();
        assert_eq!(
            read_next(&mut stream, &mut buf).unwrap().unwrap().body,
            b"a"
        );
        assert_eq!(buf, &second[..split]);
        let req = read_next(&mut stream, &mut buf).unwrap().unwrap();
        assert_eq!(req.body, b"tail");
    }

    #[test]
    fn head_limit_applies_to_the_second_request() {
        let first = post(b"a", 1);
        let mut buf = Vec::new();
        let wire = [&first[..], &head_of_len(MAX_HEAD_BYTES)].concat();
        let mut stream = script(&[&wire]);
        read_next(&mut stream, &mut buf).unwrap().unwrap();
        let req = read_next(&mut stream, &mut buf).unwrap().unwrap();
        assert_eq!(req.path, "/big", "a head of exactly the limit is accepted");

        buf.clear();
        let wire = [&first[..], &head_of_len(MAX_HEAD_BYTES + 1)].concat();
        let mut stream = script(&[&wire]);
        read_next(&mut stream, &mut buf).unwrap().unwrap();
        let err = read_next(&mut stream, &mut buf).unwrap_err();
        assert_eq!(err.to_string(), "request head too large");
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        let head = b"POST /v1/runs HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 5\r\n\r\nbodyX";
        let err = read_next(&mut script(&[head]), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "conflicting content-length");
        // Repeating the same value frames the body one way only.
        let head = b"POST /v1/runs HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_next(&mut script(&[head]), &mut Vec::new())
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn transfer_encoding_is_refused() {
        let head =
            b"POST /v1/runs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n";
        let err = read_next(&mut script(&[head]), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "transfer-encoding is not supported");
    }

    #[test]
    fn keep_alive_is_a_connection_token() {
        let req = |connection: &str| {
            let head = format!("GET / HTTP/1.1\r\nconnection: {connection}\r\n\r\n");
            read_request(&mut script(&[head.as_bytes()]))
                .unwrap()
                .unwrap()
        };
        assert!(req("keep-alive").keep_alive());
        assert!(req("Upgrade, Keep-Alive").keep_alive());
        assert!(!req("close").keep_alive());
        assert!(!read_from(vec![post(b"", 0)], true)
            .unwrap()
            .unwrap()
            .keep_alive());
    }
}
