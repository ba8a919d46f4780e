//! A tiny blocking HTTP client for the service API — used by the
//! integration tests and the load generator.
//!
//! Each thread keeps one connection open and sends every request with
//! `connection: keep-alive`, so a closed-loop caller pays for one TCP
//! connect, not one per request. The server closes an idle connection
//! after its I/O timeout, on restart or at shutdown; a kept connection
//! that fails before any byte of the response arrives is replaced by a
//! fresh one and the request sent once more. A failure after the first
//! response byte is returned as is.
//!
//! The retrying entry point, [`post_json_retry`], wraps the one-shot
//! [`request`] with **bounded retries**: connect/transport
//! errors and 429/503 responses back off exponentially with
//! deterministic jitter (a pure function of the policy seed and the
//! attempt number — two clients with different seeds desynchronize, the
//! same client replays identically), and a server-sent `Retry-After`
//! header overrides the computed backoff. Any other status is returned
//! immediately: a 4xx is the caller's bug, not the weather.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{keeps_alive, read_head};

/// A parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body parsed as JSON.
    pub fn json(&self) -> Result<crate::json::Json, crate::json::JsonError> {
        crate::json::parse(&self.body)
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `Retry-After` header as whole seconds, if present and valid.
    pub fn retry_after_secs(&self) -> Option<u64> {
        self.header("retry-after")
            .and_then(|v| v.trim().parse().ok())
    }
}

thread_local! {
    /// This thread's open connection and the server it leads to.
    static KEPT: RefCell<Option<(SocketAddr, TcpStream)>> = const { RefCell::new(None) };
}

/// Sends one request and reads the full response, on this thread's kept
/// connection to `addr` if it has one.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Response> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!(
        "content-length: {}\r\nconnection: keep-alive\r\n\r\n",
        body.len()
    ));
    let mut message = head.into_bytes();
    message.extend_from_slice(body);

    // Taken out for the exchange: a stream that errors is never put back.
    let kept = KEPT.with(|k| k.borrow_mut().take());
    let mut buf = Vec::new();
    if let Some((_, mut stream)) = kept.filter(|(to, _)| *to == addr) {
        match exchange(&mut stream, &message, &mut buf) {
            Ok(reply) => return Ok(keep(addr, stream, reply)),
            // Part of a response arrived, or none is coming yet: sending
            // again could run the request twice.
            Err(e)
                if !buf.is_empty()
                    || matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(e)
            }
            // The server closed the idle connection: send on a fresh one.
            Err(_) => {}
        }
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.set_nodelay(true)?;
    let reply = exchange(&mut stream, &message, &mut buf)?;
    Ok(keep(addr, stream, reply))
}

/// Stores `stream` as this thread's connection if the server keeps it
/// open, and returns the response.
fn keep(addr: SocketAddr, stream: TcpStream, (response, open): (Response, bool)) -> Response {
    if open {
        KEPT.with(|k| *k.borrow_mut() = Some((addr, stream)));
    }
    response
}

/// Sends `message` and reads one response: the head in chunks, then
/// exactly `Content-Length` bytes, or everything up to EOF when the
/// length is missing. Also returns whether the connection stays open.
/// On an error, `buf` is empty only if no response byte arrived.
fn exchange(
    stream: &mut TcpStream,
    message: &[u8],
    buf: &mut Vec<u8>,
) -> io::Result<(Response, bool)> {
    stream.write_all(message)?;
    let head_len = read_head(stream, buf, "response")?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the response",
        )
    })?;
    let head_text = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF8 response head"))?;
    let mut lines = head_text.lines();
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let mut body = buf.split_off(head_len);
    let mut open = keeps_alive(&headers);
    match content_length {
        Some(len) => {
            // Bytes past the body would be misread as the next reply.
            open &= body.len() <= len;
            let have = body.len().min(len);
            body.resize(len, 0);
            stream.read_exact(&mut body[have..])?;
        }
        None => {
            open = false;
            stream.read_to_end(&mut body)?;
        }
    }
    Ok((
        Response {
            status,
            headers,
            body,
        },
        open,
    ))
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, &[], b"")
}

/// `POST path` with a JSON body and optional tenant.
pub fn post_json(
    addr: SocketAddr,
    path: &str,
    tenant: Option<&str>,
    body: &[u8],
) -> io::Result<Response> {
    let mut headers: Vec<(&str, &str)> = vec![("content-type", "application/json")];
    if let Some(t) = tenant {
        headers.push(("x-duet-tenant", t));
    }
    request(addr, "POST", path, &headers, body)
}

/// Bounded-retry behavior for transient failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_ms: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_ms: 50,
            max_ms: 2_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), in milliseconds:
    /// `min(max, base · 2^attempt)` plus up to 50% deterministic jitter.
    /// A pure function of `(seed, attempt)` — replayable, and distinct
    /// seeds desynchronize a thundering herd.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_ms);
        let z = duet_sim::splitmix64_finalize(
            self.seed
                .wrapping_add((attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let jitter = if exp == 0 { 0 } else { z % (exp / 2 + 1) };
        exp + jitter
    }
}

/// Whether a response status is worth retrying.
fn transient_status(status: u16) -> bool {
    status == 429 || status == 503
}

/// Sends a request with bounded retries per `policy`. Retries fire on
/// transport errors and on 429/503 (honoring `Retry-After` when the
/// server sends one); every other response returns immediately. The
/// final attempt's outcome is returned as-is — including a still-429
/// response — so callers can distinguish "gave up" from "failed".
pub fn request_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    policy: &RetryPolicy,
) -> io::Result<Response> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..attempts {
        match request(addr, method, path, headers, body) {
            Ok(resp) if !transient_status(resp.status) => return Ok(resp),
            Ok(resp) => {
                if attempt + 1 == attempts {
                    return Ok(resp);
                }
                // Server-directed pacing wins over our own schedule.
                let ms = match resp.retry_after_secs() {
                    Some(secs) => secs.saturating_mul(1_000).min(policy.max_ms.max(1_000)),
                    None => policy.backoff_ms(attempt),
                };
                std::thread::sleep(Duration::from_millis(ms));
            }
            Err(e) => {
                if attempt + 1 == attempts {
                    return Err(e);
                }
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt)));
            }
        }
    }
    // Unreachable: the loop always returns on its final attempt.
    Err(last_err.unwrap_or_else(|| io::Error::other("retries exhausted")))
}

/// `POST path` (JSON body, optional tenant) with bounded retries.
pub fn post_json_retry(
    addr: SocketAddr,
    path: &str,
    tenant: Option<&str>,
    body: &[u8],
    policy: &RetryPolicy,
) -> io::Result<Response> {
    let mut headers: Vec<(&str, &str)> = vec![("content-type", "application/json")];
    if let Some(t) = tenant {
        headers.push(("x-duet-tenant", t));
    }
    request_retry(addr, "POST", path, &headers, body, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_ms: 50,
            max_ms: 400,
            seed: 42,
        };
        for attempt in 0..6 {
            let a = p.backoff_ms(attempt);
            let b = p.backoff_ms(attempt);
            assert_eq!(a, b, "same (seed, attempt) → same backoff");
            let exp = (50u64 << attempt).min(400);
            assert!(a >= exp && a <= exp + exp / 2, "{a} out of range for {exp}");
        }
        let other = RetryPolicy { seed: 43, ..p };
        assert!(
            (0..6).any(|i| p.backoff_ms(i) != other.backoff_ms(i)),
            "different seeds must desynchronize"
        );
    }

    #[test]
    fn transient_statuses() {
        assert!(transient_status(429));
        assert!(transient_status(503));
        assert!(!transient_status(200));
        assert!(!transient_status(400));
        assert!(!transient_status(408));
    }

    /// A server that answers the first request on a connection in full
    /// and the second with half a body before closing: the second request
    /// fails on the kept connection and is not sent again. The listener is
    /// gone by then, so a resend would fail to connect instead.
    #[test]
    fn reply_cut_short_on_a_kept_connection_is_an_error_not_a_resend() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            drop(listener);
            let mut buf = Vec::new();
            for reply in [&b"12345"[..], b"12"] {
                crate::http::read_next(&mut stream, &mut buf)
                    .unwrap()
                    .unwrap();
                let head = "HTTP/1.1 200 OK\r\ncontent-length: 5\r\nconnection: keep-alive\r\n\r\n";
                stream
                    .write_all(&[head.as_bytes(), reply].concat())
                    .unwrap();
            }
        });
        assert_eq!(get(addr, "/").unwrap().body, b"12345");
        let err = get(addr, "/").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        server.join().unwrap();
    }
}
