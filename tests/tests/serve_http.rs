//! The `duet-serve` connection path over real TCP: the bounded pool of
//! connection handlers, keep-alive connections and the HTTP reader's
//! limits, seen from a client.
//!
//! The pool starts with one handler blocked in `accept`; the handler that
//! takes the last idle slot spawns a successor, up to
//! `workers + queue_cap + 2`. These tests pin down that idle handlers are
//! reused, that the bound still serves every request that can do useful
//! work at once, that a stalled peer holds one handler and nothing more,
//! and that shutdown joins every handler, even one waiting on a job that
//! will never run.
//!
//! A connection stays open only when the request asks for `keep-alive`
//! and another handler is left to accept. The keep-alive tests pin down
//! that one client thread rides one connection, that other peers still
//! get `connection: close`, that a kept connection never holds the last
//! acceptor, that idling out is silent while a stall is a 408, and that
//! shutdown does not wait for idle kept connections.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use duet_serve::client;
use duet_serve::http::MAX_HEAD_BYTES;
use duet_serve::json::Json;
use duet_serve::server::{ServeConfig, Server};

fn handlers_spawned(server: &Server) -> u64 {
    stat(server, "handlers_spawned")
}

fn stat(server: &Server, name: &str) -> u64 {
    let stats = client::get(server.addr(), "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    stats
        .json()
        .unwrap()
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats report {name}"))
}

const KEEP_ALIVE_GET: &[u8] = b"GET /healthz HTTP/1.1\r\nconnection: keep-alive\r\n\r\n";

/// Reads one reply off a connection that may stay open: the head, then
/// `content-length` bytes.
fn read_one_reply(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let text = String::from_utf8_lossy(&raw).into_owned();
        if let Some(end) = text.find("\r\n\r\n") {
            let len: usize = text[..end]
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .and_then(|v| v.parse().ok())
                .expect("reply has a content-length");
            if raw.len() >= end + 4 + len {
                return text;
            }
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "closed mid-reply: {}", String::from_utf8_lossy(&raw));
        raw.extend_from_slice(&chunk[..n]);
    }
}

/// Reads whatever the server sent before closing. A reset after the
/// reply (the server closed with request bytes unread) keeps what
/// arrived.
fn read_reply(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8_lossy(&raw).into_owned()
}

#[test]
fn sequential_requests_reuse_idle_handlers() {
    let server = Server::start(ServeConfig::default()).unwrap();
    for _ in 0..200 {
        assert_eq!(client::get(server.addr(), "/healthz").unwrap().status, 200);
    }
    let spawned = handlers_spawned(&server);
    assert!(
        (1..=2).contains(&spawned),
        "200 sequential requests spawned {spawned} handlers"
    );
    server.shutdown();
}

/// One worker, six `?wait=1` clients that all connect before any sends:
/// each holds its own handler, a seventh answers stats meanwhile, the
/// pool stays within `workers + queue_cap + 2`, and every client gets its
/// result.
#[test]
fn concurrent_waiting_clients_on_one_worker_all_finish() {
    let (workers, queue_cap) = (1, 6);
    let server = Server::start(ServeConfig {
        workers,
        queue_cap,
        wait_timeout: Duration::from_secs(240),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let connected = Arc::new(Barrier::new(7));
    let send = Arc::new(Barrier::new(7));
    let clients: Vec<_> = (0..6)
        .map(|seed| {
            let (connected, send) = (connected.clone(), send.clone());
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                connected.wait();
                send.wait();
                let body = format!(r#"{{"workload":"popcount","n":2,"seed":{seed}}}"#);
                let request = format!(
                    "POST /v1/runs?wait=1 HTTP/1.1\r\nx-duet-tenant: t{seed}\r\n\
                     content-length: {}\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(request.as_bytes()).unwrap();
                read_reply(&mut stream)
            })
        })
        .collect();
    // Connections are accepted in arrival order, so the stats request is
    // the seventh: six handlers are blocked reading their clients.
    connected.wait();
    let spawned = handlers_spawned(&server);
    assert!(
        (7..=workers + queue_cap + 2).contains(&(spawned as usize)),
        "{spawned} handlers for six held connections and a stats request"
    );
    send.wait();
    for c in clients {
        let reply = c.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains(r#""status":"done""#), "{reply}");
    }
    server.shutdown();
}

/// A peer that stalls mid-head holds one handler until its 408; the next
/// connection, accepted after it, is served by another handler meanwhile.
#[test]
fn stalled_peer_gets_408_while_another_client_is_served() {
    let server = Server::start(ServeConfig {
        io_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"GET /v1/st").unwrap();

    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    stalled.set_nonblocking(true).unwrap();
    let pending = stalled.peek(&mut [0u8; 1]).unwrap_err().kind();
    assert_eq!(
        pending,
        ErrorKind::WouldBlock,
        "the stalled peer is still waiting when the other client is served"
    );

    stalled.set_nonblocking(false).unwrap();
    let text = read_reply(&mut stalled);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected 408, got: {text}"
    );
    server.shutdown();
}

#[test]
fn request_head_over_the_limit_gets_400() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut head = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
    head.resize(MAX_HEAD_BYTES + 1 - 4, b'a');
    head.extend_from_slice(b"\r\n\r\n");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // The server may stop reading before the last byte arrives.
    let _ = stream.write_all(&head);
    let text = read_reply(&mut stream);
    assert!(
        text.starts_with("HTTP/1.1 400"),
        "expected 400, got: {text}"
    );
    assert!(text.contains("request head too large"), "{text}");
    server.shutdown();
}

/// Each cycle grows the pool past one handler, then shuts down. Shutdown
/// returns only after joining every handler, and once it has, nothing
/// holds the listener open.
#[test]
fn start_shutdown_cycles_join_every_handler() {
    let (done, finished) = mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for cycle in 0..20 {
            let server = Server::start(ServeConfig::default()).unwrap();
            let addr = server.addr();
            // Three open connections hold three handlers; the stats
            // request needs a fourth.
            let held: Vec<_> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
            assert!(handlers_spawned(&server) >= 4, "cycle {cycle}");
            drop(held);
            server.shutdown();
            assert!(
                TcpStream::connect(addr).is_err(),
                "cycle {cycle}: the listener outlived shutdown"
            );
        }
        let _ = done.send(());
    });
    // A shutdown that leaves a handler in `accept` never returns.
    let outcome = finished.recv_timeout(Duration::from_secs(60));
    assert_ne!(
        outcome,
        Err(mpsc::RecvTimeoutError::Timeout),
        "20 start/shutdown cycles took over 60 s"
    );
    cycles.join().expect("every cycle passes");
}

/// With no workers a `?wait=1` job stays queued, and its handler waits on
/// it; shutdown releases that handler instead of joining it for the whole
/// wait timeout.
#[test]
fn shutdown_releases_a_client_waiting_on_a_queued_job() {
    let server = Server::start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        let body = br#"{"workload":"popcount","n":2,"seed":1}"#;
        client::post_json(addr, "/v1/runs?wait=1", None, body).unwrap()
    });
    let queued = || {
        let stats = client::get(addr, "/v1/stats").unwrap().json().unwrap();
        stats
            .get("jobs")
            .and_then(|j| j.get("queued"))
            .and_then(Json::as_u64)
    };
    let mut polls = 0;
    while queued() != Some(1) {
        polls += 1;
        assert!(polls < 1_000, "the job never queued");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(Duration::from_secs(60)).is_ok(),
        "shutdown waited on the queued job"
    );
    let reply = waiter.join().unwrap();
    assert_eq!(reply.status, 200);
    let j = reply.json().unwrap();
    assert_eq!(j.get("status").and_then(Json::as_str), Some("timeout"));
}

#[test]
fn keep_alive_client_rides_one_connection() {
    let server = Server::start(ServeConfig::default()).unwrap();
    for _ in 0..200 {
        let r = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    assert_eq!(stat(&server, "connections_accepted"), 1);
    let spawned = handlers_spawned(&server);
    assert!((1..=2).contains(&spawned), "{spawned} handlers");
    server.shutdown();
}

#[test]
fn requests_without_keep_alive_get_close_and_eof() {
    let server = Server::start(ServeConfig::default()).unwrap();
    for _ in 0..200 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        // `read_to_end` returns only at EOF.
        let text = read_reply(&mut stream);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
    }
    let spawned = handlers_spawned(&server);
    assert!((1..=2).contains(&spawned), "{spawned} handlers");
    server.shutdown();
}

/// With a cap of two handlers, the first kept connection leaves one
/// handler to accept; the second client is served on it with
/// `connection: close`, so a third connection is still served.
#[test]
fn keep_alive_never_holds_the_last_acceptor() {
    let server = Server::start(ServeConfig {
        workers: 0,
        queue_cap: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let kept = client::get(addr, "/healthz").unwrap();
    assert_eq!(kept.header("connection"), Some("keep-alive"));
    for other in 0..2 {
        let reply = std::thread::spawn(move || client::get(addr, "/healthz").unwrap())
            .join()
            .unwrap();
        assert_eq!(reply.status, 200, "client {other}");
        assert_eq!(reply.header("connection"), Some("close"), "client {other}");
    }
    // This thread's connection is still the first one.
    assert_eq!(handlers_spawned(&server), 2);
    assert_eq!(stat(&server, "connections_accepted"), 3);
    server.shutdown();
}

#[test]
fn idle_keep_alive_closes_silently_but_a_stall_gets_408() {
    let server = Server::start(ServeConfig {
        io_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.write_all(KEEP_ALIVE_GET).unwrap();
    let text = read_one_reply(&mut idle);
    assert!(text.contains("connection: keep-alive\r\n"), "{text}");
    assert_eq!(read_reply(&mut idle), "", "an idle close sends nothing");

    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(KEEP_ALIVE_GET).unwrap();
    read_one_reply(&mut stalled);
    stalled.write_all(b"GET /v1/st").unwrap();
    let text = read_reply(&mut stalled);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected 408, got: {text}"
    );
    server.shutdown();
}

#[test]
fn shutdown_releases_idle_keep_alive_connections() {
    let io_timeout = Duration::from_secs(10);
    let server = Server::start(ServeConfig {
        io_timeout,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut held: Vec<_> = (0..8)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(KEEP_ALIVE_GET).unwrap();
            let text = read_one_reply(&mut stream);
            assert!(text.contains("connection: keep-alive\r\n"), "{text}");
            stream
        })
        .collect();
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < io_timeout / 5, "shutdown took {took:?}");
    for stream in &mut held {
        assert_eq!(read_reply(stream), "");
    }
}

/// The server idles the client's connection out between two requests;
/// the second request goes out again on a fresh connection.
#[test]
fn client_reconnects_once_after_an_idle_close() {
    let server = Server::start(ServeConfig {
        io_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .unwrap();
    assert_eq!(client::get(server.addr(), "/healthz").unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(client::get(server.addr(), "/healthz").unwrap().status, 200);
    assert_eq!(stat(&server, "connections_accepted"), 2);
    server.shutdown();
}
