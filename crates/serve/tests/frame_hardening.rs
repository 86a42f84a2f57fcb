//! Connection-level hardening: oversized request lines and stalled
//! (slow-loris) connections must fail typed and must not pin daemon
//! resources, and seeded mutations of valid frames get a typed error or
//! a valid reply from the daemon and the router alike.
//!
//! These tests speak raw sockets on purpose — the malformed traffic
//! they send is exactly what [`linguist_serve::client::Client`]
//! refuses to produce.

use linguist_serve::net::ShardAddr;
use linguist_serve::router::{Router, RouterConfig};
use linguist_serve::server::{Server, ServerConfig, ServerHandle};
use linguist_support::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

const PING: &str = r#"{"op":"ping"}"#;

fn sock_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "linguist-frame-{}-{}-{}.sock",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn start(tag: &str, max_frame_len: usize, idle: Option<Duration>) -> ServerHandle {
    Server::start(ServerConfig {
        unix_path: Some(sock_path(tag)),
        workers: 2,
        queue_capacity: 8,
        max_frame_len,
        idle_timeout: idle,
        ..ServerConfig::default()
    })
    .expect("daemon starts")
}

fn raw(handle: &ServerHandle) -> UnixStream {
    UnixStream::connect(handle.unix_path().expect("unix bound")).expect("connect")
}

fn error_kind(reply: &Json) -> Option<&str> {
    reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
}

#[test]
fn oversized_request_line_gets_frame_too_large_and_the_connection_closes() {
    let handle = start("big", 1024, None);
    let mut conn = raw(&handle);
    // 8 KiB of 'x' with no newline — four times the frame bound.
    let blob = vec![b'x'; 8 * 1024];
    conn.write_all(&blob).expect("write");
    conn.flush().expect("flush");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("typed reply arrives");
    let reply = Json::parse(line.trim_end()).expect("reply is JSON");
    assert_eq!(
        error_kind(&reply),
        Some("frame_too_large"),
        "got: {}",
        reply
    );
    // The daemon hangs up after the typed reply — clean EOF, or a
    // reset (it closed with our unsent garbage still in its receive
    // buffer, so the kernel answers RST). Never more protocol data.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(
            n, 0,
            "daemon kept the connection open after frame_too_large"
        ),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{}", e),
    }
    // And it still serves well-behaved clients.
    let mut good = raw(&handle);
    writeln!(good, "{}", PING).expect("write");
    let mut line = String::new();
    BufReader::new(good).read_line(&mut line).expect("reply");
    let reply = Json::parse(line.trim_end()).expect("reply is JSON");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}

#[test]
fn a_stalled_half_written_request_frees_its_slot() {
    let handle = start("stall", 4 * 1024 * 1024, Some(Duration::from_millis(150)));
    // Write half a request, then stall past the idle deadline.
    let mut stalled = raw(&handle);
    stalled
        .write_all(br#"{"op":"trans"#)
        .expect("half a request");
    stalled.flush().expect("flush");
    let mut reader = BufReader::new(stalled.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("typed reply arrives");
    let reply = Json::parse(line.trim_end()).expect("reply is JSON");
    assert_eq!(error_kind(&reply), Some("idle_timeout"), "got: {}", reply);
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).expect("read to end"),
        0,
        "daemon kept the stalled connection open"
    );
    // The slot is free: a new connection is accepted and served.
    let mut good = raw(&handle);
    writeln!(good, "{}", PING).expect("write");
    let mut line = String::new();
    BufReader::new(good).read_line(&mut line).expect("reply");
    let reply = Json::parse(line.trim_end()).expect("reply is JSON");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}

#[test]
fn an_idle_connection_between_requests_is_closed_silently() {
    let handle = start("idle", 4 * 1024 * 1024, Some(Duration::from_millis(150)));
    let mut conn = raw(&handle);
    // A complete request first, so the idle period is *between* frames.
    writeln!(conn, "{}", PING).expect("write");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    assert!(line.contains("\"ok\":true"), "ping failed: {}", line);
    // Now say nothing. The daemon closes without inventing an error
    // reply (a quiet keep-alive connection is not a protocol fault).
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("read to end");
    assert_eq!(n, 0, "expected silent close, got: {:?}", rest);
    handle.shutdown();
}

/// A daemon or router under test, reachable over Unix and TCP.
struct Target {
    unix: PathBuf,
    tcp: std::net::SocketAddr,
}

impl Target {
    fn connect(&self, tcp: bool) -> Box<dyn ReadWrite> {
        let timeout = Some(Duration::from_secs(5));
        if tcp {
            let s = std::net::TcpStream::connect(self.tcp).expect("connect tcp");
            s.set_read_timeout(timeout).expect("timeout");
            Box::new(s)
        } else {
            let s = UnixStream::connect(&self.unix).expect("connect unix");
            s.set_read_timeout(timeout).expect("timeout");
            Box::new(s)
        }
    }
}

/// A raw socket whose write half can be closed.
trait ReadWrite: Read + Write {
    fn close_write(&self);
}

impl ReadWrite for UnixStream {
    fn close_write(&self) {
        let _unused = self.shutdown(std::net::Shutdown::Write);
    }
}

impl ReadWrite for std::net::TcpStream {
    fn close_write(&self) {
        let _unused = self.shutdown(std::net::Shutdown::Write);
    }
}

/// Send `bytes` and a final newline on a fresh connection, close the
/// write half, and collect every reply line until the peer closes.
fn exchange(target: &Target, tcp: bool, bytes: &[u8]) -> Vec<Json> {
    let mut conn = target.connect(tcp);
    // An oversized frame may be cut off mid-send; the reply still comes.
    let _unused = conn.write_all(bytes).and_then(|()| conn.write_all(b"\n"));
    conn.close_write();
    let mut reader = BufReader::new(conn);
    let mut replies = Vec::new();
    let mut line = String::new();
    // A reset after the last reply (unread request bytes) ends it too.
    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
        let reply = Json::parse(line.trim_end())
            .unwrap_or_else(|e| panic!("reply is not JSON ({}): {:?}", e, line));
        replies.push(reply);
        line.clear();
    }
    replies
}

/// How many replies the session owes for `bytes` plus a final newline:
/// one per non-blank line, and one for a line that is not UTF-8.
fn replies_owed(bytes: &[u8]) -> usize {
    bytes
        .split(|&b| b == b'\n')
        .filter(|line| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            std::str::from_utf8(line).map_or(true, |s| !s.trim().is_empty())
        })
        .count()
}

/// splitmix64, for seeded mutations.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const FRAME_LIMIT: usize = 2048;

/// One seeded mutation of a valid frame, and whether it is oversize.
fn mutate(frame: &[u8], rng: &mut u64) -> (Vec<u8>, bool) {
    let mut out = frame.to_vec();
    let at = (next(rng) % (out.len() as u64 + 1)) as usize;
    match next(rng) % 5 {
        // Byte flip (may itself yield a newline or invalid UTF-8).
        0 => {
            let i = at.min(out.len() - 1);
            out[i] ^= (next(rng) % 255 + 1) as u8;
        }
        1 => out.truncate(at),
        2 => out.insert(at, b'\n'),
        3 => {
            let bad: &[u8] = [&b"\xff"[..], b"\xc3", b"\x80", b"\xed\xa0\x80"][at % 4];
            out.splice(at..at, bad.iter().copied());
        }
        // Far past the bound, so no read can see the newline first.
        _ => {
            out.splice(at..at, std::iter::repeat_n(b'x', FRAME_LIMIT * 8));
            return (out, true);
        }
    }
    (out, false)
}

/// Drive seeded mutations of every valid `frames` entry at `target` over
/// both transports. Every mutated frame gets a valid reply or a typed
/// error, and a ping after each batch proves the process is still up.
fn fuzz_frames(target: &Target, frames: &[String], seed: u64) {
    let mut rng = seed;
    for tcp in [false, true] {
        for frame in frames {
            for _ in 0..32 {
                let (bytes, oversize) = mutate(frame.as_bytes(), &mut rng);
                let replies = exchange(target, tcp, &bytes);
                let owed = if oversize { 1 } else { replies_owed(&bytes) };
                assert_eq!(
                    replies.len(),
                    owed,
                    "{:?} got {:?}",
                    String::from_utf8_lossy(&bytes),
                    replies
                );
                for reply in &replies {
                    match reply.get("ok").and_then(Json::as_bool) {
                        Some(true) => {}
                        Some(false) => assert!(
                            error_kind(reply).is_some_and(|k| !k.is_empty())
                                && reply
                                    .get("error")
                                    .and_then(|e| e.get("message"))
                                    .and_then(Json::as_str)
                                    .is_some(),
                            "untyped error: {}",
                            reply
                        ),
                        None => panic!("reply has no `ok`: {}", reply),
                    }
                }
                if oversize {
                    assert_eq!(error_kind(&replies[0]), Some("frame_too_large"));
                }
            }
            let pong = exchange(target, tcp, PING.as_bytes());
            assert_eq!(pong.len(), 1);
            assert_eq!(pong[0].get("ok").and_then(Json::as_bool), Some(true));
        }
    }
}

/// Valid request frames for a daemon that has `handle` loaded.
fn valid_frames(handle: &str) -> Vec<String> {
    let source = Json::str(&linguist_serve::load::grammar_variant(0)).to_string();
    vec![
        PING.to_string(),
        r#"{"op":"stats"}"#.to_string(),
        format!(r#"{{"op":"load_grammar","source":{}}}"#, source),
        format!(r#"{{"op":"translate","grammar":"{}","budget":6}}"#, handle),
        format!(
            r#"{{"op":"translate_batch","grammar":"{}","jobs":[3,4]}}"#,
            handle
        ),
        format!(r#"{{"op":"check","grammar":"{}"}}"#, handle),
    ]
}

fn both_transports(tag: &str) -> ServerConfig {
    ServerConfig {
        unix_path: Some(sock_path(tag)),
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        queue_capacity: 64,
        max_frame_len: FRAME_LIMIT,
        ..ServerConfig::default()
    }
}

fn load_handle(target: &Target) -> String {
    let source = Json::str(&linguist_serve::load::grammar_variant(0)).to_string();
    let loaded = exchange(
        target,
        false,
        format!(r#"{{"op":"load_grammar","source":{}}}"#, source).as_bytes(),
    );
    loaded[0]
        .get("grammar")
        .and_then(Json::as_str)
        .expect("load replies a handle")
        .to_string()
}

#[test]
fn mutated_frames_get_typed_replies_from_a_daemon_and_a_router() {
    let started = std::time::Instant::now();
    let daemon = Server::start(both_transports("fuzz")).expect("daemon starts");
    let direct = Target {
        unix: daemon.unix_path().expect("unix bound").to_path_buf(),
        tcp: daemon.tcp_addr().expect("tcp bound"),
    };
    let handle = load_handle(&direct);
    fuzz_frames(&direct, &valid_frames(&handle), 0x5eed_0001);

    let router = Router::start(RouterConfig {
        unix_path: Some(sock_path("fuzz-front")),
        tcp_addr: Some("127.0.0.1:0".to_string()),
        shards: vec![ShardAddr::Unix(direct.unix.clone())],
        max_frame_len: FRAME_LIMIT,
        ..RouterConfig::default()
    })
    .expect("router starts");
    let routed = Target {
        unix: router.unix_path().expect("unix bound").to_path_buf(),
        tcp: router.tcp_addr().expect("tcp bound"),
    };
    assert_eq!(load_handle(&routed), handle, "same source, same handle");
    fuzz_frames(&routed, &valid_frames(&handle), 0x5eed_0002);
    eprintln!("mutated frames took {:?}", started.elapsed());
    router.shutdown();
    daemon.shutdown();
}

#[test]
fn the_router_counts_frame_level_errors() {
    let shard = start("count-shard", 4 * 1024 * 1024, None);
    let router = Router::start(RouterConfig {
        unix_path: Some(sock_path("count-front")),
        shards: vec![ShardAddr::Unix(
            shard.unix_path().expect("unix bound").to_path_buf(),
        )],
        max_frame_len: 1024,
        idle_timeout: Some(Duration::from_millis(150)),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let front = router.unix_path().expect("unix bound").to_path_buf();
    let kind_of = |bytes: &[u8]| {
        let mut conn = UnixStream::connect(&front).expect("connect");
        let _unused = conn.write_all(bytes);
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).expect("reply");
        let reply = Json::parse(line.trim_end()).expect("reply is JSON");
        error_kind(&reply).map(str::to_string)
    };
    assert_eq!(kind_of(b"\xff\xfe\n").as_deref(), Some("bad_request"));
    assert_eq!(
        kind_of(&[b'x'; 8 * 1024]).as_deref(),
        Some("frame_too_large")
    );
    // Half a request, then a stall past the idle deadline.
    assert_eq!(kind_of(br#"{"op":"pi"#).as_deref(), Some("idle_timeout"));
    let mut conn = UnixStream::connect(&front).expect("connect");
    writeln!(conn, r#"{{"op":"stats"}}"#).expect("write");
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).expect("reply");
    let stats = Json::parse(line.trim_end()).expect("stats is JSON");
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("errors"))
            .and_then(Json::as_i64),
        Some(3),
        "{}",
        stats
    );
    router.shutdown();
    shard.shutdown();
}
