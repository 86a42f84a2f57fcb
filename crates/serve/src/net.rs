//! The connection layer under the daemon, the router and the clients:
//! one stream type over Unix-domain sockets and TCP, one accept loop,
//! one session loop, and one framed write.
//!
//! Every frame leaves as a single `write_all` of its text and its `\n`
//! ([`write_frame`]), and every TCP stream the crate connects or accepts
//! has `TCP_NODELAY` set. Without both, a frame written token by token
//! went out as several small segments, and the last one waited on
//! Nagle's algorithm for the peer's delayed ACK: about 43 ms per round
//! trip on loopback.

use linguist_support::json::Json;
use std::fmt::Display;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{error_reply, kind, FrameError, FrameReader};

/// How a daemon (a router's shard, a client's target) is addressed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7001`.
    Tcp(String),
}

impl ShardAddr {
    /// Parse `unix:PATH`, `tcp:ADDR`, a bare `/path` (Unix), or a bare
    /// `host:port` (TCP).
    ///
    /// # Errors
    ///
    /// A human-readable message for anything else.
    pub fn parse(s: &str) -> Result<ShardAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(ShardAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(ShardAddr::Tcp(addr.to_string()))
        } else if s.starts_with('/') {
            Ok(ShardAddr::Unix(PathBuf::from(s)))
        } else if s.contains(':') {
            Ok(ShardAddr::Tcp(s.to_string()))
        } else {
            Err(format!(
                "shard address `{}` is neither unix:PATH, tcp:ADDR, /path, nor host:port",
                s
            ))
        }
    }
}

impl Display for ShardAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ShardAddr::Tcp(a) => write!(f, "tcp:{}", a),
        }
    }
}

/// A connected Unix-domain or TCP socket.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A Unix-domain socket.
    Unix(UnixStream),
    /// A TCP socket, always with `TCP_NODELAY` (see [`Stream::tcp`]).
    Tcp(TcpStream),
}

/// Run the same expression on whichever socket a [`Stream`] holds.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $e:expr) => {
        match $stream {
            Stream::Unix($s) => $e,
            Stream::Tcp($s) => $e,
        }
    };
}

impl Stream {
    /// Connect to `addr`. A `timeout` bounds the TCP connect and every
    /// later read and write; `None` blocks.
    ///
    /// # Errors
    ///
    /// Resolution, connect and socket-option failures.
    pub(crate) fn connect(addr: &ShardAddr, timeout: Option<Duration>) -> io::Result<Stream> {
        let stream = match (addr, timeout) {
            (ShardAddr::Unix(path), _) => Stream::Unix(UnixStream::connect(path)?),
            (ShardAddr::Tcp(a), None) => Stream::tcp(TcpStream::connect(a.as_str())?)?,
            (ShardAddr::Tcp(a), Some(t)) => {
                let resolved = a
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::other("address resolves to nothing"))?;
                Stream::tcp(TcpStream::connect_timeout(&resolved, t)?)?
            }
        };
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(stream)
    }

    /// Wrap a TCP socket, switching Nagle's algorithm off.
    ///
    /// # Errors
    ///
    /// The socket-option failure.
    pub(crate) fn tcp(s: TcpStream) -> io::Result<Stream> {
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    /// A second handle on the same socket.
    ///
    /// # Errors
    ///
    /// The `dup` failure.
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Bound each read (`None` blocks forever). The option belongs to
    /// the socket, so every clone shares it.
    ///
    /// # Errors
    ///
    /// The socket-option failure.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(timeout))
    }

    /// Bound each write (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// The socket-option failure.
    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        on_socket!(self, s => s.set_write_timeout(timeout))
    }

    /// Shut both directions down, waking any thread blocked on a clone.
    pub(crate) fn shutdown(&self) {
        let _unused = on_socket!(self, s => s.shutdown(Shutdown::Both));
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        on_socket!(self, s => s.flush())
    }
}

/// Send one frame: `frame`'s text and its `\n`, serialized into one
/// buffer and handed to the writer in a single `write_all`. The buffer
/// lives only as long as the call.
///
/// # Errors
///
/// The write failure.
pub(crate) fn write_frame(w: &mut impl Write, frame: impl Display) -> io::Result<()> {
    w.write_all(format!("{}\n", frame).as_bytes())
}

/// Bind a listening Unix socket at `path` such that the path appears only
/// once the socket is listening: bind at a temporary name in the same
/// directory, then rename it into place. A client that polls for the path
/// can connect as soon as it sees it. The rename also replaces the socket
/// file a dead daemon left behind, the expected restart path.
fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        ".{}.{}.bind",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _unused = std::fs::remove_file(&tmp);
    let listener = UnixListener::bind(&tmp)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _unused = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(listener)
}

/// Where a service listens, and its stop latch.
#[derive(Debug, Default)]
pub(crate) struct Endpoints {
    /// The bound Unix socket path, if one was configured.
    pub(crate) unix_path: Option<PathBuf>,
    /// The bound TCP address, with the real port even for `:0`.
    pub(crate) tcp_addr: Option<SocketAddr>,
    stopping: AtomicBool,
}

impl Endpoints {
    /// Has [`stop`](Endpoints::stop) been called?
    pub(crate) fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Set the stop latch and poke every listener awake, so each
    /// acceptor's blocking `accept` returns and sees the latch. Only the
    /// first call does anything.
    pub(crate) fn stop(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(path) = &self.unix_path {
            let _unused = UnixStream::connect(path);
        }
        if let Some(addr) = self.tcp_addr {
            let _unused = TcpStream::connect(addr);
        }
    }
}

/// A service's bound listeners, before their acceptor threads start.
pub(crate) struct Listeners {
    role: &'static str,
    unix: Option<UnixListener>,
    tcp: Option<TcpListener>,
    endpoints: Arc<Endpoints>,
}

impl Listeners {
    /// Bind the Unix socket and/or the TCP listener a config names.
    /// `role` names the service in errors and thread names.
    ///
    /// # Errors
    ///
    /// Bind failures; `InvalidInput` when neither listener is named.
    pub(crate) fn bind(
        role: &'static str,
        unix_path: Option<&Path>,
        tcp_addr: Option<&str>,
    ) -> io::Result<Listeners> {
        if unix_path.is_none() && tcp_addr.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} config names no listener (unix_path or tcp_addr)", role),
            ));
        }
        let unix = unix_path.map(bind_unix).transpose()?;
        let tcp = tcp_addr.map(TcpListener::bind).transpose()?;
        let endpoints = Endpoints {
            unix_path: unix_path.map(Path::to_path_buf),
            tcp_addr: tcp.as_ref().map(TcpListener::local_addr).transpose()?,
            stopping: AtomicBool::new(false),
        };
        Ok(Listeners {
            role,
            unix,
            tcp,
            endpoints: Arc::new(endpoints),
        })
    }

    /// The bound addresses and the stop latch the acceptors watch.
    pub(crate) fn endpoints(&self) -> Arc<Endpoints> {
        Arc::clone(&self.endpoints)
    }

    /// Start one acceptor thread per listener. Each accepted connection
    /// runs `conn` on a thread of its own, with `idle` as its read
    /// timeout. An acceptor exits at the first accept after
    /// [`Endpoints::stop`].
    ///
    /// # Errors
    ///
    /// Thread-spawn failures.
    pub(crate) fn spawn(
        self,
        idle: Option<Duration>,
        conn: impl Fn(Stream) + Send + Sync + 'static,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        type Accept = Box<dyn FnMut() -> io::Result<Stream> + Send>;
        let conn: Arc<dyn Fn(Stream) + Send + Sync> = Arc::new(conn);
        let unix = self.unix.map(|l| -> (&str, Accept) {
            ("unix", Box::new(move || Ok(Stream::Unix(l.accept()?.0))))
        });
        let tcp = self
            .tcp
            .map(|l| -> (&str, Accept) { ("tcp", Box::new(move || Stream::tcp(l.accept()?.0))) });
        let role = self.role;
        unix.into_iter()
            .chain(tcp)
            .map(|(kind, mut accept)| {
                let endpoints = Arc::clone(&self.endpoints);
                let conn = Arc::clone(&conn);
                std::thread::Builder::new()
                    .name(format!("{}-accept-{}", role, kind))
                    .spawn(move || loop {
                        let next = accept();
                        if endpoints.is_stopping() {
                            return;
                        }
                        if let Ok(stream) = next {
                            let conn = Arc::clone(&conn);
                            let _unused = std::thread::Builder::new()
                                .name(format!("{}-conn", role))
                                .spawn(move || {
                                    let _unused = stream.set_read_timeout(idle);
                                    conn(stream);
                                });
                        }
                    })
            })
            .collect()
    }
}

/// One client session: request frames in, one reply frame per request
/// out, in order.
///
/// `handle` answers one non-blank request line and says whether to stop
/// after replying; `on_stop` then runs once the reply is sent.
/// `on_error` sees the kind of each frame-level error reply:
/// `frame_too_large`, `idle_timeout`, and `bad_request` for a line that
/// is not UTF-8.
///
/// The stream's read timeout is the idle deadline, so one timed-out
/// read *is* the deadline firing. A stall mid-request earns a typed
/// `idle_timeout` reply before the close; a connection that is merely
/// idle between requests is closed silently. Either way the thread is
/// freed, so a slow-loris client cannot pin it.
pub(crate) fn session(
    stream: impl Read + Write,
    max_frame_len: usize,
    handle: impl Fn(&str) -> (Json, bool),
    on_error: impl Fn(&'static str),
    on_stop: impl FnOnce(),
) {
    let mut frames = FrameReader::new(stream, max_frame_len);
    loop {
        let (kind, message) = match frames.read_frame() {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                let (reply, stop) = handle(&line);
                if write_frame(frames.get_mut(), reply).is_err() {
                    return;
                }
                if stop {
                    on_stop();
                    return;
                }
                continue;
            }
            // The frame boundary is lost: reply typed, then close.
            Err(FrameError::TooLarge { limit }) => (
                kind::FRAME_TOO_LARGE,
                format!("request line exceeds the {}-byte frame bound", limit),
            ),
            Err(FrameError::IdleTimeout { mid_frame: true }) => (
                kind::IDLE_TIMEOUT,
                "connection stalled mid-request past the idle deadline".to_string(),
            ),
            // The frame boundary is intact, so reply and carry on.
            Err(FrameError::BadUtf8) => {
                (kind::BAD_REQUEST, "request line is not UTF-8".to_string())
            }
            // A hangup, or a connection quiet past the idle deadline.
            Err(
                FrameError::IdleTimeout { mid_frame: false }
                | FrameError::Eof
                | FrameError::TruncatedFrame
                | FrameError::Io(_),
            ) => return,
        };
        on_error(kind);
        let sent = write_frame(frames.get_mut(), error_reply(kind, &message));
        if sent.is_err() || kind != kind::BAD_REQUEST {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records each `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn shard_addresses_parse_all_four_spellings() {
        assert_eq!(
            ShardAddr::parse("unix:/tmp/s1.sock").unwrap(),
            ShardAddr::Unix(PathBuf::from("/tmp/s1.sock"))
        );
        assert_eq!(
            ShardAddr::parse("/tmp/s2.sock").unwrap(),
            ShardAddr::Unix(PathBuf::from("/tmp/s2.sock"))
        );
        assert_eq!(
            ShardAddr::parse("tcp:127.0.0.1:7001").unwrap(),
            ShardAddr::Tcp("127.0.0.1:7001".to_string())
        );
        assert_eq!(
            ShardAddr::parse("127.0.0.1:7001").unwrap(),
            ShardAddr::Tcp("127.0.0.1:7001".to_string())
        );
        assert!(ShardAddr::parse("nonsense").is_err());
    }

    #[test]
    fn write_frame_sends_one_write_per_frame_with_the_display_bytes() {
        let frames = [
            Json::parse(r#"{"op":"ping"}"#).unwrap(),
            error_reply(kind::BAD_REQUEST, "request line is not UTF-8"),
            Json::parse(r#"{"ok":true,"outputs":{"V":"3"},"wall_ms":0.25,"x":[1,null,"é"]}"#)
                .unwrap(),
        ];
        for json in &frames {
            let mut w = CountingWriter::default();
            write_frame(&mut w, json).unwrap();
            assert_eq!(
                w.writes.len(),
                1,
                "{} left in {} writes",
                json,
                w.writes.len()
            );
            assert_eq!(w.writes[0], format!("{}\n", json).into_bytes());
        }
    }

    #[test]
    fn session_answers_in_order_and_replies_typed_to_frame_errors() {
        /// Canned input on the read side, captured replies on the write side.
        struct Duplex<'a> {
            input: &'a [u8],
            output: Vec<u8>,
        }
        impl Read for Duplex<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex<'_> {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut duplex = Duplex {
            input: b"a\n\n\xff\xfe\nb\nstop\nnever\n",
            output: Vec::new(),
        };
        let errors = std::cell::RefCell::new(Vec::new());
        let stopped = std::cell::Cell::new(false);
        session(
            &mut duplex,
            64,
            |line| (Json::str(line), line == "stop"),
            |k| errors.borrow_mut().push(k),
            || stopped.set(true),
        );
        let bad = error_reply(kind::BAD_REQUEST, "request line is not UTF-8");
        assert_eq!(
            String::from_utf8(duplex.output).unwrap(),
            format!("\"a\"\n{}\n\"b\"\n\"stop\"\n", bad)
        );
        assert_eq!(*errors.borrow(), vec![kind::BAD_REQUEST]);
        assert!(stopped.get());
    }
}
