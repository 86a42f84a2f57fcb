//! A small blocking client for the wire protocol.
//!
//! One [`Client`] is one connection: requests go out as single JSON
//! lines, replies come back one line each, in order. The helpers cover
//! the common requests; [`roundtrip`](Client::roundtrip) takes any
//! [`Json`] request for everything else (and for deliberately
//! malformed test traffic, use a raw socket).

use linguist_support::json::Json;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::net::{write_frame, ShardAddr, Stream};

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connect over the Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Client> {
        Client::wrap(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Connect over TCP.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::wrap(Stream::tcp(TcpStream::connect(addr)?)?)
    }

    /// Connect to a daemon or router address.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &ShardAddr) -> std::io::Result<Client> {
        Client::wrap(Stream::connect(addr, None)?)
    }

    fn wrap(conn: Stream) -> std::io::Result<Client> {
        let reader = BufReader::new(conn.try_clone()?);
        Ok(Client {
            reader,
            writer: conn,
        })
    }

    /// Bound every read and write on this connection. `None` restores
    /// blocking-forever. A reply that misses the deadline surfaces as
    /// a `WouldBlock`/`TimedOut` I/O error from the roundtrip.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_timeouts(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        // Reader and writer are clones of one socket, which holds both
        // options.
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    /// `ping`: cheapest possible liveness roundtrip.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn ping(&mut self) -> std::io::Result<Json> {
        self.roundtrip(&Json::Obj(vec![("op".to_string(), Json::str("ping"))]))
    }

    /// Send one request, read one reply.
    ///
    /// # Errors
    ///
    /// I/O failures; `UnexpectedEof` when the daemon closed the
    /// connection; `InvalidData` when the reply line is not JSON.
    pub fn roundtrip(&mut self, request: &Json) -> std::io::Result<Json> {
        write_frame(&mut self.writer, request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection without replying",
            ));
        }
        Json::parse(line.trim_end()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("reply is not JSON: {}", e),
            )
        })
    }

    /// `load_grammar`: compile (or re-find) a grammar, returning the
    /// full reply (the handle is the `grammar` field).
    ///
    /// # Errors
    ///
    /// Transport failures only; a refused load is an `ok:false` reply.
    pub fn load_grammar(
        &mut self,
        source: &str,
        scanner: Option<&str>,
        name: Option<&str>,
    ) -> std::io::Result<Json> {
        let mut obj = vec![
            ("op".to_string(), Json::str("load_grammar")),
            ("source".to_string(), Json::str(source)),
        ];
        if let Some(s) = scanner {
            obj.push(("scanner".to_string(), Json::str(s)));
        }
        if let Some(n) = name {
            obj.push(("name".to_string(), Json::str(n)));
        }
        self.roundtrip(&Json::Obj(obj))
    }

    /// `translate` concrete input text against a loaded grammar handle.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn translate_input(
        &mut self,
        grammar: &str,
        input: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Json> {
        let mut obj = vec![
            ("op".to_string(), Json::str("translate")),
            ("grammar".to_string(), Json::str(grammar)),
            ("input".to_string(), Json::str(input)),
        ];
        if let Some(d) = deadline_ms {
            obj.push(("deadline_ms".to_string(), Json::int(d as i64)));
        }
        self.roundtrip(&Json::Obj(obj))
    }

    /// `translate` a synthetic derivation of roughly `budget` nodes.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn translate_budget(
        &mut self,
        grammar: &str,
        budget: usize,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Json> {
        let mut obj = vec![
            ("op".to_string(), Json::str("translate")),
            ("grammar".to_string(), Json::str(grammar)),
            ("budget".to_string(), Json::int(budget as i64)),
        ];
        if let Some(d) = deadline_ms {
            obj.push(("deadline_ms".to_string(), Json::int(d as i64)));
        }
        self.roundtrip(&Json::Obj(obj))
    }

    /// `check` a loaded grammar handle: run the `AG0xx` lints and
    /// return the coded-diagnostics reply.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn check(&mut self, grammar: &str) -> std::io::Result<Json> {
        self.roundtrip(&Json::Obj(vec![
            ("op".to_string(), Json::str("check")),
            ("grammar".to_string(), Json::str(grammar)),
        ]))
    }

    /// `check` inline grammar source (compiled through the session
    /// cache; a rejected grammar still gets located findings).
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn check_source(&mut self, source: &str, scanner: Option<&str>) -> std::io::Result<Json> {
        let mut obj = vec![
            ("op".to_string(), Json::str("check")),
            ("source".to_string(), Json::str(source)),
        ];
        if let Some(s) = scanner {
            obj.push(("scanner".to_string(), Json::str(s)));
        }
        self.roundtrip(&Json::Obj(obj))
    }

    /// `stats`: the full counter document.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.roundtrip(&Json::Obj(vec![("op".to_string(), Json::str("stats"))]))
    }

    /// `shutdown`: ask the daemon to stop (the reply arrives before it
    /// does).
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.roundtrip(&Json::Obj(vec![("op".to_string(), Json::str("shutdown"))]))
    }
}
