//! The wire protocol: newline-delimited JSON requests and replies.
//!
//! One connection carries a sequence of request lines; every request
//! gets exactly one reply line, in order. Success replies are
//! `{"ok":true, ...}`; failures are
//! `{"ok":false,"error":{"kind":K,"message":M}}` where `K` is a stable
//! machine-readable kind: the evaluator's
//! [`FailureKind`](linguist_eval::batch::FailureKind) names for
//! evaluation failures, plus the service-level kinds below
//! (`overloaded`, `grammar_not_found`, `bad_request`, …). Clients
//! branch on `kind`; `message` is for humans.
//!
//! Requests are tagged with `"op"`:
//!
//! | op                | fields |
//! |-------------------|--------|
//! | `load_grammar`    | `source`, optional `scanner` (bundled-scanner name), optional `name` |
//! | `translate`       | `grammar` (handle) *or* `source`+`scanner`; `input` *or* `budget`; optional `deadline_ms`, `fault` |
//! | `translate_batch` | same grammar addressing; `jobs`: array of strings (inputs) and/or numbers (budgets); optional `deadline_ms` |
//! | `check`           | `grammar` (handle) *or* `source`+`scanner`: run the `AG0xx` lints and return coded diagnostics |
//! | `ping`            | — (liveness probe; answered inline, never queued) |
//! | `stats`           | — |
//! | `shutdown`        | — |
//!
//! Request lines are read through a [`FrameReader`], which enforces a
//! maximum frame length (an adversarial client cannot force unbounded
//! buffering — the reply is a typed `frame_too_large`) and an idle
//! deadline (a slow-loris client that stalls mid-line gets a typed
//! `idle_timeout` and its connection back).

use linguist_eval::batch::FailureKind;
use linguist_eval::machine::EvalError;
use linguist_frontend::translate::TranslateError;
use linguist_support::json::Json;
use std::io::Read;

use crate::store::LoadError;

/// How a request names the grammar it wants to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GrammarRef {
    /// A handle from an earlier `load_grammar` reply (16-hex key).
    Handle(String),
    /// Inline source (load-or-hit by content hash).
    Source {
        /// The grammar text.
        source: String,
        /// Optional bundled-scanner binding.
        scanner: Option<String>,
    },
}

/// The unit of translation work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Work {
    /// Concrete input text — requires the grammar to have a bound
    /// scanner.
    Input(String),
    /// Synthesize a derivation of roughly this many nodes and evaluate
    /// it (works for any grammar; mirrors the profiler's dynamic half).
    Budget(usize),
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compile a grammar into the session cache and return its handle.
    LoadGrammar {
        /// The grammar text.
        source: String,
        /// Optional bundled-scanner binding.
        scanner: Option<String>,
        /// Optional display name for stats.
        name: Option<String>,
    },
    /// Run one translation.
    Translate {
        /// Which grammar.
        grammar: GrammarRef,
        /// What to translate.
        work: Work,
        /// Per-request wall-clock ceiling (milliseconds), inclusive of
        /// queue wait.
        deadline_ms: Option<u64>,
        /// Test support: `"panic"` makes the job panic inside the
        /// worker, exercising the typed `panicked` reply.
        fault: Option<String>,
    },
    /// Run many translations of one grammar through the pool.
    TranslateBatch {
        /// Which grammar.
        grammar: GrammarRef,
        /// The jobs, in reply order.
        jobs: Vec<Work>,
        /// Per-job wall-clock ceiling (milliseconds).
        deadline_ms: Option<u64>,
    },
    /// Run the grammar lints and return coded `AG0xx` diagnostics.
    Check {
        /// Which grammar.
        grammar: GrammarRef,
    },
    /// Liveness probe: answered `{"ok":true}` inline, never queued.
    /// This is what the router's health checker sends.
    Ping,
    /// Service counters, cache contents, queue depth, quantiles.
    Stats,
    /// Stop accepting, drain, exit.
    Shutdown,
}

impl Request {
    /// Parse one request line (already JSON-decoded).
    ///
    /// # Errors
    ///
    /// A human-readable message describing the malformation; the server
    /// wraps it in a `bad_request` reply.
    pub fn parse(j: &Json) -> Result<Request, String> {
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request has no `op` field")?;
        match op {
            "load_grammar" => Ok(Request::LoadGrammar {
                source: req_str(j, "source")?,
                scanner: opt_str(j, "scanner"),
                name: opt_str(j, "name"),
            }),
            "translate" => Ok(Request::Translate {
                grammar: grammar_ref(j)?,
                work: work(j)?,
                deadline_ms: j.get("deadline_ms").and_then(Json::as_u64),
                fault: opt_str(j, "fault"),
            }),
            "translate_batch" => {
                let jobs = j
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or("translate_batch needs a `jobs` array")?
                    .iter()
                    .map(|item| match item {
                        Json::Str(s) => Ok(Work::Input(s.clone())),
                        _ => item
                            .as_u64()
                            .map(|n| Work::Budget(n as usize))
                            .ok_or_else(|| {
                                "each job must be an input string or a budget number".to_string()
                            }),
                    })
                    .collect::<Result<Vec<Work>, String>>()?;
                Ok(Request::TranslateBatch {
                    grammar: grammar_ref(j)?,
                    jobs,
                    deadline_ms: j.get("deadline_ms").and_then(Json::as_u64),
                })
            }
            "check" => Ok(Request::Check {
                grammar: grammar_ref(j)?,
            }),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{}`", other)),
        }
    }
}

fn req_str(j: &Json, field: &str) -> Result<String, String> {
    j.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{}`", field))
}

fn opt_str(j: &Json, field: &str) -> Option<String> {
    j.get(field).and_then(Json::as_str).map(str::to_string)
}

fn grammar_ref(j: &Json) -> Result<GrammarRef, String> {
    match (opt_str(j, "grammar"), opt_str(j, "source")) {
        (Some(handle), None) => Ok(GrammarRef::Handle(handle)),
        (None, Some(source)) => Ok(GrammarRef::Source {
            source,
            scanner: opt_str(j, "scanner"),
        }),
        (Some(_), Some(_)) => Err("give `grammar` or `source`, not both".to_string()),
        (None, None) => Err("request names no grammar (`grammar` or `source`)".to_string()),
    }
}

fn work(j: &Json) -> Result<Work, String> {
    match (opt_str(j, "input"), j.get("budget").and_then(Json::as_u64)) {
        (Some(input), None) => Ok(Work::Input(input)),
        (None, Some(n)) => Ok(Work::Budget(n as usize)),
        (Some(_), Some(_)) => Err("give `input` or `budget`, not both".to_string()),
        (None, None) => Err("translate needs `input` text or a `budget`".to_string()),
    }
}

/// A success reply with the given extra fields.
pub fn ok_reply(fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![("ok".to_string(), Json::Bool(true))];
    obj.extend(fields);
    Json::Obj(obj)
}

/// A failure reply: `{"ok":false,"error":{"kind":…,"message":…}}`.
pub fn error_reply(kind: &str, message: &str) -> Json {
    error_reply_with(kind, message, vec![])
}

/// [`error_reply`] with extra structured fields inside `error` (e.g.
/// the failing frontend `stage` on a compile error).
pub fn error_reply_with(kind: &str, message: &str, extra: Vec<(String, Json)>) -> Json {
    let mut error = vec![
        ("kind".to_string(), Json::str(kind)),
        ("message".to_string(), Json::str(message)),
    ];
    error.extend(extra);
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Obj(error)),
    ])
}

/// Service-level error kinds (the evaluation-level ones are
/// [`FailureKind::as_str`]).
pub mod kind {
    /// The job queue was full; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// No resident grammar has the requested handle.
    pub const GRAMMAR_NOT_FOUND: &str = "grammar_not_found";
    /// The request line did not parse or is self-contradictory.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The frontend rejected the grammar.
    pub const COMPILE: &str = "compile";
    /// Input failed to scan.
    pub const SCAN: &str = "scan";
    /// Input failed to parse.
    pub const PARSE: &str = "parse";
    /// The grammar's CFG is not LALR(1).
    pub const TABLE: &str = "table";
    /// A scanner token kind matched no terminal.
    pub const UNBOUND_TOKEN: &str = "unbound_token";
    /// `LoadGrammar` named a scanner the service does not bundle.
    pub const UNKNOWN_SCANNER: &str = "unknown_scanner";
    /// The service is draining; no new work is accepted.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A request line exceeded the frame-length bound.
    pub const FRAME_TOO_LARGE: &str = "frame_too_large";
    /// The connection stalled mid-frame past the idle deadline.
    pub const IDLE_TIMEOUT: &str = "idle_timeout";
    /// Every candidate shard for the request is ejected or has an open
    /// circuit breaker (router-level).
    pub const SHARD_UNAVAILABLE: &str = "shard_unavailable";
}

/// Whether an `error.kind` marks a *transient* condition that an
/// idempotent request may safely retry against another replica.
///
/// Deliberately conservative: admission-control rejections and drains
/// are transient; evaluation failures (`parse`, `func`, `panicked`, …)
/// are deterministic for the same request and would fail identically
/// elsewhere, and a `deadline` means the request's own budget is spent.
pub fn retryable_kind(kind: &str) -> bool {
    matches!(
        kind,
        kind::OVERLOADED | kind::SHUTTING_DOWN | kind::SHARD_UNAVAILABLE
    )
}

/// The stable error kind for an evaluation failure.
pub fn eval_error_kind(e: &EvalError) -> &'static str {
    FailureKind::of(e).as_str()
}

/// The stable error kind for a translation failure.
pub fn translate_error_kind(e: &TranslateError) -> &'static str {
    match e {
        TranslateError::Table(_) => kind::TABLE,
        TranslateError::Scan(_) => kind::SCAN,
        TranslateError::UnboundToken { .. } => kind::UNBOUND_TOKEN,
        TranslateError::Parse(_) => kind::PARSE,
        TranslateError::Eval(e) => eval_error_kind(e),
    }
}

/// The stable error kind for a session-cache load failure.
pub fn load_error_kind(e: &LoadError) -> &'static str {
    match e {
        LoadError::Compile(_) => kind::COMPILE,
        LoadError::Bind(te) => translate_error_kind(te),
        LoadError::UnknownScanner(_) => kind::UNKNOWN_SCANNER,
    }
}

/// Structured detail for a load failure: a `compile` error carries the
/// failing frontend stage (`syntax`/`lower`/`analysis`/`panicked`, from
/// [`DriverError::kind`](linguist_frontend::driver::DriverError::kind))
/// so clients can tell a fixable grammar from a toolchain defect
/// without parsing prose. The wire `error.kind` stays `compile`.
pub fn load_error_detail(e: &LoadError) -> Vec<(String, Json)> {
    match e {
        LoadError::Compile(d) => vec![("stage".to_string(), Json::str(d.kind()))],
        LoadError::Bind(_) | LoadError::UnknownScanner(_) => vec![],
    }
}

/// Default frame-length bound: far above any real grammar source, far
/// below "the client streams garbage until the daemon OOMs".
pub const DEFAULT_MAX_FRAME_LEN: usize = 4 * 1024 * 1024;

/// Why [`FrameReader::read_frame`] stopped without a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream between frames (normal hangup).
    Eof,
    /// The stream ended mid-frame (client died half-written).
    TruncatedFrame,
    /// The accumulating line crossed the length bound with no newline
    /// in sight: reply `frame_too_large` and close, there is no way to
    /// resynchronize.
    TooLarge {
        /// The enforced bound, for the diagnostic.
        limit: usize,
    },
    /// No bytes arrived within the idle deadline. `mid_frame` says
    /// whether a partial request was pending (slow-loris) or the
    /// connection was simply quiet.
    IdleTimeout {
        /// Partial request bytes were buffered when the deadline hit.
        mid_frame: bool,
    },
    /// The frame is not UTF-8.
    BadUtf8,
    /// Any other transport failure.
    Io(std::io::Error),
}

/// A bounded, deadline-aware line reader for the wire protocol.
///
/// Reads newline-delimited frames from a raw stream whose read timeout
/// the caller has set to the desired idle deadline: a `WouldBlock` /
/// `TimedOut` read is reported as [`FrameError::IdleTimeout`] rather
/// than retried forever, and a line that outgrows `max_len` is cut off
/// with [`FrameError::TooLarge`] instead of buffering without bound.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// How many bytes at the front of `buf` are known to hold no
    /// newline, so each read scans only the bytes it added.
    scanned: usize,
    max_len: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap `inner`, enforcing `max_len` bytes per frame (clamped to at
    /// least 1).
    pub fn new(inner: R, max_len: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            max_len: max_len.max(1),
        }
    }

    /// The wrapped stream (for writing replies on a duplex socket).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Read one `\n`-terminated frame, without the terminator. A frame
    /// may hold at most `max_len` bytes before its newline, however the
    /// bytes arrive.
    ///
    /// # Errors
    ///
    /// See [`FrameError`]. After `TooLarge` the stream cannot be
    /// resynchronized and must be closed.
    pub fn read_frame(&mut self) -> Result<String, FrameError> {
        let mut chunk = [0u8; 4096];
        loop {
            let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            self.scanned = newline.map_or(self.buf.len(), |i| self.scanned + i);
            if self.scanned > self.max_len {
                return Err(FrameError::TooLarge {
                    limit: self.max_len,
                });
            }
            if newline.is_some() {
                let rest = self.buf.split_off(self.scanned + 1);
                self.scanned = 0;
                let mut frame = std::mem::replace(&mut self.buf, rest);
                frame.pop(); // the newline
                if frame.last() == Some(&b'\r') {
                    frame.pop();
                }
                return String::from_utf8(frame).map_err(|_| FrameError::BadUtf8);
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        FrameError::Eof
                    } else {
                        FrameError::TruncatedFrame
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(FrameError::IdleTimeout {
                        mid_frame: !self.buf.is_empty(),
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Request, String> {
        Request::parse(&Json::parse(line).expect("test line is JSON"))
    }

    #[test]
    fn load_grammar_round_trips() {
        let r = parse(r#"{"op":"load_grammar","source":"grammar G ;","scanner":"calc"}"#).unwrap();
        assert_eq!(
            r,
            Request::LoadGrammar {
                source: "grammar G ;".to_string(),
                scanner: Some("calc".to_string()),
                name: None,
            }
        );
    }

    #[test]
    fn translate_by_handle_with_budget() {
        let r =
            parse(r#"{"op":"translate","grammar":"00ff","budget":64,"deadline_ms":250}"#).unwrap();
        assert_eq!(
            r,
            Request::Translate {
                grammar: GrammarRef::Handle("00ff".to_string()),
                work: Work::Budget(64),
                deadline_ms: Some(250),
                fault: None,
            }
        );
    }

    #[test]
    fn translate_by_source_with_input() {
        let r =
            parse(r#"{"op":"translate","source":"grammar G ;","scanner":"calc","input":"1+2"}"#)
                .unwrap();
        match r {
            Request::Translate {
                grammar: GrammarRef::Source { source, scanner },
                work: Work::Input(input),
                ..
            } => {
                assert_eq!(source, "grammar G ;");
                assert_eq!(scanner.as_deref(), Some("calc"));
                assert_eq!(input, "1+2");
            }
            other => panic!("wrong parse: {:?}", other),
        }
    }

    #[test]
    fn batch_jobs_mix_inputs_and_budgets() {
        let r =
            parse(r#"{"op":"translate_batch","grammar":"00ff","jobs":["1+2",32,"3*4"]}"#).unwrap();
        match r {
            Request::TranslateBatch { jobs, .. } => assert_eq!(
                jobs,
                vec![
                    Work::Input("1+2".to_string()),
                    Work::Budget(32),
                    Work::Input("3*4".to_string()),
                ]
            ),
            other => panic!("wrong parse: {:?}", other),
        }
    }

    #[test]
    fn check_parses_both_grammar_addressings() {
        let r = parse(r#"{"op":"check","grammar":"00ff"}"#).unwrap();
        assert_eq!(
            r,
            Request::Check {
                grammar: GrammarRef::Handle("00ff".to_string()),
            }
        );
        let r = parse(r#"{"op":"check","source":"grammar G ;"}"#).unwrap();
        assert!(matches!(
            r,
            Request::Check {
                grammar: GrammarRef::Source { .. }
            }
        ));
        assert!(parse(r#"{"op":"check"}"#)
            .unwrap_err()
            .contains("names no grammar"));
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(parse(r#"{"op":"nope"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse(r#"{"x":1}"#).unwrap_err().contains("op"));
        assert!(parse(r#"{"op":"translate","grammar":"k"}"#)
            .unwrap_err()
            .contains("input"));
        assert!(
            parse(r#"{"op":"translate","grammar":"k","source":"s","budget":1}"#)
                .unwrap_err()
                .contains("not both")
        );
    }

    #[test]
    fn reply_shapes_are_stable() {
        assert_eq!(
            error_reply("overloaded", "queue full").to_string(),
            r#"{"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
        let ok = ok_reply(vec![("grammar".to_string(), Json::str("00ff"))]).to_string();
        assert_eq!(ok, r#"{"ok":true,"grammar":"00ff"}"#);
    }

    #[test]
    fn ping_parses_and_retryability_is_conservative() {
        assert_eq!(parse(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert!(retryable_kind(kind::OVERLOADED));
        assert!(retryable_kind(kind::SHUTTING_DOWN));
        assert!(retryable_kind(kind::SHARD_UNAVAILABLE));
        for terminal in [
            "parse",
            "func",
            "panicked",
            "deadline",
            "compile",
            "bad_request",
        ] {
            assert!(!retryable_kind(terminal), "{} must not retry", terminal);
        }
    }

    #[test]
    fn frame_reader_splits_lines_and_keeps_leftovers() {
        let data = b"{\"op\":\"ping\"}\r\n{\"op\":\"stats\"}\npartial".to_vec();
        let mut r = FrameReader::new(&data[..], 1024);
        assert_eq!(r.read_frame().unwrap(), "{\"op\":\"ping\"}");
        assert_eq!(r.read_frame().unwrap(), "{\"op\":\"stats\"}");
        assert!(matches!(
            r.read_frame().unwrap_err(),
            FrameError::TruncatedFrame
        ));
    }

    #[test]
    fn frame_reader_rejects_oversized_frames_without_buffering_them() {
        // 64 bytes of limit, a 200-byte line: the reader must fail long
        // before a newline ever shows up.
        let data = [b'a'; 200];
        let mut r = FrameReader::new(&data[..], 64);
        assert!(matches!(
            r.read_frame().unwrap_err(),
            FrameError::TooLarge { limit: 64 }
        ));
    }

    /// A `ping` request padded with spaces to `len` bytes, newline
    /// excluded.
    fn ping_line(len: usize) -> Vec<u8> {
        let mut line = b"{\"op\":\"ping\"}".to_vec();
        line.resize(len, b' ');
        line.push(b'\n');
        line
    }

    /// A reader that hands out at most `step` bytes per read.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_bounds_the_bytes_before_the_newline() {
        let line = ping_line(64);
        let mut r = FrameReader::new(&line[..], 64);
        assert_eq!(r.read_frame().unwrap().trim_end(), "{\"op\":\"ping\"}");
        // Each line arrives whole in one read, newline included.
        for len in [65, 1026, 4026] {
            let line = ping_line(len);
            let mut r = FrameReader::new(&line[..], 64);
            assert!(
                matches!(
                    r.read_frame().unwrap_err(),
                    FrameError::TooLarge { limit: 64 }
                ),
                "{}-byte line",
                len
            );
        }
    }

    #[test]
    fn frame_reader_takes_a_large_frame_one_byte_per_read() {
        let line = ping_line(1 << 20);
        let mut r = FrameReader::new(
            Trickle {
                data: &line,
                step: 1,
            },
            DEFAULT_MAX_FRAME_LEN,
        );
        let frame = r.read_frame().unwrap();
        assert_eq!(frame.len(), 1 << 20);
        assert!(parse(&frame).is_ok());
        assert!(matches!(r.read_frame().unwrap_err(), FrameError::Eof));
    }

    #[test]
    fn frame_reader_reports_clean_eof_between_frames() {
        let data = b"{\"op\":\"ping\"}\n".to_vec();
        let mut r = FrameReader::new(&data[..], 1024);
        assert_eq!(r.read_frame().unwrap(), "{\"op\":\"ping\"}");
        assert!(matches!(r.read_frame().unwrap_err(), FrameError::Eof));
    }

    #[test]
    fn eval_failure_kinds_reuse_the_batch_taxonomy() {
        let e = EvalError::Panicked("boom".to_string());
        assert_eq!(eval_error_kind(&e), "panicked");
        assert_eq!(FailureKind::parse("panicked"), Some(FailureKind::Panicked));
        let te = TranslateError::UnboundToken {
            kind: "X".to_string(),
        };
        assert_eq!(translate_error_kind(&te), kind::UNBOUND_TOKEN);
    }
}
