//! A resident translation service for LINGUIST-86 translators.
//!
//! The paper's toolchain is batch: every run pays the full frontend
//! pipeline (parse, lower, implicit copies, evaluability analysis)
//! before a single input is translated. This crate keeps the compiled
//! grammar *resident* instead — a daemon that compiles each distinct
//! grammar once, caches the result, and answers translation requests
//! from the warm form:
//!
//! * [`store`] — the compiled-grammar session cache: content-hash
//!   keyed, LRU-bounded, single-flighted, shared via `Arc` snapshots.
//! * [`proto`] — the newline-delimited JSON wire protocol
//!   (`load_grammar`, `translate`, `translate_batch`, `stats`,
//!   `shutdown`) with typed error kinds that extend the evaluator's
//!   [`FailureKind`](linguist_eval::batch::FailureKind) taxonomy.
//! * [`pool`] — the admission-controlled worker pool: a bounded queue
//!   that rejects with `overloaded` instead of blocking, panic
//!   isolation per job, queue-wait-aware deadline budgeting.
//! * [`hist`] — a log-linear latency histogram (quantiles within
//!   6.25%, without dependencies or unbounded memory).
//! * [`stats`] — the `Stats` endpoint's aggregation: request
//!   counters, the latency histogram, and every interpreted evaluation's
//!   [`EvalStats`](linguist_eval::machine::EvalStats) record merged into
//!   one running pass-level traffic table.
//! * [`net`] — the connection layer: one Unix-or-TCP stream type, one
//!   accept loop (a thread per connection), one session loop over the
//!   frame reader, and one framed write per reply, with `TCP_NODELAY`
//!   on every TCP socket.
//! * [`server`] — the daemon: Unix-domain socket and/or localhost TCP
//!   listeners, request dispatch, jobs on the pool.
//! * [`client`] — a small blocking client used by the CLI and tests.
//!
//! A single daemon is one fault domain. The sharded tier splits it:
//!
//! * [`router`] — the front process: consistent-hash routing on the
//!   grammar content hash across health-checked shards, with capped
//!   exponential-backoff retry, per-shard circuit breakers, handle
//!   rehydration on failover, and warm-up replication into recovering
//!   shards.
//! * [`chaos`] — a fault-injecting TCP proxy (kill, freeze, drop,
//!   garble, delayed accept) plus seeded deterministic fault
//!   schedules, for proving the router's claims.
//! * [`load`] — an open-loop load generator that measures latency
//!   from *scheduled* arrival, immune to coordinated omission.
//! * [`signal`] — SIGTERM/SIGINT to "begin draining", without a libc
//!   dependency.

pub mod chaos;
pub mod client;
pub mod hist;
pub mod load;
pub mod net;
pub mod pool;
pub mod proto;
pub mod router;
pub mod server;
pub mod signal;
pub mod stats;
pub mod store;

pub use chaos::{ChaosProxy, ChaosSchedule, Fault};
pub use client::Client;
pub use hist::LatencyHistogram;
pub use load::{run_load, LoadConfig, LoadReport};
pub use net::ShardAddr;
pub use pool::{PoolStats, SubmitError, WorkerPool};
pub use proto::{FrameError, FrameReader, GrammarRef, Request, Work};
pub use router::{Router, RouterConfig, RouterHandle, RouterState};
pub use server::{Server, ServerConfig, ServerHandle, ServiceState};
pub use stats::ServiceMetrics;
pub use store::{grammar_key, CompiledGrammar, GrammarStore, LoadError, StoreStats};
