//! Tier-1 smoke of the serve crate's suites, which otherwise run only
//! under `cargo test --workspace`: connection-level frame hardening and
//! frame mutation, the router's failover and recovery, loopback TCP
//! round-trip latency, and the engine seen through the serve protocol,
//! including the typed `aot_miss` fallback to the interpreter.
//! The suites are compiled in from their own files, so each test has one
//! copy.

#[path = "../crates/serve/tests/engine_serve.rs"]
mod engine_serve;
#[path = "../crates/serve/tests/frame_hardening.rs"]
mod frame_hardening;
#[path = "../crates/serve/tests/router_resilience.rs"]
mod router_resilience;
#[path = "../crates/serve/tests/tcp_latency.rs"]
mod tcp_latency;
