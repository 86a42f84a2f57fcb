//! Umbrella crate for the LINGUIST-86 reproduction workspace.
//!
//! Re-exports every member crate so integration tests and examples can
//! reach the whole system through one dependency. See the individual crates
//! for the real documentation:
//!
//! * [`linguist_support`] — name table, list package, diagnostics.
//! * [`linguist_lexgen`] — scanner generator (regex → minimized DFA).
//! * [`linguist_lalr`] — LALR(1) table builder and parser driver.
//! * [`linguist_ag`] — the attribute-grammar core and its analyses.
//! * [`linguist_eval`] — the file-resident alternating-pass evaluator.
//! * [`linguist_codegen`] — evaluator source-code generation.
//! * [`linguist_engine`] — compiled-evaluator execution engine (AOT, with
//!   interpreter fallback).
//! * [`linguist_frontend`] — the LINGUIST input language and overlay driver.
//! * [`linguist_grammars`] — bundled and synthetic attribute grammars.

pub use linguist_ag as ag;
pub use linguist_codegen as codegen;
pub use linguist_engine as engine;
pub use linguist_eval as eval;
pub use linguist_frontend as frontend;
pub use linguist_grammars as grammars;
pub use linguist_lalr as lalr;
pub use linguist_lexgen as lexgen;
pub use linguist_support as support;
