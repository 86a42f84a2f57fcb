//! File-resident alternating-pass attribute evaluation.
//!
//! This crate is the run-time half of the LINGUIST-86 reproduction: the
//! evaluation paradigm of §II executed over the analysis products of
//! `linguist-ag`. The Attributed Parse Tree lives in sequential
//! intermediate files ([`aptfile`]); each pass streams it from one file to
//! the other while a recursive set of production-procedure frames (the
//! [`machine`]) keeps only the current spine in memory — which is how the
//! original ran >42 KB APTs in a 48 KB dynamic-data window.
//!
//! * [`value`] — run-time attribute values and their binary encoding.
//! * [`funcs`] — the external-function library (`UnionSetof`, `IsIn`,
//!   `ConsPF`, …) plus user registration.
//! * [`aptfile`] — bidirectionally readable record files: the output of a
//!   left-to-right pass read backwards is the input of a right-to-left
//!   pass.
//! * [`tree`] — parse trees and both §II strategies for building the
//!   initial file (bottom-up/shift-reduce and prefix emission).
//! * [`machine`] — the interpreter, including the static-subsumption
//!   global-variable protocol with online verification. Every
//!   evaluation returns one [`EvalStats`] record: the boundary-0 totals
//!   and a [`PassStats`] row per pass (file traffic, rules, attribute
//!   instances, function calls).
//! * [`compiled`] — the slot-frame helpers and output encoding that
//!   generated evaluators link alongside everything above.
//! * [`batch`] — parallel evaluation of many independent trees on a
//!   fixed pool of worker threads; their records are summed with
//!   [`EvalStats::merge`].
//!
//! # Example
//!
//! ```
//! use linguist_ag::analysis::{Analysis, Config};
//! use linguist_ag::grammar::AgBuilder;
//! use linguist_ag::expr::{BinOp, Expr};
//! use linguist_ag::ids::{AttrOcc, ProdId};
//! use linguist_eval::funcs::Funcs;
//! use linguist_eval::machine::{evaluate, EvalOptions};
//! use linguist_eval::tree::PTree;
//! use linguist_eval::value::Value;
//!
//! // S -> S x | x, S.V = sum of the leaves' OBJ values.
//! let mut b = AgBuilder::new();
//! let s = b.nonterminal("S");
//! let v = b.synthesized(s, "V", "int");
//! let x = b.terminal("x");
//! let obj = b.intrinsic(x, "OBJ", "int");
//! let p0 = b.production(s, vec![s, x], None);
//! b.rule(p0, vec![AttrOcc::lhs(v)], Expr::binop(
//!     BinOp::Add,
//!     Expr::Occ(AttrOcc::rhs(0, v)),
//!     Expr::Occ(AttrOcc::rhs(1, obj)),
//! ));
//! let p1 = b.production(s, vec![x], None);
//! b.rule(p1, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(0, obj)));
//! b.start(s);
//! let analysis = Analysis::run(b.build()?, &Config::default())?;
//!
//! let leaf = |n| PTree::leaf(x, vec![(obj, Value::Int(n))]);
//! let tree = PTree::node(ProdId(0), vec![
//!     PTree::node(ProdId(1), vec![leaf(1)]),
//!     leaf(2),
//! ]);
//! let result = evaluate(&analysis, &Funcs::standard(), &tree, &EvalOptions::default())?;
//! assert_eq!(result.output(&analysis, "V"), Some(&Value::Int(3)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod aptfile;
pub mod batch;
pub mod compiled;
pub mod crc;
pub mod funcs;
pub mod machine;
pub mod manifest;
pub mod tree;
pub mod value;

pub use aptfile::{
    file_summary, AptError, AptReader, AptWriter, FaultSpec, FaultTarget, FileSummary, HeaderError,
    ReadDir, Record, RecordBody, TempAptDir,
};
pub use batch::{BatchEvaluator, BatchOutcome, BatchStats, EvalBackend, FailureKind, JobFailure};
pub use funcs::{FuncError, Funcs};
pub use machine::{
    apply_binop, evaluate, evaluate_resumable, Backing, EvalError, EvalOptions, EvalStats,
    Evaluation, PassStats, RetryPolicy, Strategy,
};
pub use manifest::{Manifest, ManifestError, PassEntry};
pub use tree::{PTree, TreeError};
pub use value::Value;
