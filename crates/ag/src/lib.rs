//! The attribute-grammar core of the LINGUIST-86 reproduction.
//!
//! This crate holds the paper's primary contribution as a library:
//!
//! * the attribute-grammar **model** — [`grammar`] with its three symbol
//!   kinds (terminal / nonterminal / limb), four attribute classes
//!   (synthesized / inherited / intrinsic / limb), and multi-target
//!   semantic functions ([`expr`]);
//! * the **implicit copy-rule** mechanism of §IV ([`implicit`]);
//! * the **completeness check** of §I ([`check`]);
//! * the polynomial sufficient **non-circularity test** ([`circularity`]);
//! * the **alternating-pass evaluability analysis** of §II ([`passes`]):
//!   assigning every attribute to one of a sequence of alternating
//!   left-to-right / right-to-left passes;
//! * the **temporary/significant lifetime split** of §III ([`lifetime`]):
//!   deciding which attribute instances must travel through the
//!   intermediate APT files;
//! * **static subsumption** (§III, the paper's headline optimization):
//!   allocating same-named attributes to global variables so copy-rules
//!   vanish ([`subsumption`]);
//! * per-pass, per-production **evaluation plans** ([`plan`]) — the ordered
//!   production-procedure bodies both the runtime interpreter
//!   (`linguist-eval`) and the source generator (`linguist-codegen`)
//!   execute;
//! * grammar **statistics** ([`stats`]) matching the profile the paper
//!   reports for LINGUIST-86's own 1800-line grammar;
//! * [`analysis`] — the orchestrator running all of the above in order;
//! * the **lint framework** ([`lint`]) — coded `AG0xx` diagnostics
//!   explaining what the analyses decided and why (unused attributes,
//!   residual copy-rules, the dependencies that force each pass, …);
//! * the **grammar optimizer** ([`dataflow`]) — a monotone dataflow
//!   framework over the attribute dependency graph, with constant
//!   folding, copy-chain collapsing and dead-attribute elimination,
//!   run before scheduling when [`analysis::Config::optimize`] is set
//!   (the default).
//!
//! # Example
//!
//! ```
//! use linguist_ag::grammar::AgBuilder;
//! use linguist_ag::ids::AttrOcc;
//! use linguist_ag::expr::Expr;
//! use linguist_ag::analysis::{Analysis, Config};
//!
//! // S -> x  with  S.V = x.OBJ
//! let mut b = AgBuilder::new();
//! let s = b.nonterminal("S");
//! let v = b.synthesized(s, "V", "int");
//! let x = b.terminal("x");
//! let obj = b.intrinsic(x, "OBJ", "int");
//! let p = b.production(s, vec![x], None);
//! b.rule(p, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(0, obj)));
//! b.start(s);
//! let g = b.build()?;
//!
//! let analysis = Analysis::run(g, &Config::default())?;
//! assert_eq!(analysis.passes.num_passes(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod check;
pub mod circularity;
pub mod dataflow;
pub mod expr;
pub mod grammar;
pub mod ids;
pub mod implicit;
pub mod lifetime;
pub mod lint;
pub mod passes;
pub mod plan;
pub mod stats;
pub mod subsumption;

pub use analysis::{Analysis, AnalysisError, Config};
pub use dataflow::{OptKind, OptNote, OptReport};
pub use expr::{BinOp, Expr};
pub use grammar::{AgBuilder, AttrClass, Attribute, Grammar, Production, SemRule, SymbolKind};
pub use ids::{AttrId, AttrOcc, OccPos, ProdId, RuleId, SymbolId};
pub use lint::{Finding, LintConfig, SpanMap};
pub use stats::{GrammarProfile, GrammarStats};
